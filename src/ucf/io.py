"""Reading and writing families.

The canonical interchange format is JSON: {"n": int, "sets": [[...], ...]}
with every set a list of ascending elements.  A whitespace format is accepted
on input for hand-authored fixtures: first line n, then one set per line as
space-separated elements, with "-" standing for the empty set.
"""

from __future__ import annotations

import json
from itertools import compress
from typing import IO

from .errors import FamilyFormatError, InvalidInputError
from .family import SetFamily


# bin(mask) digits, least significant first, as the 0/1 bytes compress() reads.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def family_to_dict(family: SetFamily) -> dict:
    return {"n": family.n, "sets": [list(s) for s in family.members()]}


def family_json(family: SetFamily) -> str:
    """The text of json.dumps(family_to_dict(family), indent=2) plus a
    newline, written straight from the masks: json's C encoder is not used
    when indent is set, and its Python encoder takes several times longer."""
    lines = [f"      {x}" for x in range(1, family.n + 1)]
    sets = []
    for msk in family.masks:
        bits = bin(msk)[:1:-1].encode().translate(_BIT_BYTES)
        sets.append("    [\n" + ",\n".join(compress(lines, bits)) + "\n    ]" if msk else "    []")
    body = "[\n" + ",\n".join(sets) + "\n  ]" if sets else "[]"
    return f'{{\n  "n": {family.n},\n  "sets": {body}\n}}\n'


def family_from_dict(data) -> SetFamily:
    if not isinstance(data, dict) or set(data) != {"n", "sets"}:
        raise FamilyFormatError('family JSON must have exactly the keys "n" and "sets"')
    n, sets = data["n"], data["sets"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise FamilyFormatError('"n" must be an integer')
    if not isinstance(sets, list):
        raise FamilyFormatError('"sets" must be a list of lists')
    parsed = []
    for s in sets:
        if not isinstance(s, list) or not all(isinstance(x, int) and not isinstance(x, bool) for x in s):
            raise FamilyFormatError(f"set {s!r} must be a list of integers")
        if len(set(s)) != len(s):
            raise FamilyFormatError(f"set {s!r} repeats an element")
        parsed.append(s)
    try:
        return SetFamily.from_sets(n, parsed)
    except InvalidInputError as exc:
        raise FamilyFormatError(str(exc)) from exc


def parse_family_text(text: str) -> SetFamily:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FamilyFormatError("empty family file")
    try:
        n = int(lines[0])
    except ValueError:
        raise FamilyFormatError(f"first line must be the domain size, got {lines[0]!r}") from None
    sets = []
    for ln in lines[1:]:
        if ln == "-":
            sets.append([])
            continue
        try:
            elems = [int(tok) for tok in ln.split()]
        except ValueError:
            raise FamilyFormatError(f"bad set line {ln!r}") from None
        if len(set(elems)) != len(elems):
            raise FamilyFormatError(f"set line {ln!r} repeats an element")
        sets.append(elems)
    try:
        return SetFamily.from_sets(n, sets)
    except InvalidInputError as exc:
        raise FamilyFormatError(str(exc)) from exc


def format_family_text(family: SetFamily) -> str:
    """Inverse of parse_family_text: domain size, then one set per line."""
    lines = [str(family.n)]
    for s in family.members():
        lines.append(" ".join(str(x) for x in s) if s else "-")
    return "\n".join(lines) + "\n"


def loads_family(text: str) -> SetFamily:
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FamilyFormatError(f"bad JSON: {exc}") from exc
        return family_from_dict(data)
    return parse_family_text(text)


def load_family(path) -> SetFamily:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FamilyFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    return loads_family(text)


def dump_family(family: SetFamily, fh: IO[str]) -> None:
    fh.write(family_json(family))


def save_family(family: SetFamily, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_family(family, fh)
