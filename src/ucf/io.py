"""Reading and writing families.

The canonical interchange format is JSON: {"n": int, "sets": [[...], ...]}
with every set a list of ascending elements.  A whitespace format is accepted
on input for hand-authored fixtures: first line n, then one set per line as
space-separated elements, with "-" standing for the empty set.
"""

from __future__ import annotations

import json
from itertools import accumulate, compress
from typing import IO, Iterator, Sequence

from .errors import FamilyFormatError, InvalidInputError
from .family import SetFamily


# bin(mask) digits, least significant first, as the 0/1 bytes compress() reads.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _member_texts(masks: Sequence[int], tokens: Sequence[str], sep: str) -> Iterator[str]:
    """Each member's tokens joined by sep, "" for the empty set; tokens[k]
    stands for element k+1.

    Let w be the bit length of the widest member that is not one run of
    consecutive elements, and h = ceil(w/2).  When 2**h <= len(masks), so
    that neither table outnumbers the members, two tables hold the joined
    texts of every subset of the low h tokens and of the next w - h, and a
    member below 2**w is one lookup in each.  A member that is one run is
    one slice of all the tokens joined; any other member picks its tokens
    with compress()."""
    joined = sep.join(tokens)
    # starts[k] is where tokens[k] begins in joined; starts[n] lies one
    # separator past its end.
    starts = list(accumulate((len(t) + len(sep) for t in tokens), initial=0))
    w = max((x.bit_length() for x in masks if x & (x + (x & -x))), default=0)
    h = (w + 1) // 2
    limit = 1 << w if 1 << h <= len(masks) else 0
    if limit:
        low, high = [""], [""]
        for table, part in ((low, tokens[:h]), (high, tokens[h:w])):
            for t in part:
                table += [s + sep + t if s else t for s in table]
        low_sep = [s + sep if s else s for s in low]
        below = (1 << h) - 1
    for msk in masks:
        if msk < limit:
            hi = msk >> h
            yield low_sep[msk & below] + high[hi] if hi else low[msk]
            continue
        first = msk & -msk
        if msk & (msk + first):
            yield sep.join(compress(tokens, bin(msk)[:1:-1].encode().translate(_BIT_BYTES)))
        elif msk:
            yield joined[starts[first.bit_length() - 1]:starts[msk.bit_length()] - len(sep)]
        else:
            yield ""


def family_to_dict(family: SetFamily) -> dict:
    return {"n": family.n, "sets": [list(s) for s in family.members()]}


def family_json_parts(family: SetFamily) -> Iterator[str]:
    """The text of json.dumps(family_to_dict(family), indent=2) plus a
    newline, one member at a time: the first part carries the header, the
    last the closing brackets.  It is written straight from the masks: json's
    C encoder is not used when indent is set, and its Python encoder takes
    several times longer.  Each member's lines come from _member_texts: a
    lookup in two half-width subset tables for the narrow members, when
    neither table outnumbers the members, a slice for a run and compress()
    for the rest.  At n = 702, m = 2**15 that takes 22-24 ms, against 43-46
    ms picking every member that is not a run with compress()."""
    head = f'{{\n  "n": {family.n},\n  "sets": '
    if not family.masks:
        yield head + "[]\n}\n"
        return
    lines = [f"      {x}" for x in range(1, family.n + 1)]
    opened, empty = head + "[\n    [\n", head + "[\n    []"
    for text in _member_texts(family.masks, lines, ",\n"):
        yield opened + text + "\n    ]" if text else empty
        opened, empty = ",\n    [\n", ",\n    []"
    yield "\n  ]\n}\n"


def family_json(family: SetFamily) -> str:
    """The whole text of family_json_parts; dump_family and save_family write
    the parts as they come instead."""
    return "".join(family_json_parts(family))


def family_from_dict(data) -> SetFamily:
    if not isinstance(data, dict) or set(data) != {"n", "sets"}:
        raise FamilyFormatError('family JSON must have exactly the keys "n" and "sets"')
    n, sets = data["n"], data["sets"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise FamilyFormatError('"n" must be an integer')
    if not isinstance(sets, list):
        raise FamilyFormatError('"sets" must be a list of lists')
    for s in sets:
        if not isinstance(s, list) or not all(isinstance(x, int) and not isinstance(x, bool) for x in s):
            raise FamilyFormatError(f"set {s!r} must be a list of integers")
        if len(set(s)) != len(s):
            raise FamilyFormatError(f"set {s!r} repeats an element")
    try:
        return SetFamily.from_sets(n, sets)
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


def family_text_parts(family: SetFamily) -> Iterator[str]:
    """Inverse of parse_family_text, one line at a time: domain size, then
    one set per line."""
    yield f"{family.n}\n"
    tokens = [str(x) for x in range(1, family.n + 1)]
    for text in _member_texts(family.masks, tokens, " "):
        yield (text or "-") + "\n"


def format_family_text(family: SetFamily) -> str:
    """The whole text of family_text_parts."""
    return "".join(family_text_parts(family))


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
    fh.writelines(family_json_parts(family))


def save_family(family: SetFamily, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_family(family, fh)
