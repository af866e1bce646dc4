import json
import random
import tracemalloc
from itertools import compress

import pytest

import ucf.io as ucf_io

from ucf import (
    FamilyFormatError,
    SetFamily,
    build,
    dump_family,
    family_from_dict,
    family_json,
    family_json_parts,
    family_text_parts,
    family_to_dict,
    format_family_text,
    intermediate,
    load_family,
    loads_family,
    parse_family_text,
    save_family,
    sqrt_regime_pair,
)
from ucf.bitops import elements_of
from ucf.cli import main


def sample():
    return SetFamily.from_sets(3, [[], [2], [1, 2]])


def test_dict_roundtrip():
    f = sample()
    d = family_to_dict(f)
    assert d == {"n": 3, "sets": [[], [2], [1, 2]]}
    assert family_from_dict(d).masks == f.masks


def test_dict_rejects_wrong_shape():
    with pytest.raises(FamilyFormatError):
        family_from_dict({"n": 3})
    with pytest.raises(FamilyFormatError):
        family_from_dict({"n": 3, "sets": [[1]], "extra": 1})
    with pytest.raises(FamilyFormatError):
        family_from_dict({"n": "3", "sets": []})
    with pytest.raises(FamilyFormatError):
        family_from_dict({"n": 2, "sets": [[5]]})


@pytest.mark.parametrize("data, words", [
    ({"n": 3, "sets": "1 2"}, "must be a list of lists"),
    ({"n": 3, "sets": [[1, "2"]]}, "must be a list of integers"),
    ({"n": 3, "sets": [[True]]}, "must be a list of integers"),
    ({"n": 3, "sets": [[2], [1, 3, 1]]}, "repeats an element"),
])
def test_dict_refuses_bad_sets(tmp_path, capsys, data, words):
    with pytest.raises(FamilyFormatError, match=words):
        family_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["analyze", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and words in err


def test_text_roundtrip():
    f = sample()
    text = format_family_text(f)
    assert text == "3\n-\n2\n1 2\n"
    assert parse_family_text(text).masks == f.masks


def test_text_parse_errors():
    with pytest.raises(FamilyFormatError):
        parse_family_text("")
    with pytest.raises(FamilyFormatError):
        parse_family_text("x\n1 2\n")
    with pytest.raises(FamilyFormatError):
        parse_family_text("3\n1 one\n")
    with pytest.raises(FamilyFormatError):
        parse_family_text("3\n1 1\n")


def test_loads_family_sniffs_format():
    f = sample()
    assert loads_family(json.dumps(family_to_dict(f))).masks == f.masks
    assert loads_family(format_family_text(f)).masks == f.masks
    with pytest.raises(FamilyFormatError):
        loads_family("{not json")


def test_file_roundtrip(tmp_path):
    f = sample()
    path = tmp_path / "fam.json"
    save_family(f, path)
    assert load_family(path).masks == f.masks
    raw = json.loads(path.read_text())
    assert raw["n"] == 3
    path.write_bytes(b"\xff\xfe3\n")
    with pytest.raises(FamilyFormatError, match="UTF-8"):
        load_family(path)


def assert_same(got, want):
    """got == want for two texts, or two sequences of parts or masks.  A
    failure reports the lengths and a short window at the first differing
    offset: pytest's own diff of texts of several hundred kB runs for
    minutes."""
    if got == want:
        return
    at = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo, hi = (max(at - 20, 0), at + 20) if isinstance(got, (str, bytes)) else (at, at + 1)
    pytest.fail(f"lengths {len(got)} and {len(want)}, first difference at offset {at}: "
                f"{got[lo:hi]!r} != {want[lo:hi]!r}", pytrace=False)


def reference_json(family):
    return json.dumps(family_to_dict(family), indent=2) + "\n"


def assert_parts_match_json_dumps(family):
    parts = list(family_json_parts(family))
    # The header rides with the first member, the closing brackets come last.
    assert len(parts) == max(1, len(family) + 1)
    assert_same("".join(parts), reference_json(family))
    assert_same(family_json(family), reference_json(family))


@pytest.mark.parametrize("n, sets", [
    (3, []), (3, [[]]), (1, []), (1, [[]]), (1, [[1]]), (1, [[], [1]]), (3, [[], [2], [1, 2]]),
])
def test_family_json_matches_json_dumps_on_small_cases(n, sets):
    assert_parts_match_json_dumps(SetFamily.from_sets(n, sets))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 130, 4096])
def test_family_json_matches_json_dumps_on_random_families(n):
    rng = random.Random(n)
    full = (1 << n) - 1
    for size in (0, 1, 2, 5, 17):
        masks = {rng.getrandbits(n) for _ in range(size)}
        masks |= {0, full, 1 << (n - 1)} if size > 2 else set()
        assert_parts_match_json_dumps(SetFamily(n, tuple(masks)))


@pytest.mark.parametrize("r", [10, 11])
def test_family_json_matches_json_dumps_in_the_sqrt_regime(r):
    family, _ = intermediate(*sqrt_regime_pair(r))
    assert_parts_match_json_dumps(family)


def interval(a, b):
    """The mask of {a, ..., b}."""
    return (1 << b) - (1 << (a - 1))


# One-run members: prefixes, a mid-domain interval, single elements, the
# whole domain, and intervals across the 9/10, 99/100 and 999/1000 digit
# changes, where the token lengths change.
RUN_N = 1200
RUNS = [(1, k) for k in (1, 9, 10, 99, 100, 999, 1000)] + [
    (500, 650), (7, 7), (10, 10), (RUN_N, RUN_N), (1, RUN_N), (9, 10), (5, 12),
    (99, 100), (95, 105), (100, 100), (999, 1000), (990, 1010), (1000, RUN_N)]


def run_families():
    runs = [interval(a, b) for a, b in RUNS]
    rng = random.Random(9)
    # Members that are not one run, with the empty set, take compress().
    others = [0, 0b101, interval(3, 9) | interval(11, 100), rng.getrandbits(RUN_N)]
    return [SetFamily(RUN_N, tuple(runs)), SetFamily(RUN_N, tuple(others + runs)),
            SetFamily(12, tuple(interval(a, b) for a in range(1, 13) for b in range(a, 13)))]


@pytest.mark.parametrize("k", range(3))
def test_one_run_members_match_json_dumps(k):
    assert_parts_match_json_dumps(run_families()[k])


def element_lines(family):
    """family_text_parts(family) written from elements_of, one line a member."""
    return [f"{family.n}\n"] + [" ".join(map(str, elements_of(msk))) + "\n" if msk else "-\n"
                                for msk in family.masks]


@pytest.mark.parametrize("k", range(3))
def test_one_run_members_match_the_element_lists_in_text(k):
    family = run_families()[k]
    assert_same(list(family_text_parts(family)), element_lines(family))


def assert_both_formats_match(family):
    assert_parts_match_json_dumps(family)
    assert json.loads(family_json(family))["sets"] == [list(elements_of(msk)) for msk in family.masks]
    assert_same(list(family_text_parts(family)), element_lines(family))


def compress_calls(family, monkeypatch):
    """How many members family_json_parts and family_text_parts each pick
    with compress()."""
    calls = []
    monkeypatch.setattr(ucf_io, "compress", lambda *args: calls.append(1) or compress(*args))
    counts = []
    for parts in (family_json_parts, family_text_parts):
        calls.clear()
        list(parts(family))
        counts.append(len(calls))
    return counts


def cap_family(size):
    """Three members that are not one run, the widest 9 bits (h = 5), then
    runs on [12] up to size members: the tables are built from size 32."""
    runs = [interval(a, b) for a in range(1, 13) for b in range(a, 13)]
    return SetFamily(12, (0b100000001, 0b101, 0b11001) + tuple(runs[:size - 3]))


# (n, masks, how many members take compress()).  w is the bit length of the
# widest member that is not one run, h = ceil(w/2), and the tables are built
# when 2**h <= len(masks).  Such a member spans at least three bits, so w is
# never 1 or 2.
TABLE_CASES = [
    # w = 0: only the empty set is below 2**w; every other member is a run.
    pytest.param(5, (0, 0b1, 0b110, 0b11100, 0b11111), 0, id="w0"),
    # w = 3 (odd, h = 2): the empty set and runs below 2**w, runs above it.
    pytest.param(6, (0b101, 0, 0b010, 0b011, 0b111000, 0b111111), 0, id="w3"),
    # w = 4 (even, h = 2).
    pytest.param(6, (0b1001, 0b1011, 0, 0b0110, 0b110000), 0, id="w4"),
    # Every subset of the low w elements, and runs above 2**w.
    pytest.param(12, tuple(range(1 << 7)) + (0b1111 << 8, 1 << 11), 0, id="w7-every-subset"),
    pytest.param(12, tuple(range(1 << 8)) + ((1 << 12) - 1, 0b111 << 8), 0, id="w8-every-subset"),
    pytest.param(12, cap_family(32).masks, 0, id="at-the-cap"),
    pytest.param(12, cap_family(31).masks, 3, id="one-under-the-cap"),
    # w = 40 asks for 2**20 entries a table for five members.
    pytest.param(40, (1 | 1 << 39, 0b101, 0, interval(3, 20), 1 << 39), 2, id="wider-than-the-cap"),
]


@pytest.mark.parametrize("n, masks, compressed", TABLE_CASES)
def test_table_path_matches_json_dumps_and_the_element_lists(n, masks, compressed, monkeypatch):
    family = SetFamily(n, masks)
    assert_both_formats_match(family)
    assert compress_calls(family, monkeypatch) == [compressed, compressed]


def test_construct_and_save_family_write_family_json(tmp_path, capsys):
    family, _ = intermediate(12, 300)
    out = tmp_path / "construct.json"
    assert main(["construct", "--kind", "intermediate", "--n", "12", "--m", "300",
                 "-o", str(out)]) == 0
    saved = tmp_path / "saved.json"
    save_family(family, saved)
    want = reference_json(family).encode()
    assert_same(out.read_bytes(), want)
    assert_same(saved.read_bytes(), want)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fmt, writer", [("json", family_json), ("text", format_family_text)])
@pytest.mark.parametrize("kind, n, m", [("staircase", 4, None), ("intermediate", 70, 1500)])
def test_construct_writes_the_whole_text_to_stdout_and_to_a_file(
        tmp_path, capsys, fmt, writer, kind, n, m):
    family, _ = build(kind, n, m)
    want = writer(family)
    args = ["construct", "--kind", kind, "--n", str(n), "--format", fmt]
    args += ["--m", str(m)] if m is not None else []
    assert main(args) == 0
    assert_same(capsys.readouterr().out, want)
    out = tmp_path / "out"
    assert main(args + ["-o", str(out)]) == 0
    assert_same(out.read_bytes(), want.encode())
    assert capsys.readouterr().out == ""


def test_text_parts_are_one_line_each():
    family = sample()
    parts = list(family_text_parts(family))
    assert parts == ["3\n", "-\n", "2\n", "1 2\n"]
    assert "".join(parts) == format_family_text(family)


class Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def writelines(self, parts):
        for part in parts:
            self.write(part)


def test_dump_family_writes_one_member_at_a_time():
    family, _ = intermediate(*sqrt_regime_pair(10))
    fh = Recorder()
    dump_family(family, fh)
    assert_same("".join(fh.writes), reference_json(family))
    header = len(f'{{\n  "n": {family.n},\n  "sets": [\n')
    # A member's text is its own indent=2 dump, shifted four columns right.
    longest = max(len("    " + json.dumps(s, indent=2).replace("\n", "\n    "))
                  for s in family_to_dict(family)["sets"])
    assert len(fh.writes) == len(family) + 1
    assert max(map(len, fh.writes)) <= header + longest


def test_save_family_holds_one_member_of_text(tmp_path):
    # The whole text is about 2.5 MB at (486, 2**14); one member is at most
    # 486 lines of it.
    family, _ = intermediate(486, 1 << 14)
    tracemalloc.start()
    try:
        save_family(family, tmp_path / "big.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert_same(loads_family((tmp_path / "big.json").read_text()).masks, family.masks)
