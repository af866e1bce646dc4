import json
import random
import tracemalloc

import pytest

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


def reference_json(family):
    return json.dumps(family_to_dict(family), indent=2) + "\n"


def assert_parts_match_json_dumps(family):
    parts = list(family_json_parts(family))
    # The header rides with the first member, the closing brackets come last.
    assert len(parts) == max(1, len(family) + 1)
    assert "".join(parts) == family_json(family) == reference_json(family)


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


@pytest.mark.parametrize("k", range(3))
def test_one_run_members_match_the_element_lists_in_text(k):
    family = run_families()[k]
    want = [f"{family.n}\n"] + [" ".join(map(str, elements_of(msk))) + "\n" if msk else "-\n"
                                for msk in family.masks]
    assert list(family_text_parts(family)) == want


def test_construct_and_save_family_write_family_json(tmp_path, capsys):
    family, _ = intermediate(12, 300)
    out = tmp_path / "construct.json"
    assert main(["construct", "--kind", "intermediate", "--n", "12", "--m", "300",
                 "-o", str(out)]) == 0
    saved = tmp_path / "saved.json"
    save_family(family, saved)
    want = reference_json(family).encode()
    assert out.read_bytes() == want
    assert saved.read_bytes() == want
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
    assert capsys.readouterr().out == want
    out = tmp_path / "out"
    assert main(args + ["-o", str(out)]) == 0
    assert out.read_bytes() == want.encode()
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
    assert "".join(fh.writes) == reference_json(family)
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
    assert loads_family((tmp_path / "big.json").read_text()).masks == family.masks
