import json
import random

import pytest

from ucf import (
    FamilyFormatError,
    SetFamily,
    family_from_dict,
    family_json,
    family_to_dict,
    format_family_text,
    intermediate,
    load_family,
    loads_family,
    parse_family_text,
    save_family,
    sqrt_regime_pair,
)
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


@pytest.mark.parametrize("n, sets", [
    (3, []), (3, [[]]), (1, []), (1, [[]]), (1, [[1]]), (1, [[], [1]]), (3, [[], [2], [1, 2]]),
])
def test_family_json_matches_json_dumps_on_small_cases(n, sets):
    family = SetFamily.from_sets(n, sets)
    assert family_json(family) == reference_json(family)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 130, 4096])
def test_family_json_matches_json_dumps_on_random_families(n):
    rng = random.Random(n)
    full = (1 << n) - 1
    for size in (0, 1, 2, 5, 17):
        masks = {rng.getrandbits(n) for _ in range(size)}
        masks |= {0, full, 1 << (n - 1)} if size > 2 else set()
        family = SetFamily(n, tuple(masks))
        assert family_json(family) == reference_json(family), (n, sorted(masks))


@pytest.mark.parametrize("r", [10, 11])
def test_family_json_matches_json_dumps_in_the_sqrt_regime(r):
    family, _ = intermediate(*sqrt_regime_pair(r))
    assert family_json(family) == reference_json(family)


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
