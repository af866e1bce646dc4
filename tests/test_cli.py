import csv
import io
import json

import pytest

import ucf.search as search
from ucf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_json(capsys):
    code, out, _ = run(capsys, "construct", "--kind", "staircase", "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert data == {"n": 4, "sets": [[4], [3, 4], [2, 3, 4]]}


def test_construct_text(capsys):
    code, out, _ = run(capsys, "construct", "--kind", "plateau", "--n", "2", "--format", "text")
    assert code == 0
    assert out == "2\n2\n1\n1 2\n"


def test_construct_intermediate_with_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    out_path = tmp_path / "fam.json"
    code, _, _ = run(capsys, "construct", "--kind", "intermediate", "--n", "6", "--m", "10",
                     "--trace", str(trace_path), "-o", str(out_path))
    assert code == 0
    trace = json.loads(trace_path.read_text())
    assert trace["case"] == "general" and trace["expansion"] == [2, 1, 0]
    fam = json.loads(out_path.read_text())
    assert len(fam["sets"]) == 10


def test_construct_trace_requires_intermediate(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "--kind", "staircase", "--n", "4",
                       "--trace", str(tmp_path / "t.json"))
    assert code == 2
    assert "trace" in err


def test_analyze_reports_invariants(tmp_path, capsys):
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps({"n": 3, "sets": [[3], [2, 3]]}))
    code, out, _ = run(capsys, "analyze", str(fam_path), "--l", "1")
    assert code == 0
    report = json.loads(out)
    assert report["union_closed"] and report["separating"]
    assert report["weight"] == 3
    assert report["degrees"] == [0, 1, 2]
    assert report["witness"]["subset"] == [3]
    assert report["witness"]["count"] == 2
    assert report["witness"]["margin"] == "1"
    assert report["witness"]["meets_threshold"]
    assert report["expected_l_degree"] == "1"
    assert report["reduction_n"] == 3


def test_analyze_reduction_size(tmp_path, capsys):
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps({"n": 3, "sets": [[1, 2], [1, 2, 3]]}))
    code, out, _ = run(capsys, "analyze", str(fam_path))
    report = json.loads(out)
    assert code == 0
    assert not report["separating"]
    assert report["reduction_n"] == 2


def test_analyze_accepts_text_files(tmp_path, capsys):
    fam_path = tmp_path / "fam.txt"
    fam_path.write_text("2\n-\n1\n1 2\n")
    code, out, _ = run(capsys, "analyze", str(fam_path))
    assert code == 0
    assert json.loads(out)["size"] == 3


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/fam.json")
    assert code == 2 and "error" in err


def test_analyze_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"n": 3, "wrong": []}')
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 2


def test_bounds_csv(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "4", "--m", "8")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["n", "m", "l", "reimer"]
    assert rows[1][:6] == ["4", "8", "1", "12", "6", "12"]


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "4", "--m", "8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["upper"] == 30.0 and data["satisfiable"] is True


def test_search_cell(capsys):
    code, out, _ = run(capsys, "search", "--n", "3", "--m", "2")
    assert code == 0
    data = json.loads(out)
    assert data["min_value"] == 3
    assert data["witnesses"] == [{"n": 3, "sets": [[1], [1, 2]]}]


def test_search_reads_thread_env(capsys, monkeypatch):
    monkeypatch.setenv("UCF_THREADS", "2")
    code, out, _ = run(capsys, "search", "--n", "4", "--m", "6")
    assert code == 0
    assert json.loads(out)["min_value"] == 9


def test_search_rejects_malformed_thread_env(capsys, monkeypatch):
    # Refused while parsing the environment, before any worker pool starts.
    monkeypatch.setenv("UCF_THREADS", "abc")
    code, out, err = run(capsys, "search", "--n", "3", "--m", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "UCF_THREADS" in err


def test_search_unsatisfiable(capsys):
    code, _, err = run(capsys, "search", "--n", "3", "--m", "1")
    assert code == 2 and "satisfiable" in err


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracles")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "enumerator-consistency" and report["passed"]


def test_verify_all_lists_reports(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "3")
    assert code == 0
    reports = json.loads(out)
    assert {r["suite"] for r in reports} == {
        "staircase-extremality", "weight-bounds", "equality-structure",
        "conjectures", "enumerator-consistency",
    }
    assert all(r["passed"] for r in reports)


@pytest.mark.parametrize("max_n", ["5", "6"])
@pytest.mark.parametrize(
    "suite", ["all", "staircase", "bounds", "structure", "conjectures", "oracles"])
def test_verify_refuses_uncached_domains(capsys, monkeypatch, suite, max_n):
    # Refused before any enumeration: a walk or scan started here fails.
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(search, "_dfs_masks", no_enumeration)
    monkeypatch.setattr(search, "enumerate_union_closed_naive", no_enumeration)
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", max_n)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "n = 4" in err


def test_construct_refuses_huge_intermediate(capsys):
    code, out, err = run(capsys, "construct", "--kind", "intermediate",
                         "--n", "64", "--m", "1099511627776")
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--n-max", "3", "--m-max", "8")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "m", "l", "w", "lower", "upper", "ratio_reimer", "ratio_sep"]
    assert len(rows) == 1 + 3 + 4 + 7


def test_sweep_regime(capsys):
    code, out, _ = run(capsys, "sweep", "--regime", "8", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["n"] == 46 and rows[0]["m"] == 256 and rows[0]["w"] == 1948


def test_sweep_needs_exactly_one_mode(capsys):
    code, _, err = run(capsys, "sweep")
    assert code == 2
    code, _, err = run(capsys, "sweep", "--n-max", "3", "--regime", "8")
    assert code == 2


def test_output_file_writing(tmp_path, capsys):
    out_path = tmp_path / "bounds.csv"
    code, out, _ = run(capsys, "bounds", "--n", "4", "--m", "8", "-o", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("n,m,l,")
