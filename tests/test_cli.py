import csv
import io
import json
import time

import pytest

import ucf.cli as cli
import ucf.constructions as constructions
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


@pytest.mark.parametrize("case", ["analyze-dir", "analyze-not-utf8", "construct-to-dir"])
def test_unreadable_or_unwritable_paths_are_bad_input(tmp_path, capsys, case):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe3\n")
    argv = {
        "analyze-dir": ["analyze", str(tmp_path)],
        "analyze-not-utf8": ["analyze", str(bad)],
        "construct-to-dir": ["construct", "--kind", "staircase", "--n", "3", "-o", str(tmp_path)],
    }[case]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_analyze_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"n": 3, "wrong": []}')
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 2


@pytest.mark.parametrize("name, text", [
    ("zero.json", '{"n": 3, "sets": [[0, 1]]}'),
    ("negative.txt", "3\n-2 1\n"),
])
def test_analyze_rejects_elements_below_one(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "outside domain" in err


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "3", "--m", "4", "--l", "171"],
    ["sweep", "--n-max", "3", "--m-max", "8", "--l", "200"],
])
def test_l_past_the_float_factorials_is_bad_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "l = 170" in err


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "100000", "--m", "5", "--l", "170"],
    ["bounds", "--n", "3", "--m", str(10**400)],
    ["bounds", "--n", "3", "--m", str(10**307), "--format", "json"],
])
def test_bounds_past_the_documented_caps_is_bad_input(capsys, argv):
    # Past n = 4096 or m = 2**20 the floats overflow: a traceback, or an
    # Infinity that is not JSON.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_broken_builder_invariant_exits_1(capsys, monkeypatch):
    # A cap that every weight reaches makes intermediate's own output check fail.
    monkeypatch.setattr(constructions, "below_min_weight_upper", lambda n, m, w: False)
    code, out, err = run(capsys, "construct", "--kind", "intermediate", "--n", "6", "--m", "10")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "reached the cap" in err


def test_suite_violation_exits_1(capsys, monkeypatch):
    # An unreachable separation floor makes the bounds suite flag families.
    monkeypatch.setattr(search, "separation_lower", lambda n, l=1: 10**6)
    code, out, err = run(capsys, "verify", "--suite", "bounds", "--max-n", "2")
    assert code == 1 and "verification failed" in err
    report = json.loads(out)
    assert not report["passed"] and report["violations"][0]["check"] == "separation-floor"


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


@pytest.mark.parametrize("flag, env", [("0", None), ("-3", None), (None, "0")])
def test_search_refuses_fewer_than_one_thread(capsys, monkeypatch, flag, env):
    def no_work(*args, **kwargs):
        raise AssertionError("search started")

    monkeypatch.setattr(search, "ProcessPoolExecutor", no_work)
    monkeypatch.setattr(search, "_scan_cell", no_work)
    if env is not None:
        monkeypatch.setenv("UCF_THREADS", env)
    argv = ["search", "--n", "3", "--m", "2"] + (["--threads", flag] if flag else [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "threads" in err


def test_commands_writing_a_file_leave_stdout_empty(tmp_path, capfd, monkeypatch):
    # capfd sees fd 1 itself, so a write from a forked worker counts too.
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    commands = [
        ["construct", "--kind", "intermediate", "--n", "6", "--m", "10"],
        ["search", "--n", "4", "--m", "6", "--threads", "2"],
        ["verify", "--suite", "all"],
        ["sweep", "--n-max", "4", "--m-max", "8"],
    ]
    for i, argv in enumerate(commands):
        path = tmp_path / f"out{i}"
        assert main(argv + ["-o", str(path)]) == 0
        assert path.stat().st_size > 0
    assert capfd.readouterr().out == ""


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


@pytest.mark.parametrize("suite, max_n", [
    (suite, max_n)
    for suite in ["all", "staircase", "bounds", "structure", "conjectures", "oracles"]
    for max_n in ["5", "6", "0", "-1"]
] + [
    # These suites start at n = 2: n_max = 1 would pass after checking nothing.
    (suite, "1") for suite in ["all", "staircase", "structure"]
])
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


def test_sweep_refuses_a_huge_regime_before_its_arithmetic(capsys, monkeypatch):
    # sqrt_regime_pair(10**9) would square-root a number of a billion bits.
    def refuse(*args):
        raise AssertionError("a regime pair or a family was computed")

    for module in (cli, search):
        monkeypatch.setattr(module, "sqrt_regime_pair", refuse)
    monkeypatch.setattr(search, "intermediate", refuse)
    t0 = time.monotonic()
    code, out, err = run(capsys, "sweep", "--regime", "1000000000")
    assert time.monotonic() - t0 < 1.0
    assert code == 2 and out == ""
    assert err == "error: sweeps supported up to m = 1048576\n"


def test_output_file_writing(tmp_path, capsys):
    out_path = tmp_path / "bounds.csv"
    code, out, _ = run(capsys, "bounds", "--n", "4", "--m", "8", "-o", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("n,m,l,")


@pytest.mark.parametrize("argv, words", [
    (["--n-max", "4097", "--m-max", "8"], "n = 4096"),
    (["--n-max", "4096", "--m-max", "4096"], "8353790 cells"),
    (["--n-max", "20", "--m-max", "8192"], "cells"),
    (["--m-max", "4096", "--regime", "3", "20"], "domain size 4580"),
    (["--n-max", "0", "--m-max", "8"], "n_max >= 1"),
    (["--n-max", "-2", "--m-max", "8"], "n_max >= 1"),
    (["--n-max", "3", "--m-max", "-5"], "m_max >= 0"),
    (["--n-max", "3", "--m-max", "8", "--l", "0"], "l >= 1"),
    (["--regime", "3", "--l", "-1"], "l >= 1"),
    (["--n-max", "3", "--m-max", "8", "--l", "200"], "l = 170"),
    (["--m-max", "8", "--regime", "10"], "m=1024) exceeds m_max = 8"),
    (["--m-max", "8", "--regime", "3", "10"], "m=1024) exceeds m_max = 8"),
])
def test_sweep_refuses_oversized_requests_before_building(capsys, monkeypatch, argv, words):
    def refuse(*args):
        raise AssertionError("a family was built")

    monkeypatch.setattr(search, "intermediate", refuse)
    code, out, err = run(capsys, "sweep", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and words in err

