"""Reduced-size smoke test of the benchmark.

    python3 -m pytest perfbench -q

Each workload runs one small pass per thread setting through the same code
the benchmark uses, then one output is corrupted and the checks must count
exactly that operation as failed.  The traced path is exercised on the same
small inputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ucf = run.import_ucf()


def small(name, seed=3):
    return {
        "grid": lambda: workloads.Grid(seed, size=30, deep=4),
        "wide": lambda: workloads.Wide(seed, rs=range(6, 9)),
        "search": lambda: workloads.Search(seed, ms=(6,)),
        "verify": lambda: workloads.Verify(seed, canon=((6, 4, 15),)),
    }[name]()


def run_small(wl, tmp_path):
    records = []
    for index, threads in enumerate((1, 2)):
        records += run.run_pass(ucf, wl, threads, tmp_path, index)[1]
    return records


def failures(wl, records):
    attempted, failed, messages = run.check_all(ucf, wl, records)
    assert attempted >= len(records)
    return failed, messages


def test_grid_counts_a_weight_below_the_floor(tmp_path):
    wl = small("grid")
    records = run_small(wl, tmp_path)
    assert failures(wl, records) == (0, [])
    n, m, l, w, lower, upper = records[0].output[0]
    records[0].output = [(n, m, l, 0, lower, upper)]
    assert failures(wl, records)[0] == 1


def test_family_check_rejects_non_separating_and_non_closed():
    # Elements 1 and 2 are never told apart.
    assert "family is not separating" in workloads.check_family([[1, 2], [1, 2, 3]], 3, 2)
    # {1} and {2} without {1,2}.
    assert "family is not union-closed" in workloads.check_family([[1], [2]], 2, 2)


def test_wide_counts_a_non_separating_output(tmp_path):
    wl = small("wide")
    records = run_small(wl, tmp_path)
    assert failures(wl, records) == (0, [])
    rec = records[-1]
    n, m = rec.op
    with open(rec.output, encoding="utf-8") as fh:
        data = json.load(fh)
    # Put element 1 exactly where element 2 is.
    data["sets"] = [sorted(set(s) - {1} | ({1} if 2 in s else set())) for s in data["sets"]]
    with open(rec.output, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    assert failures(wl, records)[0] == 1


def test_search_counts_a_wrong_min_value(tmp_path):
    wl = small("search")
    records = run_small(wl, tmp_path)
    assert failures(wl, records) == (0, [])
    rec = records[-1]              # the threads=2 call
    with open(rec.output, encoding="utf-8") as fh:
        outcome = json.load(fh)
    outcome["min_value"] += 1
    with open(rec.output, "w", encoding="utf-8") as fh:
        json.dump(outcome, fh)
    assert failures(wl, records)[0] == 1


def test_search_outcome_check_knows_the_5_6_cell():
    outcome = {"n": 5, "m": 6, "l": 1, "exhaustive": True, "min_value": 12,
               "witnesses": [], "examined": 1}
    errors = workloads.check_search_outcome(outcome, 5, 6, 1, upper=20)
    assert any("known to be 11" in e for e in errors)


def test_verify_counts_a_bad_relabeling_and_a_failed_suite(tmp_path):
    wl = small("verify")
    records = run_small(wl, tmp_path)
    assert failures(wl, records) == (0, [])
    canon = next(r for r in records if r.op[0] == "canonical")
    _, n, masks, _ = canon.op
    canon.output = (canon.output[0], ucf.canonical_form(ucf.SetFamily(n, masks[:-1])))
    assert failures(wl, records)[0] == 1

    with open(records[0].output, encoding="utf-8") as fh:
        reports = json.load(fh)
    reports[0]["violations"] = [{"check": "injected"}]
    reports[0]["passed"] = False
    with open(records[0].output, "w", encoding="utf-8") as fh:
        json.dump(reports, fh)
    assert failures(wl, records)[0] == 2


def test_operation_that_raises_is_a_failure(tmp_path):
    wl = small("grid")
    wl.ops[0] = (3, 99)            # not satisfiable: the package refuses it
    records = run.run_pass(ucf, wl, 1, tmp_path, 0)[1]
    assert records[0].error and failures(wl, records)[0] == 1


@pytest.mark.parametrize("name", ["grid", "search"])
def test_traced_pass_reports_layers(name, tmp_path):
    wl = small(name)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.warm_up(ucf)
        records = run.run_pass(ucf, wl, 1, tmp_path, 0, tracer=tracer)[1]
    finally:
        tracer.uninstall()
    assert failures(wl, records) == (0, [])
    metrics = tracing.layer_metrics(tracer)
    assert metrics["family.init.calls"][0] > 0
    if name == "grid":
        assert metrics["constructions.kernel_calls_per_build"][0] == 4
        assert metrics["bitops.signature_groups.calls"][0] > 0
    else:
        assert metrics["search.dfs.nodes"][0] > 0
        assert 0 < metrics["search.separating_ratio"][0] < 1
    # Every span has an end after its start, and parents precede children.
    ids = {span[0] for span in tracer.spans}
    assert all(s[3] >= s[2] and (s[4] == -1 or s[4] in ids) for s in tracer.spans)
    # Uninstall restored the package.
    assert not hasattr(ucf.family.SetFamily.__post_init__, "__wrapped__")


def test_missing_wrapper_target_makes_its_metric_absent(monkeypatch):
    monkeypatch.delattr(ucf.bitops, "_compress")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert "bitops.tier.compress.calls" not in metrics
    assert "bitops.tier.table.calls" in metrics


def test_partition_share_on_a_small_cell():
    share, notes = run.partition_share(ucf, small("search"))
    assert 0.5 <= share <= 1 and notes


def test_oracles_decide_bounds_exactly():
    # m = 4, a powerset of [2]: weight 4 equals m*log2(m)/2 exactly.
    assert oracles.reimer_holds(4, 4) and not oracles.reimer_holds(3, 4)
    assert oracles.canonical_masks([0b01], 2) == oracles.canonical_masks([0b10], 2)


def test_run_without_the_package_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
