"""Acceptance gate.

One test per criterion, each printing a single PASS/FAIL line with its
measured values and wall time (visible with -s, or in the captured output on
failure; the per-test PASSED/FAILED lines of pytest -v mirror them).
Criteria 4 and 5 share one construction grid through a module cache.
"""

import math
import time
from collections import Counter

import ucf
from ucf.bounds import below_min_weight_upper, compare_reimer_l
from ucf.search import _families, _separating_families

REL = 1e-9  # relative margin that makes criterion 5's float caps stricter
GRID_N_MAX = 12
GRID_M_MAX = 4096

_cache: dict = {}


def _grid():
    if "grid" not in _cache:
        cells = []
        for n, m in ucf.satisfiable_grid(GRID_N_MAX, GRID_M_MAX):
            fam, trace = ucf.intermediate(n, m)
            cells.append((n, m, fam, trace))
        _cache["grid"] = cells
    return _cache["grid"]


def _line(num: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail} ({time.monotonic() - t0:.1f}s)")


def test_criterion_1_staircase_is_extremal():
    t0 = time.monotonic()
    want_min = {2: 1, 3: 3, 4: 6}
    got_min = {}
    witnesses_ok = True
    for n in (2, 3, 4):
        by_weight: dict[int, set] = {}
        for fam in _separating_families(n):
            by_weight.setdefault(fam.weight(), set()).add(ucf.canonical_form(fam))
        lo = min(by_weight)
        got_min[n] = lo
        floor = ucf.staircase(n)
        expected = {
            ucf.canonical_form(floor),
            ucf.canonical_form(ucf.SetFamily(n, (0,) + floor.masks)),
        }
        if by_weight[lo] != expected:
            witnesses_ok = False
    suite = ucf.verify_staircase_extremality(4)
    ok = got_min == want_min and witnesses_ok and suite.passed
    elapsed = time.monotonic() - t0
    _line(1, ok, f"minimal weights {got_min}, two witnesses per n, suite "
                 f"violations {len(suite.violations)}", t0)
    assert got_min == want_min
    assert witnesses_ok
    assert suite.passed
    assert elapsed < 10.0


def test_criterion_2_reimer_bound_with_powerset_equality():
    t0 = time.monotonic()
    checked = 0
    equalities = 0
    for n in (1, 2, 3, 4):
        for fam in _families(n):
            m = len(fam)
            if m == 0:
                continue
            checked += 1
            sign = compare_reimer_l(fam.weight(), m)
            assert sign >= 0, (n, fam.masks)
            exact_equal = sign == 0
            is_powerset = m == 1 << fam.support_mask().bit_count()
            assert exact_equal == is_powerset, (n, fam.masks)
            equalities += exact_equal
    elapsed = time.monotonic() - t0
    _line(2, True, f"{checked} families, {equalities} powerset equality cases", t0)
    assert elapsed < 30.0


def test_criterion_3_lfold_floors_and_equality_structure():
    t0 = time.monotonic()
    floors = {}
    counts = {}
    for l in (1, 2, 3):
        by_value: dict[int, int] = Counter()
        for fam in _separating_families(4):
            by_value[fam.l_fold_weight(l)] += 1
        floors[l] = min(by_value)
        counts[l] = by_value[floors[l]]
    cell = ucf.min_weight_search(4, 3, 2)
    structure = ucf.verify_equality_structure(4, l_max=3)
    ok = (floors == {1: 6, 2: 4, 3: 1} and cell.min_value == 4 and structure.passed)
    _line(3, ok, f"floors {floors} with {counts} minimizers, search(4,3,2) = "
                 f"{cell.min_value}", t0)
    assert floors == {1: math.comb(4, 2), 2: math.comb(4, 3), 3: math.comb(4, 4)}
    assert counts == {1: 48, 2: 72, 3: 280}
    assert cell.min_value == 4
    assert [w.members() for w in cell.witnesses] == [[(1,), (1, 2), (1, 2, 3)]]
    assert structure.passed


def test_criterion_4_intermediate_grid_sandwich():
    t0 = time.monotonic()
    cells = _grid()
    assert len(cells) == 8136
    for n, m, fam, trace in cells:
        assert len(fam) == m, (n, m)
        w = fam.weight()
        assert compare_reimer_l(w, m) >= 0 and w >= ucf.separation_lower(n), (n, m, w)
        assert below_min_weight_upper(n, m, w), (n, m, w)
    fam_6_10, _ = ucf.intermediate(6, 10)
    elapsed = time.monotonic() - t0
    _line(4, True, f"{len(cells)} satisfiable cells built, closed, separating, "
                   f"sandwiched; w(6,10) = {fam_6_10.weight()}", t0)
    assert fam_6_10.weight() == 27
    assert elapsed < 60.0


def test_criterion_5_subcube_base_caps_are_strict():
    t0 = time.monotonic()
    checked = 0
    for n, m, fam, trace in _grid():
        if trace.case != "general" or not trace.technical:
            continue
        lim = 1 << (trace.b + 1)
        base = ucf.SetFamily(trace.b + 1, tuple(msk for msk in fam.masks if msk < lim))
        e = len(base)
        assert e == trace.base_size
        cap = ucf.subcube_base_weight_cap(e)
        assert base.weight() < cap - REL * cap, (n, m)
        for l in range(1, 5):
            cap_l = ucf.subcube_base_l_weight_cap(e, l)
            assert base.l_fold_weight(l) < cap_l - REL * cap_l, (n, m, l)
        checked += 1
    _line(5, True, f"{checked} technical bases strictly under the weight cap "
                   f"and the l-fold caps for l <= 4", t0)
    assert checked > 8000


def test_criterion_6_sqrt_regime_average_degree():
    t0 = time.monotonic()
    ratios = {}
    for r in range(8, 17):
        n, m = ucf.sqrt_regime_pair(r)
        fam, _ = ucf.intermediate(n, m)
        avg = fam.weight() / n
        scale = math.sqrt(m * math.log2(m))
        ratios[r] = avg / scale
        assert 0.49 <= ratios[r] <= 1.25, (r, ratios[r])
        assert avg >= ucf.avg_degree_lower(m), (r, avg)
    elapsed = time.monotonic() - t0
    lo, hi = min(ratios.values()), max(ratios.values())
    _line(6, True, f"r in 8..16, avg degree over sqrt(m log2 m) within "
                   f"[{lo:.4f}, {hi:.4f}]", t0)
    assert elapsed < 60.0


def test_criterion_7_conjecture_sweep():
    t0 = time.monotonic()
    report = ucf.verify_conjectures(4, l_max=2)
    ok = report.passed and all(s["reason"] == "support-empty" for s in report.skipped)
    _line(7, ok, f"{report.families_checked} families, {len(report.violations)} "
                 f"violations, {len(report.skipped)} support-empty skips", t0)
    assert report.passed
    assert len(report.skipped) == 8
    assert all(s["reason"] == "support-empty" for s in report.skipped)


def test_criterion_8_enumerators_and_double_counting():
    t0 = time.monotonic()
    report = ucf.verify_enumerator_consistency(3)
    families = 0
    for n in (1, 2, 3):
        for fam in _families(n):
            profile = fam.degree_profile()
            assert sum(profile.degrees) == profile.weight == fam.weight()
            assert profile.weight == sum(k * c for k, c in fam.size_histogram().items())
            families += 1
    ok = report.passed
    _line(8, ok, f"canonical multisets agree through n = 3, double counting "
                 f"checked on {families} families", t0)
    assert report.passed
