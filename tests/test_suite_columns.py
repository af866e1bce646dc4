"""The column-wise verification suites against per-family references.

The suites in ucf.search read every invariant from one incidence matrix per
domain.  Here the columns are compared with the SetFamily methods, and the
reports with a copy of the earlier suites, which loop over the families one
SetFamily call at a time, on the real families and on random ones served by
a family source (not union-closed, some marked separating that are not)
that make every check fire.
"""

import itertools
import json
import math
import random
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import ucf.bounds as bounds
import ucf.search as search
from ucf import SetFamily, canonical_form, reimer_l_lower, reimer_lower, separation_lower
from ucf.io import family_to_dict

from conftest import family_source

# ---------------------------------------------------------------------------
# the per-family suites the column-wise ones replaced, kept as the reference


def _strictly_above(lhs, rhs):
    return lhs > rhs + 1e-9 * abs(rhs)


def walk_rows(n):
    """(family, is it separating) for every union-closed family on [n]."""
    families = [SetFamily(n, masks) for masks in search._families(n)]
    return [(fam, fam.is_separating()) for fam in families]


def reference_staircase(rows=walk_rows, n_max=4):
    report = search.VerificationReport("staircase-extremality", n_max)
    for n in range(2, n_max + 1):
        best = None
        argmin = []
        for fam in [fam for fam, separating in rows(n) if separating]:
            report.families_checked += 1
            profile = fam.degree_profile()
            if n > profile.size + 1:
                report.flag(fam, "domain-larger-than-size-plus-one")
            relabeled, _ = fam.relabel_by_degree()
            degrees = sorted(profile.degrees)
            for i in range(1, n + 1):
                if degrees[i - 1] < i - 1:
                    report.flag(fam, "degree-floor", element=i, degree=degrees[i - 1])
            full = (1 << n) - 1
            for i in range(1, n):
                suffix = full ^ ((1 << i) - 1)
                bit = 1 << (i - 1)
                if not any(msk & suffix == suffix and not msk & bit for msk in relabeled.masks):
                    report.flag(fam, "missing-suffix-superset", i=i)
            weight = profile.weight
            if best is None or weight < best:
                best, argmin = weight, [fam]
            elif weight == best:
                argmin.append(fam)
        want = separation_lower(n)
        if best != want:
            report.violations.append({"check": "min-weight", "n": n, "got": best, "want": want})
        expected = search._normal_forms(n, 1)
        got = {canonical_form(fam) for fam in argmin}
        if got != expected:
            report.violations.append({
                "check": "extremal-set",
                "n": n,
                "got": sorted(str(k) for k in got),
                "want": sorted(str(k) for k in expected),
            })
    return report


def reference_bounds(rows=walk_rows, n_max=4, l_max=3):
    report = search.VerificationReport("weight-bounds", n_max)
    out_of_regime = Counter()
    for n in range(1, n_max + 1):
        for fam, separating in rows(n):
            m = len(fam)
            if m == 0:
                continue
            report.families_checked += 1
            profile = fam.degree_profile()
            w = profile.weight
            if 4**w < m**m:
                report.flag(fam, "reimer", weight=w, bound=reimer_lower(m))
            power_of_two = m & (m - 1) == 0
            exact_equal = power_of_two and 2 * w == m * (m.bit_length() - 1)
            if exact_equal != (len(fam) == 1 << fam.support_mask().bit_count()):
                report.flag(fam, "reimer-equality-characterization", weight=w)
            if m >= 2:
                max_deg = max(profile.degrees)
                if m**max_deg < 1 << (m - 1):
                    report.flag(fam, "max-degree", max_degree=max_deg)
                if 0 not in fam.masks and m**max_deg < 1 << m:
                    report.flag(fam, "max-degree-no-empty", max_degree=max_deg)
                j = (m.bit_length() - 1) // 2
                for l in range(2, l_max + 1):
                    if m > 4 ** (l - 1):
                        rhs = reimer_l_lower(m, l)
                        w_l = fam.l_fold_weight(l)
                        if not _strictly_above(w_l, rhs):
                            report.flag(fam, "reimer-l-strict", l=l, value=w_l, bound=rhs)
                    elif m != 4**j and (l - 1 - j) % 2 == 0:
                        out_of_regime[(n, m, l)] += 1
            if separating:
                for l in range(1, l_max + 1):
                    w_l = fam.l_fold_weight(l)
                    floor = separation_lower(n, l)
                    if w_l < floor:
                        report.flag(fam, "separation-floor", l=l, value=w_l, bound=floor)
    for (n, m, l), count in sorted(out_of_regime.items()):
        report.skipped.append({
            "reason": "l-fold bound positive outside its regime",
            "n": n, "m": m, "l": l, "families": count,
        })
    return report


def reference_structure(rows=walk_rows, n_max=4, l_max=3):
    report = search.VerificationReport("equality-structure", n_max)
    for n in range(2, n_max + 1):
        families = [fam for fam, separating in rows(n) if separating]
        for l in range(1, min(l_max, n - 1) + 1):
            floor = separation_lower(n, l)
            for fam in families:
                report.families_checked += 1
                if fam.l_fold_weight(l) != floor:
                    continue
                if canonical_form(fam) not in search._normal_forms(n, l):
                    report.flag(fam, "equality-structure", l=l)
    return report


def reference_conjectures(rows=walk_rows, n_max=4, l_max=2):
    report = search.VerificationReport("conjectures", n_max)
    for n in range(1, n_max + 1):
        for fam, _ in rows(n):
            if fam.support_mask() == 0:
                report.skipped.append({"reason": "support-empty", **family_to_dict(fam)})
                continue
            report.families_checked += 1
            m = len(fam)
            for l in range(1, min(l_max, m.bit_length() - 1, n) + 1):
                witness = fam.frankl_witness(l)
                if not witness.meets_threshold:
                    report.flag(
                        fam, "witness-below-threshold",
                        l=l, count=witness.count, threshold=str(witness.threshold),
                    )
    return report


# (suite, reference, keyword arguments) for each setting compared
SUITE_CASES = [
    (search.verify_staircase_extremality, reference_staircase, {})
] + [
    (search.verify_weight_bounds, reference_bounds, {"l_max": l_max}) for l_max in (1, 2, 3, 6)
] + [
    (search.verify_equality_structure, reference_structure, {"l_max": l_max}) for l_max in (1, 3, 6)
] + [
    (search.verify_conjectures, reference_conjectures, {"l_max": l_max}) for l_max in (1, 2, 6)
]

ALL_CHECKS = {
    "reimer", "reimer-equality-characterization", "max-degree", "max-degree-no-empty",
    "reimer-l-strict", "separation-floor", "degree-floor", "missing-suffix-superset",
    "domain-larger-than-size-plus-one", "min-weight", "extremal-set", "equality-structure",
    "witness-below-threshold",
}


def random_families(seed):
    """{n: [(family, marked separating)]} on [n <= 4]: random families,
    closed under union or not, with light members in some, and a random
    share of them (none at n = 2) marked separating, whether they are or
    not."""
    rng = random.Random(seed)
    rows = {}
    for n in range(1, 5):
        fams = []
        for _ in range(40 * n):
            pool = list(range(1 << n))
            if rng.random() < 0.3:
                pool = [mask for mask in pool if mask.bit_count() <= 1]
            masks = rng.sample(pool, rng.randrange(len(pool) + 1))
            fam = SetFamily(n, masks)
            fams.append(fam.union_closure() if rng.random() < 0.3 else fam)
        rows[n] = [(fam, n != 2 and rng.random() < 0.5) for fam in fams]
    return rows


def report_json(report):
    return json.dumps(report.to_dict())


@pytest.mark.parametrize("suite, reference, kwargs", SUITE_CASES)
def test_suite_reports_match_the_per_family_reference(suite, reference, kwargs):
    assert report_json(suite(**kwargs)) == report_json(reference(**kwargs))


@pytest.mark.parametrize("seed", [1, 2])
def test_suite_reports_match_the_reference_on_random_families(seed):
    rows = random_families(seed)
    fired = set()
    for suite, reference, kwargs in SUITE_CASES:
        report = suite(source=family_source(rows), **kwargs)
        want = reference(rows.__getitem__, **kwargs)
        assert report_json(report) == report_json(want), (suite.__name__, kwargs)
        fired |= {v["check"] for v in report.violations}
    assert fired == ALL_CHECKS


# ---------------------------------------------------------------------------
# the columns against the SetFamily methods


def subsets(n, l):
    return list(itertools.combinations(range(1, n + 1), l))


def assert_columns_match_the_methods(families, n):
    cols = search._Columns([fam.masks for fam in families], n)
    profiles = [fam.degree_profile() for fam in families]
    assert cols.size.tolist() == [len(fam) for fam in families]
    assert cols.degrees.tolist() == [list(p.degrees) for p in profiles]
    assert cols.weight.tolist() == [p.weight for p in profiles]
    assert cols.support.tolist() == [fam.support_mask() for fam in families]
    assert cols.has_empty.tolist() == [0 in fam.masks for fam in families]
    assert cols.separating.tolist() == [fam.is_separating() for fam in families]
    assert cols.key.tolist() == [sum(1 << mask for mask in fam.masks) for fam in families]
    order = [tuple(k + 1 for k in row) for row in cols.degree_order().tolist()]
    assert order == [fam.relabel_by_degree()[1] for fam in families]
    for l in range(n + 2):
        assert cols.l_fold_weight(l).tolist() == [fam.l_fold_weight(l) for fam in families], l
    for l in range(1, n + 1):
        index, count = cols.frankl_witness(l)
        got = [(subsets(n, l)[i], c) for i, c in zip(index.tolist(), count.tolist())]
        witnesses = [fam.frankl_witness(l) for fam in families]
        assert got == [(w.subset, w.count) for w in witnesses], l


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_columns_match_the_family_methods(n):
    assert_columns_match_the_methods([fam for fam, _ in walk_rows(n)], n)


@pytest.mark.parametrize("seed", [1, 2])
def test_columns_match_the_family_methods_on_random_families(seed):
    for n, rows in random_families(seed).items():
        assert_columns_match_the_methods([fam for fam, _ in rows], n)


def test_columns_of_no_families_are_empty():
    cols = search._Columns((), 3)
    assert cols.contained.shape == (0, 8)
    assert cols.l_fold_weight(2).tolist() == cols.frankl_witness(2)[1].tolist() == []


# ---------------------------------------------------------------------------
# the exact l-fold Reimer comparison


def reimer_l_decimal(m, l):
    """m * C(log2(m) / 2, l) to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(m).ln() / Decimal(2).ln() / 2
        out = Decimal(m)
        for i in range(l):
            out *= x - i
        return out / math.factorial(l)


@pytest.mark.parametrize("l, sizes", [(2, range(5, 300)), (3, range(17, 600, 7)),
                                      (4, range(65, 3000, 37))])
def test_above_reimer_l_matches_a_high_precision_reference(l, sizes):
    for m in sizes:
        if m & (m - 1) == 0:
            continue
        bound = reimer_l_decimal(m, l)
        base = int(bound)
        for value in (base - 1, base, base + 1, base + 2):
            assert abs(value - bound) > Decimal("1e-40")
            want = 1 if value > bound else -1
            assert bounds.compare_reimer_l(value, m, l) == want, (m, l, value)


@pytest.mark.parametrize("m, l", [(8, 2), (16, 2), (32, 2), (64, 3), (256, 4), (1024, 3)])
def test_above_reimer_l_is_strict_at_powers_of_two(m, l):
    x = Fraction(m.bit_length() - 1, 2)
    bound = m * math.prod(x - i for i in range(l)) / math.factorial(l)
    assert bound.denominator == 1
    value = int(bound)
    assert [bounds.compare_reimer_l(v, m, l) for v in (value - 1, value, value + 1)] == [-1, 0, 1]


@pytest.mark.parametrize("m", [3, 5, 6, 7, 10, 15, 1471, 10**6 + 3])
def test_log2_bracket_holds_log2_m(m):
    brackets = list(itertools.islice(bounds._log2_brackets(m), 6))
    assert [p for p, _, _ in brackets] == [0, 8, 16, 32, 64, 128]
    with localcontext() as ctx:
        ctx.prec = 80
        log2_m = Decimal(m).ln() / Decimal(2).ln()
        for p, a, b in brackets:
            assert 0 < b - a <= 2 and a < log2_m * 2**p < b, (m, p)
            if p <= 8:
                assert 1 << a < m ** (1 << p) < 1 << b


@pytest.mark.parametrize("k", [0, 1, 2, 5, 20, 64])
def test_log2_brackets_start_exact_at_powers_of_two(k):
    assert next(bounds._log2_brackets(1 << k)) == (0, k, k)
