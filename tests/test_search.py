import itertools
import math
import random
from collections import Counter

import pytest

import ucf.search as search
from ucf import (
    InvalidInputError,
    SetFamily,
    UnsupportedScaleError,
    canonical_family,
    canonical_form,
    enumerate_union_closed,
    enumerate_union_closed_naive,
    intermediate,
    iter_union_closed,
    min_weight_search,
    satisfiable_grid,
    sqrt_regime_pair,
    staircase,
    sweep_constructions,
    verify_conjectures,
    verify_enumerator_consistency,
    verify_equality_structure,
    verify_staircase_extremality,
    verify_weight_bounds,
)
from ucf.constructions import MAX_M

# Counts of union-closed families on [n], empty family and empty set
# included (OEIS A102896).  The walk's gate checks it against the naive scan
# at n <= 3 and against the count at n = 4; the n = 5 value is checked in the
# slow test.
UC_COUNTS = {1: 4, 2: 14, 3: 122, 4: 4960, 5: 2_771_104}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_counts(n):
    assert enumerate_union_closed(n) == UC_COUNTS[n]


@pytest.mark.slow
def test_enumeration_count_n5():
    assert enumerate_union_closed(5) == UC_COUNTS[5]


def test_enumeration_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        enumerate_union_closed(0)
    with pytest.raises(UnsupportedScaleError):
        enumerate_union_closed(6)


def test_every_enumerated_family_is_union_closed():
    for fam in iter_union_closed(3):
        assert fam.is_union_closed()


def test_max_size_filter():
    count = enumerate_union_closed(3, max_size=2)
    by_hand = sum(1 for fam in iter_union_closed(3) if len(fam) <= 2)
    assert count == by_hand


def test_naive_enumerator_agrees():
    report = verify_enumerator_consistency(3)
    assert report.passed
    assert report.families_checked == 4 + 14 + 122


def test_naive_enumerator_standalone():
    got = Counter(canonical_form(f) for f in enumerate_union_closed_naive(2))
    want = Counter(canonical_form(f) for f in iter_union_closed(2))
    assert got == want


def test_canonical_form_identifies_isomorphs():
    a = SetFamily.from_sets(3, [[1], [1, 2]])
    b = SetFamily.from_sets(3, [[3], [2, 3]])
    c = SetFamily.from_sets(3, [[1], [1, 3]])
    assert canonical_form(a) == canonical_form(b) == canonical_form(c)
    d = SetFamily.from_sets(3, [[1], [2, 3]])
    assert canonical_form(a) != canonical_form(d)


def test_canonical_form_distinguishes_domains():
    a = SetFamily.from_sets(2, [[1]])
    b = SetFamily.from_sets(3, [[1]])
    assert canonical_form(a) != canonical_form(b)


def test_canonical_family_is_fixed_point():
    fam = SetFamily.from_sets(4, [[4], [3, 4], [2, 3, 4]])
    canon = canonical_family(fam)
    assert canonical_form(canon) == canonical_form(fam)
    assert canonical_family(canon).masks == canon.masks


def test_canonical_form_large_domain_path():
    # n = 7 and 8 run the same vectorized pass as small n; n = 9 is refused
    a = SetFamily.from_sets(7, [[7], [6, 7]])
    b = SetFamily.from_sets(7, [[1], [1, 2]])
    assert canonical_form(a) == canonical_form(b)
    with pytest.raises(UnsupportedScaleError):
        canonical_form(SetFamily(9, (1,)))


def canonical_oracle(fam):
    """Plain reference: the least sorted image tuple over every relabeling."""
    best = None
    for perm in itertools.permutations(range(fam.n)):
        key = tuple(sorted(
            sum(1 << perm[j] for j in range(fam.n) if msk >> j & 1) for msk in fam.masks
        ))
        if best is None or key < best:
            best = key
    return (fam.n, best if best is not None else ())


def random_union_closed(rng, n, generators):
    """Union closure of a few random members of [n], the empty set allowed."""
    closed = set()
    for _ in range(generators):
        msk = rng.randrange(1 << n)
        closed |= {msk} | {msk | c for c in closed}
    return SetFamily(n, tuple(sorted(closed)))


def test_canonical_form_matches_oracle():
    rng = random.Random(14)
    cases = [(n, rng.randrange(1, 6)) for n in range(1, 7) for _ in range(12)]
    cases += [(7, 3), (7, 4)]
    for n, generators in cases:
        fam = random_union_closed(rng, n, generators)
        assert canonical_form(fam) == canonical_oracle(fam), fam
    for n in (1, 5, 8):
        assert canonical_form(SetFamily(n, ())) == canonical_oracle(SetFamily(n, ())) == (n, ())


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(15)
    for n in range(1, 9):
        for _ in range(3):
            fam = random_union_closed(rng, n, rng.randrange(1, 6))
            order = rng.sample(range(1, n + 1), n)
            assert canonical_form(fam.relabel(order)) == canonical_form(fam)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_walk_matches_naive_scan(n):
    walk = [frozenset(fam.masks) for fam in iter_union_closed(n)]
    naive = {frozenset(fam.masks) for fam in enumerate_union_closed_naive(n)}
    assert len(set(walk)) == len(walk) == UC_COUNTS[n]
    assert set(walk) == naive


@pytest.mark.parametrize("fault", ["drop-at-2", "repeat-at-2", "drop-at-4", "repeat-at-4"])
def test_gate_catches_a_faulty_walk(monkeypatch, fault):
    real = search._dfs_masks
    bad_n = int(fault[-1])

    def faulty(n, *args, **kwargs):
        for masks in real(n, *args, **kwargs):
            if n == bad_n and masks == (1,):
                if fault.startswith("drop"):
                    continue
                yield masks
            yield masks

    monkeypatch.setattr(search, "_dfs_masks", faulty)
    search._families.cache_clear()
    search._dfs_matches_filter.cache_clear()
    try:
        assert not search._dfs_matches_filter()
        report = verify_enumerator_consistency(3)
        assert not report.passed
        assert "dfs-vs-oracles" in {v["check"] for v in report.violations}
        assert not min_weight_search(3, 2).exhaustive
    finally:
        search._families.cache_clear()
        search._dfs_matches_filter.cache_clear()


def test_min_weight_search_caps_threads_at_cpu_count(monkeypatch):
    # A fake pool records the worker count and runs the parts in turn, so no
    # process is started.
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, argsets):
            return [fn(args) for args in argsets]

    monkeypatch.setattr(search, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    out = min_weight_search(4, 6, threads=100_000)
    assert started == [3]
    assert out.min_value == 9 and out.examined == UC_COUNTS[4]

    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert min_weight_search(4, 6, threads=100_000).min_value == 9
    assert started == [3]  # an unknown CPU count runs serially


def test_min_weight_search_pinned_cells():
    out = min_weight_search(3, 2)
    assert out.min_value == 3
    assert [w.members() for w in out.witnesses] == [[(1,), (1, 2)]]
    assert out.examined == UC_COUNTS[3]
    assert out.exhaustive

    out = min_weight_search(4, 3, 2)
    assert out.min_value == 4
    assert [w.members() for w in out.witnesses] == [[(1,), (1, 2), (1, 2, 3)]]

    out = min_weight_search(2, 4)
    assert out.min_value == 4
    assert len(out.witnesses) == 1  # the full powerset


def test_min_weight_search_matches_floor_for_staircase_cells():
    for n in (2, 3, 4):
        out = min_weight_search(n, n - 1)
        assert out.min_value == math.comb(n, 2)
        assert {w.masks for w in out.witnesses} == {canonical_family(staircase(n)).masks}


def test_min_weight_search_thread_partition_is_invisible():
    seq = min_weight_search(4, 6)
    par = min_weight_search(4, 6, threads=2)
    assert seq.min_value == par.min_value == 9
    assert seq.examined == par.examined
    assert [w.masks for w in seq.witnesses] == [w.masks for w in par.witnesses]


def test_min_weight_search_n5_cells():
    out = min_weight_search(5, 4)
    assert out.min_value == math.comb(5, 2)
    assert len(out.witnesses) == 1
    assert out.exhaustive

    # the built intermediate family is optimal at this cell
    out = min_weight_search(5, 6)
    fam, _ = intermediate(5, 6)
    assert out.min_value == fam.weight() == 11


def test_min_weight_search_sandwich():
    from ucf import min_weight_upper, reimer_lower, separation_lower
    for n, m in ((3, 4), (4, 5), (4, 10)):
        out = min_weight_search(n, m)
        low = max(reimer_lower(m), float(separation_lower(n)))
        assert out.min_value >= low - 1e-9 * max(1.0, low)
        assert out.min_value <= min_weight_upper(n, m) + 1e-9


def test_min_weight_search_validates():
    with pytest.raises(InvalidInputError):
        min_weight_search(3, 1)
    with pytest.raises(InvalidInputError):
        min_weight_search(3, 2, 0)
    with pytest.raises(UnsupportedScaleError):
        min_weight_search(6, 5)


def test_search_outcome_to_dict():
    d = min_weight_search(3, 2).to_dict()
    assert d["min_value"] == 3
    assert d["witnesses"] == [{"n": 3, "sets": [[1], [1, 2]]}]
    assert d["exhaustive"] is True


def test_staircase_extremality_suite():
    report = verify_staircase_extremality(4)
    assert report.passed
    assert report.families_checked == 4456


def test_weight_bounds_suite():
    report = verify_weight_bounds(4)
    assert report.passed
    # the only skipped checks are the positive l-fold bounds below their
    # convexity regime, which occur at sizes 2 and 3 with l = 3
    assert all(s["m"] in (2, 3) and s["l"] == 3 for s in report.skipped)


def test_equality_structure_suite():
    report = verify_equality_structure(4)
    assert report.passed


def test_conjectures_suite():
    report = verify_conjectures(4)
    assert report.passed
    assert all(s["reason"] == "support-empty" for s in report.skipped)
    assert len(report.skipped) == 8  # {} and {{}} for each n


def test_satisfiable_grid():
    grid = satisfiable_grid(3, 100)
    assert (3, 2) in grid and (3, 8) in grid
    assert (3, 1) not in grid and (3, 9) not in grid
    assert len(satisfiable_grid(12, 4096)) == 8136


def test_sqrt_regime_pair():
    assert sqrt_regime_pair(8) == (46, 256)
    assert sqrt_regime_pair(16) == (1024, 65536)
    with pytest.raises(InvalidInputError):
        sqrt_regime_pair(0)


def test_sweep_rows():
    rows = sweep_constructions(6, n_max=4)
    assert [(r.n, r.m) for r in rows] == satisfiable_grid(4, 6)
    for row in rows:
        assert row.lower <= row.w <= row.upper + 1e-9
        if row.ratio_reimer is not None:
            assert row.ratio_reimer >= 1 - 1e-9
        if row.ratio_sep is not None:
            assert row.ratio_sep >= 1 - 1e-9
    with pytest.raises(InvalidInputError):
        sweep_constructions(6)
    with pytest.raises(UnsupportedScaleError):
        sweep_constructions(MAX_M + 1, n_max=1)


def test_sweep_regime_pairs():
    rows = sweep_constructions(256, pairs=[sqrt_regime_pair(8)])
    assert len(rows) == 1
    assert rows[0].n == 46 and rows[0].m == 256
    assert rows[0].w == 1948


def test_search_witness_invariants():
    outcome = min_weight_search(4, 6, l=2)
    assert outcome.exhaustive
    for witness in outcome.witnesses:
        assert witness.n == 4
        assert len(witness) == 6
        assert witness.is_union_closed()
        assert witness.is_separating()
        assert witness.l_fold_weight(2) == outcome.min_value
