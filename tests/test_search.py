import itertools
import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import ucf.search as search
from ucf import (
    InvalidInputError,
    InvariantError,
    SetFamily,
    UnsupportedScaleError,
    canonical_form,
    enumerate_union_closed,
    enumerate_union_closed_naive,
    intermediate,
    iter_union_closed,
    min_weight_search,
    plateau,
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
from ucf.constructions import MAX_M, MAX_SWEEP_CELLS

from conftest import family_source

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


def test_count_builds_no_family(monkeypatch):
    seen = [sum(1 for _ in iter_union_closed(4, max_size=k)) for k in (None, 2, 5)]

    def refuse(*args):
        raise AssertionError("a SetFamily was built")
    monkeypatch.setattr(search, "SetFamily", refuse)
    assert [enumerate_union_closed(4, max_size=k) for k in (None, 2, 5)] == seen
    assert seen[0] == UC_COUNTS[4]


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


def test_canonical_form_is_fixed_point():
    fam = SetFamily.from_sets(4, [[4], [3, 4], [2, 3, 4]])
    canon = SetFamily(*canonical_form(fam))
    assert canonical_form(canon) == canonical_form(fam)
    assert SetFamily(*canonical_form(canon)).masks == canon.masks


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
    for masks in ((0b00010110, 0b11000001, 0b11010111), (0, 0b1000, 0b01100000, 0b01101000)):
        fam = SetFamily(8, masks)
        assert canonical_form(fam) == canonical_oracle(fam), fam
    for n in (1, 5, 8):
        assert canonical_form(SetFamily(n, ())) == canonical_oracle(SetFamily(n, ())) == (n, ())


@lru_cache(maxsize=None)
def reference_bit_images(n):
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))), dtype=np.uint8
    ).reshape(-1, n)
    return np.left_shift(np.uint8(1), perms)


def reference_canonical_form(family):
    """The earlier canonical_form, kept as the reference: every image of
    every member by one matmul over all n! rows, every row sorted, then the
    least row found one column at a time."""
    n = family.n
    masks = np.array(family.masks, dtype=np.uint8)
    bits = (masks[None, :] >> np.arange(n, dtype=np.uint8)[:, None]) & 1
    keys = reference_bit_images(n) @ bits
    keys.sort(axis=1)
    rows = np.arange(keys.shape[0])
    for col in keys.T:
        vals = col[rows]
        rows = rows[vals == vals.min()]
        if rows.size == 1:
            break
    return (n, tuple(keys[rows[0]].tolist()))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_form_matches_reference_on_every_small_family(n):
    for masks in search._families(n):
        fam = SetFamily(n, masks)
        assert canonical_form(fam) == reference_canonical_form(fam), fam


def test_canonical_form_matches_reference_on_random_and_symmetric_families():
    rng = random.Random(27)
    families = []
    for n in range(5, 9):
        for i in range(25):
            fam = random_union_closed(rng, n, rng.randrange(1, 7))
            families.append(SetFamily(n, tuple(sorted({0, *fam.masks}))) if i % 3 == 0 else fam)
    assert sum(0 in fam.masks for fam in families) >= 25
    # Every relabeling of plateau(8), the upper layers and {{}, [8]} reaches
    # the least image, so the first filter keeps all 8! rows; staircase(8)
    # keeps 7! of them.
    upper_layers = SetFamily(8, tuple(x for x in range(256) if x.bit_count() >= 6))
    families += [plateau(8), staircase(8), upper_layers, SetFamily(8, (0, 255))]
    for n in (1, 5, 8):
        families.append(SetFamily(n, ()))
    for fam in families:
        assert canonical_form(fam) == reference_canonical_form(fam), fam


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(15)
    for n in range(1, 9):
        for _ in range(3):
            fam = random_union_closed(rng, n, rng.randrange(1, 6))
            order = rng.sample(range(1, n + 1), n)
            assert canonical_form(fam.relabel(order)) == canonical_form(fam)


@pytest.mark.parametrize("n, size", [(6, 64), (7, 13), (7, 14), (8, 1), (8, 2), (8, 200)])
def test_canonical_form_matches_reference_on_both_sides_of_the_fold(n, size):
    # Past 64 KB of images (size * n! > 2**16, so n >= 7) the members are
    # folded in one at a time; (7, 13) and (7, 14) sit on either side.
    rng = random.Random(n * 1000 + size)
    for _ in range(3):
        masks = tuple(sorted(rng.sample(range(1 << n), size)))
        fam = SetFamily(n, masks)
        assert canonical_form(fam) == reference_canonical_form(fam), fam


def test_canonical_form_never_holds_all_images_past_the_fold():
    # 15 members on [8] have 15 * 8! bytes (605 KB) of images.  Held at once,
    # an array that size gets fresh pages on some calls and not others, by
    # the allocator's history, and each call's time varies with it; past
    # 64 KB the members are folded in one at a time instead.
    fam = SetFamily(8, tuple(sorted(random.Random(3).sample(range(256), 15))))
    canonical_form(fam)  # fills the cached tables
    tracemalloc.start()
    try:
        canonical_form(fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(fam.masks) * math.factorial(8)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_walk_matches_naive_scan(n):
    walk = [frozenset(fam.masks) for fam in iter_union_closed(n)]
    naive = {frozenset(fam.masks) for fam in enumerate_union_closed_naive(n)}
    assert len(set(walk)) == len(walk) == UC_COUNTS[n]
    assert set(walk) == naive


# A fault in _dfs_masks reaches the gate's view of the walk; one in
# _dfs_frames reaches every view, the scan's frames included.
@pytest.mark.parametrize("fault", [
    "drop-at-2", "repeat-at-2", "drop-at-4", "repeat-at-4",
    "frames-drop-at-2", "frames-repeat-at-2", "frames-drop-at-4", "frames-repeat-at-4",
])
def test_gate_catches_a_faulty_walk(monkeypatch, fault):
    target = "_dfs_frames" if fault.startswith("frames") else "_dfs_masks"
    real = getattr(search, target)
    bad_n = int(fault[-1])

    def faulty(n, *args, **kwargs):
        for item in real(n, *args, **kwargs):
            if n == bad_n and item[0] == (1,):
                if "drop" in fault:
                    continue
                yield item
            yield item

    monkeypatch.setattr(search, target, faulty)
    search._families.cache_clear()
    search._walk_columns.cache_clear()
    search._dfs_matches_filter.cache_clear()
    try:
        assert not search._dfs_matches_filter()
        report = verify_enumerator_consistency(3)
        assert not report.passed
        assert "dfs-vs-oracles" in {v["check"] for v in report.violations}
        assert not min_weight_search(3, 2).exhaustive
    finally:
        search._families.cache_clear()
        search._walk_columns.cache_clear()
        search._dfs_matches_filter.cache_clear()


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the process pool with one that records each start and
    shutdown and runs the parts in turn, so no process is started."""
    events = []

    class FakePool:
        def __init__(self, max_workers):
            events.append(("start", max_workers))

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

        def shutdown(self):
            events.append(("shutdown",))

    monkeypatch.setattr(search, "ProcessPoolExecutor", FakePool)
    return events


def test_min_weight_search_caps_threads_at_cpu_count(monkeypatch, fake_pool):
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    out = min_weight_search(4, 6, threads=100_000)
    assert fake_pool == [("start", 3)]
    assert out.min_value == 9 and out.examined == UC_COUNTS[4]

    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert min_weight_search(4, 6, threads=100_000).min_value == 9
    assert fake_pool == [("start", 3)]  # an unknown CPU count runs serially


def test_parallel_searches_share_one_pool(monkeypatch, fake_pool):
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    for _ in range(2):
        assert min_weight_search(4, 6, threads=2).min_value == 9
    assert min_weight_search(4, 6).min_value == 9  # serial: the pool stays
    assert fake_pool == [("start", 2)]
    assert min_weight_search(4, 6, threads=3).min_value == 9
    assert fake_pool == [("start", 2), ("shutdown",), ("start", 3)]


def test_a_pool_with_a_killed_worker_is_replaced(monkeypatch):
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    assert min_weight_search(4, 6, threads=2).min_value == 9
    _, pool = search._pool
    victim = multiprocessing.active_children()[0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=30)
    assert not victim.is_alive()
    with pytest.raises(BrokenProcessPool):
        min_weight_search(4, 6, threads=2)
    assert search._pool is None
    assert min_weight_search(4, 6, threads=2).min_value == 9
    assert search._pool[1] is not pool


def test_pool_workers_do_not_outlive_their_process():
    script = (
        "import multiprocessing, ucf.search as s\n"
        "s.os.cpu_count = lambda: 2\n"
        "s.min_weight_search(4, 6, threads=2)\n"
        "print(*[p.pid for p in multiprocessing.active_children()])\n"
    )
    src = str(Path(search.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


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
        assert {w.masks for w in out.witnesses} == {SetFamily(*canonical_form(staircase(n))).masks}


def test_min_weight_search_thread_partition_is_invisible():
    seq = min_weight_search(4, 6)
    par = min_weight_search(4, 6, threads=2)
    assert seq.min_value == par.min_value == 9
    assert seq.examined == par.examined
    assert [w.masks for w in seq.witnesses] == [w.masks for w in par.witnesses]


SPLIT_CASES = [(n, None) for n in range(1, 5)] + [(5, size) for size in range(6)]


@pytest.mark.parametrize("nparts", [1, 2, 3, 7])
@pytest.mark.parametrize("n, max_size", SPLIT_CASES)
def test_walk_parts_partition_the_serial_walk(n, max_size, nparts):
    serial = list(search._dfs_masks(n, max_size))
    parts = [list(search._dfs_masks(n, max_size, part, nparts)) for part in range(nparts)]
    for a, b in itertools.combinations(parts, 2):
        assert not set(a) & set(b)
    assert Counter(itertools.chain.from_iterable(parts)) == Counter(serial)


@lru_cache(maxsize=None)
def reference_walk(n, max_size):
    """Plain recursive walk: from each node, add every smaller mask that
    keeps the family union-closed, largest first, up to max_size members.
    Returns the nodes in preorder, the empty family first."""
    cap = (1 << n) if max_size is None else max_size
    nodes = [()]

    def visit(node):
        for a in range(min(node, default=1 << n) - 1, -1, -1):
            if all((a | s) in node for s in node):
                nodes.append(node + (a,))
                if len(node) + 1 < cap:
                    visit(node + (a,))

    if cap > 0:
        visit(())
    return tuple(nodes)


def reference_part(nodes, part, nparts):
    """The nodes part k of nparts owns: those below the depth-SPLIT_DEPTH
    nodes whose preorder index is k mod nparts, and, for part 0, the
    shallower ones."""
    depth = search.SPLIT_DEPTH
    index = {node: i for i, node in enumerate(x for x in nodes if len(x) == depth)}

    def owner(node):
        return 0 if len(node) < depth else index[node[:depth]] % nparts

    return [node for node in nodes if owner(node) == part]


WALK_CASES = ([(n, None) for n in range(1, 5)] + [(4, size) for size in (0, 1, 4, 5, 9)]
              + [(5, size) for size in range(7)])


@pytest.mark.parametrize("nparts", [1, 2, 3, 7])
@pytest.mark.parametrize("n, max_size", WALK_CASES)
def test_walk_matches_recursive_reference(n, max_size, nparts):
    nodes = reference_walk(n, max_size)
    popcount = [a.bit_count() for a in range(1 << n)]
    pairs = [math.comb(a.bit_count(), 2) for a in range(1 << n)]
    for table, cost in ((None, popcount), (pairs, pairs)):
        for part in range(nparts):
            walk = list(search._dfs_masks(n, max_size, part, nparts, table))
            assert [masks for masks, _ in walk] == reference_part(nodes, part, nparts)
            assert all(weight == sum(cost[a] for a in masks) for masks, weight in walk)


def test_split_balances_the_n5_m8_cell():
    examined = [search._scan_cell(5, 8, 1, part, 2)[2] for part in range(2)]
    assert sum(examined) == sum(1 for _ in search._dfs_masks(5, 8))
    assert max(examined) / sum(examined) <= 0.6


def reference_scans(n, cells):
    """Plain reference for _scan_cell: a SetFamily for every walked family,
    no weight skip.  Returns {(m, l): (best, witness keys, examined)}."""
    deepest = None if n <= search.CACHED_MAX_N else max(m for m, _ in cells)
    families = [SetFamily(n, masks) for masks, _ in search._dfs_masks(n, deepest)]
    separating = [fam for fam in families if fam.is_separating()]
    out = {}
    for m, l in cells:
        best, keys = None, set()
        for fam in separating:
            if len(fam) != m:
                continue
            value = fam.l_fold_weight(l)
            if best is None or value < best:
                best, keys = value, set()
            if value == best:
                keys.add(canonical_form(fam))
        examined = len(families) if deepest is None else sum(len(f) <= m for f in families)
        out[(m, l)] = (best, keys, examined)
    return out


def scan_sizes(n):
    return range(n - 1, (1 << n) + 1) if n <= search.CACHED_MAX_N else range(4, 8)


@pytest.mark.parametrize("n, cells", [
    *(pytest.param(n, [(m, l) for m in scan_sizes(n) for l in (1, 2, 3)], id=str(n))
      for n in range(1, 6)),
    # The heaviest cell of perfbench's search workload.
    pytest.param(5, [(8, 1), (8, 2)], id="5-m8"),
])
def test_scan_cell_matches_plain_reference(n, cells):
    for (m, l), (best, keys, examined) in reference_scans(n, cells).items():
        got_best, got_witnesses, got_examined = search._scan_cell(n, m, l, 0, 1)
        assert (got_best, set(got_witnesses), got_examined) == (best, keys, examined), (n, m, l)


@pytest.mark.parametrize("nparts", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_scan_cell_parts_merge_to_plain_reference(n, nparts):
    # At n = 5, m = 4 puts the size cap at SPLIT_DEPTH, where the leaves
    # are dealt to the parts one by one instead of handed over in a set.
    # Each part examines exactly the nodes it owns.
    cells = [(m, l) for m in scan_sizes(n) for l in (1, 2)]
    for (m, l), want in reference_scans(n, cells).items():
        parts = [search._scan_cell(n, m, l, part, nparts) for part in range(nparts)]
        nodes = reference_walk(n, None if n <= search.CACHED_MAX_N else m)
        owned = [len(reference_part(nodes, part, nparts)) for part in range(nparts)]
        assert [count for _, _, count in parts] == owned, (n, m, l, nparts)
        best = min((value for value, _, _ in parts if value is not None), default=None)
        keys = set().union(*(witnesses for value, witnesses, _ in parts if value == best))
        assert (best, keys, sum(count for _, _, count in parts)) == want, (n, m, l, nparts)


def test_unparted_matches_is_separating():
    # Every family on [n <= 4] and every family on [5] with at most 6
    # members; the leaf cut keeps a last member iff it completes separation.
    for n, max_size in ((1, None), (2, None), (3, None), (4, None), (5, 6)):
        splitting = search._pair_tables(n)[1]
        for masks, _ in search._dfs_masks(n, max_size):
            separating = SetFamily(n, masks).is_separating()
            assert (search._unparted(masks, n) == 0) == separating, (n, masks)
            if masks:
                cut = splitting[search._unparted(masks[:-1], n)]
                assert (cut >> masks[-1] & 1 == 1) == separating, (n, masks)


def test_scan_cell_builds_a_family_only_per_final_tie(monkeypatch):
    best = search._scan_cell(5, 6, 1, 0, 1)[0]
    ties = {masks for masks, weight in search._dfs_masks(5, 6)
            if len(masks) == 6 and weight == best and SetFamily(5, masks).is_separating()}
    built = []
    real = SetFamily.__post_init__

    def counting(self):
        built.append(self.masks)
        real(self)
    monkeypatch.setattr(SetFamily, "__post_init__", counting)
    intermediate(5, 6)
    seed_builds = len(built)
    built.clear()
    search._scan_cell(5, 6, 1, 0, 1)
    assert ties
    assert len(built) == seed_builds + len(ties)
    assert set(built[seed_builds:]) == ties


@pytest.mark.parametrize("nparts", [1, 2, 3])
def test_every_part_with_a_best_has_a_witness(nparts):
    cells = [(n, m) for n in (3, 4) for m in scan_sizes(n)] + [(5, m) for m in range(4, 9)]
    for n, m in cells:
        for l in (1, 2):
            for part in range(nparts):
                best, witnesses, _ = search._scan_cell(n, m, l, part, nparts)
                assert (best is None) == (not witnesses), (n, m, l, part, nparts)


def test_scan_cell_confirms_each_tie_with_is_separating(monkeypatch):
    # With a mask-level test that calls every family separating, the
    # lightest size-3 families on [4] include some that are not.
    monkeypatch.setattr(search, "_unparted", lambda masks, n: 0)
    with pytest.raises(InvariantError):
        search._scan_cell(4, 3, 1, 0, 1)


def bounds_checks(n, family_sets, l_max=1):
    """Check names flagged by verify_weight_bounds up to l_max when the
    families on [n] are exactly family_sets."""
    fams = [SetFamily.from_sets(n, sets) for sets in family_sets]
    source = family_source({n: [(fam, fam.is_separating()) for fam in fams]})
    return {v["check"] for v in verify_weight_bounds(n, l_max=l_max, source=source).violations}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_reimer_equality_at_powersets_passes(k):
    # 2w = m log2 m exactly for the powerset of [k].
    powerset = [list(c) for r in range(k + 1) for c in itertools.combinations(range(1, k + 1), r)]
    assert bounds_checks(k, [powerset]) == set()


@pytest.mark.parametrize("k", [2, 3])
def test_reimer_flags_one_below_a_powerset(k):
    # The powerset of [k] with [k] swapped for a (k-1)-set using element
    # k + 1: same size, weight one below the Reimer bound.
    powerset = [list(c) for r in range(k) for c in itertools.combinations(range(1, k + 1), r)]
    sets = powerset + [list(range(2, k)) + [k + 1]]
    assert "reimer" in bounds_checks(k + 1, [sets])


def test_max_degree_checks_are_exact():
    # m = 2, d = 1: d log2 m = m - 1.  m = 4 with no empty set, d = 2:
    # d log2 m = m.  Both pass; a smaller d at m = 4 is flagged.
    assert bounds_checks(1, [[[], [1]]]) == set()
    assert "max-degree" in bounds_checks(3, [[[], [1], [2], [3]]])
    checks = bounds_checks(4, [[[1], [2], [1, 2], [3, 4]]])
    assert not {"max-degree", "max-degree-no-empty"} & checks
    checks = bounds_checks(4, [[[1], [2], [3], [4]]])
    assert "max-degree-no-empty" in checks


def test_reimer_l_flags_a_family_at_the_l2_bound():
    # m = 8: the bound is 8 * C(3/2, 2) = 3, and w_2 = 3 is not strictly above.
    sets = [[], [1], [2], [3], [4], [1, 2], [1, 3], [1, 4]]
    assert "reimer-l-strict" not in bounds_checks(4, [sets], l_max=1)
    assert "reimer-l-strict" in bounds_checks(4, [sets], l_max=2)


def test_skipped_regime_cells_match_the_float_sign():
    # One union-closed family of each size m = 1..16 on [4].
    by_size = {}
    for masks in search._families(4):
        by_size.setdefault(len(masks), SetFamily(4, masks))
    source = family_source({4: [(by_size[m], by_size[m].is_separating()) for m in range(1, 17)]})
    report = verify_weight_bounds(4, l_max=6, source=source)
    assert report.passed
    want = set()
    for m in range(1, 17):
        x = math.log2(m) / 2
        for l in range(1, 7):
            rhs = m * math.prod(x - i for i in range(l)) / math.factorial(l)
            if x < l - 1 and rhs > 0:
                want.add((m, l))
    assert {(s["m"], s["l"]) for s in report.skipped} == want
    assert all(s["n"] == 4 and s["families"] == 1 for s in report.skipped)


def relabel_masks(masks, perm):
    return frozenset(sum(1 << perm[b] for b in range(len(perm)) if mask >> b & 1) for mask in masks)


def is_normal_form(masks, n, l):
    """The chain {i+1..n}, i <= n - l, plus a separating union-closed
    family on the top l points that contains all of them, read directly."""
    full = (1 << n) - 1
    chain = {full ^ ((1 << i) - 1) for i in range(1, n - l + 1)}
    if not chain <= masks or any(mask & ((1 << (n - l)) - 1) for mask in masks - chain):
        return False
    top = {mask >> (n - l) for mask in masks - chain} | {(1 << l) - 1}
    closed = all(a | b in top for a in top for b in top)
    separating = all(any((mask >> i ^ mask >> j) & 1 for mask in top)
                     for i, j in itertools.combinations(range(l), 2))
    return closed and separating


def test_equality_structure_matches_relabeling_reference():
    # Both the canonical form test and the key lookup the suites use.
    normal = 0
    for n in range(2, 5):
        perms = list(itertools.permutations(range(n)))
        for masks in search._families(n):
            fam = SetFamily(n, masks)
            if not fam.is_separating():
                continue
            images = [relabel_masks(fam.masks, perm) for perm in perms]
            key = sum(1 << mask for mask in masks)
            for l in range(1, n):
                want = any(is_normal_form(image, n, l) for image in images)
                forms = sorted(search._normal_forms(n, l))
                assert (canonical_form(fam) in forms) == want, (fam, l)
                index = search._normal_form_keys(n, l).get(key)
                assert (forms[index] == canonical_form(fam)) if want else index is None, (fam, l)
                normal += want
    assert normal == 434


def test_equality_structure_flags_a_non_normal_family_at_the_floor():
    # {{1,2,3}} has weight 3 = C(3, 2) but is not the chain plus a top;
    # marked separating, both floor checks flag it.
    fam = SetFamily.from_sets(3, [[1, 2, 3]])
    source = family_source({3: [(fam, True)]})
    report = verify_equality_structure(3, l_max=1, source=source)
    assert [(v["check"], v["l"], v["sets"]) for v in report.violations] == [
        ("equality-structure", 1, [[1, 2, 3]])]
    report = verify_staircase_extremality(3, source=source)
    extremal = [v for v in report.violations if v["check"] == "extremal-set" and v["n"] == 3]
    assert [v["got"] for v in extremal] == [[str(canonical_form(fam))]]


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
    with pytest.raises(InvalidInputError, match="threads"):
        min_weight_search(3, 2, threads=0)
    with pytest.raises(UnsupportedScaleError):
        min_weight_search(6, 5)


@pytest.mark.parametrize("args, kwargs", [
    ((3.0, 2), {}), ((True, 1), {}), ((3, 2.0), {}), ((3, True), {}),
    ((3, 2, True), {}), ((3, 2, 1.0), {}), ((3, 2), {"threads": 2.5}), ((3, 2), {"threads": True}),
])
def test_min_weight_search_refuses_non_int_sizes(args, kwargs):
    with pytest.raises(InvalidInputError, match="need an integer"):
        min_weight_search(*args, **kwargs)


@pytest.mark.parametrize("n, max_size", [(3.0, None), (True, None), (3, -1), (3, 2.5), (3, True)])
def test_enumerators_refuse_bad_sizes(n, max_size):
    with pytest.raises(InvalidInputError, match="need an integer"):
        enumerate_union_closed(n, max_size=max_size)
    with pytest.raises(InvalidInputError, match="need an integer"):
        next(iter_union_closed(n, max_size=max_size))


def test_search_outcome_to_dict():
    d = min_weight_search(3, 2).to_dict()
    assert d["min_value"] == 3
    assert d["witnesses"] == [{"n": 3, "sets": [[1], [1, 2]]}]
    assert d["exhaustive"] is True


def test_staircase_extremality_suite():
    report = verify_staircase_extremality(4)
    assert report.passed
    assert report.families_checked == 4456


def _count_suite_work(monkeypatch):
    # Counts _Columns builds by n, SetFamily.is_separating calls and
    # canonical_form calls, starting from an empty walk-columns cache.
    calls = Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name, args[-1] if name == "columns" else None] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(search, "_Columns", counting("columns", search._Columns))
    monkeypatch.setattr(SetFamily, "is_separating",
                        counting("is_separating", SetFamily.is_separating))
    monkeypatch.setattr(search, "canonical_form", counting("canonical_form", search.canonical_form))
    search._walk_columns.cache_clear()
    return calls


def test_separating_families_are_filtered_once(monkeypatch):
    # Separation is a column of the cached walk columns: the first round
    # builds them, the second builds none and tests no family for separation.
    calls = _count_suite_work(monkeypatch)
    verify_staircase_extremality(4)
    assert any(name == "columns" for name, _ in calls)
    calls.clear()
    verify_staircase_extremality(4)
    assert not calls


def test_bounds_suite_reads_separation_from_the_cache(monkeypatch):
    calls = _count_suite_work(monkeypatch)
    first = verify_weight_bounds(4).to_dict()
    assert any(name == "columns" for name, _ in calls)
    calls.clear()
    assert verify_weight_bounds(4).to_dict() == first
    assert not calls


def test_suites_build_the_walk_columns_once_per_n(monkeypatch):
    # Two rounds of every suite build the columns of each n once, and the
    # second round, with the normal forms cached, runs no per-family
    # separation test or canonical form: no row is reported.
    calls = _count_suite_work(monkeypatch)
    reports = [suite(n_max=4).to_dict() for suite in search.SUITES.values()]
    assert {key: calls[key] for key in calls if key[0] == "columns"} == {
        ("columns", n): 1 for n in range(1, 5)}
    calls.clear()
    assert [suite(n_max=4).to_dict() for suite in search.SUITES.values()] == reports
    assert not calls


def test_flag_puts_the_family_between_check_and_details():
    report = search.VerificationReport("suite", 3)
    report.flag(SetFamily.from_sets(3, [[], [1, 3]]), "check-name", l=2, value=1)
    assert list(report.violations[0].items()) == [
        ("check", "check-name"), ("n", 3), ("sets", [[], [1, 3]]), ("l", 2), ("value", 1)]


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


def test_grid_cells_counts_the_grid_without_listing_it():
    for n_max in range(-1, 14):
        for m_max in (-1, 0, 1, 2, 5, 8, 100, 4096):
            assert search._grid_cells(n_max, m_max) == len(satisfiable_grid(n_max, m_max))
    # The cap admits the default grid and refuses the full-domain one.
    assert search._grid_cells(12, 4096) <= MAX_SWEEP_CELLS < search._grid_cells(4096, 4096)


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


def test_sweep_checks_every_explicit_pair_before_the_first_build(monkeypatch):
    built = []
    monkeypatch.setattr(search, "intermediate", lambda n, m: built.append((n, m)))
    for pairs, error in (([(2, 3), (3, 9)], InvalidInputError),
                         ([(2, 3), (1, 0), (0, 1)], InvalidInputError),
                         ([(2, 3), (21, MAX_M + 1)], UnsupportedScaleError)):
        with pytest.raises(error):
            sweep_constructions(MAX_M, pairs=pairs)
    with pytest.raises(InvalidInputError, match=r"\(n=5, m=20\) exceeds m_max = 8"):
        sweep_constructions(8, pairs=[(2, 3), (5, 20)])
    assert built == []


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
