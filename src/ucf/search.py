"""Exhaustive search over union-closed families on small domains.

One enumerator backs everything here: a depth-first walk, one loop over an
explicit stack, that adds masks in decreasing order, each node handing its
children the masks that can still extend it as one int over the 2**n masks
and carrying its weight, for every n <= 5.  The enumerators read it as one
(masks, weight) pair per family, the minimal-weight scan as frames that hand
the leaves at a size cap over in one set.  The families on [n] for n <= 4
are listed once and cached.  The walk is called exhaustive only after a gate
checks it against code it shares nothing with: a deliberately naive scan at
n <= 3 and the known count of union-closed families at n = 4.  Isomorphism
classes are keyed by canonical_form, the least sorted image over all n!
relabelings: per-nibble image tables give every image by lookup, and only
the relabelings that reach the least image (past 64 KB, the least two) are
sorted.  On top of the enumerator sit the minimal-weight search, which
starts its best at the weight of intermediate(n, m), cuts each leaf set to
the cheap separating masks with two ANDs, builds a SetFamily only for the
ties left at the end, and splits the walk into fixed parts at one depth,
run by one worker pool per process; the verification suites; and the
construction sweep used for bound calibration.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import lru_cache, partial, reduce
from operator import or_
from typing import Callable, Iterator, Optional

import numpy as np

from .bitops import remap
from .bounds import (
    MAX_L,
    _fmt,
    min_l_weight_upper,
    min_weight_upper,
    reimer_l_floor,
    reimer_l_lower,
    reimer_lower,
    satisfiable,
    separation_lower,
)
from .bounds import generalized_binomial, log2_exact  # noqa: F401  perfbench/tracing.py wraps these
from .constructions import MAX_M, MAX_SWEEP_CELLS, check_cell, intermediate
from .errors import InvalidInputError, InvariantError, UnsupportedScaleError
from .family import MAX_DOMAIN, SetFamily
from .io import family_to_dict

CACHED_MAX_N = 4  # largest n whose families _families keeps
SPLIT_DEPTH = 4  # depth whose nodes _dfs_masks deals out to the parts
ENUM_MAX_N = 5
SWEEP_COLUMNS = ("n", "m", "l", "w", "lower", "upper", "ratio_reimer", "ratio_sep")


# ---------------------------------------------------------------------------
# enumeration


def _check_int(name: str, value, least: int) -> None:
    if type(value) is not int or value < least:
        raise InvalidInputError(f"need an integer {name} >= {least}, got {value!r}")


def _check_enum_n(n: int, max_size: Optional[int] = None) -> None:
    _check_int("domain size", n, 1)
    if n > ENUM_MAX_N:
        raise UnsupportedScaleError(f"exhaustive enumeration supported up to n = {ENUM_MAX_N}")
    if max_size is not None:
        _check_int("max_size", max_size, 0)


@lru_cache(maxsize=None)
def _families(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(masks for masks, _ in _dfs_masks(n))


def _dfs_frames(
    n: int, max_size: Optional[int], part: int, nparts: int, cost: list[int],
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    # Members are added in decreasing mask order.  A mask a can extend the
    # current family S iff a | s is already in S for every s in S; unions of
    # a with anything are numerically >= the larger operand, so they can
    # never be supplied later.  Every prefix of a union-closed family in
    # this order is union-closed, which makes the walk complete.  Sets of
    # masks are ints over the 2**n masks: choosing b keeps a candidate a iff
    # a | b is in the grown family, so spreading that family down over each
    # bit of b gives every kept a at once.  One loop runs a stack of frames,
    # largest candidate first, so nodes come out in preorder as (node, sum
    # of cost over it, leaves): leaves is 0 except at a node whose children
    # sit at the size cap, which come as one set with no frame.  Part k
    # of nparts walks every node above SPLIT_DEPTH but descends only into
    # the depth-SPLIT_DEPTH nodes whose DFS index is k mod nparts, dealt one
    # by one; part 0 alone yields the empty family and the shallower nodes.
    cap = (1 << n) if max_size is None else max_size
    last = cap - 1 if cap != SPLIT_DEPTH else -1  # depth whose nodes carry their leaves
    # spreads[b]: (the set of masks holding bit j, 1 << j) for each bit j of b.
    rows = [sum(1 << a for a in range(1 << n) if a >> j & 1) for j in range(n)]
    spreads = [[(rows[j], 1 << j) for j in range(n) if b >> j & 1] for b in range(1 << n)]
    every = (1 << (1 << n)) - 1
    if part == 0:
        yield (), 0, every if last == 0 else 0
    turn = -1
    stack = [((), every, 0, 0)] if cap > 1 else []
    while stack:
        node, candidates, present, weight = stack.pop()
        depth = len(node) + 1
        while candidates:
            b = candidates.bit_length() - 1
            candidates ^= 1 << b
            if depth == SPLIT_DEPTH:
                turn += 1
                if turn % nparts != part:
                    continue
            below = 0
            if candidates and depth < cap:
                below = grown = present | 1 << b
                for row, shift in spreads[b]:
                    below &= row
                    below |= below >> shift
                below &= candidates
            if depth >= SPLIT_DEPTH or part == 0:
                yield node + (b,), weight + cost[b], below if depth == last else 0
            if below and depth != last:
                stack.append((node, candidates, present, weight))
                stack.append((node + (b,), below, grown, weight + cost[b]))
                break


def _dfs_masks(
    n: int, max_size: Optional[int] = None, part: int = 0, nparts: int = 1,
    cost: Optional[list[int]] = None, frames: bool = False,
) -> Iterator[tuple]:
    # _dfs_frames as (masks, weight) pairs, one per node in preorder, the
    # weight summing cost (default popcount) over the masks.  With frames,
    # its own entries: the scan reads them here, where perfbench counts them.
    cost = cost or [mask.bit_count() for mask in range(1 << n)]
    walk = _dfs_frames(n, max_size, part, nparts, cost)
    if frames:
        yield from walk
        return
    for node, weight, leaves in walk:
        yield node, weight
        for b in range(leaves.bit_length() - 1, -1, -1):
            if leaves >> b & 1:
                yield node + (b,), weight + cost[b]


def iter_union_closed(n: int, max_size: Optional[int] = None) -> Iterator[SetFamily]:
    """Every union-closed family on [n], including the empty one and those
    containing the empty set, streamed from the depth-first walk."""
    _check_enum_n(n, max_size)
    for masks, _ in _dfs_masks(n, max_size=max_size):
        yield SetFamily(n, masks)


def enumerate_union_closed(n: int, max_size: Optional[int] = None) -> int:
    """The number of union-closed families on [n] (with at most max_size
    members), counted on the walk without building a SetFamily."""
    _check_enum_n(n, max_size)
    return sum(1 for _ in _dfs_masks(n, max_size=max_size))


def enumerate_union_closed_naive(n: int) -> Iterator[SetFamily]:
    """Independent oracle enumerator: scan every subset of the powerset and
    test closure with a direct double loop.  Only for cross-checks; slow
    beyond n = 3."""
    if not 1 <= n <= 4:
        raise UnsupportedScaleError("naive enumeration supported up to n = 4")
    nmasks = 1 << n
    for code in range(1 << nmasks):
        masks = [k for k in range(nmasks) if (code >> k) & 1]
        if all((code >> (a | b)) & 1 for a, b in itertools.combinations(masks, 2)):
            yield SetFamily(n, tuple(masks))


# Union-closed families on [4], the empty family and the empty set included
# (OEIS A102896).
UC_COUNT_4 = 4960


# The name predates the current oracles; it stays because perfbench traces
# this function as search.dfs_gate.
@lru_cache(maxsize=1)
def _dfs_matches_filter() -> bool:
    """True when the walk yields every union-closed family on [n <= 4]
    exactly once, judged by checks that share none of its code: the naive
    scan at n <= 3, and at n = 4 the known count plus a direct closure test
    of each family.  A family count that matches with no duplicates and no
    non-closed family means none is missing.  At n = 4 each family is tested
    and dropped in turn, keeping its members as one int."""
    for n in range(1, 4):
        walk = [frozenset(masks) for masks, _ in _dfs_masks(n)]
        naive = {frozenset(f.masks) for f in enumerate_union_closed_naive(n)}
        if len(set(walk)) != len(walk) or set(walk) != naive:
            return False
    keys = []
    for masks, _ in _dfs_masks(4):
        fam = set(masks)
        if not all((a | b) in fam for a in fam for b in fam):
            return False
        keys.append(sum(1 << a for a in fam))
    return len(keys) == len(set(keys)) == UC_COUNT_4


# ---------------------------------------------------------------------------
# canonical forms


@lru_cache(maxsize=None)
def _nibble_images(n: int) -> tuple[np.ndarray, np.ndarray]:
    # low[v, q] and high[v, r, q] are the images of the bit pattern v on bits
    # 0..3 and 4..7 (none past n) under the permutation (r, q), which moves
    # bit j to bit perm[j]: q numbers the images of bits 0..3 and r the ways
    # to put bits 4..n-1 on the rest, in itertools order.  27 + 645 KB at n = 8.
    k = min(n, 4)
    heads = np.array(list(itertools.permutations(range(n), k)), dtype=np.uint8)
    rest = np.array([sorted(set(range(n)) - set(h)) for h in heads.tolist()], dtype=np.uint8)
    tails = np.array(list(itertools.permutations(range(n - k))), dtype=np.intp)
    patterns = (np.arange(16, dtype=np.uint8)[:, None] >> np.arange(4, dtype=np.uint8)) & 1
    # Each product adds distinct powers of two below 256, so uint8 cannot wrap.
    low = patterns[:, :k] @ (np.uint8(1) << heads).T
    high = ((np.uint8(1) << rest[:, tails]) @ patterns[:, :n - k].T).transpose(2, 1, 0).copy()
    low.flags.writeable = high.flags.writeable = False
    return low, high


def canonical_form(family: SetFamily) -> tuple[int, tuple[int, ...]]:
    """(n, masks) key that is equal across exactly the relabelings of the
    same family: the lexicographically least sorted mask tuple over all n!
    bit permutations, each member's image one lookup per nibble in
    _nibble_images(n).  A sorted row starts with its least image, so only
    the permutations least on it are sorted, and one lexsort picks the
    least.  Past 64 KB of images the members are folded in one at a time
    into each permutation's least two images, and only the permutations
    least on both are looked up: no call holds every image, and at n = 8
    576 to all 8! rows tie on the least image alone.  Supported for n <= 8."""
    n = family.n
    if n > 8:
        raise UnsupportedScaleError("canonical forms supported up to n = 8")
    if not family.masks:
        return (n, ())
    masks = np.array(family.masks, dtype=np.uint8)
    low, high = _nibble_images(n)
    if len(masks) * math.factorial(n) > 1 << 16:
        first = second = np.full(high.shape[1:], 255, dtype=np.uint8)  # no image exceeds 255
        for a in family.masks:
            image = high[a >> 4] | low[a & 15]
            second = np.minimum(second, np.maximum(first, image))
            first = np.minimum(first, image)
        pair = first.astype(np.uint16) << 8 | second
        tails, heads = np.nonzero(pair == pair.min())
        low, high = low[:, heads], high[:, None, tails, heads]
    images = (high[masks >> 4] | low[masks & 15][:, None]).reshape(len(masks), -1)
    least = images.min(axis=0)
    keys = images.T[least == least.min()]
    keys.sort(axis=1)
    # lexsort's last key is its primary one.
    best = np.lexsort(keys.T[::-1])[0]
    return (n, tuple(keys[best].tolist()))


# ---------------------------------------------------------------------------
# minimal weight search


@dataclass(frozen=True)
class SearchOutcome:
    """Result of an exhaustive minimal l-fold weight search over the
    n-separating union-closed families of size m."""

    n: int
    m: int
    l: int
    min_value: Optional[int]
    witnesses: tuple[SetFamily, ...]
    examined: int
    exhaustive: bool

    def to_dict(self) -> dict:
        return {**vars(self), "witnesses": [family_to_dict(w) for w in self.witnesses]}


@lru_cache(maxsize=None)
def _pair_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Sets over the C(n, 2) pairs of elements, in combinations order, and
    # over the 2**n masks.  parted[a]: the pairs the mask a tells apart.
    # splitting[q]: the masks that tell apart every pair in q.
    pairs = list(itertools.combinations(range(n), 2))
    parted = [sum(1 << p for p, (i, j) in enumerate(pairs) if (a >> i ^ a >> j) & 1)
              for a in range(1 << n)]
    splitting = [(1 << (1 << n)) - 1]
    for p in range(len(pairs)):
        row = sum(1 << a for a in range(1 << n) if parted[a] >> p & 1)
        splitting += [q & row for q in splitting]
    return tuple(parted), tuple(splitting)


def _unparted(masks: tuple[int, ...], n: int) -> int:
    """The pairs of [n] that no member of masks tells apart, as a set over
    _pair_tables' pairs.  The masks separate [n], that is give the n
    elements distinct signatures, iff it is empty."""
    parted = _pair_tables(n)[0]
    return reduce(or_, map(parted.__getitem__, masks), 0) ^ ((1 << math.comb(n, 2)) - 1)


def _scan_cell(n: int, m: int, l: int, part: int, nparts: int):
    # A part examines every node it owns (for n <= CACHED_MAX_N, every
    # family on [n]).  The best starts at the weight of intermediate(n, m),
    # a separating family of size m.  A leaf set is cut with one AND to the
    # masks cheap enough to stay within the best, and one to those that
    # tell apart every pair of elements its prefix does not.  Ties stay
    # mask tuples; only the final ones become a SetFamily, each confirmed
    # by is_separating before its canonical form is taken.
    cost = [math.comb(mask.bit_count(), l) for mask in range(1 << n)]
    # cheap[k]: the masks whose cost is at most k.
    cheap = [sum(1 << a for a in range(1 << n) if cost[a] <= k) for k in range(max(cost) + 1)]
    splitting = _pair_tables(n)[1]
    best = intermediate(n, m)[0].l_fold_weight(l)
    ties: list[tuple[int, ...]] = []
    examined = 0
    max_size = None if n <= CACHED_MAX_N else m
    for node, weight, leaves in _dfs_masks(n, max_size, part, nparts, cost, frames=True):
        examined += 1 + leaves.bit_count()
        if weight > best:
            continue
        if len(node) == m:
            found = [(node, weight)] if not _unparted(node, n) else []
        elif len(node) == m - 1 and leaves:
            leaves &= cheap[min(best - weight, len(cheap) - 1)]
            leaves &= splitting[_unparted(node, n)]
            found = [(node + (b,), weight + cost[b]) for b in range(leaves.bit_length())
                     if leaves >> b & 1]
        else:
            continue
        for masks, value in found:
            if value < best:
                best, ties = value, []
            if value == best:
                ties.append(masks)
    witnesses = set()
    for masks in ties:
        fam = SetFamily(n, masks)
        if not fam.is_separating():
            raise InvariantError(f"the scan kept {masks}, which does not separate [{n}]")
        witnesses.add(canonical_form(fam))
    return (best if ties else None), witnesses, examined


# The worker pool that parallel searches in this process share, as
# (worker count, ProcessPoolExecutor); None until the first call with threads >= 2.
_pool: Optional[tuple] = None


def _drop_pool() -> None:
    """Shut the shared pool down, joining its workers."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


def min_weight_search(n: int, m: int, l: int = 1, threads: int = 1) -> SearchOutcome:
    """Minimum l-fold weight over every n-separating union-closed family of
    size m, with one witness per isomorphism class.  One depth-first walk
    carries each family's weight to the scan, which skips without further
    checks every family strictly heavier than the best so far, starting
    from the weight of intermediate(n, m).  The walk may be split across at
    most os.cpu_count() processes, each taking a fixed share of its
    depth-SPLIT_DEPTH nodes; results merge through (min, union, sum), so the
    outcome does not depend on the schedule.  The processes form
    one pool per process, reused while the worker count stays the same."""
    global _pool
    _check_enum_n(n)
    for name, value, least in (("m", m, 0), ("l", l, 1), ("threads", threads, 1)):
        _check_int(name, value, least)
    if not satisfiable(n, m):
        raise InvalidInputError(f"(n={n}, m={m}) is not satisfiable")
    threads = min(threads, os.cpu_count() or 1)
    if threads == 1:
        parts = [_scan_cell(n, m, l, 0, 1)]
    else:
        # Imported here, so that no other command loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        if _pool is None or _pool[0] != threads:
            _drop_pool()
            _pool = (threads, ProcessPoolExecutor(max_workers=threads))
        scan = partial(_scan_cell, n, m, l, nparts=threads)
        try:
            parts = list(_pool[1].map(scan, range(threads)))
        except BrokenProcessPool:
            _drop_pool()  # a worker died: the next call forks a fresh pool
            raise
    best = min((value for value, _, _ in parts if value is not None), default=None)
    examined = sum(count for _, _, count in parts)
    merged = set().union(*(witnesses for value, witnesses, _ in parts if value == best))
    families = tuple(SetFamily(*key) for key in sorted(merged))
    exhaustive = _dfs_matches_filter()
    return SearchOutcome(n, m, l, best, families, examined, exhaustive)


# ---------------------------------------------------------------------------
# verification suites


@dataclass
class VerificationReport:
    suite: str
    n_max: int
    families_checked: int = 0
    violations: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    first_n: InitVar[int] = 1  # the least n the suite checks

    def __post_init__(self, first_n: int) -> None:
        # Every suite opens by creating its report, so this refuses a sweep that
        # checks nothing or passes the cached families before any work.
        if self.n_max < first_n:
            raise InvalidInputError(f"verification suites check n = {first_n} up to "
                                    f"n = {CACHED_MAX_N}, not n_max = {self.n_max}")
        if self.n_max > CACHED_MAX_N:
            raise UnsupportedScaleError(f"verification suites supported up to n = {CACHED_MAX_N}")

    @property
    def passed(self) -> bool:
        return not self.violations

    def flag(self, family: SetFamily, check: str, **details) -> None:
        self.violations.append({"check": check, **family_to_dict(family), **details})

    def to_dict(self) -> dict:
        keys = ("suite", "n_max", "families_checked", "passed", "violations", "skipped")
        return {key: getattr(self, key) for key in keys}


@lru_cache(maxsize=None)
def _superset_table(n: int) -> np.ndarray:
    # Entry (u, s) is 1 when mask u contains mask s, over the masks of [n].
    # int16 keeps the products small and holds every count up to 2**14.
    masks = np.arange(1 << n)
    table = (masks[:, None] & masks == masks).astype(np.int16)
    table.flags.writeable = False
    return table


def _subsets(n: int, l: int) -> list[int]:
    """Masks of the l-subsets of [n] in lexicographic order."""
    return [sum(1 << i for i in c) for c in itertools.combinations(range(n), l)]


class _Columns:
    """Invariants of families on [n], each a tuple of masks, row r for
    families[r], read off one product of their 0/1 incidence matrix
    (families x 2**n) with the constant _superset_table(n): contained[r, s]
    is how many members of families[r] contain the mask s.  key[r] is the
    incidence row as one int, bit s for the mask s (exact for n <= 5)."""

    def __init__(self, families, n: int):
        self.families, self.n = families, n
        count = len(families)
        self.size = np.fromiter(map(len, families), dtype=np.int64, count=count)
        members = np.fromiter(itertools.chain.from_iterable(families),
                              dtype=np.int64, count=int(self.size.sum()))
        incidence = np.zeros((count, 1 << n), dtype=np.int16)
        incidence[np.repeat(np.arange(count), self.size), members] = 1
        self.has_empty = incidence[:, 0] == 1
        self.key = incidence @ (1 << np.arange(1 << n, dtype=np.int64))
        self.contained = incidence @ _superset_table(n)
        self.degrees = self.contained[:, _subsets(n, 1)]
        self.weight = self.degrees.sum(axis=1)
        self.support = (self.degrees > 0) @ (1 << np.arange(n))
        # d_i + d_j - 2 * contained[{i, j}] members hold one of i, j alone.
        i, j = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64).reshape(-1, 2).T
        parted = self.degrees[:, i] + self.degrees[:, j] - 2 * self.contained[:, 1 << i | 1 << j]
        self.separating = (parted > 0).all(axis=1)
        # Each row's relabel_by_degree order, 0-based: one sort by degree * n + element.
        self.degree_order = np.argsort(self.degrees * n + np.arange(n), axis=1)

    def l_fold_weight(self, l: int) -> np.ndarray:
        """Sum of C(|A|, l) over the members A: each member counted once
        for every l-subset it contains."""
        return self.contained[:, _subsets(self.n, l)].sum(axis=1)

    def frankl_witness(self, l: int) -> tuple[np.ndarray, np.ndarray]:
        """(subset index, count) of frankl_witness(l) for every row: the
        l-subset, numbered in itertools.combinations order, contained in
        the most members, ties going to the lexicographically least."""
        counts = self.contained[:, _subsets(self.n, l)]
        best = counts.argmax(axis=1)
        return best, counts[np.arange(len(counts)), best]


@lru_cache(maxsize=None)
def _walk_columns(n: int) -> _Columns:
    """The suites' default family source: the columns of every union-closed
    family on [n], built once per n.  A source is any callable n -> _Columns."""
    return _Columns(_families(n), n)


def _flag_rows(report: VerificationReport, cols: _Columns, checks: list) -> None:
    """Flag the families row by row and, within a row, in the order of the
    (flags column, check name, row -> details) triples."""
    for row in np.flatnonzero(np.logical_or.reduce([flags for flags, _, _ in checks])).tolist():
        for flags, check, details in checks:
            if flags[row]:
                report.flag(SetFamily(cols.n, cols.families[row]), check, **details(row))


def verify_staircase_extremality(n_max: int = 4, source=_walk_columns) -> VerificationReport:
    """Over every separating union-closed family on [n], 2 <= n <= n_max:
    the minimum weight is C(n, 2), attained exactly by the staircase and the
    staircase plus the empty set; degrees after sorting satisfy
    d(i) >= i - 1; the family relabeled by degree (ties keeping the old
    order) contains a distinct superset of {i+1..n} avoiding i for each i;
    and n <= m + 1.  Every check reads the separating rows of the source's
    columns; the minimum-weight rows are matched to the staircases by key."""
    report = VerificationReport("staircase-extremality", n_max, first_n=2)
    for n in range(2, n_max + 1):
        cols = source(n)
        report.families_checked += int(np.count_nonzero(cols.separating))
        degrees = np.take_along_axis(cols.degrees, cols.degree_order, axis=1)
        below_floor = degrees < np.arange(n)
        # Relabeled by degree, element k is old element order[k-1]: bit[:, k-1]
        # is its old mask bit, and above[:, i-1] the old image of {i+1..n}.
        # No member holds above[:, i-1] and avoids i iff as many members
        # contain above[:, i-1] as contain it together with i.
        bit = 1 << cols.degree_order
        above = np.cumsum(bit[:, ::-1], axis=1)[:, -2::-1]
        rows = np.arange(len(cols.families))[:, None]
        missing = cols.contained[rows, above] == cols.contained[rows, above | bit[:, :-1]]
        checks = [(n > cols.size + 1, "domain-larger-than-size-plus-one", lambda row: {})]
        checks += [(below_floor[:, i - 1], "degree-floor",
                    lambda row, i=i: {"element": i, "degree": int(degrees[row, i - 1])})
                   for i in range(1, n + 1)]
        checks += [(missing[:, i - 1], "missing-suffix-superset", lambda row, i=i: {"i": i})
                   for i in range(1, n)]
        _flag_rows(report, cols, [(cols.separating & flags, check, details)
                                  for flags, check, details in checks])
        best = int(cols.weight[cols.separating].min()) if cols.separating.any() else None
        want = separation_lower(n)
        if best != want:
            report.violations.append({"check": "min-weight", "n": n, "got": best, "want": want})
        # The normal forms at C(n, 2) are the staircase and the staircase plus
        # the empty set: the rows at the minimum must reach both, and no other.
        expected = _normal_forms(n, 1)
        argmin = np.flatnonzero(cols.separating & (cols.weight == best))
        forms = _normal_form_keys(n, 1)
        if {forms.get(key, -1) for key in cols.key[argmin].tolist()} != set(range(len(expected))):
            got = {canonical_form(SetFamily(n, cols.families[row])) for row in argmin.tolist()}
            report.violations.append({
                "check": "extremal-set",
                "n": n,
                "got": sorted(str(k) for k in got),
                "want": sorted(str(k) for k in expected),
            })
    return report


@lru_cache(maxsize=None)
def _size_thresholds(top: int, l_max: int) -> tuple[np.ndarray, ...]:
    """verify_weight_bounds' exact thresholds, indexed by the size m = 0..top:
    the least weight meeting m log2(m) / 2; the weight equal to it (-1 if none
    or m = 0); the least d with m**d >= 2**(m-1), then 2**m (0 if m < 2); for
    l = 2..l_max the largest l-fold value <= m * C(log2(m)/2, l), -1 if m <= 4**(l-1)."""
    edges = [reimer_l_floor(m) for m in range(top + 1)]
    tables = [[low + (not exact) for low, exact in edges],
              [low if exact and m else -1 for m, (low, exact) in enumerate(edges)]]
    tables += [[next(d for d in itertools.count() if m**d >= 1 << m - k) if m >= 2 else 0
                for m in range(top + 1)] for k in (1, 0)]
    tables += [[reimer_l_floor(m, l)[0] if m > 4 ** (l - 1) else -1 for m in range(top + 1)]
               for l in range(2, l_max + 1)]
    return tuple(np.array(table, dtype=np.int64) for table in tables)


def verify_weight_bounds(n_max: int = 4, l_max: int = 3,
                         source=_walk_columns) -> VerificationReport:
    """Weight inequalities over every union-closed family on [n] <= n_max:
    the Reimer bound with its powerset equality case and the maximum-degree
    benchmark; for 2 <= l <= l_max the strict l-fold Reimer form where
    m > 4**(l-1), with each positive bound below that regime counted as
    skipped; and the separation floor C(n, l+1) for separating families.
    Sizes, weights, degrees, l-fold weights and separation are the source's
    columns; each check compares a column with _size_thresholds at the
    row's size, so every comparison is exact."""
    report = VerificationReport("weight-bounds", n_max)
    for n in range(1, n_max + 1):
        cols = source(n)
        m, w = cols.size, cols.weight
        max_deg = cols.degrees.max(axis=1)
        report.families_checked += int(np.count_nonzero(m))
        least, equal, degree, degree_no_empty, *l_floor = _size_thresholds(1 << n, l_max)
        # Equality holds iff m = 2**|support|, that is the family is a powerset.
        checks = [
            (w < least[m], "reimer",
             lambda row: {"weight": int(w[row]), "bound": reimer_lower(int(m[row]))}),
            ((w == equal[m]) != (m == 1 << np.count_nonzero(cols.degrees, axis=1)),
             "reimer-equality-characterization", lambda row: {"weight": int(w[row])}),
            (max_deg < degree[m], "max-degree", lambda row: {"max_degree": int(max_deg[row])}),
            (~cols.has_empty & (max_deg < degree_no_empty[m]), "max-degree-no-empty",
             lambda row: {"max_degree": int(max_deg[row])}),
        ]
        # With x = log2(m) / 2, the l-fold bound m * C(x, l) is asserted
        # strictly for x > l - 1, that is m > 4**(l-1); as m <= 2**n, only
        # l <= (n + 1) // 2 can reach it.  Below, it is zero at an integer x
        # and otherwise has the sign of (-1)**(l-1-j), j = floor(x); a
        # positive value there is outside the convexity regime and not
        # asserted.  l = 1 is the exact Reimer check above.
        for l in range(2, min(l_max, (n + 1) // 2) + 1):
            w_l = cols.l_fold_weight(l)
            checks.append((
                w_l <= l_floor[l - 2][m],
                "reimer-l-strict",
                lambda row, l=l, w_l=w_l: {
                    "l": l, "value": int(w_l[row]), "bound": reimer_l_lower(int(m[row]), l)},
            ))
        counts = np.bincount(m).tolist()
        for size in range(2, len(counts)):
            j = (size.bit_length() - 1) // 2
            for l in range(2, l_max + 1):
                if counts[size] and size <= 4 ** (l - 1) and size != 4**j and (l - 1 - j) % 2 == 0:
                    report.skipped.append({"reason": "l-fold bound positive outside its regime",
                                           "n": n, "m": size, "l": l, "families": counts[size]})

        # C(n, l+1) is 0 for l >= n, where no l-fold weight is below it.
        is_separating = (m > 0) & cols.separating
        for l in range(1, min(l_max, n - 1) + 1):
            w_l = cols.l_fold_weight(l)
            floor = separation_lower(n, l)
            checks.append((
                is_separating & (w_l < floor),
                "separation-floor",
                lambda row, l=l, w_l=w_l, floor=floor: {
                    "l": l, "value": int(w_l[row]), "bound": floor},
            ))
        _flag_rows(report, cols, checks)
    return report


@lru_cache(maxsize=None)
def _normal_forms(n: int, l: int) -> frozenset:
    # Canonical forms of the normal forms at the floor C(n, l+1): the suffix
    # chain {i+1..n} for i <= n-l, whose last member is the block of the top
    # l points, plus any separating union-closed family on those l points.
    chain = {((1 << n) - 1) ^ ((1 << i) - 1) for i in range(1, n - l + 1)}
    return frozenset(
        canonical_form(SetFamily(n, tuple(sorted(chain | {s << (n - l) for s in top}))))
        for top in itertools.compress(_walk_columns(l).families, _walk_columns(l).separating)
    )


@lru_cache(maxsize=None)
def _normal_form_keys(n: int, l: int) -> dict[int, int]:
    # The key (as in _Columns) of every relabeling of each normal form at
    # C(n, l+1), mapped to that form's index in sorted(_normal_forms(n, l)):
    # a family's key is here iff its canonical form is in _normal_forms(n, l).
    return {sum(1 << a for a in remap(masks, order, n)): k
            for k, (_, masks) in enumerate(sorted(_normal_forms(n, l)))
            for order in itertools.permutations(range(1, n + 1))}


def verify_equality_structure(n_max: int = 4, l_max: int = 3,
                              source=_walk_columns) -> VerificationReport:
    """Every separating union-closed family whose l-fold weight equals the
    floor C(n, l+1) is a relabeling of a chain-plus-small-top normal form:
    its key is among those of the normal forms' relabelings, which holds
    iff its canonical form is among theirs.  The l-fold weights and keys
    are the source's columns; a SetFamily is built only to report a row."""
    report = VerificationReport("equality-structure", n_max, first_n=2)
    for n in range(2, n_max + 1):
        cols = source(n)
        for l in range(1, min(l_max, n - 1) + 1):
            report.families_checked += int(np.count_nonzero(cols.separating))
            floor = separation_lower(n, l)
            rows = np.flatnonzero(cols.separating & (cols.l_fold_weight(l) == floor))
            for row, key in zip(rows.tolist(), cols.key[rows].tolist()):
                if key not in _normal_form_keys(n, l):
                    report.flag(SetFamily(n, cols.families[row]), "equality-structure", l=l)
    return report


def verify_conjectures(n_max: int = 4, l_max: int = 2, source=_walk_columns) -> VerificationReport:
    """Union-closed conjecture sweep: some l-subset is contained in at least
    |F| / 2**l members, for every union-closed family with nonempty support
    and every l up to min(l_max, log2 of the size).  Support-empty families
    are recorded as skipped, not as failures.  The largest containment
    count of each l is a column of one incidence matrix product per n,
    compared with |F| / 2**l as arrays."""
    report = VerificationReport("conjectures", n_max)
    for n in range(1, n_max + 1):
        cols = source(n)
        empty = cols.support == 0
        report.skipped += [
            {"reason": "support-empty", **family_to_dict(SetFamily(n, cols.families[row]))}
            for row in np.flatnonzero(empty).tolist()]
        report.families_checked += len(cols.families) - int(np.count_nonzero(empty))
        checks = []
        for l in range(1, min(l_max, n) + 1):
            _, best = cols.frankl_witness(l)  # best << l <= 4**n: int16 for n <= ENUM_MAX_N
            checks.append((
                ~empty & (cols.size >= 1 << l) & (best << l < cols.size),
                "witness-below-threshold",
                lambda row, l=l, best=best: {
                    "l": l, "count": int(best[row]),
                    "threshold": str(Fraction(int(cols.size[row]), 1 << l))},
            ))
        _flag_rows(report, cols, checks)
    return report


def verify_enumerator_consistency(n_max: int = 3) -> VerificationReport:
    """The walk lists every union-closed family on [n <= n_max] exactly
    once, as the gate decides for every n <= CACHED_MAX_N; that implies
    equal multisets of canonical forms with the naive enumerator."""
    report = VerificationReport("enumerator-consistency", n_max)
    report.families_checked = sum(len(_families(n)) for n in range(1, n_max + 1))
    if not _dfs_matches_filter():
        report.violations.append({"check": "dfs-vs-oracles", "n": CACHED_MAX_N})
    return report


SUITES: dict[str, Callable[..., VerificationReport]] = {
    "staircase": verify_staircase_extremality,
    "bounds": verify_weight_bounds,
    "structure": verify_equality_structure,
    "conjectures": verify_conjectures,
    "oracles": verify_enumerator_consistency,
}


# ---------------------------------------------------------------------------
# construction sweep


@dataclass(frozen=True)
class SweepRow:
    n: int
    m: int
    l: int
    w: int
    lower: float
    upper: float
    ratio_reimer: Optional[float]
    ratio_sep: Optional[float]

    def csv_row(self) -> list[str]:
        return [_fmt(getattr(self, c)) for c in SWEEP_COLUMNS]


def satisfiable_grid(n_max: int, m_max: int) -> list[tuple[int, int]]:
    return [(n, m) for n in range(1, n_max + 1) for m in range(n - 1, min(1 << n, m_max) + 1)]


def _grid_cells(n_max: int, m_max: int) -> int:
    """len(satisfiable_grid(n_max, m_max)), counted without listing it."""
    return sum(max(0, min(1 << n, m_max) - n + 2) for n in range(1, n_max + 1))


def sqrt_regime_pair(r: int) -> tuple[int, int]:
    """(n, m) = (ceil(sqrt(r * 2**r)), 2**r): the regime where both lower
    bound sources agree up to constants."""
    if r < 1:
        raise InvalidInputError("need r >= 1")
    m = 1 << r
    return math.isqrt(r * m - 1) + 1, m


def sweep_constructions(
    m_max: int,
    l: int = 1,
    n_max: Optional[int] = None,
    pairs: Optional[list[tuple[int, int]]] = None,
) -> list[SweepRow]:
    """Build intermediate(n, m) over a grid of satisfiable pairs and record
    its l-fold weight against the combined lower bound and the construction
    upper bound.  Every cell, and l, is checked for size before the first
    build."""
    if l < 1:
        raise InvalidInputError(f"need l >= 1, got {l}")
    if l > MAX_L:
        raise UnsupportedScaleError(f"l-fold bounds are computed in floats up to l = {MAX_L}")
    if m_max < 0:
        raise InvalidInputError(f"need m_max >= 0, got {m_max}")
    if m_max > MAX_M:
        raise UnsupportedScaleError(f"sweeps supported up to m = {MAX_M}")
    if pairs is None:
        if n_max is None:
            raise InvalidInputError("a sweep needs n_max (or an explicit pair list)")
        if n_max < 1:
            raise InvalidInputError(f"need n_max >= 1, got {n_max}")
        if n_max > MAX_DOMAIN:
            raise UnsupportedScaleError(f"sweeps supported up to n = {MAX_DOMAIN}")
        cells = _grid_cells(n_max, m_max)
        if cells > MAX_SWEEP_CELLS:
            raise UnsupportedScaleError(
                f"the grid has {cells} cells; sweeps supported up to {MAX_SWEEP_CELLS} cells")
        pairs = satisfiable_grid(n_max, m_max)
    for n, m in pairs:
        check_cell(n, m)
        if m > m_max:
            raise InvalidInputError(f"cell (n={n}, m={m}) exceeds m_max = {m_max}")
    rows = []
    for n, m in pairs:
        fam, _ = intermediate(n, m)
        w_l = fam.l_fold_weight(l)
        reimer_side = reimer_l_lower(m, l) if m >= 1 else 0.0
        sep_side = separation_lower(n, l)
        upper = min_weight_upper(n, m) if l == 1 else min_l_weight_upper(n, m, l)
        rows.append(SweepRow(
            n=n, m=m, l=l, w=w_l,
            lower=max(reimer_side, float(sep_side)),
            upper=upper,
            ratio_reimer=(w_l / reimer_side) if reimer_side > 0 else None,
            ratio_sep=(w_l / sep_side) if sep_side > 0 else None,
        ))
    return rows
