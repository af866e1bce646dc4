"""Exhaustive search over union-closed families on small domains.

One enumerator backs everything here: a depth-first walk, one loop over an
explicit stack, that adds masks in decreasing order, each node handing its
children the masks that can still extend it and carrying its weight, for
every n <= 5.  The families on [n] for n <= 4 are listed once and cached.
The walk is called exhaustive only after a gate checks it against code it
shares nothing with: a deliberately naive scan at n <= 3 and the known count
of union-closed families at n = 4.  Isomorphism classes are keyed by
canonical_form, one vectorized pass over all n! relabelings.  On top of the
enumerator sit the minimal-weight search, which builds a SetFamily only for
a family not heavier than the best so far and splits the walk into fixed
parts at one depth, run by one worker pool per process; the verification
suites; and the construction sweep used for bound calibration.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterator, Optional

import numpy as np

from .bounds import (
    _fmt,
    min_l_weight_upper,
    min_weight_upper,
    reimer_l_lower,
    reimer_lower,
    satisfiable,
    separation_lower,
)
from .bounds import generalized_binomial, log2_exact  # noqa: F401  perfbench/tracing.py wraps these
from .constructions import MAX_M, MAX_SWEEP_CELLS, intermediate
from .errors import InvalidInputError, UnsupportedScaleError
from .family import MAX_DOMAIN, SetFamily, check_domain
from .io import family_to_dict

CACHED_MAX_N = 4  # largest n whose families _families keeps
SPLIT_DEPTH = 4  # depth whose nodes _dfs_masks deals out to the parts
ENUM_MAX_N = 5
SWEEP_COLUMNS = ("n", "m", "l", "w", "lower", "upper", "ratio_reimer", "ratio_sep")

# Relative tolerance for comparisons against log-valued bounds.
RTOL = 1e-9


def _strictly_above(lhs: float, rhs: float) -> bool:
    return lhs > rhs + RTOL * abs(rhs)


# ---------------------------------------------------------------------------
# enumeration


def _check_enum_n(n: int) -> None:
    if n < 1:
        raise InvalidInputError("domain size must be positive")
    if n > ENUM_MAX_N:
        raise UnsupportedScaleError(f"exhaustive enumeration supported up to n = {ENUM_MAX_N}")


@lru_cache(maxsize=None)
def _families(n: int) -> tuple[SetFamily, ...]:
    return tuple(SetFamily(n, masks) for masks, _ in _dfs_masks(n))


def _dfs_masks(
    n: int, max_size: Optional[int] = None, part: int = 0, nparts: int = 1,
    cost: Optional[list[int]] = None,
) -> Iterator[tuple[tuple[int, ...], int]]:
    # Members are added in decreasing mask order.  A mask a can extend the
    # current family S iff a | s is already in S for every s in S; unions of
    # a with anything are numerically >= the larger operand, so they can
    # never be supplied later.  Every prefix of a union-closed family in
    # this order is union-closed, which makes the walk complete.  Each node
    # hands its children the masks still feasible below it: choosing b keeps
    # a only if a | b is in the grown family, tracked as the bit set
    # `present`.  One loop runs a stack of (prefix, candidates, present,
    # next index, weight) frames: a node with children pushes its frame's
    # resume point, then the child's frame, so nodes come out in preorder,
    # each with the sum of cost (default popcount) over its masks.  Part k
    # of nparts walks every node above SPLIT_DEPTH but descends only into
    # the depth-SPLIT_DEPTH nodes whose DFS index is k mod nparts; part 0
    # alone yields the empty family and the shallower nodes.
    cap = (1 << n) if max_size is None else max_size
    cost = cost or [mask.bit_count() for mask in range(1 << n)]
    if part == 0:
        yield (), 0
    turn = -1
    stack = [((), list(range((1 << n) - 1, -1, -1)), 0, 0, 0)] if cap > 0 else []
    while stack:
        prefix, candidates, present, start, weight = stack.pop()
        depth = len(prefix) + 1
        for i in range(start, len(candidates)):
            b = candidates[i]
            if depth == SPLIT_DEPTH:
                turn += 1
                if turn % nparts != part:
                    continue
            node = prefix + (b,)
            total = weight + cost[b]
            if depth >= SPLIT_DEPTH or part == 0:
                yield node, total
            if depth < cap:
                grown = present | (1 << b)
                below = [a for a in candidates[i + 1:] if grown >> (a | b) & 1]
                if below:
                    stack.append((prefix, candidates, present, i + 1, weight))
                    stack.append((node, below, grown, 0, total))
                    break


def iter_union_closed(n: int, max_size: Optional[int] = None) -> Iterator[SetFamily]:
    """Every union-closed family on [n], including the empty one and those
    containing the empty set, streamed from the depth-first walk."""
    _check_enum_n(n)
    for masks, _ in _dfs_masks(n, max_size=max_size):
        yield SetFamily(n, masks)


def enumerate_union_closed(n: int, max_size: Optional[int] = None) -> int:
    """The number of union-closed families on [n] (with at most max_size
    members), counted on the walk without building a SetFamily."""
    _check_enum_n(n)
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
        closed = True
        for a, b in itertools.combinations(masks, 2):
            if (code >> (a | b)) & 1 == 0:
                closed = False
                break
        if closed:
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
    non-closed family means none is missing."""
    for n in range(1, 4):
        walk = [frozenset(masks) for masks, _ in _dfs_masks(n)]
        naive = {frozenset(f.masks) for f in enumerate_union_closed_naive(n)}
        if len(set(walk)) != len(walk) or set(walk) != naive:
            return False
    walk = [frozenset(masks) for masks, _ in _dfs_masks(4)]
    if len(walk) != UC_COUNT_4 or len(set(walk)) != UC_COUNT_4:
        return False
    return all((a | b) in fam for fam in walk for a in fam for b in fam)


# ---------------------------------------------------------------------------
# canonical forms


@lru_cache(maxsize=None)
def _bit_images(n: int) -> np.ndarray:
    # Row p holds 1 << perm_p[j] in column j, for the n! permutations of
    # range(n) in itertools order; every entry fits in uint8 for n <= 8.
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))), dtype=np.uint8
    ).reshape(-1, n)
    images = np.left_shift(np.uint8(1), perms)
    images.flags.writeable = False
    return images


def canonical_form(family: SetFamily) -> tuple[int, tuple[int, ...]]:
    """(n, masks) key that is equal across exactly the relabelings of the
    same family: the lexicographically least sorted mask tuple over all n!
    bit permutations.  Supported for n <= 8."""
    n = family.n
    if n > 8:
        raise UnsupportedScaleError("canonical forms supported up to n = 8")
    masks = np.array(family.masks, dtype=np.uint8)
    bits = (masks[None, :] >> np.arange(n, dtype=np.uint8)[:, None]) & 1
    # images @ bits is every member's image under every permutation.  Each
    # sum adds distinct powers of two below 256, so uint8 cannot wrap.
    keys = _bit_images(n) @ bits
    keys.sort(axis=1)
    rows = np.arange(keys.shape[0])
    for col in keys.T:
        vals = col[rows]
        rows = rows[vals == vals.min()]
        if rows.size == 1:
            break
    return (n, tuple(keys[rows[0]].tolist()))


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


def _scan_cell(n: int, m: int, l: int, part: int, nparts: int):
    # The walk has no size cap for n <= CACHED_MAX_N, so `examined` there is
    # every family on [n].  The l-fold weight comes from a per-mask table; a
    # family strictly heavier than the best so far cannot win, so it gets no
    # SetFamily.  Ties still do, to collect every witness class.
    best: Optional[int] = None
    witnesses: set[tuple[int, tuple[int, ...]]] = set()
    examined = 0
    cost = [math.comb(mask.bit_count(), l) for mask in range(1 << n)]
    max_size = None if n <= CACHED_MAX_N else m
    for masks, value in _dfs_masks(n, max_size, part, nparts, cost):
        examined += 1
        if len(masks) != m or best is not None and value > best:
            continue
        fam = SetFamily(n, masks)
        if not fam.is_separating():
            continue
        if best is None or value < best:
            best = value
            witnesses = set()
        witnesses.add(canonical_form(fam))
    return best, witnesses, examined


# The worker pool that parallel searches in this process share, as
# (worker count, executor); None until the first call with threads >= 2.
_pool: Optional[tuple[int, ProcessPoolExecutor]] = None


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
    checks every family strictly heavier than the best so far.  The walk may
    be split across at most os.cpu_count() processes, each taking a fixed
    share of its depth-SPLIT_DEPTH nodes; results merge through (min, union,
    sum), so the outcome does not depend on the schedule.  The processes form
    one pool per process, reused while the worker count stays the same."""
    global _pool
    _check_enum_n(n)
    if l < 1:
        raise InvalidInputError("need l >= 1")
    if threads < 1:
        raise InvalidInputError(f"need threads >= 1, got {threads}")
    if not satisfiable(n, m):
        raise InvalidInputError(f"(n={n}, m={m}) is not satisfiable")
    threads = min(threads, os.cpu_count() or 1)
    if threads == 1:
        parts = [_scan_cell(n, m, l, 0, 1)]
    else:
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

    def __post_init__(self) -> None:
        # Every suite opens by creating its report, so this refuses an empty
        # sweep or a domain past the cached families before any suite does work.
        if self.n_max < 1:
            raise InvalidInputError(
                f"verification suites check n = 1 up to n = {CACHED_MAX_N}, not n_max = {self.n_max}")
        if self.n_max > CACHED_MAX_N:
            raise UnsupportedScaleError(f"verification suites supported up to n = {CACHED_MAX_N}")

    @property
    def passed(self) -> bool:
        return not self.violations

    def flag(self, family: SetFamily, check: str, **details) -> None:
        self.violations.append({"check": check, **family_to_dict(family), **details})

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n_max": self.n_max,
            "families_checked": self.families_checked,
            "passed": self.passed,
            "violations": self.violations,
            "skipped": self.skipped,
        }


@lru_cache(maxsize=None)
def _separating_families(n: int) -> tuple[SetFamily, ...]:
    return tuple(fam for fam in _families(n) if fam.is_separating())


def verify_staircase_extremality(n_max: int = 4) -> VerificationReport:
    """Over every separating union-closed family on [n], 2 <= n <= n_max:
    the minimum weight is C(n, 2), attained exactly by the staircase and the
    staircase plus the empty set; degrees after sorting satisfy
    d(i) >= i - 1; the sorted family contains a distinct superset of
    {i+1..n} avoiding i for each i; and n <= m + 1."""
    report = VerificationReport("staircase-extremality", n_max)
    for n in range(2, n_max + 1):
        best = None
        argmin: list[SetFamily] = []
        for fam in _separating_families(n):
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
        # The normal forms at C(n, 2) are the staircase and the staircase plus
        # the empty set.
        expected = _normal_forms(n, 1)
        got = {canonical_form(fam) for fam in argmin}
        if got != expected:
            report.violations.append({
                "check": "extremal-set",
                "n": n,
                "got": sorted(str(k) for k in got),
                "want": sorted(str(k) for k in expected),
            })
    return report


def _is_powerset_of_support(fam: SetFamily) -> bool:
    return len(fam) == 1 << fam.support_mask().bit_count()


def verify_weight_bounds(n_max: int = 4, l_max: int = 3) -> VerificationReport:
    """Weight inequalities over every union-closed family on [n] <= n_max:
    the Reimer bound with its powerset equality case and the maximum-degree
    benchmark, both in integers; for 2 <= l <= l_max the strict l-fold
    Reimer form where m > 4**(l-1), with each positive bound below that
    regime counted as skipped; and the separation floor C(n, l+1) for
    separating families."""
    report = VerificationReport("weight-bounds", n_max)
    out_of_regime: Counter = Counter()
    for n in range(1, n_max + 1):
        separating = frozenset(_separating_families(n))
        for fam in _families(n):
            m = len(fam)
            if m == 0:
                continue
            report.families_checked += 1
            profile = fam.degree_profile()
            w = profile.weight

            # The l = 1 checks are decided in integers: w >= m log2(m) / 2
            # iff 4**w >= m**m, and d >= k / log2(m) iff m**d >= 2**k.
            if 4**w < m**m:
                report.flag(fam, "reimer", weight=w, bound=reimer_lower(m))
            power_of_two = m & (m - 1) == 0
            exact_equal = power_of_two and 2 * w == m * (m.bit_length() - 1)
            if exact_equal != _is_powerset_of_support(fam):
                report.flag(fam, "reimer-equality-characterization", weight=w)

            if m >= 2:
                max_deg = max(profile.degrees)
                if m**max_deg < 1 << (m - 1):
                    report.flag(fam, "max-degree", max_degree=max_deg)
                if 0 not in fam.masks and m**max_deg < 1 << m:
                    report.flag(fam, "max-degree-no-empty", max_degree=max_deg)

                # With x = log2(m) / 2, the l-fold bound m * C(x, l) is
                # asserted strictly for x > l - 1, that is m > 4**(l-1).
                # Below, it is zero at an integer x and otherwise has the
                # sign of (-1)**(l-1-j), j = floor(x); a positive value
                # there is outside the convexity regime and not asserted.
                # l = 1 is the exact Reimer check above.
                j = (m.bit_length() - 1) // 2
                for l in range(2, l_max + 1):
                    if m > 4 ** (l - 1):
                        rhs = reimer_l_lower(m, l)
                        w_l = fam.l_fold_weight(l)
                        if not _strictly_above(w_l, rhs):
                            report.flag(fam, "reimer-l-strict", l=l, value=w_l, bound=rhs)
                    elif m != 4**j and (l - 1 - j) % 2 == 0:
                        out_of_regime[(n, m, l)] += 1

            if fam in separating:
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


@lru_cache(maxsize=None)
def _normal_forms(n: int, l: int) -> frozenset:
    # Canonical forms of the normal forms at the floor C(n, l+1): the suffix
    # chain {i+1..n} for i <= n-l, whose last member is the block of the top
    # l points, plus any separating union-closed family on those l points.
    chain = {((1 << n) - 1) ^ ((1 << i) - 1) for i in range(1, n - l + 1)}
    return frozenset(
        canonical_form(SetFamily(n, tuple(sorted(chain | {s << (n - l) for s in top.masks}))))
        for top in _separating_families(l)
    )


def verify_equality_structure(n_max: int = 4, l_max: int = 3) -> VerificationReport:
    """Every separating union-closed family whose l-fold weight equals the
    floor C(n, l+1) is a relabeling of a chain-plus-small-top normal form:
    its canonical form is among those of the normal forms."""
    report = VerificationReport("equality-structure", n_max)
    for n in range(2, n_max + 1):
        families = _separating_families(n)
        for l in range(1, min(l_max, n - 1) + 1):
            floor = separation_lower(n, l)
            for fam in families:
                report.families_checked += 1
                if fam.l_fold_weight(l) != floor:
                    continue
                if canonical_form(fam) not in _normal_forms(n, l):
                    report.flag(fam, "equality-structure", l=l)
    return report


def verify_conjectures(n_max: int = 4, l_max: int = 2) -> VerificationReport:
    """Union-closed conjecture sweep: some l-subset is contained in at least
    |F| / 2**l members, for every union-closed family with nonempty support
    and every l up to min(l_max, log2 of the size).  Support-empty families
    are recorded as skipped, not as failures."""
    report = VerificationReport("conjectures", n_max)
    for n in range(1, n_max + 1):
        for fam in _families(n):
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
    return [
        (n, m)
        for n in range(1, n_max + 1)
        for m in range(n - 1, min(1 << n, m_max) + 1)
    ]


def _grid_cells(n_max: int, m_max: int) -> int:
    """len(satisfiable_grid(n_max, m_max)), counted without listing it."""
    return sum(max(0, min(1 << n, m_max) - n + 2) for n in range(1, n_max + 1))


def sqrt_regime_pair(r: int) -> tuple[int, int]:
    """(n, m) = (ceil(sqrt(r * 2**r)), 2**r): the regime where both lower
    bound sources agree up to constants."""
    if r < 1:
        raise InvalidInputError("need r >= 1")
    m = 1 << r
    s = r * m
    n = math.isqrt(s)
    if n * n < s:
        n += 1
    return n, m


def sweep_constructions(
    m_max: int,
    l: int = 1,
    n_max: Optional[int] = None,
    pairs: Optional[list[tuple[int, int]]] = None,
) -> list[SweepRow]:
    """Build intermediate(n, m) over a grid of satisfiable pairs and record
    its l-fold weight against the combined lower bound and the construction
    upper bound.  Every cell is checked for size before the first build."""
    if m_max > MAX_M:
        raise UnsupportedScaleError(f"sweeps supported up to m = {MAX_M}")
    if pairs is None:
        if n_max is None:
            raise InvalidInputError("a sweep needs n_max (or an explicit pair list)")
        if n_max > MAX_DOMAIN:
            raise UnsupportedScaleError(f"sweeps supported up to n = {MAX_DOMAIN}")
        cells = _grid_cells(n_max, m_max)
        if cells > MAX_SWEEP_CELLS:
            raise UnsupportedScaleError(
                f"the grid has {cells} cells; sweeps supported up to {MAX_SWEEP_CELLS} cells")
        pairs = satisfiable_grid(n_max, m_max)
    for n, _ in pairs:
        check_domain(n)
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
            ratio_reimer=(w_l / reimer_side) if reimer_side > RTOL else None,
            ratio_sep=(w_l / sep_side) if sep_side > 0 else None,
        ))
    return rows
