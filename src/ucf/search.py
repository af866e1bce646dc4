"""Exhaustive search over union-closed families on small domains.

One enumerator backs everything here: a depth-first walk that adds masks in
decreasing order with a closure feasibility test, for every n <= 5.  The
families on [n] for n <= 4 are listed once and cached.  The walk is called
exhaustive only after a gate checks it against code it shares nothing with:
a deliberately naive scan at n <= 3 and the known count of union-closed
families at n = 4.  Isomorphism classes are keyed by canonical_form, one
vectorized pass over all n! relabelings.  On top of the enumerator sit the
minimal-weight search, the verification suites, and the construction sweep
used for bound calibration.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Optional

import numpy as np

from .bounds import (
    generalized_binomial,
    log2_exact,
    min_l_weight_upper,
    min_weight_upper,
    reimer_l_lower,
    reimer_lower,
    satisfiable,
    separation_lower,
)
from .constructions import MAX_M, intermediate, staircase
from .errors import InvalidInputError, UnsupportedScaleError
from .family import SetFamily

CACHED_MAX_N = 4  # largest n whose families _families keeps
ENUM_MAX_N = 5
SWEEP_COLUMNS = ("n", "m", "l", "w", "lower", "upper", "ratio_reimer", "ratio_sep")

# Relative tolerance for comparisons against log-valued bounds.
RTOL = 1e-9


def _within(lhs: float, rhs: float) -> bool:
    """lhs >= rhs up to relative tolerance."""
    return lhs >= rhs - RTOL * max(1.0, abs(rhs))


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
    return tuple(SetFamily(n, masks) for masks in _dfs_masks(n))


def _dfs_masks(
    n: int,
    max_size: Optional[int] = None,
    keep_first: Optional[Callable[[int], bool]] = None,
    include_empty: bool = True,
) -> Iterator[tuple[int, ...]]:
    # Members are added in decreasing mask order.  A mask a can extend the
    # current family S iff a | s is already in S for every s in S; unions of
    # a with anything are numerically >= the larger operand, so they can
    # never be supplied later.  Every prefix of a union-closed family in
    # this order is union-closed, which makes the walk complete.
    limit = 1 << n
    chosen: list[int] = []
    chosen_set: set[int] = set()

    def extend(min_mask: int) -> Iterator[tuple[int, ...]]:
        for a in range(min_mask - 1, -1, -1):
            feasible = True
            for s in chosen:
                if (a | s) not in chosen_set:
                    feasible = False
                    break
            if not feasible:
                continue
            chosen.append(a)
            chosen_set.add(a)
            yield tuple(chosen)
            if max_size is None or len(chosen) < max_size:
                yield from extend(a)
            chosen.pop()
            chosen_set.discard(a)

    if include_empty:
        yield ()
    if max_size == 0:
        return
    for a in range(limit - 1, -1, -1):
        if keep_first is not None and not keep_first(a):
            continue
        chosen.append(a)
        chosen_set.add(a)
        yield tuple(chosen)
        if max_size is None or len(chosen) < max_size:
            yield from extend(a)
        chosen.pop()
        chosen_set.discard(a)


def iter_union_closed(n: int, max_size: Optional[int] = None) -> Iterator[SetFamily]:
    """Every union-closed family on [n], including the empty one and those
    containing the empty set, streamed from the depth-first walk."""
    _check_enum_n(n)
    for masks in _dfs_masks(n, max_size=max_size):
        yield SetFamily(n, masks)


def enumerate_union_closed(
    n: int,
    visitor: Optional[Callable[[SetFamily], None]] = None,
    max_size: Optional[int] = None,
) -> int:
    """Invoke visitor once per union-closed family on [n]; returns the count."""
    count = 0
    for fam in iter_union_closed(n, max_size=max_size):
        if visitor is not None:
            visitor(fam)
        count += 1
    return count


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
        walk = [frozenset(masks) for masks in _dfs_masks(n)]
        naive = {frozenset(f.masks) for f in enumerate_union_closed_naive(n)}
        if len(set(walk)) != len(walk) or set(walk) != naive:
            return False
    walk = [frozenset(masks) for masks in _dfs_masks(4)]
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


def canonical_family(family: SetFamily) -> SetFamily:
    n, masks = canonical_form(family)
    return SetFamily(n, masks)


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
        return {
            "n": self.n, "m": self.m, "l": self.l,
            "min_value": self.min_value,
            "witnesses": [{"n": w.n, "sets": [list(s) for s in w.members()]} for w in self.witnesses],
            "examined": self.examined,
            "exhaustive": self.exhaustive,
        }


def _scan_cell(n: int, m: int, l: int, part: int, nparts: int):
    best: Optional[int] = None
    witnesses: dict[tuple, tuple[int, ...]] = {}
    examined = 0
    if n <= CACHED_MAX_N:
        pool = _families(n)[part::nparts]
        candidates: Iterator[SetFamily] = iter(pool)
    else:
        def keep_first(a: int) -> bool:
            return a % nparts == part

        def gen() -> Iterator[SetFamily]:
            for masks in _dfs_masks(
                n, max_size=m, keep_first=keep_first, include_empty=(part == 0)
            ):
                yield SetFamily(n, masks)

        candidates = gen()
    for fam in candidates:
        examined += 1
        if len(fam) != m or not fam.is_separating():
            continue
        value = fam.l_fold_weight(l)
        if best is None or value < best:
            best = value
            witnesses = {}
        if value == best:
            key = canonical_form(fam)
            witnesses.setdefault(key, key[1])
    return best, witnesses, examined


def _scan_cell_args(args):
    return _scan_cell(*args)


def min_weight_search(n: int, m: int, l: int = 1, threads: int = 1) -> SearchOutcome:
    """Minimum l-fold weight over every n-separating union-closed family of
    size m, with one witness per isomorphism class.  The search space may be
    partitioned across at most os.cpu_count() processes; results merge
    through (min, union, sum), so the outcome does not depend on the
    schedule."""
    _check_enum_n(n)
    if l < 1:
        raise InvalidInputError("need l >= 1")
    if not satisfiable(n, m):
        raise InvalidInputError(f"(n={n}, m={m}) is not satisfiable")
    # Each worker is a process, and a pool forks all of them up front.
    threads = max(1, min(threads, os.cpu_count() or 1))
    if threads == 1:
        parts = [_scan_cell(n, m, l, 0, 1)]
    else:
        argsets = [(n, m, l, part, threads) for part in range(threads)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_scan_cell_args, argsets))
    best = None
    examined = 0
    merged: dict[tuple, tuple[int, ...]] = {}
    for value, _, count in parts:
        examined += count
        if value is not None and (best is None or value < best):
            best = value
    for value, witnesses, _ in parts:
        if value == best and best is not None:
            merged.update(witnesses)
    families = tuple(SetFamily(n, merged[key]) for key in sorted(merged))
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
        # Every suite opens by creating its report, so this refuses a domain
        # past the cached families before any suite does work.
        if self.n_max > CACHED_MAX_N:
            raise UnsupportedScaleError(f"verification suites supported up to n = {CACHED_MAX_N}")

    @property
    def passed(self) -> bool:
        return not self.violations

    def flag(self, family: SetFamily, check: str, **details) -> None:
        self.violations.append({
            "check": check,
            "n": family.n,
            "sets": [list(s) for s in family.members()],
            **details,
        })

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n_max": self.n_max,
            "families_checked": self.families_checked,
            "passed": self.passed,
            "violations": self.violations,
            "skipped": self.skipped,
        }


def _separating_families(n: int) -> list[SetFamily]:
    return [fam for fam in _families(n) if fam.is_separating()]


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
            degrees = relabeled.degree_profile().degrees
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
        want = math.comb(n, 2)
        if best != want:
            report.violations.append({"check": "min-weight", "n": n, "got": best, "want": want})
        floor = staircase(n)
        expected = {
            canonical_form(floor),
            canonical_form(SetFamily(n, (0,) + floor.masks)),
        }
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
    the Reimer bound with its powerset equality case, the maximum-degree
    benchmark, the strict l-fold Reimer form inside its sound regime, and
    the separation floor C(n, l+1) for separating families."""
    report = VerificationReport("weight-bounds", n_max)
    out_of_regime: Counter = Counter()
    for n in range(1, n_max + 1):
        for fam in _families(n):
            m = len(fam)
            if m == 0:
                continue
            report.families_checked += 1
            profile = fam.degree_profile()
            w = profile.weight

            bound = reimer_lower(m)
            if not _within(w, bound):
                report.flag(fam, "reimer", weight=w, bound=bound)
            power_of_two = m & (m - 1) == 0
            exact_equal = power_of_two and 2 * w == m * (m.bit_length() - 1)
            if exact_equal != _is_powerset_of_support(fam):
                report.flag(fam, "reimer-equality-characterization", weight=w)

            if m >= 2:
                max_deg = max(profile.degrees)
                if not _within(max_deg, (m - 1) / log2_exact(m)):
                    report.flag(fam, "max-degree", max_degree=max_deg)
                if 0 not in fam.masks and not _within(max_deg, m / log2_exact(m)):
                    report.flag(fam, "max-degree-no-empty", max_degree=max_deg)

                for l in range(1, l_max + 1):
                    x = log2_exact(m) / 2
                    rhs = m * generalized_binomial(x, l)
                    w_l = fam.l_fold_weight(l)
                    if l == 1:
                        if _is_powerset_of_support(fam):
                            if abs(w_l - rhs) > RTOL * max(1.0, rhs):
                                report.flag(fam, "reimer-l-powerset-equality", l=l)
                        elif not _strictly_above(w_l, rhs):
                            report.flag(fam, "reimer-l-strict", l=l, value=w_l, bound=rhs)
                    elif rhs <= RTOL:
                        if not _within(w_l, rhs):
                            report.flag(fam, "reimer-l", l=l, value=w_l, bound=rhs)
                    elif x >= l - 1:
                        if not _strictly_above(w_l, rhs):
                            report.flag(fam, "reimer-l-strict", l=l, value=w_l, bound=rhs)
                    else:
                        # Positive bound below the convexity regime: the
                        # l-fold form is not valid there, so it is not
                        # asserted.
                        out_of_regime[(n, m, l)] += 1

            if fam.is_separating():
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


def _equality_structure_ok(fam: SetFamily, l: int) -> bool:
    # A family meeting the separation floor with equality must, after a
    # degree-sorted relabeling, be the suffix chain {i+1..n} for i <= n-l
    # plus a remainder living inside the top l elements that together with
    # the full top block is separating and union-closed on it.
    def check(relabeled: SetFamily) -> bool:
        n = relabeled.n
        full = (1 << n) - 1
        chain = [full ^ ((1 << i) - 1) for i in range(1, n - l + 1)]
        members = set(relabeled.masks)
        if not all(c in members for c in chain):
            return False
        top = full ^ ((1 << (n - l)) - 1)
        rest = members - set(chain)
        if any(msk & ~top for msk in rest):
            return False
        shifted = sorted({msk >> (n - l) for msk in rest} | {top >> (n - l)})
        sub = SetFamily(l, tuple(shifted))
        return sub.is_separating() and sub.is_union_closed()

    sorted_fam, _ = fam.relabel_by_degree()
    if check(sorted_fam):
        return True
    # Stable tie-breaking may pick the wrong order inside equal-degree
    # groups; try the alternatives before declaring a mismatch.
    degrees = fam.degree_profile().degrees
    groups: dict[int, list[int]] = {}
    for x in range(1, fam.n + 1):
        groups.setdefault(degrees[x - 1], []).append(x)
    pools = [list(itertools.permutations(g)) for _, g in sorted(groups.items())]
    for combo in itertools.product(*pools):
        order = tuple(itertools.chain.from_iterable(combo))
        if check(fam.relabel(order)):
            return True
    return False


def verify_equality_structure(n_max: int = 4, l_max: int = 3) -> VerificationReport:
    """Every separating union-closed family whose l-fold weight equals the
    floor C(n, l+1) matches the chain-plus-small-top normal form."""
    report = VerificationReport("equality-structure", n_max)
    for n in range(2, n_max + 1):
        families = _separating_families(n)
        for l in range(1, min(l_max, n - 1) + 1):
            floor = separation_lower(n, l)
            for fam in families:
                report.families_checked += 1
                if fam.l_fold_weight(l) != floor:
                    continue
                if not _equality_structure_ok(fam, l):
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
                report.skipped.append({
                    "reason": "support-empty",
                    "n": n,
                    "sets": [list(s) for s in fam.members()],
                })
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
    """The primary and naive enumerators must produce identical multisets of
    canonical forms (hence identical counts) on every domain up to n_max."""
    report = VerificationReport("enumerator-consistency", n_max)
    for n in range(1, n_max + 1):
        primary = Counter(canonical_form(fam) for fam in iter_union_closed(n))
        naive = Counter(canonical_form(fam) for fam in enumerate_union_closed_naive(n))
        report.families_checked += sum(primary.values())
        if primary != naive:
            diff = {str(k): (primary[k], naive[k]) for k in set(primary) | set(naive)
                    if primary[k] != naive[k]}
            report.violations.append({"check": "canonical-multiset", "n": n, "diff": diff})
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
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, float) and x.is_integer():
                return str(int(x))
            return f"{x:.10g}" if isinstance(x, float) else str(x)
        return [fmt(v) for v in (self.n, self.m, self.l, self.w, self.lower,
                                 self.upper, self.ratio_reimer, self.ratio_sep)]


def satisfiable_grid(n_max: int, m_max: int) -> list[tuple[int, int]]:
    return [
        (n, m)
        for n in range(1, n_max + 1)
        for m in range(n - 1, min(1 << n, m_max) + 1)
    ]


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
    upper bound."""
    if m_max > MAX_M:
        raise UnsupportedScaleError(f"sweeps supported up to m = {MAX_M}")
    if pairs is None:
        if n_max is None:
            raise InvalidInputError("a sweep needs n_max (or an explicit pair list)")
        pairs = satisfiable_grid(n_max, m_max)
    rows = []
    for n, m in pairs:
        fam, _ = intermediate(n, m)
        w_l = fam.l_fold_weight(l)
        reimer_side = reimer_l_lower(m, l) if m >= 1 else 0.0
        sep_side = separation_lower(n, l)
        upper = min_weight_upper(n, m) if l == 1 else min_l_weight_upper(n, m, l).value
        rows.append(SweepRow(
            n=n, m=m, l=l, w=w_l,
            lower=max(reimer_side, float(sep_side)),
            upper=upper,
            ratio_reimer=(w_l / reimer_side) if reimer_side > RTOL else None,
            ratio_sep=(w_l / sep_side) if sep_side > 0 else None,
        ))
    return rows
