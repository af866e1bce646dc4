"""Set families over a ground set [n] = {1, ..., n}, stored as bitmasks.

A family is an ordered, duplicate-free collection of subsets of [n]; each
subset is an n-bit mask with bit k standing for element k+1.  The operations
here cover union-closure, degree and weight accounting, separation of element
pairs, quotients by the non-separation relation, and the witness used for
union-closed conjecture checks.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bitops import (
    elements_of,
    mask_of,
    masks_union_closed,
    remap,
    signature_groups,
)
from .errors import InvalidInputError

# Domains are capped to keep permutation and table based code honest about
# its limits.  Masks are plain Python ints, so the cap is generous.
MAX_DOMAIN = 4096
# Largest family size that builds, sweeps and bound rows accept: 2**20, the
# size of the largest powerset.
MAX_M = 1 << 20


def check_domain(n) -> None:
    """Refuse a domain size SetFamily does not accept, before anything is
    built on it."""
    if type(n) is not int or n < 1:
        raise InvalidInputError(f"domain size must be a positive integer, got {n!r}")
    if n > MAX_DOMAIN:
        raise InvalidInputError(f"domain size {n} exceeds the supported cap {MAX_DOMAIN}")


def _check_element(x, n: int) -> None:
    if type(x) is not int or not 1 <= x <= n:
        raise InvalidInputError(f"element {x!r} outside domain [{n}]")


@dataclass(frozen=True)
class DegreeProfile:
    """Per-element degrees d(1..n), total weight, and family size."""

    degrees: tuple[int, ...]
    weight: int
    size: int


@dataclass(frozen=True)
class SeparationPartition:
    """Blocks of elements that no member tells apart, ordered by smallest
    element."""

    classes: tuple[tuple[int, ...], ...]

    @property
    def is_discrete(self) -> bool:
        return all(len(c) == 1 for c in self.classes)


@dataclass(frozen=True)
class ConjectureWitness:
    """Most frequent l-subset, its containment count, and the |F|/2**l
    threshold the union-closed conjectures compare against."""

    subset: tuple[int, ...]
    count: int
    threshold: Fraction

    @property
    def margin(self) -> Fraction:
        return Fraction(self.count) - self.threshold

    @property
    def meets_threshold(self) -> bool:
        return self.count >= self.threshold


@dataclass(frozen=True)
class SetFamily:
    n: int
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        check_domain(self.n)
        masks = tuple(self.masks)
        object.__setattr__(self, "masks", masks)
        limit = 1 << self.n
        # Each rule is one C-level pass; only a family that breaks one walks
        # the masks to report the first offender.
        if (set(map(type, masks)) == {int} and min(masks) >= 0
                and max(masks) < limit and len(set(masks)) == len(masks)):
            return
        seen = set()
        for msk in masks:
            if type(msk) is not int or msk < 0 or msk >= limit:
                raise InvalidInputError(f"mask {msk!r} out of range for domain [{self.n}]")
            if msk in seen:
                raise InvalidInputError(f"duplicate set {elements_of(msk)}")
            seen.add(msk)

    @classmethod
    def from_sets(cls, n: int, sets) -> "SetFamily":
        check_domain(n)
        sets = [tuple(s) for s in sets]
        for x in itertools.chain.from_iterable(sets):
            _check_element(x, n)
        return cls(n, tuple(mask_of(s) for s in sets))

    def members(self) -> list[tuple[int, ...]]:
        return [elements_of(m) for m in self.masks]

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return iter(self.masks)

    def __contains__(self, mask: int) -> bool:
        return mask in self.masks

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, s)) + "}" for s in self.members())
        return f"SetFamily(n={self.n}, {{{inner}}})"

    # -- basic accounting -------------------------------------------------

    def support_mask(self) -> int:
        out = 0
        for msk in self.masks:
            out |= msk
        return out

    def support(self) -> tuple[int, ...]:
        """Elements that occur in at least one member."""
        return elements_of(self.support_mask())

    def weight(self) -> int:
        return sum(map(int.bit_count, self.masks))

    def size_histogram(self) -> Counter:
        return Counter(map(int.bit_count, self.masks))

    def l_fold_weight(self, l: int) -> int:
        """Sum of C(|A|, l) over members; l=0 counts members, l=1 is weight."""
        if l < 0:
            raise InvalidInputError("l must be nonnegative")
        if l == 1:
            return self.weight()
        return sum(comb(k, l) * count for k, count in self.size_histogram().items())

    def degree_profile(self) -> DegreeProfile:
        degrees = [0] * self.n
        for msk in self.masks:
            while msk:
                low = msk & -msk
                degrees[low.bit_length() - 1] += 1
                msk ^= low
        return DegreeProfile(tuple(degrees), sum(degrees), len(self.masks))

    # -- union closure -----------------------------------------------------

    def is_union_closed(self) -> bool:
        return masks_union_closed(self.masks)

    def union_closure(self) -> "SetFamily":
        """Smallest union-closed superfamily.  Never injects the empty set;
        new masks are appended in ascending order, which makes the operation
        idempotent on its own output."""
        have = set(self.masks)
        frontier = list(self.masks)
        added = []
        while frontier:
            fresh = {a | b for a in frontier for b in have} - have
            have.update(fresh)
            added.extend(fresh)
            frontier = fresh
        return SetFamily(self.n, self.masks + tuple(sorted(added)))

    # -- separation ---------------------------------------------------------

    def separates(self, i: int, j: int) -> bool:
        _check_element(i, self.n)
        _check_element(j, self.n)
        if i == j:
            raise InvalidInputError("separation needs two distinct elements")
        a, b = 1 << (i - 1), 1 << (j - 1)
        return any(bool(msk & a) != bool(msk & b) for msk in self.masks)

    def separation_partition(self) -> SeparationPartition:
        groups = signature_groups(self.masks, self.n)
        return SeparationPartition(tuple(tuple(g) for g in groups))

    def is_separating(self) -> bool:
        return self.separation_partition().is_discrete

    def reduce(self) -> "SetFamily":
        """Quotient by the non-separation relation: merged elements become a
        single one, members map bijectively, size is preserved."""
        # A class's elements lie in exactly the same members, so its first
        # element stands for the whole class.
        blocks = self.separation_partition().classes
        firsts = [block[0] for block in blocks]
        return SetFamily(len(blocks), tuple(remap(self.masks, firsts, self.n)))

    # -- induced and relabeled views -----------------------------------------

    def induced(self, elements) -> tuple["SetFamily", dict[int, int]]:
        """Family {A minus X : A contains X} on the remaining elements,
        renumbered 1..n-|X| in order.  Returns the renumbering old->new."""
        elements = tuple(elements)
        for x in elements:
            _check_element(x, self.n)
        xmask = mask_of(elements)
        kept = [x for x in range(1, self.n + 1) if not (xmask >> (x - 1)) & 1]
        if not kept:
            raise InvalidInputError("induced family would have an empty domain")
        renumber = {old: new for new, old in enumerate(kept, start=1)}
        new_masks = remap((msk for msk in self.masks if msk & xmask == xmask), kept, self.n)
        return SetFamily(len(kept), tuple(new_masks)), renumber

    def relabel_by_degree(self) -> tuple["SetFamily", tuple[int, ...]]:
        """Permute the domain so degrees are nondecreasing, ties keeping the
        original order.  Returns (family, order) with order[k-1] = old label
        now called k."""
        degrees = self.degree_profile().degrees
        order = tuple(sorted(range(1, self.n + 1), key=lambda x: (degrees[x - 1], x)))
        return self.relabel(order), order

    def relabel(self, order) -> "SetFamily":
        """Relabel so that old element order[k-1] becomes k."""
        order = tuple(order)
        if sorted(order) != list(range(1, self.n + 1)):
            raise InvalidInputError("relabeling must be a permutation of the domain")
        return SetFamily(self.n, tuple(remap(self.masks, order, self.n)))

    # -- conjecture material --------------------------------------------------

    def frankl_witness(self, l: int = 1) -> ConjectureWitness:
        """l-subset contained in the most members; ties resolved toward the
        lexicographically least subset."""
        if not 1 <= l <= self.n:
            raise InvalidInputError(f"witness size l={l} must be within 1..{self.n}")
        best = None
        best_count = -1
        for combo in itertools.combinations(range(1, self.n + 1), l):
            xm = mask_of(combo)
            count = sum(1 for msk in self.masks if msk & xm == xm)
            if count > best_count:
                best, best_count = combo, count
        return ConjectureWitness(best, best_count, Fraction(len(self.masks), 1 << l))

    def expected_l_degree(self, l: int) -> Fraction:
        """Average of the containment counts over all C(n, l) subsets,
        as an exact rational: l_fold_weight(l) / C(n, l)."""
        if not 1 <= l <= self.n:
            raise InvalidInputError(f"l={l} must be within 1..{self.n}")
        return Fraction(self.l_fold_weight(l), comb(self.n, l))
