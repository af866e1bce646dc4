"""Plain-Python oracles for the benchmark's output checks.

Nothing here calls into ``ucf``: every check recomputes its answer from the
family's sets with the definitions, so a kernel bug in the package cannot
hide behind the same kernel in the checker.  Families are lists of integer
bitmasks (bit k stands for element k+1), as in the package.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

# Union-closed families on [n], counted with the empty family and with or
# without the empty set: twice OEIS A102896 (2, 7, 61, 2480).
UC_COUNTS = {1: 4, 2: 14, 3: 122, 4: 4960}

# Relative slack when a float printed by the package is compared with the
# same closed form recomputed here.
REL = 1e-9


def masks_from_sets(sets: Iterable[Sequence[int]]) -> list[int]:
    out = []
    for s in sets:
        mask = 0
        for x in s:
            mask |= 1 << (x - 1)
        out.append(mask)
    return out


def is_union_closed(masks: Sequence[int]) -> bool:
    present = set(masks)
    masks = list(masks)
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if a | b not in present:
                return False
    return True


def is_separating(sets: Sequence[Sequence[int]], n: int) -> bool:
    """No two elements of [n] lie in exactly the same members."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(sets):
        for x in s:
            rows[x - 1].append(i)
    return len({tuple(r) for r in rows}) == n


def sets_of(masks: Iterable[int]) -> list[list[int]]:
    out = []
    for mask in masks:
        out.append([k + 1 for k in range(mask.bit_length()) if mask >> k & 1])
    return out


def l_fold_weight(masks: Iterable[int], l: int) -> int:
    return sum(math.comb(bin(m).count("1"), l) for m in masks)


def reimer_holds(w: int, m: int) -> bool:
    """w >= m*log2(m)/2, decided exactly: 2**(2w) >= m**m."""
    return m < 2 or 1 << (2 * w) >= m ** m


def below_cap(w: int, n: int, m: int) -> bool:
    """w < m*log2(m)/2 + n(n+1)/2 + m, decided exactly."""
    k = 2 * (w - m) - n * (n + 1)
    return k < 0 or (m >= 2 and 1 << k < m ** m)


def weight_bound_errors(w: int, n: int, m: int) -> list[str]:
    """The l = 1 sandwich every separating union-closed family obeys, plus
    the cap that the package's construction promises."""
    errors = []
    if w < math.comb(n, 2):
        errors.append(f"weight {w} below the separation floor C({n},2)")
    if not reimer_holds(w, m):
        errors.append(f"weight {w} below the Reimer floor for m={m}")
    if not below_cap(w, n, m):
        errors.append(f"weight {w} not below the construction cap for (n={n}, m={m})")
    return errors


def reimer_l(m: int, l: int) -> float:
    """m * C(log2(m)/2, l), the l-fold Reimer floor."""
    x = math.log2(m) / 2 if m >= 1 else 0.0
    out = float(m)
    for i in range(l):
        out *= (x - i) / (i + 1)
    return out


def close_enough(got: float, want: float) -> bool:
    return abs(got - want) <= REL * max(1.0, abs(want))


def canonical_masks(masks: Sequence[int], n: int) -> tuple[int, ...]:
    """Least sorted mask tuple over all n! relabelings."""
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(sorted(
            sum(1 << perm[k] for k in range(n) if mask >> k & 1) for mask in masks
        ))
        if best is None or key < best:
            best = key
    return best if best is not None else ()


def union_closure(masks: Iterable[int]) -> set[int]:
    have = set(masks)
    frontier = list(have)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(have):
                if a | b not in have:
                    have.add(a | b)
                    fresh.append(a | b)
        frontier = fresh
    return have


def relabel(masks: Iterable[int], order: Sequence[int]) -> list[int]:
    """Element order[k] (0-based) becomes element k."""
    return [sum(1 << k for k, old in enumerate(order) if mask >> old & 1) for mask in masks]
