"""Closed-form weight bounds for union-closed and separating families.

Lower bounds come from two independent sources: an information-theoretic one
in the family size m (Reimer's average set size theorem and its l-fold
generalization), and a combinatorial one in the domain size n forced by
separation.  Upper bounds come from the explicit constructions.  Floats
take log2 of a power of two from bit_length; compare_reimer_l compares any
rational with the Reimer side m * C(log2(m) / 2, l) exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional

from .errors import InvalidInputError, UnsupportedScaleError
from .family import MAX_M, check_domain

CSV_COLUMNS = (
    "n", "m", "l", "reimer", "separation", "combined",
    "upper", "avg_deg", "knill", "satisfiable",
)
# 170! is the largest factorial a float holds.
MAX_L = 170


def satisfiable(n: int, m: int) -> bool:
    """True iff some n-separating union-closed family has exactly m members."""
    if n < 1 or m < 0:
        raise InvalidInputError("need n >= 1 and m >= 0")
    # For m >= 0, (m - 1).bit_length() <= n iff m <= 2**n; 2**n is never built.
    return n - 1 <= m and (m - 1).bit_length() <= n


def log2_exact(m: int) -> float:
    if m & (m - 1) == 0:
        return float(m.bit_length() - 1)
    return math.log2(m)


def reimer_lower(m: int) -> float:
    """m * log2(m) / 2; valid for every union-closed family of m >= 1 sets,
    with equality exactly on powersets."""
    return reimer_l_lower(m, 1)


def separation_lower(n: int, l: int = 1) -> int:
    """C(n, l+1): the least possible l-fold weight of an n-separating
    union-closed family."""
    if n < 1 or l < 1:
        raise InvalidInputError("need n >= 1 and l >= 1")
    return math.comb(n, l + 1)


def generalized_binomial(x: float, l: int) -> float:
    """Falling factorial x(x-1)...(x-l+1) / l!; may be negative."""
    if l < 0:
        raise InvalidInputError("l must be nonnegative")
    if l > MAX_L:
        raise UnsupportedScaleError(f"l-fold bounds are computed in floats up to l = {MAX_L}")
    out = 1.0
    for i in range(l):
        out *= x - i
    return out / math.factorial(l)


def reimer_l_lower(m: int, l: int) -> float:
    """m * C(log2(m)/2, l), the l-fold analogue of reimer_lower.  Reported
    raw even where it goes negative and is vacuous."""
    if m < 1:
        raise InvalidInputError("need at least one member")
    return m * generalized_binomial(log2_exact(m) / 2, l)


def min_weight_upper(n: int, m: int) -> float:
    """m*log2(m)/2 + n(n+1)/2 + m: the weight of intermediate(n, m) stays
    strictly below this."""
    if not satisfiable(n, m):
        raise InvalidInputError(f"(n={n}, m={m}) is not satisfiable")
    return (reimer_lower(m) if m >= 1 else 0.0) + n * (n + 1) / 2 + m


def _log2_brackets(m: int) -> Iterator[tuple[int, int, int]]:
    """Integer brackets (p, a, b), a <= 2**p * log2(m) <= b, for m >= 1: at
    p = 0 from the bit length, a == b exactly at a power of two; then at
    p = 8, 16, 32, ... from p squarings of m, each kept to p + 64 bits times
    a common power of two, so no power of m is held in full; b - a <= 2."""
    b = m.bit_length()
    yield 0, b - 1, b - 1 if m & (m - 1) == 0 else b
    p = 8
    while True:
        low = high = m
        shift = 0
        for _ in range(p):
            low, high = low * low, high * high
            drop = max(high.bit_length() - p - 64, 0)
            low, high = low >> drop, -(-high >> drop)
            shift = 2 * shift + drop
        yield p, low.bit_length() - 1 + shift, high.bit_length() + shift
        p *= 2


def compare_reimer_l(value: int | Fraction, m: int, l: int = 1) -> int:
    """Sign of value - m * C(log2(m) / 2, l) for a rational value, exactly;
    the bound is 0 at m = 0.  Valid where C(x, l) grows with x = log2(m) / 2:
    l = 1 or m > 4**(l-1).  At a power of two the first bracket of
    _log2_brackets is exact; elsewhere log2(m) is transcendental
    (Gelfond-Schneider), the bound is irrational, and the brackets narrow
    until value falls outside.  With x = c / 2**(p+1) both sides are scaled
    to integers: value * l! * 2**((p+1)l) and m * prod(c - i * 2**(p+1))."""
    num, den = value.numerator, value.denominator
    if m == 0:
        return (num > 0) - (num < 0)
    if l > 1 and m <= 1 << 2 * (l - 1):
        raise InvalidInputError(f"the {l}-fold Reimer bound is compared only for m > 4**{l - 1}")
    for p, a, b in _log2_brackets(m):
        one = 2 << p
        low = high = den * m  # x >= l - 1: a lower end below it is raised to it
        for i in range(l):
            low *= max(a, (l - 1) * one) - i * one
            high *= b - i * one
        scaled = num * math.factorial(l) * one**l
        sign = (scaled > high) - (scaled < low)
        if sign or a == b:
            return sign


@lru_cache(maxsize=None)
def reimer_l_floor(m: int, l: int = 1) -> tuple[int, bool]:
    """(floor of m * C(log2(m) / 2, l), whether the bound equals it): the float
    estimate corrected by compare_reimer_l, so exact wherever that is valid."""
    low = math.floor(reimer_l_lower(m, l)) if m else 0
    while compare_reimer_l(low, m, l) > 0:
        low -= 1
    while compare_reimer_l(low + 1, m, l) <= 0:
        low += 1
    return low, compare_reimer_l(low, m, l) == 0


def below_min_weight_upper(n: int, m: int, w: int) -> bool:
    """w < min_weight_upper(n, m), decided exactly: with
    k = 2w - n(n+1) - 2m, this is k / 2 < m * log2(m) / 2."""
    if not satisfiable(n, m):
        raise InvalidInputError(f"(n={n}, m={m}) is not satisfiable")
    return compare_reimer_l(Fraction(2 * w - n * (n + 1) - 2 * m, 2), m) < 0


def min_l_weight_upper(n: int, m: int, l: int) -> float:
    """Leading term C(n, l+1) + m*C(log2(m)/2, l) of the minimal l-fold
    weight; exact only up to a 1 + o(1) factor, as BoundsReport.upper_asymptotic says."""
    if l < 1:
        raise InvalidInputError("need l >= 1")
    if not satisfiable(n, m):
        raise InvalidInputError(f"(n={n}, m={m}) is not satisfiable")
    return separation_lower(n, l) + (reimer_l_lower(m, l) if m >= 1 else 0.0)


def avg_degree_lower(m: int) -> float:
    """sqrt(m * log2(m)) / 2 - 1/4: average degree of any separating
    union-closed family of m sets, whatever its domain size."""
    return math.sqrt(2 * reimer_lower(m)) / 2 - 0.25


def knill_lower(m: int) -> float:
    """m / log2(m), the classical maximum-degree benchmark for union-closed
    families of m sets."""
    if m < 2:
        raise InvalidInputError("need at least two members")
    return m / log2_exact(m)


def subcube_base_weight_cap(size: int) -> float:
    """Strict cap size*log2(size)/2 + size on the weight of the anchored
    subcube bases produced by the general construction."""
    if size < 2:
        raise InvalidInputError("base has at least two sets")
    return reimer_lower(size) + size


def subcube_base_l_weight_cap(size: int, l: int) -> float:
    """Strict cap (1 + 2l/log2(size)) * (size/l!) * (log2(size)/2)**l on the
    l-fold weight of the same bases."""
    if size < 2 or l < 1:
        raise InvalidInputError("need size >= 2 and l >= 1")
    lg = log2_exact(size)
    return (1 + 2 * l / lg) * (size / math.factorial(l)) * (lg / 2) ** l


@dataclass(frozen=True)
class BoundsReport:
    """Every closed-form bound for one (n, m, l) cell."""

    n: int
    m: int
    l: int
    reimer: float
    separation: int
    combined: float
    upper: Optional[float]
    upper_asymptotic: bool
    avg_deg: float
    knill: Optional[float]
    satisfiable: bool

    @classmethod
    def build(cls, n: int, m: int, l: int = 1) -> "BoundsReport":
        if m < 1:
            raise InvalidInputError("need at least one member")
        if l < 1:
            raise InvalidInputError("need l >= 1")
        check_domain(n)
        if m > MAX_M:
            raise UnsupportedScaleError(f"bounds supported up to m = {MAX_M}")
        reimer = reimer_l_lower(m, l)
        separation = separation_lower(n, l)
        sat = satisfiable(n, m)
        upper: Optional[float] = None
        if sat:
            upper = min_weight_upper(n, m) if l == 1 else min_l_weight_upper(n, m, l)
        return cls(
            n=n, m=m, l=l,
            reimer=reimer,
            separation=separation,
            combined=max(reimer, float(separation)),
            upper=upper,
            upper_asymptotic=sat and l > 1,
            avg_deg=avg_degree_lower(m),
            knill=knill_lower(m) if m >= 2 else None,
            satisfiable=sat,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    def csv_row(self) -> list[str]:
        return [_fmt(getattr(self, c)) for c in CSV_COLUMNS]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):  # before int, which bool subclasses
        return "true" if x else "false"
    if isinstance(x, int) or x.is_integer():
        return str(int(x))
    return f"{x:.10g}"
