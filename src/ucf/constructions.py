"""Builders for separating union-closed families.

Three closed forms, plus a general builder that hits any feasible size:

* staircase(n): the n-1 suffix sets {n}, {n-1,n}, ..., {2..n}; the minimum
  weight separating union-closed family on [n].
* plateau(n): all n sets [n] minus a point, plus [n] itself; weight n**2.
* powerset(n): every subset of [n].
* intermediate(n, m): a separating union-closed family of size exactly m for
  any m between n-1 and 2**n, built from a small union of anchored subcubes
  below a chain of prefixes [b+2], ..., [n].
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from .bounds import below_min_weight_upper, min_weight_upper
from .errors import InvalidInputError, InvariantError, UnsupportedScaleError
from .family import MAX_M, SetFamily, check_domain

KINDS = ("staircase", "plateau", "powerset", "intermediate")
# Most cells a grid sweep builds: 8x the default 8,136-cell grid.  Measured
# on a shared 2-core machine at 1,100 cells/s up to n = 12 and 160 cells/s
# for n up to 64, so a full-size sweep takes 1-7 minutes.
MAX_SWEEP_CELLS = 1 << 16


@dataclass(frozen=True)
class IntermediateTrace:
    """How intermediate(n, m) arrived at its family.

    case is one of "powerset", "staircase", "staircase_empty",
    "staircase_singleton", or "general".  The remaining fields are only
    populated in the general case: b is the largest subcube dimension,
    expansion lists the binary expansion exponents of m - n + b + 1
    (descending), technical records whether the leading exponent equals b,
    and base_size + top_size = m.
    """

    case: str
    b: Optional[int] = None
    expansion: Optional[tuple[int, ...]] = None
    technical: Optional[bool] = None
    base_size: Optional[int] = None
    top_size: Optional[int] = None

    def to_dict(self) -> dict:
        expansion = None if self.expansion is None else list(self.expansion)
        return {**asdict(self), "expansion": expansion}


def staircase(n: int) -> SetFamily:
    """Suffix chain {n}, {n-1,n}, ..., {2,...,n}; empty for n = 1."""
    check_domain(n)
    full = (1 << n) - 1
    masks = [full ^ ((1 << k) - 1) for k in range(n - 1, 0, -1)]
    return SetFamily(n, tuple(masks))


def plateau(n: int) -> SetFamily:
    """The n co-points of [n] plus [n] itself.  For n = 1 this degenerates
    to the two-member family {{}, {1}}."""
    check_domain(n)
    full = (1 << n) - 1
    masks = [full ^ (1 << i) for i in range(n)] + [full]
    return SetFamily(n, tuple(masks))


def powerset(n: int) -> SetFamily:
    if not 1 <= n <= 20:
        raise InvalidInputError("powerset supported for 1 <= n <= 20")
    return SetFamily(n, tuple(range(1 << n)))


def check_cell(n: int, m: int) -> None:
    """Refuse a cell intermediate(n, m) does not build."""
    check_domain(n)
    if not n - 1 <= m <= (1 << n):
        raise InvalidInputError(
            f"no separating union-closed family of size {m} exists on [{n}]: "
            f"need n - 1 <= m <= 2**n"
        )
    if m > MAX_M:
        raise UnsupportedScaleError(f"intermediate supported up to m = {MAX_M}")


def intermediate(n: int, m: int) -> tuple[SetFamily, IntermediateTrace]:
    """Separating union-closed family of size exactly m on [n].

    Requires n - 1 <= m <= 2**n.  Sizes up to n + 1 come from the staircase
    with at most two extra sets; size 2**n is the powerset.  In between, pick
    the unique b with 2**b - b <= m - n < 2**(b+1) - (b+1), expand
    e = m - n + b + 1 in binary, and take the disjoint union of anchored
    subcubes of those dimensions inside [b+1], topped by the prefix chain
    [b+2], ..., [n].  Every output is re-checked against the full oracle
    suite before it is returned.
    """
    check_cell(n, m)
    if m == (1 << n):
        family, trace = powerset(n), IntermediateTrace("powerset")
    elif m == n - 1:
        family, trace = staircase(n), IntermediateTrace("staircase")
    elif m == n:
        family = SetFamily(n, (0,) + staircase(n).masks)
        trace = IntermediateTrace("staircase_empty")
    elif m == n + 1:
        if n == 2:
            # {{}, {2}, {1,2}}: the staircase plus {1} is not union-closed
            # on two elements, so close it upward instead.
            family = SetFamily(2, (0, 2, 3))
        else:
            extra = 1 << (n - 2)  # the singleton {n-1}
            family = SetFamily(n, (0, extra) + staircase(n).masks)
        trace = IntermediateTrace("staircase_singleton")
    else:
        family, trace = _general_case(n, m)

    _check_output(family, n, m)
    return family, trace


def _general_case(n: int, m: int) -> tuple[SetFamily, IntermediateTrace]:
    gap = m - n
    b = 1
    while not ((1 << b) - b <= gap < (1 << (b + 1)) - (b + 1)):
        b += 1
    e = gap + b + 1
    expansion = tuple(i for i in range(e.bit_length() - 1, -1, -1) if (e >> i) & 1)

    # 2**b + 1 <= e < 2**(b+1), so each anchor lies above its own cube and
    # below the one before: the cubes are disjoint subsets of [b+1] holding
    # e sets, and m < 2**n gives b + 1 <= n.
    base = []
    anchor = b + 1
    for dim in expansion:
        # Each subset x of [dim] plus the anchor bit a, which lies above it: x | a == x + a.
        a = 1 << (anchor - 1)
        base.extend(range(a, a + (1 << dim)))
        anchor = dim

    if len(base) <= 1 << 16:
        base_family = SetFamily(b + 1, tuple(base))
        if not base_family.is_union_closed():
            raise InvariantError("base is not union-closed")
        if not base_family.is_separating():
            raise InvariantError("base is not separating")

    top = [(1 << k) - 1 for k in range(b + 2, n + 1)]
    family = SetFamily(n, tuple(base) + tuple(top))
    trace = IntermediateTrace(
        "general",
        b=b,
        expansion=expansion,
        technical=expansion[0] == b,
        base_size=len(base),
        top_size=len(top),
    )
    return family, trace


def _check_output(family: SetFamily, n: int, m: int) -> None:
    if len(family) != m:
        raise InvariantError(f"built {len(family)} sets, wanted {m}")
    if not family.is_union_closed():
        raise InvariantError("construction is not union-closed")
    if not family.is_separating():
        raise InvariantError("construction is not separating")
    w = family.weight()
    if not below_min_weight_upper(n, m, w):
        raise InvariantError(f"weight {w} reached the cap {min_weight_upper(n, m)}")


def build(kind: str, n: int, m: Optional[int] = None) -> tuple[SetFamily, Optional[IntermediateTrace]]:
    """Dispatch a construction request; only intermediate takes m."""
    if kind not in KINDS:
        raise InvalidInputError(f"unknown construction kind {kind!r}")
    if kind == "intermediate":
        if m is None:
            raise InvalidInputError("intermediate needs a target size m")
        return intermediate(n, m)
    if m is not None:
        raise InvalidInputError(f"{kind} does not take a target size")
    return {"staircase": staircase, "plateau": plateau, "powerset": powerset}[kind](n), None
