import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from ucf import (
    BoundsReport,
    InvalidInputError,
    UnsupportedScaleError,
    avg_degree_lower,
    generalized_binomial,
    knill_lower,
    min_l_weight_upper,
    min_weight_upper,
    reimer_l_lower,
    reimer_lower,
    satisfiable,
    separation_lower,
    subcube_base_l_weight_cap,
    subcube_base_weight_cap,
)
from ucf import bounds
from ucf.bounds import CSV_COLUMNS, _fmt, compare_reimer_l, log2_exact, reimer_l_floor
from ucf.constructions import powerset
from ucf.family import MAX_DOMAIN, MAX_M


def test_satisfiable_window():
    assert satisfiable(3, 2) and satisfiable(3, 8)
    assert not satisfiable(3, 1) and not satisfiable(3, 9)
    assert satisfiable(1, 0)


def test_satisfiable_agrees_with_the_window_and_builds_no_power():
    for n in range(1, 12):
        for m in range((1 << n) + 3):
            assert satisfiable(n, m) == (n - 1 <= m <= 1 << n), (n, m)
    tracemalloc.start()
    try:
        assert satisfiable(10**8, 2 * 10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_log2_exact_on_powers_of_two():
    for k in range(0, 60):
        assert log2_exact(1 << k) == float(k)
    assert log2_exact(3) == math.log2(3)


def test_reimer_lower():
    assert reimer_lower(16) == 32.0
    assert reimer_lower(1) == 0.0
    assert reimer_lower(8) == 12.0
    with pytest.raises(InvalidInputError):
        reimer_lower(0)


def test_separation_lower():
    assert separation_lower(7) == 21
    assert separation_lower(5, 2) == 10
    assert separation_lower(1) == 0


def test_generalized_binomial_stops_where_factorials_leave_floats():
    # 170! is the largest factorial a float holds.
    want = Fraction(1)
    for i in range(170):
        want *= Fraction(1.5) - i
    assert generalized_binomial(1.5, 170) == pytest.approx(float(want / math.factorial(170)))
    with pytest.raises(UnsupportedScaleError, match="up to l = 170"):
        generalized_binomial(1.5, 171)
    with pytest.raises(UnsupportedScaleError):
        BoundsReport.build(3, 4, 171)


def test_generalized_binomial():
    assert generalized_binomial(1.5, 2) == pytest.approx(0.375)
    assert generalized_binomial(2.0, 2) == pytest.approx(1.0)
    # falls below zero between consecutive integers of the degree
    assert generalized_binomial(1.5, 3) < 0
    assert generalized_binomial(3.0, 1) == pytest.approx(3.0)


def test_reimer_l_lower_matches_weight_form():
    # l = 1 must agree with the plain bound
    for m in (2, 4, 8, 16, 100):
        assert reimer_l_lower(m, 1) == pytest.approx(reimer_lower(m))
    assert reimer_l_lower(16, 2) == pytest.approx(16.0)  # 16 * C(2, 2)


def test_min_weight_upper():
    # staircase weight + reimer term + family size
    assert min_weight_upper(4, 8) == pytest.approx(10 + 12 + 8)
    with pytest.raises(InvalidInputError):
        min_weight_upper(3, 100)


def test_min_l_weight_upper_is_leading_term():
    bound = min_l_weight_upper(4, 8, 2)
    assert bound == pytest.approx(math.comb(4, 3) + reimer_l_lower(8, 2))


def test_avg_degree_lower():
    assert avg_degree_lower(1 << 20) == pytest.approx(math.sqrt(20 * (1 << 20)) / 2 - 0.25)
    assert avg_degree_lower(1 << 20) == pytest.approx(2289.4836, abs=1e-3)


def test_knill_lower():
    assert knill_lower(8) == pytest.approx(8 / 3)
    with pytest.raises(InvalidInputError):
        knill_lower(1)


def test_subcube_base_caps():
    assert subcube_base_weight_cap(8) == pytest.approx(8 * 3 / 2 + 8)
    assert subcube_base_l_weight_cap(8, 1) == pytest.approx((1 + 2 / 3) * 8 * 1.5)
    with pytest.raises(InvalidInputError):
        subcube_base_weight_cap(1)


def test_bounds_report_pinned_cell():
    report = BoundsReport.build(4, 8, 1)
    assert report.reimer == pytest.approx(12.0)
    assert report.separation == 6
    assert report.combined == pytest.approx(12.0)
    assert report.upper == pytest.approx(30.0)
    assert not report.upper_asymptotic
    assert report.avg_deg == pytest.approx(math.sqrt(24) / 2 - 0.25)
    assert report.knill == pytest.approx(Fraction(8, 3))
    assert report.satisfiable


def test_bounds_report_unsatisfiable_cell():
    report = BoundsReport.build(3, 99)
    assert not report.satisfiable
    assert report.upper is None
    row = report.csv_row()
    assert len(row) == len(CSV_COLUMNS)
    assert row[CSV_COLUMNS.index("upper")] == ""
    assert row[-1] == "false"


def test_bounds_report_l2_upper_is_asymptotic():
    report = BoundsReport.build(4, 8, 2)
    assert report.upper_asymptotic
    assert report.l == 2


def test_bounds_report_refuses_past_the_caps():
    with pytest.raises(InvalidInputError):
        BoundsReport.build(MAX_DOMAIN + 1, 5)
    with pytest.raises(UnsupportedScaleError):
        BoundsReport.build(3, MAX_M + 1)
    # At both caps and the largest l every value is still a finite float.
    report = BoundsReport.build(MAX_DOMAIN, MAX_M, 170)
    assert all(math.isfinite(x) for x in (report.reimer, report.combined, report.upper))


@pytest.mark.parametrize("call", [
    lambda: satisfiable(0, 1),
    lambda: separation_lower(1, 0),
    lambda: generalized_binomial(1.0, -1),
    lambda: min_l_weight_upper(3, 4, 0),
    lambda: min_l_weight_upper(3, 9, 1),
    lambda: subcube_base_l_weight_cap(4, 0),
    lambda: BoundsReport.build(3, 0),
    lambda: BoundsReport.build(3, 4, 0),
], ids=["satisfiable-n0", "separation-l0", "binomial-l-1", "l-upper-l0", "l-upper-unsatisfiable",
        "l-cap-l0", "report-m0", "report-l0"])
def test_bounds_refuse_bad_arguments(call):
    with pytest.raises(InvalidInputError):
        call()


def test_csv_row_integer_formatting():
    row = BoundsReport.build(4, 8, 1).csv_row()
    assert row[CSV_COLUMNS.index("reimer")] == "12"
    assert row[CSV_COLUMNS.index("separation")] == "6"


def test_fmt_formats_every_cell_type():
    assert [_fmt(x) for x in (None, True, False, 0, 10**12, 3.0, 2.5, 1 / 3)] == [
        "", "true", "false", "0", "1000000000000", "3", "2.5", "0.3333333333"]
    row = BoundsReport.build(4096, 5, 2).csv_row()
    assert row[CSV_COLUMNS.index("separation")] == str(math.comb(4096, 3))


def exact_reimer_l(m, l):
    """m * C(log2(m) / 2, l) as a Fraction, for m a power of two."""
    x = Fraction(m.bit_length() - 1, 2)
    return m * math.prod(x - i for i in range(l)) / math.factorial(l)


def decimal_reimer_l(m, l):
    """m * C(log2(m) / 2, l) to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(m).ln() / Decimal(2).ln() / 2
        return Decimal(m) * math.prod(x - i for i in range(l)) / math.factorial(l)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_compare_reimer_l_signs_at_powers_of_two(l):
    for k in range(2 * l - 1, 21):
        m = 1 << k
        bound = exact_reimer_l(m, l)
        for step in (Fraction(1, 2), Fraction(1, 1 << 40), 1):
            got = [compare_reimer_l(v, m, l) for v in (bound - step, bound, bound + step)]
            assert got == [-1, 0, 1], (m, l, step)


def test_compare_reimer_l_is_zero_exactly_at_the_equality_cases():
    # Reimer: a powerset of [k] has weight k * 2**(k-1) = m * log2(m) / 2.
    assert compare_reimer_l(0, 1) == 0  # {{}}, the powerset of the empty set
    for k in range(1, 11):
        weight, m = powerset(k).weight(), 1 << k
        assert [compare_reimer_l(v, m) for v in (weight - 1, weight, weight + 1)] == [-1, 0, 1]
    # l-fold: at x = log2(m) / 2 = l the bound is m * C(l, l) = m.
    for l in (1, 2, 3, 4):
        m = 1 << 2 * l
        assert [compare_reimer_l(v, m, l) for v in (m - 1, m, m + 1)] == [-1, 0, 1]


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_compare_reimer_l_matches_a_decimal_reference(l):
    sizes = [m for m in (*range(4 ** (l - 1) + 1, 4 ** (l - 1) + 40), 1471, 4095, 10**5 + 7)
             if m & (m - 1)]
    for m in sizes:
        bound = decimal_reimer_l(m, l)
        base = math.floor(bound)
        for value in (base - 1, base, base + 1, base + 2):
            assert abs(value - bound) > Decimal("1e-40")
            assert compare_reimer_l(value, m, l) == (1 if value > bound else -1), (m, l, value)


@pytest.mark.parametrize("m", [2, 3, 5, 12, 100, 1023, 1471, 4096, 10**6 + 3])
def test_compare_reimer_l_on_half_integers(m):
    # The construction cap compares k / 2 with m * log2(m) / 2.
    bound = exact_reimer_l(m, 1) if m & (m - 1) == 0 else decimal_reimer_l(m, 1)
    center = math.floor(2 * bound)
    for k in range(center - 3, center + 4):
        value = Fraction(k, 2) if isinstance(bound, Fraction) else Decimal(k) / 2
        assert compare_reimer_l(Fraction(k, 2), m) == (value > bound) - (value < bound), (m, k)


def test_compare_reimer_l_at_m_zero_and_outside_its_regime():
    for l in (1, 2, 5):
        assert [compare_reimer_l(v, 0, l) for v in (Fraction(-1, 2), 0, Fraction(1, 3))] == [
            -1, 0, 1]
    for m, l in ((4, 2), (3, 2), (16, 3), (1, 2)):
        with pytest.raises(InvalidInputError):
            compare_reimer_l(0, m, l)
    assert compare_reimer_l(0, 5, 2) == -1


def test_compare_reimer_l_never_builds_a_power_of_m():
    m = 10**6 + 3
    floors = {l: math.floor(decimal_reimer_l(m, l)) for l in (1, 2, 3, 4)}
    tracemalloc.start()
    try:
        for l, floor in floors.items():
            assert compare_reimer_l(floor, m, l) == -1 and compare_reimer_l(floor + 1, m, l) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # m**m alone is 2.5 MB


def test_reimer_l_floor_corrects_a_wrong_float_estimate(monkeypatch):
    # The float estimate is right on every cell tried, so the correction
    # loops run only when it is pushed off by whole units, down and up.
    cells = [(m, l) for l in (1, 2, 3) for m in range(1, 4097) if l == 1 or m > 4 ** (l - 1)]
    reimer_l_floor.cache_clear()
    want = [reimer_l_floor(m, l) for m, l in cells]
    exact = bounds.reimer_l_lower
    try:
        for off in (-2, 2):
            monkeypatch.setattr(bounds, "reimer_l_lower", lambda m, l: exact(m, l) + off)
            reimer_l_floor.cache_clear()
            assert [reimer_l_floor(m, l) for m, l in cells] == want, off
    finally:
        reimer_l_floor.cache_clear()
