import math
import tracemalloc
from fractions import Fraction

import pytest

from ucf import (
    BoundsReport,
    InvalidInputError,
    UnsupportedScaleError,
    avg_degree_lower,
    avg_degree_lower_at,
    expected_l_degree_lower,
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
from ucf.bounds import CSV_COLUMNS, _fmt, log2_exact
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


def test_avg_degree_lower_at_picks_better_side():
    # reimer side dominates for many sets on few elements
    assert avg_degree_lower_at(4, 16) == pytest.approx(8.0)
    # separation side dominates for few sets on many elements
    assert avg_degree_lower_at(100, 99) == pytest.approx(49.5)


def test_expected_l_degree_lower():
    got = expected_l_degree_lower(4, 8, 1)
    assert got.valid == pytest.approx(3.0)  # max(C(4,2), 12) / C(4,1)
    assert got.leading == pytest.approx(math.sqrt(8 * 3 / 4))
    with pytest.raises(InvalidInputError):
        expected_l_degree_lower(2, 4, 3)


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


def test_csv_row_integer_formatting():
    row = BoundsReport.build(4, 8, 1).csv_row()
    assert row[CSV_COLUMNS.index("reimer")] == "12"
    assert row[CSV_COLUMNS.index("separation")] == "6"


def test_fmt_formats_every_cell_type():
    assert [_fmt(x) for x in (None, True, False, 0, 10**12, 3.0, 2.5, 1 / 3)] == [
        "", "true", "false", "0", "1000000000000", "3", "2.5", "0.3333333333"]
    row = BoundsReport.build(4096, 5, 2).csv_row()
    assert row[CSV_COLUMNS.index("separation")] == str(math.comb(4096, 3))
