import math

import pytest

from ucf import (
    InvalidInputError,
    UnsupportedScaleError,
    build,
    intermediate,
    min_weight_upper,
    plateau,
    powerset,
    reimer_lower,
    satisfiable,
    separation_lower,
    staircase,
)
from ucf.constructions import MAX_M


def test_staircase_members():
    t4 = staircase(4)
    assert t4.members() == [(4,), (3, 4), (2, 3, 4)]
    assert t4.is_union_closed() and t4.is_separating()


def test_staircase_weight_is_n_choose_2():
    for n in range(1, 9):
        t = staircase(n)
        assert len(t) == n - 1
        assert t.weight() == math.comb(n, 2)


def test_staircase_degrees_are_0_to_n_minus_1():
    assert staircase(4).degree_profile().degrees == (0, 1, 2, 3)


def test_plateau_members():
    u4 = plateau(4)
    assert len(u4) == 5
    assert u4.weight() == 16
    assert set(u4.degree_profile().degrees) == {4}
    assert u4.is_union_closed() and u4.is_separating()


def test_plateau_weight_is_n_squared():
    for n in range(1, 9):
        assert plateau(n).weight() == n * n


def test_plateau_on_one_element():
    u1 = plateau(1)
    assert u1.members() == [(), (1,)]


def test_powerset():
    p3 = powerset(3)
    assert len(p3) == 8
    assert p3.weight() == 12
    assert set(p3.degree_profile().degrees) == {4}
    with pytest.raises(InvalidInputError):
        powerset(21)


@pytest.mark.parametrize("n,m,case", [
    (5, 4, "staircase"),
    (5, 5, "staircase_empty"),
    (5, 6, "staircase_singleton"),
    (5, 32, "powerset"),
    (2, 3, "staircase_singleton"),
    (6, 10, "general"),
])
def test_intermediate_cases(n, m, case):
    family, trace = intermediate(n, m)
    assert trace.case == case
    assert len(family) == m


def test_intermediate_two_three_is_closed():
    # the staircase plus a lone singleton is not union-closed on two
    # elements, so this cell gets its own family
    family, _ = intermediate(2, 3)
    assert family.members() == [(), (2,), (1, 2)]
    assert family.is_union_closed()


def test_intermediate_6_10_pinned():
    family, trace = intermediate(6, 10)
    assert family.weight() == 27
    assert trace.b == 2
    assert trace.expansion == (2, 1, 0)
    assert trace.technical
    assert trace.base_size == 7
    assert trace.top_size == 3
    top = {(1, 2, 3, 4), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)}
    assert top <= set(family.members())


def test_intermediate_4_7_pinned():
    family, trace = intermediate(4, 7)
    assert family.weight() == 15
    assert trace.expansion == (2, 1)
    assert trace.base_size == 6 and trace.top_size == 1


def test_intermediate_rejects_unsatisfiable():
    with pytest.raises(InvalidInputError):
        intermediate(3, 1)
    with pytest.raises(InvalidInputError):
        intermediate(3, 9)


def test_intermediate_refuses_sizes_past_the_cap():
    # Refused before any member list is built.
    with pytest.raises(UnsupportedScaleError):
        intermediate(64, 2**40)
    with pytest.raises(UnsupportedScaleError):
        intermediate(21, MAX_M + 1)


def test_intermediate_small_grid_sandwich():
    for n in range(1, 7):
        for m in range(n - 1, (1 << n) + 1):
            assert satisfiable(n, m)
            family, trace = intermediate(n, m)
            assert len(family) == m
            assert family.is_union_closed()
            assert family.is_separating()
            w = family.weight()
            low = max(reimer_lower(m) if m >= 1 else 0.0, float(separation_lower(n)))
            high = min_weight_upper(n, m)
            assert w >= low - 1e-9 * max(1.0, low)
            assert w <= high + 1e-9 * max(1.0, high)


def test_trace_to_dict_round():
    _, trace = intermediate(6, 10)
    d = trace.to_dict()
    assert d["case"] == "general"
    assert d["expansion"] == [2, 1, 0]
    _, trace = intermediate(4, 3)
    assert trace.to_dict() == {"case": "staircase", "b": None, "expansion": None,
                               "technical": None, "base_size": None, "top_size": None}


def test_build_dispatch():
    family, trace = build("staircase", 4)
    assert family.weight() == 6 and trace is None
    family, trace = build("intermediate", 6, 10)
    assert trace is not None
    with pytest.raises(InvalidInputError):
        build("pyramid", 3)
    with pytest.raises(InvalidInputError):
        build("plateau", 3, 5)
    with pytest.raises(InvalidInputError):
        build("intermediate", 3)


def test_named_constructions_closed_and_separating():
    for n in range(1, 17):
        candidates = [staircase(n), plateau(n)]
        if n <= 12:
            candidates.append(powerset(n))
        for family in candidates:
            assert family.is_union_closed()
            assert family.is_separating()
