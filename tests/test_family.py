import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from ucf import (
    InvalidInputError,
    InvariantError,
    SetFamily,
)


def fam(n, *sets):
    return SetFamily.from_sets(n, [list(s) for s in sets])


def test_from_sets_roundtrip():
    f = fam(3, (), (1,), (1, 3))
    assert f.n == 3
    assert f.members() == [(), (1,), (1, 3)]
    assert len(f) == 3
    assert 0b101 in f


def test_masks_are_bit_encoded():
    f = fam(4, (2, 4))
    assert f.masks == (0b1010,)


def test_rejects_bad_domains_and_masks():
    with pytest.raises(InvalidInputError):
        SetFamily(0, ())
    with pytest.raises(InvalidInputError):
        SetFamily(2, (4,))
    with pytest.raises(InvalidInputError):
        SetFamily(2, (1, 1))
    with pytest.raises(InvalidInputError):
        fam(2, (1, 2, 3))


def test_rejects_bools_as_integers():
    with pytest.raises(InvalidInputError, match="domain size"):
        SetFamily(True, (True,))
    with pytest.raises(InvalidInputError, match="mask True"):
        SetFamily(2, (True,))
    with pytest.raises(InvalidInputError, match="element True"):
        SetFamily.from_sets(2, [(True,)])


@pytest.mark.parametrize("masks, message", [
    ((1, -1, 2), "mask -1 out of range for domain [3]"),
    ((1, 8), "mask 8 out of range for domain [3]"),
    ((2, True), "mask True out of range for domain [3]"),
    ((1, np.int64(3)), f"mask {np.int64(3)!r} out of range for domain [3]"),
    ((1, 2.0), "mask 2.0 out of range for domain [3]"),
    ((1, 6, 1), "duplicate set (1,)"),
    ((6, 2, 6, 9), "duplicate set (2, 3)"),
    ((6, 9, 2, 6), "mask 9 out of range for domain [3]"),
])
def test_validation_names_the_first_offending_mask(masks, message):
    # The first six break one rule each, so the whole-family check must catch
    # each of them on its own; the last two break two, and the mask-by-mask
    # walk reports whichever comes first.
    with pytest.raises(InvalidInputError) as info:
        SetFamily(3, masks)
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [0, -2, 4])
def test_from_sets_rejects_elements_outside_the_domain(bad):
    with pytest.raises(InvalidInputError, match=f"element {bad} outside domain"):
        fam(3, (1,), (bad, 2))


def test_weight_is_total_membership():
    f = fam(4, (4,), (3, 4), (2, 3, 4))
    assert f.weight() == 6
    assert f.size_histogram() == {1: 1, 2: 1, 3: 1}


def test_l_fold_weight_counts_subsets():
    f = fam(4, (4,), (3, 4), (2, 3, 4))
    assert f.l_fold_weight(1) == 6
    assert f.l_fold_weight(2) == 4
    assert f.l_fold_weight(3) == 1
    assert f.l_fold_weight(4) == 0


def test_degree_profile_double_counts():
    f = fam(4, (4,), (3, 4), (2, 3, 4))
    prof = f.degree_profile()
    assert prof.degrees == (0, 1, 2, 3)
    assert prof.weight == 6 == sum(prof.degrees)
    assert prof.size == 3


def test_union_closed_detection():
    assert fam(3, (1,), (2,), (1, 2)).is_union_closed()
    assert not fam(3, (1,), (2,)).is_union_closed()
    assert fam(3).is_union_closed()
    assert fam(3, ()).is_union_closed()


def test_union_closure_is_idempotent_and_minimal():
    f = fam(3, (1,), (2,), (3,))
    closed = f.union_closure()
    assert closed.is_union_closed()
    assert set(f.masks) <= set(closed.masks)
    assert len(closed) == 7  # all nonempty subsets, never the empty set
    assert 0 not in closed.masks
    again = closed.union_closure()
    assert again.masks == closed.masks


def _closure_oracle(masks):
    # Plain fixed point: add every pairwise union until nothing is new.
    closed = set(masks)
    while True:
        new = {a | b for a in closed for b in closed} - closed
        if not new:
            return closed
        closed |= new


def test_union_closure_matches_a_fixed_point_oracle():
    rng = random.Random(20)
    for n in range(1, 9):
        for _ in range(25):
            masks = rng.sample(range(1 << n), rng.randint(0, min(12, 1 << n)))
            closed = SetFamily(n, tuple(masks)).union_closure()
            assert set(closed.masks) == _closure_oracle(masks), (n, masks)
            added = closed.masks[len(masks):]
            assert closed.masks[:len(masks)] == tuple(masks)
            assert list(added) == sorted(added)
            assert closed.union_closure().masks == closed.masks


def test_separation_basics():
    f = fam(3, (1,), (1, 2), (1, 2, 3))
    assert f.is_separating()
    assert f.separates(1, 2)
    g = fam(3, (1, 2), (1, 2, 3))
    assert not g.separates(1, 2)
    assert g.separation_partition().classes == ((1, 2), (3,))


def test_reduce_merges_inseparable_elements():
    g = fam(3, (1, 2), (1, 2, 3))
    r = g.reduce()
    assert r.n == 2
    assert len(r) == len(g)
    assert r.is_separating()
    assert r.members() == [(1,), (1, 2)]


def test_reduce_on_separating_family_is_relabeling_only():
    f = fam(3, (1,), (1, 2), (1, 2, 3))
    r = f.reduce()
    assert r.n == 3 and len(r) == 3


def test_induced_family_renumbers():
    f = fam(4, (1,), (1, 2), (1, 2, 4), (3,))
    sub, renumber = f.induced([1])
    assert sub.n == 3
    assert renumber == {2: 1, 3: 2, 4: 3}
    assert sub.members() == [(), (1,), (1, 3)]
    with pytest.raises(InvalidInputError):
        f.induced([1, 2, 3, 4])


@pytest.mark.parametrize("bad", [0, -1, 4])
def test_induced_rejects_elements_outside_the_domain(bad):
    with pytest.raises(InvalidInputError, match="outside domain"):
        fam(3, (1,), (1, 2)).induced([bad])


def test_relabel_by_degree_sorts_degrees():
    f = fam(3, (1,), (1, 2))
    g, order = f.relabel_by_degree()
    degs = g.degree_profile().degrees
    assert list(degs) == sorted(degs)
    assert sorted(order) == [1, 2, 3]
    assert g.masks == f.relabel(order).masks


def test_relabel_rejects_non_permutations():
    f = fam(3, (1,))
    with pytest.raises(InvalidInputError):
        f.relabel((1, 1, 2))


def test_frankl_witness_prefers_lex_least():
    f = fam(2, (1,), (2,), (1, 2))
    wit = f.frankl_witness(1)
    assert wit.subset == (1,)
    assert wit.count == 2
    assert wit.meets_threshold  # 2 >= 3/2
    assert wit.margin == wit.count - wit.threshold


def test_frankl_witness_empty_family_meets_zero_threshold():
    f = fam(2)
    wit = f.frankl_witness(1)
    assert wit.count == 0 and wit.meets_threshold


def test_expected_l_degree_exact():
    from fractions import Fraction
    f = fam(4, (4,), (3, 4), (2, 3, 4))
    assert f.expected_l_degree(1) == Fraction(6, 4)
    assert f.expected_l_degree(2) == Fraction(4, 6)


def test_degree_validation():
    f = fam(2, (1,))
    with pytest.raises(InvalidInputError):
        f.separates(0, 1)
    with pytest.raises(InvalidInputError):
        f.frankl_witness(3)


def test_l_fold_weight_edges():
    f = SetFamily.from_sets(3, [[], [1], [1, 2], [1, 2, 3]])
    assert f.l_fold_weight(0) == len(f)
    assert f.l_fold_weight(1) == f.weight()
    with pytest.raises(InvalidInputError):
        f.l_fold_weight(-1)


def test_induced_on_one_element_counts_degree():
    f = SetFamily.from_sets(3, [[], [1], [1, 2], [1, 2, 3], [2, 3]])
    degrees = f.degree_profile().degrees
    for x in (1, 2, 3):
        sub, renumber = f.induced([x])
        assert len(sub) == degrees[x - 1]
        assert sub.n == 2
        assert sorted(renumber) == [y for y in (1, 2, 3) if y != x]


# Seeded property checks: random families on [n <= 8] against plain-Python
# oracles that read members as sets of elements.


def _random_families(seed, count=12):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        masks = rng.sample(range(1 << n), rng.randint(0, min(16, 1 << n)))
        yield rng, SetFamily(n, tuple(masks))


def _sets(family):
    return [set(members) for members in family.members()]


def _classes_oracle(family):
    by_signature = {}
    for x in range(1, family.n + 1):
        by_signature.setdefault(tuple(x in s for s in _sets(family)), []).append(x)
    return sorted(tuple(block) for block in by_signature.values())


@pytest.mark.parametrize("seed", range(10))
def test_separation_partition_and_reduce_match_oracles(seed):
    for _, f in _random_families(seed):
        classes = _classes_oracle(f)
        assert f.separation_partition().classes == tuple(classes)
        assert f.is_separating() == (len(classes) == f.n)
        block_of = {x: k for k, block in enumerate(classes, start=1) for x in block}
        reduced = f.reduce()
        assert reduced.n == len(classes)
        assert _sets(reduced) == [{block_of[x] for x in s} for s in _sets(f)]
        assert reduced.is_separating()


@pytest.mark.parametrize("seed", range(10))
def test_induced_and_relabel_match_oracles(seed):
    for rng, f in _random_families(seed):
        order = rng.sample(range(1, f.n + 1), f.n)
        assert _sets(f.relabel(order)) == [
            {k for k in range(1, f.n + 1) if order[k - 1] in s} for s in _sets(f)]
        removed = set(rng.sample(range(1, f.n + 1), rng.randint(0, f.n - 1)))
        kept = [x for x in range(1, f.n + 1) if x not in removed]
        renumber = {old: new for new, old in enumerate(kept, start=1)}
        sub, got = f.induced(sorted(removed))
        assert (sub.n, got) == (len(kept), renumber)
        assert _sets(sub) == [{renumber[x] for x in s - removed} for s in _sets(f) if removed <= s]


@pytest.mark.parametrize("seed", range(10))
def test_frankl_witness_matches_oracle(seed):
    for rng, f in _random_families(seed):
        l = rng.randint(1, min(f.n, 4))
        counts = {combo: sum(set(combo) <= s for s in _sets(f))
                  for combo in itertools.combinations(range(1, f.n + 1), l)}
        most = max(counts.values())
        witness = f.frankl_witness(l)
        assert witness.subset == min(combo for combo, c in counts.items() if c == most)
        assert witness.count == most
        assert witness.threshold == Fraction(len(f), 1 << l)
