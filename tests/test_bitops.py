import random

import numpy as np
import pytest

from ucf.bitops import _SMALL_SIGNATURES, bit_columns, mask_of, signature_groups
from ucf.family import SetFamily


def oracle_groups(masks, n):
    """Plain reference: elements with equal membership tuples share a group,
    groups listed by their smallest element."""
    groups = {}
    for x in range(1, n + 1):
        key = tuple((msk >> (x - 1)) & 1 for msk in masks)
        groups.setdefault(key, []).append(x)
    return sorted(groups.values(), key=lambda g: g[0])


def merged_masks(rng, n, m, classes):
    """m random members on [n] in which the elements of each of `classes`
    labels always appear together, so their columns repeat."""
    label = [rng.randrange(classes) for _ in range(n)]
    class_mask = [0] * classes
    for x, c in enumerate(label):
        class_mask[c] |= 1 << x
    out = []
    for _ in range(m):
        chosen = rng.getrandbits(classes)
        out.append(sum(class_mask[c] for c in range(classes) if chosen >> c & 1))
    return out


NS = (1, 8, 63, 64, 65, 200)
# Around the plain-Python cutoff at n = 8, not multiples of 8, and around
# bit_columns' 4096-member chunks.
MS = (0, 1, 3, 15, 17, 100, 4095, 4096, 4097, 8193)


def test_cases_straddle_the_python_cutoff():
    assert 8 * 15 <= _SMALL_SIGNATURES < 8 * 17


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("m", MS)
def test_signature_groups_matches_oracle(n, m):
    rng = random.Random(n * 100003 + m)
    masks = [rng.getrandbits(n) for _ in range(m)]
    assert signature_groups(masks, n) == oracle_groups(masks, n)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("m", MS)
def test_signature_groups_merges_repeated_columns(n, m):
    rng = random.Random(n * 7919 + m)
    masks = merged_masks(rng, n, m, classes=max(1, n // 3))
    groups = signature_groups(masks, n)
    assert groups == oracle_groups(masks, n)
    assert [g[0] for g in groups] == sorted(g[0] for g in groups)
    assert sorted(x for g in groups for x in g) == list(range(1, n + 1))


def test_signature_groups_random_against_oracle():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(1, 90)
        m = rng.randint(0, 300)
        masks = merged_masks(rng, n, m, classes=rng.randint(1, n))
        assert signature_groups(masks, n) == oracle_groups(masks, n)


@pytest.mark.parametrize("m", [2, 40])
def test_groups_are_ordered_by_smallest_element(m):
    # Columns: 1 and 5 read 0b10, 2 and 4 read 0b01, 3 reads 0b11.  Sorting
    # by column bytes would put {2, 4} first; the groups must start at 1.
    # Members past the first two each hold one fresh element.
    n = 5 + m - 2
    masks = [mask_of([2, 3, 4]), mask_of([1, 3, 5])]
    masks += [mask_of([x]) for x in range(6, n + 1)]
    groups = signature_groups(masks, n)
    assert groups[:3] == [[1, 5], [2, 4], [3]]
    assert groups == oracle_groups(masks, n)


@pytest.mark.parametrize("n", [8, 64, 65])
@pytest.mark.parametrize("j", [0, 4095, 4096, 4097, 8192])
def test_one_member_splits_a_class(n, j):
    # Every member is the full set except member j = {1}: only that member's
    # bit, wherever its chunk puts it, separates 1 from the rest.
    full = (1 << n) - 1
    masks = [full] * 8193
    masks[j] = 1
    assert signature_groups(masks, n) == [[1], list(range(2, n + 1))]


@pytest.mark.parametrize("n,m", [(8, 17), (64, 4097), (65, 8193)])
def test_bit_columns_packs_membership(n, m):
    rng = random.Random(n + m)
    masks = [rng.getrandbits(n) for _ in range(m)]
    cols = bit_columns(masks, n)
    assert cols.shape == (n, (m + 7) // 8) and cols.dtype == np.uint8
    bits = np.unpackbits(cols, axis=1, count=m, bitorder="little")
    want = [[(msk >> x) & 1 for msk in masks] for x in range(n)]
    assert bits.tolist() == want


@pytest.mark.parametrize("base", [
    (0, 1, 2, 4, 8),  # 5 members x 9 elements: the plain-Python tier
    tuple(range(16)),  # 16 x 9: the numpy tier
])
def test_reduce_pins_merged_classes(base):
    # A separating family on [4] blown up so point c becomes classes[c].
    classes = ((1, 4, 7), (2, 5), (3,), (6, 8, 9))
    masks = tuple(sum(mask_of(classes[c]) for c in range(4) if s >> c & 1) for s in base)
    f = SetFamily(9, masks)
    assert f.separation_partition().classes == classes
    assert not f.is_separating()
    r = f.reduce()
    assert r.n == 4
    assert r.masks == base
    assert r.is_separating()
