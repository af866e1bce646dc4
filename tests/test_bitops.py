import itertools
import random
import tracemalloc
from collections import Counter
from functools import reduce
from operator import or_

import numpy as np
import pytest

import ucf.bitops as bitops
from ucf.bitops import (
    _SMALL_SIGNATURES,
    bit_columns,
    element_signatures,
    mask_of,
    remap,
    signature_groups,
)
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
# signature_groups' 4096-member chunks for n <= 64.
MS = (0, 1, 3, 15, 17, 100, 4095, 4096, 4097, 8193)
# Around its 1024-member chunks for n > 64: one member short of a chunk,
# exactly one, one member past it, and one member into a third chunk.
WIDE_MS = (1023, 1024, 1025, 2049)


def test_cases_straddle_the_python_cutoff():
    assert 8 * 15 <= _SMALL_SIGNATURES < 8 * 17


def test_cases_straddle_the_chunk_edges():
    assert bitops._COLUMN_CHUNK in MS[MS.index(4095):]
    assert bitops._WIDE_COLUMN_CHUNK in WIDE_MS


@pytest.mark.parametrize("n,m", [(64, m) for m in MS[MS.index(4095):-1]]
                         + [(65, m) for m in WIDE_MS])
def test_signature_groups_at_the_chunk_edges(n, m):
    rng = random.Random(n * 31 + m)
    for masks in ([rng.getrandbits(n) for _ in range(m)],
                  merged_masks(rng, n, m, classes=n // 4)):
        assert signature_groups(masks, n) == oracle_groups(masks, n)


@pytest.mark.parametrize("n", [64, 65])
def test_class_ids_carry_across_chunks(n):
    # Elements 1 and 2 agree on the first chunk and differ only on the
    # second; 1 and 3 differ only on the first.  Ids kept from one chunk to
    # the next separate all three; either chunk alone would merge a pair.
    step = bitops._COLUMN_CHUNK if n <= 64 else bitops._WIDE_COLUMN_CHUNK
    rng = random.Random(n)
    masks = [rng.getrandbits(n) & ~0b111 for _ in range(2 * step)]
    masks[0] |= 0b011
    masks[step] |= 0b101
    for lo in (0, step):
        chunk = masks[lo:lo + step]
        assert oracle_groups(chunk, 3) == ([[1, 2], [3]] if lo == 0 else [[1, 3], [2]])
    groups = signature_groups(masks, n)
    assert groups[:3] == [[1], [2], [3]]
    assert groups == oracle_groups(masks, n)


def test_signature_groups_holds_one_chunk_of_columns():
    # The whole 714 x 2**15 bit matrix is 2.9 MB, and a bytes copy of its
    # rows another 2.9 MB; one 1024-member chunk's columns and their
    # unpacked bits take about 1.5 MB.
    rng = random.Random(714)
    masks = [rng.getrandbits(714) for _ in range(1 << 15)]
    tracemalloc.start()
    try:
        groups = signature_groups(masks, 714)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(groups) == 714
    assert peak < 4 << 20, peak


def signature_oracle(masks, n):
    """Groups of elements with equal element_signatures, by smallest element."""
    groups = {}
    for x, sig in enumerate(element_signatures(masks, n), start=1):
        groups.setdefault(sig, []).append(x)
    return list(groups.values())


@pytest.fixture
def column_widths(monkeypatch):
    """The (members, width) of every bit_columns call."""
    calls = []

    def recording(masks, n, _real=bitops.bit_columns):
        calls.append((list(masks), n))
        return _real(masks, n)

    monkeypatch.setattr(bitops, "bit_columns", recording)
    return calls


@pytest.mark.parametrize("m", [1025, 3000, 5000])
@pytest.mark.parametrize("n", [65, 200, 714])
def test_wide_chunks_pack_only_their_widest_member(column_widths, n, m):
    # Five blocks of members cut to widths n, 65, 64, 10 and 3, each block
    # shuffled, so the chunks that straddle them differ in width; merged
    # columns make classes span narrow and wide elements.
    rng = random.Random(n * 13 + m)
    widths = (n, 65, 64, 10, 3)
    masks = []
    for k, width in enumerate(widths):
        block = [msk & ((1 << width) - 1)
                 for msk in merged_masks(rng, n, (k + 1) * m // 5 - k * m // 5, n // 5)]
        rng.shuffle(block)
        masks += block
    assert signature_groups(masks, n) == signature_oracle(masks, n)
    step = bitops._WIDE_COLUMN_CHUNK
    chunks = [masks[lo:lo + step] for lo in range(0, m, step)]
    assert column_widths == [(c, max(c).bit_length()) for c in chunks]
    assert column_widths[-1][1] <= 10


def test_a_chunk_holding_only_the_empty_set_is_skipped(column_widths):
    masks = list(range(1, 1025)) + [0]
    assert signature_groups(masks, 100) == signature_oracle(masks, 100)
    assert [w for _, w in column_widths] == [11]


def test_elements_above_a_chunks_width_share_the_zero_column(column_widths):
    # The first chunk never holds elements 1 or 100; 1 is below its width
    # of 10, 100 is above it.  The second chunk holds them together, so
    # they stay one class, apart from every other element.
    n, step = 100, bitops._WIDE_COLUMN_CHUNK
    rng = random.Random(1)
    first = [rng.getrandbits(10) & ~1 | 1 << 9 for _ in range(step)]
    pair = 1 | 1 << 99
    second = [pair | rng.getrandbits(98) << 1 if k % 2 else rng.getrandbits(98) << 1
              for k in range(step)]
    masks = first + second
    groups = signature_groups(masks, n)
    assert [w for _, w in column_widths] == [10, n]
    assert [1, 100] in groups
    assert groups == signature_oracle(masks, n)


def test_a_narrow_chunk_of_a_wide_family_packs_from_uint64(column_widths):
    # One chunk of members below 2**64 and one reaching element 65: the
    # first call takes bit_columns' fromiter path, the second the bytes one.
    n, step = 65, bitops._WIDE_COLUMN_CHUNK
    rng = random.Random(2)
    masks = [rng.getrandbits(64) for _ in range(step)]
    masks += [rng.getrandbits(65) | 1 << 64 for _ in range(step)]
    assert signature_groups(masks, n) == signature_oracle(masks, n)
    assert [w for _, w in column_widths] == [64, 65]


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


def test_reduce_matches_the_block_definition():
    # Bit c of a reduced member is set iff the member holds all of class c.
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 40)
        masks = list(dict.fromkeys(merged_masks(rng, n, rng.randint(0, 30), rng.randint(1, n))))
        f = SetFamily(n, tuple(masks))
        blocks = [mask_of(c) for c in f.separation_partition().classes]
        want = tuple(sum(1 << c for c, bm in enumerate(blocks) if msk & bm == bm) for msk in masks)
        assert f.reduce().masks == want


def test_remap_matches_a_bit_by_bit_reference():
    rng = random.Random(3)
    for _ in range(200):
        width = rng.randint(0, 90)
        elements = rng.sample(range(1, width + 1), rng.randint(0, width))
        masks = [rng.getrandbits(width) for _ in range(rng.randint(0, 20))]
        want = [reduce(or_, (1 << k for k, x in enumerate(elements) if msk >> (x - 1) & 1), 0)
                for msk in masks]
        assert remap(masks, elements, width) == want


# -- union closure, tier by tier, against a plain pairwise oracle -----------


def pairwise_closed(masks):
    present = set(masks)
    return all(a | b in present for a in masks for b in masks)


def closed_family(rng, k, positions):
    """All 2**k - 1 nonempty unions of k generators.  Generator i owns bit
    positions[i]; every later position goes to one generator at least, so
    the support is exactly the positions, and only the top is comparable to
    every member."""
    gens = [1 << p for p in positions[:k]]
    for q in positions[k:]:
        owner = rng.randrange(k)
        for i in range(k):
            if i == owner or rng.random() < 0.3:
                gens[i] |= 1 << q
    return [reduce(or_, c) for r in range(1, k + 1) for c in itertools.combinations(gens, r)]


def drop_a_union(rng, masks):
    """masks without one member that is the union of two smaller ones."""
    unions = sorted({a | b for a in masks for b in masks if a | b not in (a, b)})
    u = rng.choice(unions)
    return [x for x in masks if x != u]


def chain_family(rng):
    # A closed base on bits 0..9 under the prefix chain [11], ..., [30].
    base = closed_family(rng, 6, rng.sample(range(10), 10))
    return base + [(1 << j) - 1 for j in range(11, 31)]


TIER_CASES = {
    "pairwise_py": (lambda rng: closed_family(rng, 5, rng.sample(range(12), 12)),
                    {"_closed_pairwise_py"}),
    "table": (lambda rng: closed_family(rng, 6, rng.sample(range(16), 14)),
              {"_closed_by_table"}),
    "compress": (lambda rng: closed_family(rng, 6, rng.sample(range(23, 120), 16)),
                 {"_compress", "_closed_by_table"}),
    "chain": (chain_family, {"_closed_by_table"}),
    "top_only_np": (lambda rng: closed_family(rng, 6, rng.sample(range(64), 26)),
                    {"_closed_pairwise_np"}),
    "top_only_py": (lambda rng: closed_family(rng, 6, [99] + rng.sample(range(99), 25)),
                    {"_closed_pairwise_py"}),
}
TIERS = ("_closed_pairwise_py", "_closed_by_table", "_compress", "_closed_pairwise_np")


@pytest.fixture
def tier_calls(monkeypatch):
    """Count the calls of each closure tier, and record every nested
    masks_union_closed call of the chain split as (sorted masks, result)."""
    calls = Counter()
    nested = []
    for name in TIERS:
        def counting(*args, _real=getattr(bitops, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(bitops, name, counting)
    real = bitops.masks_union_closed
    depth = [0]

    def closed(masks):
        depth[0] += 1
        try:
            result = real(masks)
        finally:
            depth[0] -= 1
        if depth[0]:
            nested.append((sorted(masks), result))
        return result

    monkeypatch.setattr(bitops, "masks_union_closed", closed)
    return calls, nested


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", sorted(TIER_CASES))
def test_closure_tiers_match_the_pairwise_oracle(tier_calls, case, seed):
    calls, nested = tier_calls
    build, tiers = TIER_CASES[case]
    rng = random.Random(seed)
    closed = build(rng)
    for masks, want in ((closed, True), (drop_a_union(rng, closed), False)):
        rng.shuffle(masks)
        calls.clear()
        nested.clear()
        assert pairwise_closed(masks) is want
        assert bitops.masks_union_closed(masks) is want
        assert {name for name in TIERS if calls[name]} == tiers, (case, want)
        # Only the chain split recurses.
        assert bool(nested) == (case == "chain")
    support = reduce(or_, closed)
    m, width, s = len(closed), support.bit_length(), support.bit_count()
    assert m <= bitops._SMALL_PAIRWISE if case == "pairwise_py" else m > bitops._SMALL_PAIRWISE
    assert (width <= bitops._TABLE_BITS) == (case in ("pairwise_py", "table"))
    assert (s <= bitops._TABLE_BITS) == (case in ("pairwise_py", "table", "compress"))
    if case.startswith("top_only"):
        assert (width <= 64) == (case == "top_only_np")


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("high", [63, 99])
def test_without_its_top_member_no_member_is_a_chain_element(tier_calls, high, seed):
    # Every member but the union of all is below some incomparable member,
    # so the chain is empty and the family is refused with no pairwise scan,
    # at a width the uint64 scan could take (high = 63) and one it could not.
    calls, nested = tier_calls
    rng = random.Random(seed)
    closed = closed_family(rng, 6, [high] + rng.sample(range(high), 25))
    top = reduce(or_, closed)
    assert top.bit_count() > bitops._TABLE_BITS and (top.bit_length() > 64) == (high == 99)
    masks = [x for x in closed if x != top]
    rng.shuffle(masks)
    assert len(masks) > bitops._SMALL_PAIRWISE
    assert bitops.masks_union_closed(masks) is pairwise_closed(masks) is False
    assert not any(calls[name] for name in TIERS) and not nested


@pytest.mark.parametrize("seed", range(3))
def test_chain_split_checks_members_above_the_top_chain_element(tier_calls, seed):
    # Above the top prefix C: C+a, C+b and C+a+b.  Without C+a+b the two
    # members above C are not closed, and only that slab can say so.
    calls, nested = tier_calls
    rng = random.Random(seed)
    top = (1 << 30) - 1
    a, b = 1 << 40, 1 << 41
    closed = chain_family(rng) + [top | a, top | b, top | a | b]
    rng.shuffle(closed)
    assert bitops.masks_union_closed(closed) and pairwise_closed(closed)
    nested.clear()
    masks = [x for x in closed if x != top | a | b]
    assert not bitops.masks_union_closed(masks) and not pairwise_closed(masks)
    assert ([a, b], False) in nested


# -- the table tier on its own: each dtype edge and the widest table -----------


def table_families(rng, width):
    """Closed families whose support is exactly [width]: random closures of
    generators and, for bit i, {bit i, the other bits, all bits}.  Without
    all bits, only transform pass i can see that union is missing."""
    full = (1 << width) - 1
    families = [closed_family(rng, min(width, 6), rng.sample(range(width), width))]
    if width > 1:
        bits = range(width) if width <= 17 else (0, 1, width // 2, width - 1)
        families += [[1 << i, full ^ (1 << i), full] for i in bits]
    return families


@pytest.mark.parametrize("empty", [False, True])
@pytest.mark.parametrize("width", [1, 2, 8, 16, 17, bitops._TABLE_BITS])
def test_or_transform_table_matches_the_pairwise_oracle(width, empty):
    rng = random.Random(width)
    for closed in table_families(rng, width):
        assert reduce(or_, closed) == (1 << width) - 1
        cases = [(closed, True)]
        if width > 1:
            cases.append((drop_a_union(rng, closed), False))
        for masks, want in cases:
            masks = masks + [0] if empty else masks
            rng.shuffle(masks)
            assert pairwise_closed(masks) is want
            assert bitops._closed_by_table(masks, width) is want
