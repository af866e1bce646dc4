"""Low-level mask algorithms shared by the family operations.

Families are lists of integer bitmasks (bit k = element k+1).  Everything in
here is scale-tiered: tiny inputs go through plain Python, families whose
support fits in a small table go through subset-sum transforms, and wide
structured families are split along their comparability chain first.

Separation has one exact kernel: each element's membership column is packed
into bytes, a chunk of members at a time so the m x n bit matrix is never
held whole, and elements are bucketed in a dict keyed by those bytes.  The
dict hashes each column and compares columns exactly on a collision.  Only
tiny families skip numpy and key the buckets by Python-int signatures.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

# Largest table the transform tier will allocate: 2**22 int64 entries (32 MB).
_TABLE_BITS = 22
# Below this many members the quadratic scan is cheaper than any setup.
_SMALL_PAIRWISE = 48
# Up to this many member-element cells, Python-int signatures beat numpy's
# fixed per-call cost.
_SMALL_SIGNATURES = 128
# Members packed per step of bit_columns; a multiple of 8, so the packed
# chunks concatenate exactly.
_COLUMN_CHUNK = 4096


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for x in elements:
        m |= 1 << (x - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def bit_columns(masks: Sequence[int], n: int) -> np.ndarray:
    """Return an (n, ceil(m/8)) uint8 array; row x packs the membership
    vector of element x+1 across all members."""
    m = len(masks)
    cols = np.empty((n, (m + 7) // 8), dtype=np.uint8)
    nbytes = (n + 63) // 64 * 8
    for lo in range(0, m, _COLUMN_CHUNK):
        chunk = masks[lo:lo + _COLUMN_CHUNK]
        if n <= 64:
            rows = np.fromiter(chunk, dtype="<u8", count=len(chunk)).view(np.uint8)
        else:
            buf = b"".join(msk.to_bytes(nbytes, "little") for msk in chunk)
            rows = np.frombuffer(buf, dtype=np.uint8)
        bits = np.unpackbits(rows.reshape(len(chunk), nbytes), axis=1,
                             count=n, bitorder="little")
        # packbits on the transposed view strides n bytes per bit; packing
        # a contiguous copy is 2-3x faster.
        cols[:, lo // 8:(lo + len(chunk) + 7) // 8] = np.packbits(
            np.ascontiguousarray(bits.T), axis=1, bitorder="little")
    return cols


def remap(masks: Iterable[int], elements: Sequence[int], n: int) -> list[int]:
    """Renumber element elements[k] to k+1 in every mask over [n]; elements
    not listed are dropped."""
    targets = [0] * n
    for k, x in enumerate(elements):
        targets[x - 1] = 1 << k
    out = []
    for msk in masks:
        new = 0
        while msk:
            low = msk & -msk
            new |= targets[low.bit_length() - 1]
            msk ^= low
        out.append(new)
    return out


def _compress(masks: Sequence[int], support: int) -> list[int]:
    # Relabel the support bits to 0..s-1; unions are preserved.
    return remap(masks, elements_of(support), support.bit_length())


def _closed_pairwise_py(masks: Sequence[int]) -> bool:
    present = set(masks)
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            u = a | b
            if u != a and u != b and u not in present:
                return False
    return True


def _closed_pairwise_np(masks: Sequence[int]) -> bool:
    arr = np.fromiter(masks, dtype=np.uint64, count=len(masks))
    table = np.sort(arr)
    m = len(masks)
    chunk = max(1, (1 << 22) // m)
    for lo in range(0, m, chunk):
        unions = arr[lo:lo + chunk, None] | arr[None, :]
        pos = np.searchsorted(table, unions)
        np.minimum(pos, m - 1, out=pos)
        if not (table[pos] == unions).all():
            return False
    return True


def _closed_by_table(masks: Sequence[int], width: int) -> bool:
    # Count pairs (A, B) whose union is exactly M for every M at once:
    # subset-sum the indicator, square pointwise, invert.  The family is
    # union-closed iff no absent mask has a positive pair count.
    size = 1 << width
    cnt = np.zeros(size, dtype=np.int64)
    idx = np.fromiter(masks, dtype=np.int64, count=len(masks))
    cnt[idx] = 1
    present = cnt.astype(bool)
    for i in range(width):
        v = cnt.reshape(-1, 2, 1 << i)
        v[:, 1, :] += v[:, 0, :]
    cnt *= cnt
    for i in range(width):
        v = cnt.reshape(-1, 2, 1 << i)
        v[:, 1, :] -= v[:, 0, :]
    return not bool((cnt.astype(bool) & ~present).any())


def masks_union_closed(masks: Sequence[int]) -> bool:
    """Exact union-closedness test with no scale limit.

    Tiers: quadratic scan for tiny inputs; a 2**s table when the support s is
    small; otherwise the family is cut along members comparable to everything
    (those form a chain) and each slab is checked independently.  The chain
    split is what keeps chain-plus-small-base families (the shape every
    builder here produces) cheap at six-figure sizes.
    """
    m = len(masks)
    if m <= 1:
        return True
    if m <= _SMALL_PAIRWISE:
        return _closed_pairwise_py(list(masks))
    support = 0
    for msk in masks:
        support |= msk
    width = support.bit_length()
    if width <= _TABLE_BITS:
        return _closed_by_table(masks, max(width, 1))
    s = support.bit_count()
    if s <= _TABLE_BITS:
        return _closed_by_table(_compress(masks, support), s)

    order = sorted(masks, key=int.bit_count)
    prefix = [0] * m
    run = 0
    for i, msk in enumerate(order):
        prefix[i] = run
        run |= msk
    suffix = [0] * m
    run = ~0
    for i in range(m - 1, -1, -1):
        suffix[i] = run
        run &= order[i]
    chain = [
        i for i in range(m)
        if prefix[i] & ~order[i] == 0 and order[i] & ~suffix[i] == 0
    ]
    if not chain:
        # A union-closed family holds the union of all its members, and that
        # union is comparable to every member, so it would be in the chain.
        return False

    # Each slab spans one gap of the chain: its interior members plus the
    # chain element above it.  Members above the top chain element close
    # among themselves.
    slabs: list[tuple[list[int], int]] = []
    lo = 0
    floor = 0
    for c in chain:
        if c > lo:
            slabs.append((order[lo:c] + [order[c]], floor))
        floor = order[c]
        lo = c + 1
    if lo < m:
        slabs.append((order[lo:], floor))
    for slab, floor in slabs:
        if len(slab) == m:
            return _closed_pairwise_np(slab) if width <= 64 else _closed_pairwise_py(slab)
        stripped = [x & ~floor for x in slab]
        if not masks_union_closed(stripped):
            return False
    return True


def element_signatures(masks: Sequence[int], n: int) -> list[int]:
    """signature[x-1] packs, as an int, which members contain element x."""
    sigs = [0] * n
    for i, msk in enumerate(masks):
        bit = 1 << i
        while msk:
            low = msk & -msk
            sigs[low.bit_length() - 1] |= bit
            msk ^= low
    return sigs


def signature_groups(masks: Sequence[int], n: int) -> list[list[int]]:
    """Group elements 1..n by identical membership vectors, ordered by the
    smallest element of each group."""
    keys: Sequence[object]
    if n * len(masks) <= _SMALL_SIGNATURES:
        keys = element_signatures(masks, n)
    else:
        keys = [row.tobytes() for row in bit_columns(masks, n)]
    # Elements are visited in order, so dict insertion order is already the
    # order of each group's smallest element.
    buckets: dict[object, list[int]] = {}
    for x, key in enumerate(keys, start=1):
        buckets.setdefault(key, []).append(x)
    return list(buckets.values())
