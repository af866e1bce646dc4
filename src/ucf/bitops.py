"""Low-level mask algorithms shared by the family operations.

Families are lists of integer bitmasks (bit k = element k+1).  Everything in
here is scale-tiered: tiny inputs go through plain Python, families whose
support fits in a small table go through one OR subset transform over that
table, and wide structured families are split along their comparability
chain first.

Separation has one exact kernel that refines a class id per element, one
chunk of members at a time: each element's membership column over the chunk
is packed into bytes, and its new id is looked up in a dict keyed by (old id,
column bytes) that lives for that chunk only.  The dict hashes each key and
compares keys exactly on a collision, and neither the n x m bit matrix nor a
bytes copy of it is ever held, only one chunk's columns.  For n > 64 the
columns above a chunk's widest member are all zero and are never packed:
those elements share the zero key, so a chunk of base masks costs its own
width, not n.  Only tiny families skip numpy and key the groups by Python-int
signatures.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import and_, or_
from typing import Iterable, Sequence

import numpy as np

# Widest support the transform tier takes: a table of 2**22 uint32 entries
# (16 MB) and its 16 MB identity ramp.
_TABLE_BITS = 22
# Below this many members the quadratic scan is cheaper than any setup.
_SMALL_PAIRWISE = 48
# Up to this many member-element cells, Python-int signatures beat numpy's
# fixed per-call cost.
_SMALL_SIGNATURES = 128
# Members per chunk of signature_groups.  With n <= 64 one chunk covers
# every m up to 4096, the default sweep grid; wider domains take 1024 members
# at a time, at most n x 1024 bits of columns.
_COLUMN_CHUNK = 4096
_WIDE_COLUMN_CHUNK = 1024


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
    nbytes = (n + 63) // 64 * 8
    if n <= 64:
        rows = np.fromiter(masks, dtype="<u8", count=m).view(np.uint8)
    else:
        buf = b"".join(msk.to_bytes(nbytes, "little") for msk in masks)
        rows = np.frombuffer(buf, dtype=np.uint8)
    bits = np.unpackbits(rows.reshape(m, nbytes), axis=1, count=n, bitorder="little")
    # packbits on the transposed view strides n bytes per bit; packing a
    # contiguous copy is 2-3x faster.
    return np.packbits(np.ascontiguousarray(bits.T), axis=1, bitorder="little")


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
    # OR subset transform: after pass i, g[M] is the union of the members
    # inside M that differ from M only in bits 0..i.  A nonempty M with
    # g[M] == M is a union of members, so the family is union-closed iff
    # every such M is a member; M = 0 is the empty union and is skipped.
    dtype = np.uint8 if width <= 8 else np.uint16 if width <= 16 else np.uint32
    size = 1 << width
    idx = np.fromiter(masks, dtype=dtype, count=len(masks))
    g = np.zeros(size, dtype=dtype)
    g[idx] = idx
    for i in range(width):
        v = g.reshape(-1, 2, 1 << i)
        v[:, 1, :] |= v[:, 0, :]
    spanned = g == np.arange(size, dtype=dtype)
    spanned[idx] = False
    spanned[0] = False
    return not spanned.any()


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
    # The width of the members' union, without building the union.
    width = max(masks).bit_length()
    if width <= _TABLE_BITS:
        return _closed_by_table(masks, max(width, 1))
    support = reduce(or_, masks)
    s = support.bit_count()
    if s <= _TABLE_BITS:
        return _closed_by_table(_compress(masks, support), s)

    # order[i] is a chain element iff it holds the union of the members up to
    # it and lies inside the intersection of those from it on.
    order = sorted(masks, key=int.bit_count)
    ups = list(accumulate(order, or_))
    downs = list(accumulate(reversed(order), and_))[::-1]
    chain = [i for i, (u, o, d) in enumerate(zip(ups, order, downs)) if u == o == d]
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
    if n * len(masks) <= _SMALL_SIGNATURES:
        ids: list[int] = element_signatures(masks, n)
    else:
        # Two elements keep one id while every chunk so far gave them the
        # same column bytes, so the final ids are the exact classes.
        ids = [0] * n
        step = _COLUMN_CHUNK if n <= 64 else _WIDE_COLUMN_CHUNK
        for lo in range(0, len(masks), step):
            chunk = masks[lo:lo + step]
            # Only the chunk's w lowest elements can be in one of its
            # members.  For n <= 64 the max costs more than it saves.
            w = n if n <= 64 else max(chunk).bit_length()
            if not w:
                continue  # the chunk is the empty set alone
            cols = bit_columns(chunk, w)
            # Slicing one bytes copy is cheaper than a numpy view per row.
            rows, width = cols.tobytes(), cols.shape[1]
            # Each element above w has the all-zero column, the key an
            # element below w gets when no member of the chunk holds it.
            zero = bytes(width)
            refined: dict[tuple[int, bytes], int] = {}
            ids = [refined.setdefault((i, rows[k:k + width]), len(refined))
                   for i, k in zip(ids, range(0, w * width, width))] + [
                   refined.setdefault((i, zero), len(refined)) for i in ids[w:]]
    # Elements are visited in order, so dict insertion order is already the
    # order of each group's smallest element.
    buckets: dict[int, list[int]] = {}
    for x, key in enumerate(ids, start=1):
        buckets.setdefault(key, []).append(x)
    return list(buckets.values())
