"""Identifier-space arithmetic shared by the ring and XOR overlays.

All identifiers are unsigned integers below 2**bits.  The ring metric is
directional (clockwise); the XOR metric is a true metric.  A Ring holds
the sorted ids of live nodes and answers ownership queries, which keeps
routing tables implicitly consistent under churn.

The ids agreeing with a key above some bit form one aligned block, a
contiguous run of a sorted id list.  aligned_block is the one rule that
slices such a block out: Kademlia's k-buckets and its replica roots in
the tolerance zone are aligned blocks, and xor_closest finds the
XOR-nearest ids of a sorted list by sorting only the smallest aligned
block around the key that holds enough of them.
"""

from bisect import bisect_left, bisect_right, insort

DEFAULT_BITS = 32


def clockwise_closest(target, candidates, bits):
    """The candidate reached first when walking clockwise from target."""
    if not candidates:
        raise ValueError("empty candidate set")
    space = 1 << bits
    return min(candidates, key=lambda c: (c - target) % space)


def sample_ids(n, rng, bits):
    """n distinct ids drawn uniformly from the space, sorted ascending."""
    space = 1 << bits
    if n > space:
        raise ValueError("space too small")
    seen = set()
    while len(seen) < n:
        seen.add(rng.randrange(space))
    return sorted(seen)


class Ring:
    """Sorted set of live node ids with Chord-style ownership queries."""

    def __init__(self, ids, bits):
        self.bits = bits
        self.space = 1 << bits
        self.ids = sorted(ids)

    def __len__(self):
        return len(self.ids)

    def __contains__(self, nid):
        i = bisect_left(self.ids, nid)
        return i < len(self.ids) and self.ids[i] == nid

    def add(self, nid):
        insort(self.ids, nid)

    def remove(self, nid):
        i = bisect_left(self.ids, nid)
        if i >= len(self.ids) or self.ids[i] != nid:
            raise KeyError(nid)
        del self.ids[i]

    def owner(self, key):
        """First node at or after key, wrapping past zero."""
        if not self.ids:
            raise ValueError("empty ring")
        i = bisect_left(self.ids, key % self.space)
        return self.ids[i % len(self.ids)]

    def predecessor(self, key):
        """Last node strictly before key, wrapping."""
        if not self.ids:
            raise ValueError("empty ring")
        i = bisect_left(self.ids, key % self.space)
        return self.ids[i - 1]

    def interval(self, lo, hi):
        """Live ids in the clockwise-open interval (lo, hi], clockwise
        from lo; empty when lo == hi."""
        i = bisect_right(self.ids, lo)
        j = bisect_right(self.ids, hi)
        if lo <= hi:
            return self.ids[i:j]
        return self.ids[i:] + self.ids[:j]

    def pointing(self, v, before, i):
        """Live ids whose offset-i finger is v, given before, the live
        node just before v: the interval (before - 2**i, v - 2**i].
        Empty on a one-node ring, where before is v."""
        off = 1 << i
        return self.interval((before - off) % self.space,
                             (v - off) % self.space)

    def finger(self, nid, i):
        """Owner of nid + 2**i, the canonical finger at offset i."""
        return self.owner((nid + (1 << i)) % self.space)


def aligned_block(ids, key, level):
    """The run of the sorted list ids that agrees with key above bit
    level: the ids in [key >> level << level, that + 2**level), found
    with two bisects.  Every id in it is XOR-nearer key than every id
    outside it.  A level at or above every id's bit length gives the
    whole list."""
    base = key >> level << level
    lo = bisect_left(ids, base)
    return ids[lo:bisect_left(ids, base + (1 << level), lo)]


def xor_closest(ids, key, count=1):
    """The count ids nearest key by XOR distance; ids must be sorted.

    Every id of an aligned block around key is nearer key than any id
    outside it, so the count nearest ids lie in the smallest such block
    holding count ids.  That block contains key's insertion point i0,
    and so some window of count consecutive ids around i0; a window's
    level is the larger of its two ends' XOR bit lengths, since the ids
    between them agree with key at least as far.  The block's level is
    the least level over the windows holding i0 (count + 1 of them,
    fewer near either end), and one sort by XOR orders the block.  The
    levels come from the ids themselves, so no id width is needed.
    Worst case: when key's half of the space holds no id, the block is
    the whole list, ordered by one sort.
    """
    n = len(ids)
    if count <= 0:
        return []
    if count >= n:
        return sorted(ids, key=key.__xor__)
    i0 = bisect_left(ids, key)
    last = count - 1
    level = float("inf")
    for a in range(max(0, i0 - count), min(i0, n - count) + 1):
        s = (key ^ ids[a]).bit_length()
        t = (key ^ ids[a + last]).bit_length()
        if t > s:
            s = t
        if s < level:
            level = s
    block = aligned_block(ids, key, level)
    block.sort(key=key.__xor__)
    return block[:count]
