"""Identifier-space arithmetic shared by the ring and XOR overlays.

All identifiers are unsigned integers below 2**bits.  The ring metric is
directional (clockwise); the XOR metric is a true metric.  A Ring holds
the sorted ids of live nodes and answers ownership queries, which keeps
routing tables implicitly consistent under churn.  xor_closest finds
the XOR-nearest ids of a sorted list by sorting only the smallest
aligned block around the key that holds enough of them.
"""

from bisect import bisect_left, bisect_right, insort

DEFAULT_BITS = 32


def ring_distance(a, b, bits=DEFAULT_BITS):
    """Clockwise distance from a to b: (b - a) mod 2**bits."""
    return (b - a) % (1 << bits)


def xor_distance(a, b):
    """XOR of the two ids taken as an integer."""
    return a ^ b


def shared_prefix_bits(a, b, bits=DEFAULT_BITS):
    """Length of the common most-significant-bit prefix of a and b."""
    x = a ^ b
    if x == 0:
        return bits
    return bits - x.bit_length()


def clockwise_closest(target, candidates, bits=DEFAULT_BITS):
    """The candidate reached first when walking clockwise from target."""
    if not candidates:
        raise ValueError("empty candidate set")
    return min(candidates, key=lambda c: ring_distance(target, c, bits))


def sample_ids(n, rng, bits=DEFAULT_BITS):
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

    def __init__(self, ids, bits=DEFAULT_BITS):
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


def xor_closest(ids, key, count=1):
    """The count ids nearest key by XOR distance; ids must be sorted.

    The ids agreeing with key above some level s form an aligned block,
    a contiguous run of the sorted list, and every id inside it is
    nearer key than any id outside it.  So the count nearest ids lie in
    the smallest such block holding count ids.  That block contains
    key's insertion point i0, and so some window of count consecutive
    ids around i0; a window's level is the larger of its two ends'
    XOR bit lengths, since the ids between them agree with key at least
    as far.  s is the least level over the windows holding i0 (count + 1
    of them, fewer near either end), two bisects find the block, and one sort by XOR orders it.  The
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
    base = key >> level << level
    lo = bisect_left(ids, base)
    block = ids[lo:bisect_left(ids, base + (1 << level), lo)]
    block.sort(key=key.__xor__)
    return block[:count]
