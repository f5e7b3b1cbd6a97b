import random

import pytest

from dhtsim.idspace import (
    DEFAULT_BITS,
    Ring,
    aligned_block,
    clockwise_closest,
    sample_ids,
    xor_closest,
)
from dhtsim.kadnet import BETA, KadNetwork
from oracles import (pointing_at, ring_distance, ring_owner,
                     ring_predecessor, ring_successors, shared_prefix_bits,
                     xor_distance, xor_nearest)


def test_ring_distance_examples():
    assert ring_distance(5, 5) == 0
    assert ring_distance(250, 4, bits=8) == 10
    assert ring_distance(0, 255, bits=8) == 255
    assert ring_distance(255, 0, bits=8) == 1
    assert ring_distance(0, 1 << 31) == 1 << 31


def test_xor_distance_examples():
    assert xor_distance(5, 5) == 0
    assert xor_distance(0b1100, 0b1010) == 0b0110
    assert xor_distance(0, 255) == 255


def test_shared_prefix_bits_examples():
    assert shared_prefix_bits(7, 7) == DEFAULT_BITS
    assert shared_prefix_bits(0, 1 << 31) == 0
    assert shared_prefix_bits(0b1000, 0b1011, bits=4) == 2
    assert shared_prefix_bits(0b1000, 0b1001, bits=4) == 3
    assert shared_prefix_bits(0, 1) == DEFAULT_BITS - 1


def test_clockwise_closest_examples():
    assert clockwise_closest(10, [12, 20, 5], bits=8) == 12
    # wraparound: from 250, id 3 is 9 steps away but 200 is 206 away
    assert clockwise_closest(250, [200, 3], bits=8) == 3
    assert clockwise_closest(7, [7, 8], bits=8) == 7
    with pytest.raises(ValueError):
        clockwise_closest(1, [], DEFAULT_BITS)


def test_ring_distance_directional_sum():
    rng = random.Random(1)
    space = 1 << DEFAULT_BITS
    for _ in range(1000):
        a = rng.randrange(space)
        b = rng.randrange(space)
        s = ring_distance(a, b) + ring_distance(b, a)
        assert s == 0 if a == b else s == space


def test_xor_metric_axioms():
    rng = random.Random(2)
    space = 1 << DEFAULT_BITS
    for _ in range(1000):
        a, b, c = (rng.randrange(space) for _ in range(3))
        assert xor_distance(a, b) == xor_distance(b, a)
        assert (xor_distance(a, b) == 0) == (a == b)
        assert xor_distance(a, c) <= xor_distance(a, b) + xor_distance(b, c)


def test_clockwise_closest_permutation_invariant():
    rng = random.Random(3)
    space = 1 << DEFAULT_BITS
    for _ in range(1000):
        cands = [rng.randrange(space) for _ in range(rng.randint(1, 8))]
        t = rng.randrange(space)
        ref = clockwise_closest(t, cands, DEFAULT_BITS)
        shuffled = cands[:]
        rng.shuffle(shuffled)
        assert clockwise_closest(t, shuffled, DEFAULT_BITS) == ref


def test_shared_prefix_symmetry_and_bound():
    rng = random.Random(4)
    for _ in range(1000):
        bits = rng.choice([8, 16, 32])
        a = rng.randrange(1 << bits)
        b = rng.randrange(1 << bits)
        p = shared_prefix_bits(a, b, bits)
        assert p == shared_prefix_bits(b, a, bits)
        assert 0 <= p <= bits
        if p < bits:
            # ids agree on the first p bits and differ at the next one
            shift = bits - p
            assert a >> shift == b >> shift
            assert (a >> (shift - 1)) != (b >> (shift - 1))


def test_ring_queries_against_brute_force():
    rng = random.Random(5)
    for _ in range(300):
        bits = 10
        space = 1 << bits
        ids = sample_ids(rng.randint(1, 20), rng, bits)
        ring = Ring(ids, bits)
        for _ in range(5):
            key = rng.randrange(space)
            assert ring.owner(key) == ring_owner(ring, key)
            assert ring.predecessor(key) == ring_predecessor(ring, key)


def test_ring_successors_order_and_exclusion():
    rng = random.Random(6)
    for _ in range(200):
        bits = 10
        space = 1 << bits
        ids = sample_ids(rng.randint(2, 16), rng, bits)
        ring = Ring(ids, bits)
        nid = rng.choice(ids)
        count = rng.randint(1, len(ids) + 2)
        succ = ring_successors(ring, nid, count)
        expect = sorted((v for v in ids if v != nid),
                        key=lambda v: (v - nid) % space)[:count]
        assert succ == expect


def test_ring_interval_against_brute_force():
    """interval(lo, hi) lists the ids in the clockwise-open (lo, hi],
    clockwise from lo, ends of the id space included."""
    rng = random.Random(8)
    bits = 6
    space = 1 << bits
    for _ in range(300):
        ids = sample_ids(rng.randint(1, 20), rng, bits)
        ring = Ring(ids, bits)
        ends = [rng.randrange(space) for _ in range(4)] + [0, space - 1]
        ends += ids[:2]
        for lo in ends:
            for hi in ends:
                want = sorted((v for v in ids
                               if 0 < (v - lo) % space <= (hi - lo) % space),
                              key=lambda v: (v - lo) % space)
                assert ring.interval(lo, hi) == want
    ring = Ring([5, 10, 15], bits=4)
    assert ring.interval(3, 15) == [5, 10, 15]
    assert ring.interval(12, 7) == [15, 5]
    assert ring.interval(10, 10) == []


def test_ring_pointing_against_brute_force_fingers():
    """pointing(v, pred(v), i) lists exactly the live ids whose
    offset-i finger is v, on rings down to two nodes, where v can point
    at itself.  A lone node's interval is empty."""
    rng = random.Random(9)
    bits = 6
    seen_self = False
    for _ in range(200):
        ring = Ring(sample_ids(rng.randint(2, 12), rng, bits), bits)
        for v in ring.ids:
            before = ring.ids[ring.ids.index(v) - 1]
            for i in range(bits):
                got = ring.pointing(v, before, i)
                assert sorted(got) == pointing_at(ring, v, i)
                seen_self |= v in got
    assert seen_self
    assert Ring([9], bits).pointing(9, 9, 3) == []


def test_ring_membership_add_remove():
    ring = Ring([4, 9, 200], bits=8)
    assert 9 in ring and 5 not in ring
    ring.add(5)
    assert 5 in ring and len(ring) == 4
    ring.remove(5)
    assert 5 not in ring
    with pytest.raises(KeyError):
        ring.remove(5)


def test_finger_matches_owner():
    rng = random.Random(7)
    ids = sample_ids(32, rng, 16)
    ring = Ring(ids, 16)
    for nid in ids[:8]:
        for i in range(16):
            assert ring.finger(nid, i) == ring.owner((nid + (1 << i)) % (1 << 16))


def test_xor_closest_against_sorted_oracle():
    rng = random.Random(8)
    for _ in range(300):
        bits = rng.choice([8, 12])
        ids = sample_ids(rng.randint(1, 40), rng, bits)
        key = rng.randrange(1 << bits)
        count = rng.randint(1, len(ids))
        assert xor_closest(ids, key, count) == xor_nearest(ids, key, count)


def block_filter(ids, key, level):
    """The ids agreeing with key above bit level, by scanning them."""
    return [u for u in ids if u >> level == key >> level]


def test_aligned_block_against_brute_force_filter():
    """Every level from 0 to bits, keys on ids, at block edges and
    random, on lists down to empty."""
    rng = random.Random(24)
    for _ in range(200):
        bits = rng.choice([4, 8, 12])
        space = 1 << bits
        ids = sample_ids(rng.randint(0, min(40, space)), rng, bits)
        keys = [0, space - 1, rng.randrange(space)] + ids[:2]
        for level in range(bits + 1):
            width = 1 << level
            base = rng.randrange(space) >> level << level
            # both edges of one block, and the ids just outside it
            keys += [base, base + width - 1, max(0, base - 1),
                     min(space - 1, base + width)]
        for key in keys:
            for level in range(bits + 1):
                block = aligned_block(ids, key, level)
                assert block == block_filter(ids, key, level)
                if block:
                    assert block[0] >> level == key >> level
    assert aligned_block([], 5, 3) == []
    assert aligned_block([], 5, 0) == []
    assert aligned_block([4, 5, 6], 5, 0) == [5]
    assert aligned_block([4, 5, 6], 7, 0) == []
    assert aligned_block([3, 4, 5, 8], 6, 2) == [4, 5]


def test_aligned_block_above_every_bit_length_is_whole_list():
    rng = random.Random(25)
    ids = sample_ids(50, rng, 10)
    for level in (10, 11, 32, 64):
        for key in (0, 1023, rng.randrange(1 << 10)):
            assert aligned_block(ids, key, level) == ids
    # a fresh list, which xor_closest sorts in place
    assert aligned_block(ids, 0, 10) is not ids


def test_xor_closest_not_always_sorted_neighbor():
    # the id nearest by XOR need not be adjacent in sorted order
    ids = [0, 7]
    assert xor_closest(ids, 8, 1) == [0]


def test_xor_closest_compressed_walk_against_oracle():
    rng = random.Random(21)
    ids = sample_ids(300, rng, DEFAULT_BITS)
    assert xor_closest([], 5, 3) == []
    assert xor_closest(ids, 5, 0) == []
    assert xor_closest(ids[:7], 5, 20) == xor_nearest(ids[:7], 5, 20)
    assert len(xor_closest(ids, 5, 500)) == len(ids)
    for _ in range(200):
        key = rng.randrange(1 << DEFAULT_BITS)
        count = rng.randint(1, 40)
        assert xor_closest(ids, key, count) == xor_nearest(ids, key, count)
        # a key equal to an id finds that id first
        hit = rng.choice(ids)
        assert xor_closest(ids, hit, count) == xor_nearest(ids, hit, count)
        assert xor_closest(ids, hit, count)[0] == hit
    # every id below 2**31, every key above: the top bit matches no id
    low = [v >> 1 for v in ids]
    for _ in range(50):
        key = (1 << 31) | rng.randrange(1 << 31)
        assert xor_closest(low, key, 12) == xor_nearest(low, key, 12)


def test_xor_closest_dense_clusters():
    """Ids sharing long prefixes, where the walk skips most levels."""
    rng = random.Random(22)
    for _ in range(100):
        bases = [rng.randrange(1 << DEFAULT_BITS) & ~0xFF
                 for _ in range(rng.randint(1, 4))]
        bases.append(0x7FFFFF00)
        bases.append(0x80000000)
        ids = sorted({b + rng.randrange(256)
                      for b in bases for _ in range(rng.randint(1, 30))})
        keys = [rng.randrange(1 << DEFAULT_BITS), rng.choice(ids),
                rng.choice(bases) + rng.randrange(256), 0x7FFFFFFF,
                0x80000000, 0, (1 << DEFAULT_BITS) - 1]
        for key in keys:
            count = rng.randint(0, len(ids) + 2)
            assert xor_closest(ids, key, count) == \
                xor_nearest(ids, key, count)


def test_xor_closest_on_every_kad_contact_list():
    """Every node's contact list in a built overlay, with keys on, next
    to and between its contacts, and beyond either end of the list."""
    net = KadNetwork(200, 0.2, seed=4)
    rng = random.Random(23)
    top = net.space - 1
    for v, node in net.nodes.items():
        ids = node.sorted_contacts
        keys = [v, max(0, v - 1), min(top, v + 1),
                max(0, ids[0] - 1), 0, min(top, ids[-1] + 1), top]
        keys += [max(0, u - 1) for u in rng.sample(ids, 2)]
        keys += [rng.randrange(net.space) for _ in range(3)]
        for key in keys:
            for count in (1, BETA, net.k, len(ids) - 1):
                assert xor_closest(ids, key, count) == \
                    xor_nearest(ids, key, count)


def test_sample_ids_distinct_and_in_range():
    rng = random.Random(9)
    ids = sample_ids(500, rng, 16)
    assert len(set(ids)) == 500
    assert ids == sorted(ids)
    assert all(0 <= v < (1 << 16) for v in ids)
    with pytest.raises(ValueError):
        sample_ids(5, rng, 2)
