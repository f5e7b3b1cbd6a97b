"""Plain reference rules the tests check the simulator against.

The simulator inlines or specialises these; here they stay in their
general, checked form.
"""

from bisect import bisect_right


def ring_successors(ring, nid, count):
    """The count live nodes clockwise after nid, excluding nid itself."""
    ids = ring.ids
    m = len(ids)
    out = []
    i = bisect_right(ids, nid % ring.space)
    k = 0
    while len(out) < count and k < m:
        cand = ids[(i + k) % m]
        k += 1
        if cand != nid:
            out.append(cand)
    return out


def ring_owner(ring, key):
    """First live id at or after key, wrapping, by scanning every id."""
    return min(ring.ids, key=lambda u: (u - key) % ring.space)


def ring_predecessor(ring, key):
    """Last live id strictly before key, wrapping, by scanning every id."""
    return min(ring.ids, key=lambda u: (key - u - 1) % ring.space)


def pointing_at(ring, v, offset):
    """Live ids whose offset finger is v, v included, from every live
    id's brute-force finger."""
    return [u for u in ring.ids if ring_owner(ring, u + (1 << offset)) == v]


def finger_bucket(net, nid, offset):
    """Halo's contacts of nid for offset: the canonical finger and the
    nodes just before it, net.bucket_size in all, stopping at nid or
    when the walk comes round to the canonical finger.  Seen from nid
    they come in falling clockwise distance, best progress first."""
    canon = net.ring.finger(nid, offset)
    out = [canon]
    cur = canon
    while len(out) < net.bucket_size:
        cur = net.ring.predecessor(cur)
        if cur == canon or cur == nid:
            break
        out.append(cur)
    return out


def knuckles(net, target):
    """All nodes other than owner(target) holding owner(target) in their
    finger table, offset by offset through Ring.pointing."""
    v = net.ring.owner(target)
    before = net.ring.predecessor(v)
    out = set()
    for offset in range(net.bits):
        out.update(net.ring.pointing(v, before, offset))
    out.discard(v)
    return out


def truth_root(net, key):
    """Kademlia's true root of key: the nearest replica root, or None
    when no live id lies within search tolerance."""
    roots = net.replica_roots(key)
    return roots[0] if roots else None


def bootstrap_contacts(rng, ids, v, count):
    """Kademlia's bootstrap draw for v: a sample of count of the other
    live ids, taken from a list of them."""
    others = [u for u in ids if u != v]
    return rng.sample(others, min(count, len(others)))


def random_key(net, rng):
    """A uniform occupied tolerance block, from a sorted set of every
    id's block, then a uniform key inside it."""
    shift = net.bits - net.tolerance_bits
    blocks = sorted({u >> shift for u in net.ids})
    return rng.choice(blocks) << shift | rng.randrange(1 << shift)


def ewma_update(score, result, alpha):
    """Exponentially weighted update of score toward result."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha outside [0, 1]")
    return alpha * result + (1.0 - alpha) * score


def selection_prob(scores, beta_bias):
    """Probability of picking each entry, proportional to score**beta.

    Higher beta concentrates choice on the best-scored entries; beta of
    zero is uniform.
    """
    if not scores:
        raise ValueError("no scores")
    if any(s < 0 for s in scores):
        raise ValueError("negative score")
    if max(scores) == 0:
        raise ValueError("all scores zero")
    weights = [s ** beta_bias for s in scores]
    total = sum(weights)
    return [w / total for w in weights]
