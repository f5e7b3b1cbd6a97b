"""Plain reference rules the tests check the simulator against.

The simulator inlines or specialises these; here they stay in their
general, checked form.
"""

from bisect import bisect_left, bisect_right
from math import comb, log2
from random import Random

from dhtsim.halonet import (
    BAD_NODE_IN_PATH,
    JOIN_SCORE,
    KNUCKLE_COLLUDER,
    REPUTED_MODES,
    START_COLLUDER,
)
from dhtsim.idspace import shared_prefix_bits
from dhtsim.sharedrep import GRID_STEPS, METHODS, aggregate


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


def window_covers(net, v, d):
    """Whether the point d clockwise of live node v lies within v's
    successor list (successor_count long, capped at the other live
    nodes), so v can name both its predecessor and owner itself."""
    ids = net.ring.ids
    n = len(ids)
    w = min(net.successor_count, n - 1)
    if w <= 0:
        return False
    last = ids[(bisect_right(ids, v) + w - 1) % n]
    return d <= (last - v) & (net.space - 1)


def walk_buckets(net, v, target, pick):
    """The bucket walk of Halo's hop rule, from v toward target.

    Offset i's finger bucket is the canonical finger, the owner of
    v + 2**i, and the live nodes just before it, bucket_size in all;
    it ends early at v, or where it would come round to the canonical
    finger again.  pick(usable) gets one bucket's members that make
    progress, best progress first, and returns (candidate, accepted).
    v itself comes back when no finger makes progress.
    """
    ids = net.ring.ids
    n = len(ids)
    mask = net.space - 1
    size = min(net.bucket_size, n)
    d = (target - v) & mask
    nearest = None
    for i in range(d.bit_length() - 1, -1, -1):
        j = bisect_left(ids, (v + (1 << i)) & mask) % n
        usable = []
        for k in range(j, j - size, -1):   # negative k wraps past zero
            c = ids[k]
            if c == v and k != j:
                break
            if 0 < (c - v) & mask < d:
                usable.append(c)
        if not usable:
            continue
        cand, accepted = pick(usable)
        if accepted:
            return cand
        if nearest is None:
            nearest = cand
    return v if nearest is None else nearest


def chord_next_hop(net, v, target, avoid=()):
    """Plain Chord's pick: the first bucket member, nearest bucket
    first, that is not in avoid, else the nearest bucket's first."""
    def pick(usable):
        for f in usable:
            if f not in avoid:
                return f, True
        return usable[0], False
    return walk_buckets(net, v, target, pick)


def reds_next_hop(net, v, target, avoid=()):
    """ReDS's pick: in each bucket the best contact_score, members
    outside avoid preferred among the equal best and v's break_tie
    deciding the rest, accepted when it scores at least JOIN_SCORE."""
    store = net.stores[v]

    def pick(usable):
        scores = [net.contact_score(v, c) for c in usable]
        best = max(scores)
        top = [c for c, s in zip(usable, scores) if s == best]
        fresh = [c for c in top if c not in avoid] or top
        return store.break_tie(fresh), best >= JOIN_SCORE
    return walk_buckets(net, v, target, pick)


def route_to_predecessor(net, origin, y, pred, mode, attacked, avoid):
    """Halo's route from origin toward pred = pred(y), one helper call
    per hop: (w, path, hijack, covered) as halonet's route returns it."""
    origin_reputed = mode in REPUTED_MODES
    relay_reputed = mode in ("collaborative", "shared")
    malicious = net.malicious
    mask = net.space - 1
    path = []
    cur = origin
    for _ in range(2 * net.bits):
        d = (y - cur) & mask
        covered = d > 0 and window_covers(net, cur, d)
        if covered:
            nxt = pred
        elif (origin_reputed if cur == origin
              else relay_reputed and cur not in malicious):
            nxt = reds_next_hop(net, cur, y, avoid=avoid)
        else:
            nxt = chord_next_hop(net, cur, y, avoid=avoid)
        if nxt == cur:
            return cur, path, None, False
        path.append(nxt)
        if attacked and nxt in malicious:
            kind = START_COLLUDER if len(path) == 1 else (
                KNUCKLE_COLLUDER if nxt == pred else BAD_NODE_IN_PATH)
            return nxt, path, kind, covered
        cur = nxt
    return cur, path, None, False


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


def xor_nearest(ids, key, count):
    """The count ids nearest key by XOR distance, by sorting all of
    them."""
    return sorted(ids, key=lambda u: u ^ key)[:count]


def closest_colluders(net, key, count):
    """The count colluders nearest key by XOR distance."""
    return xor_nearest(net.colluders, key, count)


def colluders_within(net, key, floor_bits):
    """All colluders agreeing with key in at least floor_bits leading
    bits, by scanning every colluder."""
    return [m for m in net.colluders
            if shared_prefix_bits(m, key, net.bits) >= floor_bits]


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


def old_loop(model, strategy, rng=None):
    """The oscillation recursion as it ran through selection_prob and
    ewma_update, returning the expected total and every step's
    (score, Pr[A], p); with an rng it samples selection and attack
    outcomes instead."""
    s = model.s0
    total = 0.0
    trajectory = []
    for _ in range(model.lookups):
        pra = selection_prob([s, model.s_h], model.beta_bias)[0]
        p = strategy.decide(pra)
        if not 0.0 <= p <= 1.0:
            raise ValueError("strategy emitted probability outside [0, 1]")
        trajectory.append((s, pra, p))
        if rng is None:
            total += pra * p
            s += pra * (ewma_update(s, 1.0 - p, model.alpha_ewma) - s)
        else:
            if rng.random() < pra:
                attacked = rng.random() < p
                total += attacked
                s = ewma_update(s, 0.0 if attacked else 1.0,
                                model.alpha_ewma)
    return total, trajectory


def use_based_trials(n, lookups, m, s, f, method="dropoff", seed=0,
                     victim_presence=0.75):
    """The use-based hit share in percent, aggregating every trial's
    reports afresh whatever the method."""
    k = int(log2(n))
    rng = Random(seed)
    own = 1.0 - f
    hits = 0
    for _ in range(lookups):
        received = [s] * (k - m)
        received += [own] * sum(rng.random() < victim_presence
                                for _ in range(m - 1))
        if abs(aggregate(method, own, received, rng) - s) < 0.01:
            hits += 1
    return 100.0 * hits / lookups


def dropoff_bin(own, received, rng):
    """The drop-off scoring bin: each report in turn, admitted with
    probability 1 - |report - own| on one draw of rng."""
    return [v for v in received if rng.random() < 1.0 - abs(v - own)]


def _admission(n, r, r_k):
    """Chance that exactly i of n reports of r enter r_k's bin, per i."""
    d = abs(r - r_k)
    return [comb(n, i) * (1.0 - d) ** i * d ** (n - i)
            for i in range(n + 1)]


def expected_dropoff(n_h, n_m, r_h, r_m, r_k):
    """Closed-form expectation of the drop-off aggregate, one point.

    n_h honest reporters all say r_h, n_m malicious reporters all say
    r_m, and the receiving node's own score is r_k.  Returns (p, q, e):
    p is the chance the admitted honest reports outnumber the admitted
    malicious ones (the bin median lands on r_h), q the chance of a
    nonzero tie (median averages the two values), and e the expected
    aggregate with the remaining probability mass landing on r_m.
    """
    if n_h < 0 or n_m < 0:
        raise ValueError("negative reporter count")
    for r in (r_h, r_m, r_k):
        if not 0.0 <= r <= 1.0:
            raise ValueError("score outside [0, 1]")
    admit_h = _admission(n_h, r_h, r_k)
    admit_m = _admission(n_m, r_m, r_k)
    p = 0.0
    for i in range(1, n_h + 1):
        # fewer than i malicious reports admitted; past n_m + 1 that is
        # the whole pmf
        p += admit_h[i] * sum(admit_m[:min(i, n_m + 1)])
    q = sum(admit_h[i] * admit_m[i] for i in range(1, min(n_h, n_m) + 1))
    e = p * r_h + q * (r_h + r_m) / 2.0 + (1.0 - p - q) * r_m
    return p, q, e


def adversarial_report(method, target_own_score, truth, goal=None,
                       n_honest=5, n_malicious=6, steps=GRID_STEPS):
    """Score a colluding reporter sends to drag the aggregate toward
    goal (1.0 promotes the finger, 0.0 slanders it; by default it
    pushes away from the honest consensus).

    Average and median take the goal at face value.  Against drop-off
    it is the first of the steps + 1 grid points s / steps with the
    most extreme expected_dropoff, searched one point at a time.
    """
    if method not in METHODS:
        raise ValueError("unknown aggregation method: %r" % (method,))
    if steps < 1:
        raise ValueError("need at least one grid step")
    if goal is None:
        goal = 1.0 if truth < 0.5 else 0.0
    elif not 0.0 <= goal <= 1.0:
        raise ValueError("goal outside [0, 1]")
    if method != "dropoff":
        return goal
    best_r = best_val = None
    for s in range(steps + 1):
        r = s / steps
        _, _, e = expected_dropoff(n_honest, n_malicious, truth, r,
                                   target_own_score)
        val = e if goal >= 0.5 else -e
        if best_val is None or val > best_val:
            best_val, best_r = val, r
    return best_r
