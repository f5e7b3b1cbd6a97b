"""Reference computations the benchmark checks dhtsim's outputs against.

Each is the plainest statement of the rule it checks, a scan, a sort or
a step-by-step recursion over inputs the benchmark tracks itself, and
none of them calls dhtsim.
"""

import heapq
from bisect import bisect_left


def ring_owner(ids, key, bits):
    """The live id reached first walking clockwise from key."""
    space = 1 << bits
    return min(ids, key=lambda u: (u - key) % space)


def clockwise_closest(target, candidates, bits):
    """The candidate reached first walking clockwise from target."""
    space = 1 << bits
    return min(candidates, key=lambda c: (c - target) % space)


def finger_holders(ids, bits):
    """Finger id -> set of the live ids that hold it, from sorted ids.

    u holds the owner of u + 2**i for every offset i, except itself.
    """
    space = 1 << bits
    n = len(ids)
    out = {}
    for u in ids:
        for i in range(bits):
            f = ids[bisect_left(ids, (u + (1 << i)) % space) % n]
            if f != u:
                out.setdefault(f, set()).add(u)
    return out


def xor_roots(ids, key, count, tolerance_bits, bits):
    """The count ids XOR-nearest key, kept when they agree with key in
    the first tolerance_bits bits, nearest first."""
    near = heapq.nsmallest(count, ids, key=lambda u: u ^ key)
    return [u for u in near if (u ^ key) >> (bits - tolerance_bits) == 0]


def one_threshold(tau):
    return lambda pra: 1.0 if pra >= tau else 0.0


def two_threshold(tau1, tau2):
    attacking = True

    def decide(pra):
        nonlocal attacking
        if pra <= tau1:
            attacking = False
        elif pra >= tau2:
            attacking = True
        return 1.0 if attacking else 0.0

    return decide


def probabilistic(slope, offset):
    return lambda pra: min(1.0, max(0.0, slope * (pra - 0.5) + offset))


def attacked_fraction(decide, alpha, beta, s_h, s0, steps):
    """Expected attacked share of steps lookups by one oscillating
    attacker against one honest contact scoring s_h.

    Each step selects the attacker with probability s**beta / (s**beta
    + s_h**beta), attacks with the probability decide gives, and moves
    its score by an EWMA step of weight alpha toward 1 - p, scaled by the
    chance it was selected.
    """
    s = s0
    total = 0.0
    for _ in range(steps):
        w = s ** beta
        pra = w / (w + s_h ** beta)
        p = decide(pra)
        total += pra * p
        s += pra * (alpha * (1.0 - p) + (1.0 - alpha) * s - s)
    return total / steps
