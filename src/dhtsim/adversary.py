"""Attacker behavior: coordinated attack coin, score-oscillation
strategies, and use-based victim selection.

Colluders share one policy object, so a lookup is either attacked by
every colluder it touches or by none of them.  The oscillation
strategies decide a per-step attack probability from the attacker's own
estimated selection probability.
"""

import math

from .overlay import require_int

_M64 = (1 << 64) - 1


def _mix(x):
    # splitmix64 finalizer: cheap, well-avalanched 64-bit hash
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _M64
    return x ^ (x >> 31)


class AttackPolicy:
    """Fixed-rate policy with a deterministic per-lookup coin.

    The coin is derived from (seed, lookup serial), so every colluder
    consulted during one lookup sees the same decision and replaying a
    run reproduces it exactly.
    """

    def __init__(self, rate, seed=0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate outside [0, 1]")
        self.rate = rate
        self.seed = seed

    def should_attack(self, lookup_serial):
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        x = _mix((self.seed * 0x9E3779B97F4A7C15 + lookup_serial) & _M64)
        return x / 18446744073709551616.0 < self.rate


class OneThreshold:
    """Attack whenever the selection probability reaches tau."""

    def __init__(self, tau):
        self.tau = tau

    def decide(self, pr_selected):
        return 1.0 if pr_selected >= self.tau else 0.0


class TwoThreshold:
    """Hysteresis: stop attacking at tau1, resume only at tau2.

    The gap lets the attacker rebuild reputation in bulk instead of
    flapping around a single threshold.
    """

    def __init__(self, tau1, tau2):
        if not tau1 < tau2:
            raise ValueError("tau1 must be below tau2")
        self.tau1 = tau1
        self.tau2 = tau2
        self.attacking = True

    def decide(self, pr_selected):
        if pr_selected <= self.tau1:
            self.attacking = False
        elif pr_selected >= self.tau2:
            self.attacking = True
        return 1.0 if self.attacking else 0.0


class Probabilistic:
    """Attack probability grows linearly with selection probability."""

    def __init__(self, slope, offset):
        self.slope = slope
        self.offset = offset

    def decide(self, pr_selected):
        p = self.slope * (pr_selected - 0.5) + self.offset
        # min(1.0, max(0.0, p)) without the builtin calls; -0.0 and NaN
        # clamp to 0.0 as there
        p = p if p > 0.0 else 0.0
        return p if p < 1.0 else 1.0


def use_based_targets(ring, attacker, m):
    """The nodes whose finger tables use attacker most, nearest first.

    The heaviest-use fingers point from ids attacker - 2**i for the
    largest offsets i; the node owning such an id carries roughly
    2**(i - top) of all lookups that route through attacker.  Returns up
    to m victims, one per offset, skipping offsets whose pointing
    interval holds no node.
    """
    if attacker not in ring:
        raise ValueError("attacker %r is not a live id" % (attacker,))
    n = len(ring)
    top = int(math.log2(n))
    require_int("m", m, 1, top)
    victims = []
    before = ring.predecessor(attacker)
    for j in range(1, m + 1):
        # the m largest finger offsets of the id space
        pointing = ring.pointing(attacker, before, ring.bits - j)
        if not pointing:
            continue
        cand = pointing[-1]   # last node at or before hi
        if cand != attacker and cand not in victims:
            victims.append(cand)
    return victims
