"""Membership shared by the ring and XOR overlays.

Both overlays draw their members the same way from one seeded rng: n
distinct uniform ids, then the colluders among them, then one seeded
reputation store per honest node in id order.  The live ring is the
only record of membership: a join draws an id that no live node holds
and, for an honest joiner, its store's seed, so an id can come back
after its node departs; a leave drops the node from the live ids and
from its role.  The leave is also the one place either overlay forgets
a departed node in the stores: it drops the node's counter and tie
sets from every remaining one, so a joiner that draws the id again
inherits no record.  Every scored lookup is admitted here by
begin_lookup, which checks its mode, key and origin, then takes the
next lookup serial and draws its attack coin from it, so all colluders
a lookup meets agree on one coin.  Subclasses keep only their routing
state and add to join and leave.
"""

import random
from bisect import bisect_left, insort

from .idspace import DEFAULT_BITS, Ring, sample_ids
from .reputation import ReputationStore


def require_int(name, value, low, high=None):
    """Raise ValueError unless value is an integer of at least low and,
    when high is given, at most high."""
    if not isinstance(value, int) or value < low or \
            (high is not None and value > high):
        bound = ">= %d" % low if high is None else "in [%d, %d]" % (low, high)
        raise ValueError("%s must be an integer %s" % (name, bound))


class Overlay:
    """Live members: sorted ids, colluder set, per-node reputation.
    Each subclass names its lookup modes in the class attribute MODES."""

    def __init__(self, n, colluding=0.0, seed=0, bits=DEFAULT_BITS):
        require_int("n", n, 2)
        require_int("bits", bits, 1)
        if not 0.0 <= colluding < 1.0:
            raise ValueError("colluding fraction outside [0, 1)")
        self.bits = bits
        self.space = 1 << bits
        self.rng = random.Random(seed)
        ids = sample_ids(n, self.rng, bits)
        self.ring = Ring(ids, bits)
        bad = self.rng.sample(ids, int(colluding * n))
        self.malicious = set(bad)
        self.colluders = sorted(bad)
        self.stores = {v: self._new_store()
                       for v in ids if v not in self.malicious}
        self.serial = 0

    def _new_store(self):
        return ReputationStore(seed=self.rng.randrange(1 << 30))

    def is_malicious(self, nid):
        return nid in self.malicious

    def honest_nodes(self):
        """Live honest nodes: the initial ones in id order, then joiners
        in join order."""
        return list(self.stores)

    def join(self, malicious=False):
        """Add one node under a uniform id that no live node holds; a
        departed node's id may be drawn again."""
        if len(self.ring) >= self.space:
            raise ValueError("every id in the space is live")
        nid = self.rng.randrange(self.space)
        while nid in self.ring:
            nid = self.rng.randrange(self.space)
        self.ring.add(nid)
        if malicious:
            self.malicious.add(nid)
            insort(self.colluders, nid)
        else:
            self.stores[nid] = self._new_store()
        return nid

    def leave(self, nid):
        """Drop nid from the live ids and its role, and forget it in
        every remaining store."""
        self.ring.remove(nid)
        if nid in self.malicious:
            self.malicious.discard(nid)
            del self.colluders[bisect_left(self.colluders, nid)]
        else:
            del self.stores[nid]
        for store in self.stores.values():
            store.forget(nid)

    def begin_lookup(self, origin, key, mode, policy):
        """Admit one scored lookup for key from origin in mode, and
        return whether it is attacked.

        mode must be one of the class's MODES, key an id of the space
        and origin a live honest node (its store records the lookup),
        checked in that order; a rejected lookup takes no serial.  An
        admitted one takes the next serial even without a policy, so
        serials count every scored lookup.
        """
        if mode not in self.MODES:
            raise ValueError("unknown mode %r" % (mode,))
        require_int("key", key, 0, self.space - 1)
        if origin not in self.stores:
            raise ValueError("lookup origin %r is not a live honest node"
                             % (origin,))
        serial = self.serial
        self.serial += 1
        return policy is not None and bool(policy.should_attack(serial))
