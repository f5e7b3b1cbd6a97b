"""Ring overlay with redundant finger-offset subsearches.

A lookup for a target key runs one subsearch per high finger offset i:
it routes to the predecessor w of target - 2**i, asks w and w's
successor z for their offset-i fingers, and keeps whichever answer sits
closest clockwise to the target.  The redundant answers are then
consolidated the same way, so one honest subsearch that found the true
owner beats any number of colluder answers, which necessarily sit
further clockwise.

Each fact about a lookup is read off the ring once: one bisect for the
target gives its owner v and v's predecessor, one per subsearch gives
pred(y) and owner(y), and an attacked lookup asks for the colluders'
answer once.  A subsearch's knuckle_exists flag says whether any live
node holds v as its offset-i finger (idspace.Ring.pointing); on tiny
rings that node can be v itself.

Routing tables are derived from the live ring on demand, which keeps
fingers and successor lists exact under churn, and are read by index
from the ring's sorted ids: one bisect finds a node's successor window
or a finger bucket's canonical finger, and the bucket's other members
are the ids just before that finger.  The hop rule: a hop
whose successor list covers the target names the target's predecessor
directly (_window_covers); any other hop walks its finger buckets
nearest first, over the members that make progress, and takes the
first member its picker accepts, else the nearest bucket's pick.  Plain
Chord accepts the first member this lookup has not contacted yet; ReDS
accepts the best-scored member when it scores at least JOIN_SCORE.
Only the picker differs between the two.

Membership (ids, colluders, stores, join, leave and the attack coin)
is the shared core in overlay.Overlay.  Stores hold first-hand counts
only: the join order of late nodes, from which first_hand_score derives
the join prior, is kept on the network.
"""

from bisect import bisect_left, bisect_right

from .idspace import DEFAULT_BITS, clockwise_closest
from .overlay import Overlay

REDUNDANCY = 10
BUCKET_SIZE = 2
SUCCESSOR_COUNT = 8
# initial score pinned on fresh joiners, low enough that leaving and
# rejoining never beats an established track record
JOIN_SCORE = 0.3

MODES = ("regular", "aboost", "collaborative", "shared")
REPUTED_MODES = ("aboost", "collaborative", "shared")

START_COLLUDER = "start_colluder"
BAD_NODE_IN_PATH = "bad_node_in_path"
KNUCKLE_COLLUDER = "knuckle_colluder"
KNUCKLE_NONEXISTENT = "knuckle_nonexistent"
WRONG_SUCCESSOR = "wrong_successor"

FAILURE_REASONS = (
    START_COLLUDER,
    BAD_NODE_IN_PATH,
    KNUCKLE_COLLUDER,
    KNUCKLE_NONEXISTENT,
    WRONG_SUCCESSOR,
)


class Subsearch:
    """Outcome of one finger-offset probe of a redundant lookup."""

    __slots__ = ("offset", "path", "neighbor", "candidate", "contacts",
                 "hijack", "knuckle_exists", "agreed")

    def __init__(self, offset, path, neighbor, candidate, contacts,
                 hijack, knuckle_exists):
        self.offset = offset
        self.path = path              # contacted nodes in routing order
        self.neighbor = neighbor      # z, the node owning target - 2**offset
        self.candidate = candidate
        self.contacts = contacts
        self.hijack = hijack          # None or a colluder failure reason
        self.knuckle_exists = knuckle_exists
        self.agreed = None            # set after consolidation


class LookupOutcome:
    """Consolidated result of one redundant lookup."""

    __slots__ = ("origin", "target", "owner", "answer", "attacked",
                 "mode", "subsearches")

    def __init__(self, origin, target, owner, answer, attacked, mode,
                 subsearches):
        self.origin = origin
        self.target = target
        self.owner = owner
        self.answer = answer
        self.attacked = attacked
        self.mode = mode
        self.subsearches = subsearches

    @property
    def correct(self):
        return self.answer == self.owner

    @property
    def contacts(self):
        return sum(s.contacts for s in self.subsearches)


class HaloNetwork(Overlay):
    """Live ring state: the Overlay membership plus the join order of
    late nodes and the shared scores an exchange installs."""

    def __init__(self, n, colluding=0.0, seed=0, bits=DEFAULT_BITS,
                 bucket_size=BUCKET_SIZE, successor_count=SUCCESSOR_COUNT,
                 redundancy=None):
        if n < successor_count + 2:
            raise ValueError("need more nodes than the successor list")
        if bucket_size < 1:
            raise ValueError("bucket_size below 1")
        if redundancy is None:
            redundancy = min(REDUNDANCY, bits)   # one subsearch per offset
        if not 1 <= redundancy <= bits:
            raise ValueError("redundancy outside [1, bits]")
        super().__init__(n, colluding, seed, bits)
        self.bucket_size = bucket_size
        self.successor_count = successor_count
        self.redundancy = redundancy
        self.score_overrides = {}   # node -> {contact -> shared score}
        self.joined = {}            # live late joiner -> join order

    def closest_colluder(self, target):
        """First colluder at or after target, wrapping."""
        if not self.colluders:
            return None
        i = bisect_left(self.colluders, target % self.space)
        return self.colluders[i % len(self.colluders)]

    def first_hand_score(self, nid, contact):
        """nid's own score for contact, smoothed toward JOIN_SCORE when
        contact joined after nid and toward the neutral prior else."""
        order = self.joined.get(contact)
        if order is not None and order > self.joined.get(nid, -1):
            return self.stores[nid].score(contact, JOIN_SCORE)
        return self.stores[nid].score(contact)

    def contact_score(self, nid, contact):
        """Score nid assigns contact: the shared override the exchange
        installed, else nid's first-hand score."""
        shared = self.score_overrides.get(nid)
        if shared is not None and contact in shared:
            return shared[contact]
        return self.first_hand_score(nid, contact)

    def leave(self, nid):
        super().leave(nid)
        self.joined.pop(nid, None)
        self.score_overrides.pop(nid, None)
        # ids are never reused, so no table reads nid's entry again
        for store in self.stores.values():
            store.forget(nid)
        for shared in self.score_overrides.values():
            shared.pop(nid, None)

    def join(self, malicious=False):
        """Add one node under a fresh id (see Overlay.join).

        Its join order is recorded, so nodes already live score it from
        the low JOIN_SCORE and a white-washing rejoin starts below any
        established track record.
        """
        nid = super().join(malicious)
        self.joined[nid] = len(self._used_ids)   # grows with every join
        return nid


def _window_covers(net, v, d):
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


def _walk_buckets(net, v, target, pick):
    """The bucket walk of the hop rule, from v toward target.

    Offset i's finger bucket is the canonical finger, the owner of
    v + 2**i, and the live nodes just before it, bucket_size in all;
    it ends early at v, or where it would come round to the canonical
    finger again.  Seen from v its members come in falling clockwise
    distance, best progress first.  pick(usable) gets one bucket's
    members that make progress, in that order, and returns (candidate,
    accepted).  v itself comes back when no finger makes progress,
    meaning v is target's predecessor.
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
    """v's finger landing closest to target without reaching it.

    Contacts in avoid are sidestepped via bucket alternates, farther
    buckets included, when possible, which keeps redundant subsearches
    on disjoint paths.
    """
    def pick(usable):
        for f in usable:
            if f not in avoid:
                return f, True
        return usable[0], False
    return _walk_buckets(net, v, target, pick)


def reds_next_hop(net, v, target, avoid=()):
    """Reputation-guided next hop: v picks the best-scored member of the
    finger bucket nearest the remaining distance.

    Scores are v's contact_score: the shared override, else its
    first-hand score, each read once per member.  Selection is
    deterministic maximum score; among the equal best, members outside
    avoid are preferred, and v's store breaks what tie remains with its
    sticky seeded break_tie.  A bucket whose members all score below
    JOIN_SCORE (they have been observed doing worse than a newcomer
    with no history at all) is skipped for the next farther bucket,
    trading a little progress for a contact not known to be bad.  v
    must be a live honest node (it needs a reputation store).
    """
    store = net.stores[v]

    def pick(usable):
        scores = [net.contact_score(v, c) for c in usable]
        best = max(scores)
        top = [c for c, s in zip(usable, scores) if s == best]
        fresh = [c for c in top if c not in avoid] or top
        return store.break_tie(fresh), best >= JOIN_SCORE
    return _walk_buckets(net, v, target, pick)


def _route_to_predecessor(net, origin, y, pred, mode, attacked, avoid):
    """Iteratively route from origin toward pred, the live node just
    before y.

    Returns (w, path, hijack, covered), hijack being the colluder
    failure reason or None.  Each hop is a network contact.  A hop
    whose successor list covers y names pred(y) directly; any other
    hop asks reds_next_hop when its node is reputed in this mode and
    chord_next_hop else.  A colluder contacted during an attacked
    lookup hijacks the subsearch and comes back as w.
    covered is set when the hijacker is pred(y) named by such a
    short-circuiting hop, so the origin learned owner(y) from that
    honest node as well and a lying predecessor cannot conceal it.
    Nodes in avoid were contacted by earlier subsearches of the same
    lookup and are detoured around when an alternate contact exists.
    """
    origin_reputed = mode in REPUTED_MODES
    relay_reputed = mode in ("collaborative", "shared")
    malicious = net.malicious
    mask = net.space - 1
    path = []
    cur = origin
    for _ in range(2 * net.bits):
        d = (y - cur) & mask
        covered = d > 0 and _window_covers(net, cur, d)
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


def _subsearch(net, origin, target, owner, before, lie, offset, mode,
               avoid):
    """Probe target's owner through finger offset: route to w = pred(y)
    for y = target - 2**offset, and ask w and z = owner(y) for their
    offset fingers.  owner and its live predecessor before are the
    lookup's; lie is the colluders' answer in an attacked lookup, else
    None (as when no colluder is live to attack)."""
    ids = net.ring.ids
    y = (target - (1 << offset)) % net.space
    j = bisect_left(ids, y)
    pred, z = ids[j - 1], ids[j % len(ids)]
    exists = bool(net.ring.pointing(owner, before, offset))
    attacked = lie is not None
    w, path, hijack, covered = _route_to_predecessor(net, origin, y, pred,
                                                     mode, attacked, avoid)
    if hijack is not None and not covered:
        return Subsearch(offset, tuple(path), None, lie, len(path),
                         hijack, exists)
    # w and z each name their offset finger, unless a colluder in an
    # attacked lookup names the colluder closest to the target
    candidates = []
    for x in (w,) if z == w else (w, z):
        if attacked and x in net.malicious:
            candidates.append(lie)
            hijack = hijack or KNUCKLE_COLLUDER
        else:
            candidates.append(net.ring.finger(x, offset))
    best = clockwise_closest(target, candidates, net.bits)
    return Subsearch(offset, tuple(path), z, best,
                     len(path) + len(candidates) - 1, hijack, exists)


def halo_lookup(net, origin, target, mode="regular", policy=None,
                record=False):
    """Run one redundant lookup and consolidate the subsearch answers.

    The target's owner, the live node just before it and, in an
    attacked lookup, the colluders' answer are read once and shared by
    every subsearch.  With record, in the reputation-guided modes, the
    origin counts one use of the first contact on each subsearch path
    that has one, a success when that subsearch agreed with the
    consolidated answer; those counters drive its contact selection.
    """
    if mode not in MODES:
        raise ValueError("unknown mode %r" % mode)
    if not 0 <= target < net.space:
        raise ValueError("target outside [0, 2**bits)")
    attacked = net.attack_coin(origin, policy)
    ids = net.ring.ids
    i = bisect_left(ids, target)
    owner, before = ids[i % len(ids)], ids[i - 1]
    lie = net.closest_colluder(target) if attacked else None
    subs = []
    contacted = set()
    for k in range(net.redundancy):
        sub = _subsearch(net, origin, target, owner, before, lie,
                         net.bits - 1 - k, mode, contacted)
        contacted.update(sub.path)
        if sub.neighbor is not None:
            contacted.add(sub.neighbor)
        subs.append(sub)
    answer = clockwise_closest(
        target, [s.candidate for s in subs], net.bits)
    store = net.stores[origin]
    for s in subs:
        s.agreed = s.candidate == answer
        if record and mode in REPUTED_MODES and s.path:
            store.record(s.path[0], s.agreed)
    return LookupOutcome(origin, target, owner, answer, attacked, mode,
                         subs)


def classify_failure(sub):
    """Reason a failed subsearch missed the owner, most specific first."""
    if sub.hijack is not None:
        return sub.hijack
    if not sub.knuckle_exists:
        return KNUCKLE_NONEXISTENT
    return WRONG_SUCCESSOR
