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
answer once.  Whether a knuckle exists, a live node holding v as its
offset-i finger (idspace.Ring.pointing; on tiny rings v itself), is
read only when classify_failure is asked why a subsearch failed.

Routing tables are derived from the live ring on demand, which keeps
fingers and successor lists exact under churn, and are read by index
from the ring's sorted ids: one bisect finds a node's successor window
or a finger bucket's canonical finger, and the bucket's other members
are the ids just before that finger.  The whole hop rule is one loop,
_route_to_predecessor, which reads the ring and the mode once per
route: a hop whose successor list covers the target names the
target's predecessor directly; any other hop walks its finger buckets
nearest first, over the members that make progress, and takes the
first member its pick accepts, else the nearest bucket's pick.  Plain
Chord accepts the first member this lookup has not contacted yet; ReDS
accepts the best-scored member when it scores at least JOIN_SCORE.
Only the per-bucket pick differs between the two.

Membership (ids, colluders, stores, join, leave and lookup admission
with its attack coin) is the shared core in overlay.Overlay.  Stores
hold first-hand counts only: the join order of late nodes, from which
first_hand_score derives the join prior, is kept on the network.
"""

from bisect import bisect_left, bisect_right

from .idspace import DEFAULT_BITS, clockwise_closest
from .overlay import Overlay, require_int

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
                 "hijack")

    def __init__(self, offset, path, neighbor, candidate, contacts,
                 hijack):
        self.offset = offset
        self.path = path              # contacted nodes in routing order
        self.neighbor = neighbor      # z, the node owning target - 2**offset
        self.candidate = candidate
        self.contacts = contacts
        self.hijack = hijack          # None or a colluder failure reason


class LookupOutcome:
    """Consolidated result of one redundant lookup."""

    __slots__ = ("origin", "target", "owner", "before", "answer",
                 "attacked", "mode", "subsearches")

    def __init__(self, origin, target, owner, before, answer, attacked,
                 mode, subsearches):
        self.origin = origin
        self.target = target
        self.owner = owner
        self.before = before          # the live node just before owner
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

    MODES = MODES

    def __init__(self, n, colluding=0.0, seed=0, bits=DEFAULT_BITS,
                 bucket_size=BUCKET_SIZE, successor_count=SUCCESSOR_COUNT,
                 redundancy=None):
        super().__init__(n, colluding, seed, bits)
        require_int("successor_count", successor_count, 0)
        if n < successor_count + 2:
            raise ValueError("need more nodes than the successor list")
        require_int("bucket_size", bucket_size, 1)
        if redundancy is None:
            redundancy = min(REDUNDANCY, bits)   # one subsearch per offset
        require_int("redundancy", redundancy, 1, bits)
        self.bucket_size = bucket_size
        self.successor_count = successor_count
        self.redundancy = redundancy
        self.score_overrides = {}   # node -> {contact -> shared score}
        self.joined = {}            # live late joiner -> join order
        self.joins = 0              # late joins so far, departed included

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
        """Drop nid as Overlay.leave does, which forgets it in every
        store, then its join order and every shared score naming it.  A
        later join may draw nid again; this purge is what keeps that
        joiner from inheriting the departed node's record."""
        super().leave(nid)
        self.joined.pop(nid, None)
        self.score_overrides.pop(nid, None)
        for shared in self.score_overrides.values():
            shared.pop(nid, None)

    def join(self, malicious=False):
        """Add one node under an id no live node holds (see Overlay.join).

        Its join order is recorded, so nodes already live score it from
        the low JOIN_SCORE and a white-washing rejoin starts below any
        established track record.
        """
        nid = super().join(malicious)
        self.joins += 1
        self.joined[nid] = self.joins
        return nid


def _route_to_predecessor(net, origin, y, pred, mode, attacked, avoid):
    """Iteratively route from origin toward pred, the live node just
    before y.

    Returns (w, path, hijack, covered), hijack being the colluder
    failure reason or None.  Each hop is a network contact.  A hop
    whose successor list (successor_count long, capped at the other
    live nodes) covers y names pred(y) directly.  Any other hop walks
    its finger buckets nearest first.  Offset i's bucket is the
    canonical finger, the owner of cur + 2**i, and the live nodes just
    before it, bucket_size in all; it ends early at cur, or where it
    would come round to the canonical finger again, and its members
    that make progress come best progress first.  A hop whose node is
    reputed in this mode (ReDS) picks the best contact_score, members
    outside avoid first among the equal best and its store's sticky
    break_tie deciding the rest, and accepts it at JOIN_SCORE or above,
    so a bucket doing worse than a newcomer is skipped for a farther
    one.  Any other hop (Chord) accepts the first member not in avoid.
    With no bucket accepted the hop takes the nearest bucket's pick;
    with no member making progress cur is pred(y) and the route ends.
    A colluder contacted during an attacked lookup hijacks the
    subsearch and comes back as w.
    covered is set when the hijacker is pred(y) named by such a
    short-circuiting hop, so the origin learned owner(y) from that
    honest node as well and a lying predecessor cannot conceal it.
    Nodes in avoid were contacted by earlier subsearches of the same
    lookup and are detoured around when an alternate contact exists.
    """
    ids = net.ring.ids
    n = len(ids)
    mask = net.space - 1
    window = min(net.successor_count, n - 1)
    size = min(net.bucket_size, n)
    stores = net.stores
    malicious = net.malicious
    origin_reputed = mode in REPUTED_MODES
    relay_reputed = mode in ("collaborative", "shared")
    path = []
    cur = origin
    for _ in range(2 * net.bits):
        d = (y - cur) & mask
        covered = d > 0 and window > 0 and d <= (
            ids[(bisect_right(ids, cur) + window - 1) % n] - cur) & mask
        if covered:
            nxt = pred
        else:
            store = stores[cur] if (
                origin_reputed if cur == origin
                else relay_reputed and cur not in malicious) else None
            nxt = nearest = None
            for i in range(d.bit_length() - 1, -1, -1):
                j = bisect_left(ids, (cur + (1 << i)) & mask) % n
                usable = []
                for k in range(j, j - size, -1):   # k < 0 wraps past 0
                    c = ids[k]
                    if c == cur and k != j:
                        break
                    if 0 < (c - cur) & mask < d:
                        usable.append(c)
                if not usable:
                    continue
                if store is None:
                    for cand in usable:
                        if cand not in avoid:
                            nxt = cand
                            break
                    else:
                        cand = usable[0]
                else:
                    scores = [net.contact_score(cur, c) for c in usable]
                    best = max(scores)
                    top = [c for c, s in zip(usable, scores) if s == best]
                    cand = store.break_tie(
                        [c for c in top if c not in avoid] or top)
                    if best >= JOIN_SCORE:
                        nxt = cand
                if nxt is not None:
                    break
                if nearest is None:
                    nearest = cand
            if nxt is None:
                nxt = cur if nearest is None else nearest
        if nxt == cur:
            return cur, path, None, False
        path.append(nxt)
        if attacked and nxt in malicious:
            kind = START_COLLUDER if len(path) == 1 else (
                KNUCKLE_COLLUDER if nxt == pred else BAD_NODE_IN_PATH)
            return nxt, path, kind, covered
        cur = nxt
    return cur, path, None, False


def _subsearch(net, origin, target, lie, offset, mode, avoid):
    """Probe target's owner through finger offset: route to w = pred(y)
    for y = target - 2**offset, and ask w and z = owner(y) for their
    offset fingers.  lie is the colluders' answer in an attacked
    lookup, else None (as when no colluder is live to attack)."""
    ids = net.ring.ids
    y = (target - (1 << offset)) % net.space
    j = bisect_left(ids, y)
    pred, z = ids[j - 1], ids[j % len(ids)]
    attacked = lie is not None
    w, path, hijack, covered = _route_to_predecessor(net, origin, y, pred,
                                                     mode, attacked, avoid)
    if hijack is not None and not covered:
        return Subsearch(offset, tuple(path), None, lie, len(path),
                         hijack)
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
                     len(path) + len(candidates) - 1, hijack)


def halo_lookup(net, origin, target, mode="regular", policy=None,
                record=False):
    """Run one redundant lookup and consolidate the subsearch answers.

    net.begin_lookup admits it (mode, target and origin).  The target's
    owner, the live node just before it (kept on the outcome for
    classify_failure) and, in an attacked lookup, the colluders' answer
    are read once and shared by every subsearch.
    With record, in the reputation-guided modes, the origin counts one
    use of the first contact on each subsearch path that has one, a
    success when that subsearch's candidate is the consolidated answer;
    those counters drive its contact selection.
    """
    attacked = net.begin_lookup(origin, target, mode, policy)
    ids = net.ring.ids
    i = bisect_left(ids, target)
    owner, before = ids[i % len(ids)], ids[i - 1]
    lie = net.closest_colluder(target) if attacked else None
    subs = []
    contacted = set()
    for k in range(net.redundancy):
        sub = _subsearch(net, origin, target, lie, net.bits - 1 - k, mode,
                         contacted)
        contacted.update(sub.path)
        if sub.neighbor is not None:
            contacted.add(sub.neighbor)
        subs.append(sub)
    answer = clockwise_closest(
        target, [s.candidate for s in subs], net.bits)
    if record and mode in REPUTED_MODES:
        store = net.stores[origin]
        for s in subs:
            if s.path:
                store.record(s.path[0], s.candidate == answer)
    return LookupOutcome(origin, target, owner, before, answer, attacked,
                         mode, subs)


def classify_failure(net, out, sub):
    """Reason sub, a failed subsearch of the lookup out, missed the
    owner, most specific first.  Whether any live node holds the owner
    as its offset finger (a knuckle) is read off the ring as it is now,
    so ask before the ring changes."""
    if sub.hijack is not None:
        return sub.hijack
    if not net.ring.pointing(out.owner, out.before, sub.offset):
        return KNUCKLE_NONEXISTENT
    return WRONG_SUCCESSOR
