"""Kademlia-style overlay with iterative parallel lookups.

Each node keeps its contacts once, as a sorted id list with a last-seen
serial per contact.  Its k-buckets are not stored apart: the contacts
that differ from the node's id first at bit i all agree with each other
above bit i, so each bucket is an idspace.aligned_block of that list.
A key's replica roots are the nearest ids of its tolerance zone, the
aligned block of live ids agreeing with the key in its first
tolerance_bits bits.  A node joins as in Kademlia (Maymounkov &
Mazieres, IPTPS 2002, section 2.3): it starts from a few random
contacts and looks up its own id through them, which fills its near
buckets and lets the honest nodes it queries file it.  After that,
nodes learn contacts opportunistically from lookup traffic, which is
exactly what a colluding adversary exploits: attacked queries answer
with the colluders nearest the key, and even unattacked ones pad their
answers with colluders to pollute routing tables.  _answer is the
single rule for what a queried node replies: the contacts it returns
and the root it nominates.  The reputation variants fight back at three
points: the querier picks contacts by score, every honest responder
picks within its bucket by score, and bucket eviction ejects the entry
with the fewest recorded successes instead of the least recent one.
Eviction counts successes, not the score: failures do not count against
a contact, so one with 3 successes in 100 uses outlives one with no
record at all.

Membership (ids, colluders, stores, join, leave and lookup admission
with its attack coin) is the shared core, overlay.Overlay; KadNetwork
adds the contacts.  A leave forgets the leaver in every store at once
(Overlay.leave), but Kademlia learns of a departure only by asking, so
departed contacts leave contact lists lazily, when a lookup finds them
gone.  Until then a contact list may still name a departed id that a
joiner then draws again, and the joiner inherits that entry.  The
chance per join is the number of departed ids over 2**bits.

Lookup accounting reads one map per lookup: each contact a query
returned, mapped to the queried nodes that returned it, in arrival
order.  When a lookup ends at the true closest replica root, a
depth-first walk from that root through the map credits every node on
a returning path; every other live contact the querier queried records
a miss, and contacts it never queried record nothing.  Every credited
node was queried: it returned the root, or is the root, which as the
nearest live id is queried before the search can end.  A lookup whose querier is itself
the true root tests no contact and records nothing.  A join
self-lookup scores nothing, so it keeps no map.
"""

import random
from bisect import bisect_left, insort
from itertools import groupby

from .idspace import DEFAULT_BITS, aligned_block, xor_closest
from .overlay import Overlay, require_int

DEFAULT_K = 10
ALPHA = 7     # queries sent per lookup step
BETA = 3      # contacts returned per query
DEFAULT_REPLICAS = 10
DEFAULT_TOLERANCE_BITS = 8

MODES = ("regular", "aboost", "collaborative")
REPUTED_MODES = ("aboost", "collaborative")

# Colluders answering a query sample their substitutes from this many
# of the closest qualifying colluders, trading spread (more routing
# table exposure) against precision (faster capture of the frontier).
POOL_CAP = 10


class KadNode:
    """One participant: its id and its contacts.

    sorted_contacts lists every contact id in ascending order and
    last_seen maps each one to its last activity serial.  Buckets are
    aligned blocks of sorted_contacts (see bucket_insert), so nothing
    else needs to be kept in step.
    """

    def __init__(self, nid):
        self.id = nid
        self.last_seen = {}   # contact id -> monotonic activity serial
        self.sorted_contacts = []

    def drop(self, nid):
        """Remove a contact observed to be gone."""
        if nid in self.last_seen:
            del self.last_seen[nid]
            del self.sorted_contacts[bisect_left(self.sorted_contacts, nid)]


class KadLookupOutcome:
    """Result of one iterative lookup, with the evidence to score it:
    graph maps each returned contact to the queried nodes that
    returned it, in arrival order, and queried is every contact asked,
    departed ones included."""

    def __init__(self, key, found_roots, closest_root, success, graph,
                 steps, queried):
        self.key = key
        self.found_roots = found_roots
        self.closest_root = closest_root
        self.success = success
        self.graph = graph
        self.steps = steps
        self.queried = queried


class KadNetwork(Overlay):
    """Live overlay state: the Overlay membership plus each node's
    contacts.  ids is the ring's sorted id list itself."""

    MODES = MODES

    def __init__(self, n, colluding=0.0, seed=0, bits=DEFAULT_BITS,
                 k=DEFAULT_K, replica_count=DEFAULT_REPLICAS,
                 tolerance_bits=DEFAULT_TOLERANCE_BITS):
        super().__init__(n, colluding, seed, bits)
        require_int("k", k, 1)
        require_int("replica_count", replica_count, 1)
        require_int("tolerance_bits", tolerance_bits, 0, bits)
        self.ids = self.ring.ids
        self.k = k
        self.replica_count = replica_count
        self.tolerance_bits = tolerance_bits
        self.nodes = {v: KadNode(v) for v in self.ids}
        self.bootstrap = max(1, (n - 1).bit_length())
        self.clock = 0
        for v in self.ids:
            self._seed_contacts(v)
        for v in self.ids:
            self._self_lookup(v)

    def _seed_contacts(self, v):
        """Give a node a handful of random live peers to bootstrap
        from.  Nobody learns of the node here; that happens when it
        looks up its own id (see _self_lookup).  The peers are a sample
        of the other ids, drawn as indices into ids with v's own index
        skipped, which draws exactly what sampling a list of the others
        would."""
        ids = self.ids
        at = bisect_left(ids, v)
        others = len(ids) - 1
        node = self.nodes[v]
        for j in self.rng.sample(range(others), min(self.bootstrap, others)):
            bucket_insert(self, node, ids[j + (j >= at)])

    def _self_lookup(self, v):
        """Kademlia's join step: v looks up its own id through its
        contacts.  v files everyone it queries, and each honest
        responder files v passively, so v's near buckets fill and its
        neighbourhood learns it.  A protocol step rather than a scored
        lookup: it records no scores, takes no attack serial, keeps no
        returned-by map, and colluders perform it too."""
        _iterate(self, v, v, "regular", False, self.replica_roots(v))

    def replica_roots(self, key):
        """The closest replica_count nodes agreeing with key in the
        first tolerance_bits bits, nearest first: the XOR-nearest ids of
        key's tolerance block, which are nearer key than every id
        outside it."""
        zone = aligned_block(self.ids, key, self.bits - self.tolerance_bits)
        return xor_closest(zone, key, self.replica_count)

    def random_key(self, rng):
        """A uniform key among those with at least one replica root in
        search tolerance: a uniform tolerance block holding a live id,
        then a uniform key inside it.  ids is sorted, so dropping
        repeated blocks in one pass lists each occupied block once, in
        order."""
        shift = self.bits - self.tolerance_bits
        blocks = [b for b, _ in groupby(u >> shift for u in self.ids)]
        return rng.choice(blocks) << shift | rng.randrange(1 << shift)

    def leave(self, nid):
        super().leave(nid)
        del self.nodes[nid]

    def join(self, malicious=False):
        """Add a node under an id no live node holds (see Overlay.join),
        seed it with random contacts, and have it look up its own id
        through them."""
        nid = super().join(malicious)
        self.nodes[nid] = KadNode(nid)
        self._seed_contacts(nid)
        self._self_lookup(nid)
        return nid


def bucket_insert(net, node, candidate, reds=False, active=True):
    """File candidate into node's bucket for their shared prefix.

    That bucket is the contacts differing from node's id first at the
    same bit i as candidate, which are the contacts agreeing with
    candidate above bit i: their aligned block at level i.

    A full bucket evicts the least-recently-seen entry, or under the
    reputation policy the entry with the fewest successes in node's
    store (uses and failures are not counted), least-recently-seen
    breaking ties.  Re-encounters only refresh the activity clock.
    Passive sightings (active=False) fill spare bucket space but never
    displace or refresh anything: only contacts a node chose to talk
    to earn that.  Every filing or refresh stamps the candidate with
    the next tick of net.clock.
    """
    if candidate == node.id:
        raise ValueError("node cannot bucket itself")
    last_seen = node.last_seen
    if candidate in last_seen:
        if not active:
            return
    else:
        bucket = aligned_block(node.sorted_contacts, candidate,
                               (node.id ^ candidate).bit_length() - 1)
        if len(bucket) >= net.k:
            if not active:
                return
            if reds and node.id not in net.malicious:
                counts = net.stores[node.id].counts
                worst = min(bucket,
                            key=lambda u: (counts.get(u, (0, 0))[0],
                                           last_seen[u]))
            else:
                worst = min(bucket, key=last_seen.__getitem__)
            node.drop(worst)
        insort(node.sorted_contacts, candidate)
    net.clock += 1
    last_seen[candidate] = net.clock


def credit_reputation(q, graph, closest_root):
    """Nodes on returning paths from the found root, by depth-first
    walk through graph, which maps each returned contact to the nodes
    that returned it.  Each node is visited once, the walk never
    crosses the querying node, and the root itself earns credit, even
    when nothing returned it."""
    credited = set()
    stack = [closest_root]
    while stack:
        u = stack.pop()
        if u in credited or u == q:
            continue
        credited.add(u)
        stack.extend(graph.get(u, ()))
    return credited


def _answer(net, v, key, attacked, mode, roots, truth, ranked):
    """v's reply to a query for key: the contacts it returns and the id
    it nominates as final answer, or None.  roots holds key's replica
    roots, truth the closest of them (or None), and ranked the POOL_CAP
    colluders nearest key, nearest first.

    Replica roots identify themselves when queried.  Honest nodes
    normally return the closest contacts they know; under
    collaborative boosting they return the contacts they trust most
    among those sitting closer to the key than themselves, so the reply
    still makes progress but favors proven contacts over merely near
    ones.

    Colluders pollute: whether or not the lookup is under attack they
    return a sample of the fellow colluders closest to the key, drawn
    from those at least one bit closer to it than themselves (anything
    farther would be ignored).  Those share more leading bits with key
    than v does, and ids that agree with key above a given bit are
    XOR-nearer it than every other id, so they are a prefix of ranked.
    An attacked colluder nominates ranked[0], the colluder closest to
    the key, and returns ranked[:BETA] when no colluder is closer than
    itself.  Only when no colluder can make progress does a
    non-attacking colluder hand over the true root, returning and
    nominating it when it knows it, which protects its reputation.
    """
    node = net.nodes[v]
    own = v if v in roots else None
    if v in net.malicious:
        limit = (1 << (v ^ key).bit_length()) >> 1
        pool = [m for m in ranked if m ^ key < limit]
        if pool:
            if len(pool) > BETA:
                pool = net.rng.sample(pool, BETA)
            return pool, ranked[0] if attacked else own
        if attacked:
            return ranked[:BETA], ranked[0]
        if truth is not None and truth in node.last_seen:
            near = xor_closest(node.sorted_contacts, key, BETA)
            return [truth] + [u for u in near if u != truth][:BETA - 1], truth
        return xor_closest(node.sorted_contacts, key, BETA), own
    if mode == "collaborative":
        dist = v ^ key
        closer = [u for u in node.sorted_contacts if u ^ key < dist]
        store = net.stores[v]
        closer.sort(key=lambda u: (-store.score(u), u ^ key))
        return closer[:BETA], own
    return xor_closest(node.sorted_contacts, key, BETA), own


def _iterate(net, q, key, mode, attacked, roots, graph=None):
    """Core of the iterative search: returns nominations, queried (the
    departed contacts it found included) and step count.  roots lists
    key's replica roots, nearest first, as replica_roots gives them.
    When graph is a dict, each returned contact is mapped in it to the
    nodes that returned it, in arrival order, so a contact returned
    twice lists two returners; a lookup whose result nobody scores
    passes none.  The colluders nearest key are ranked once, for every
    colluder that answers.

    Keeps a shortlist of the net.k closest contacts heard of, querying
    the ALPHA best unqueried entries each step: closest-first
    normally, or by q's own scores in the reputation modes.  The search
    ends when the net.k closest entries have all been queried.  A
    contact found departed leaves the shortlist and q's buckets at
    once (its leave already cleared every score table); dist keeps it,
    so no later reply puts it back.

    q never enters its own shortlist, so no contact can return it; when
    q is itself a replica root it nominates itself instead, and can
    then be the closest root found.
    """
    truth = roots[0] if roots else None
    roots = set(roots)
    ranked = xor_closest(net.colluders, key, POOL_CAP)
    nodes = net.nodes
    malicious = net.malicious
    k = net.k
    node_q = nodes[q]
    store = net.stores.get(q)
    reds = mode in REPUTED_MODES
    # shortlist holds (xor distance to key, id) pairs, kept sorted, and
    # dist every id ever listed, dead ones included.  q's contacts never
    # include q, and distinct ids have distinct distances, so one sort
    # seeds the shortlist in the order insorting them one by one would.
    dist = {u: u ^ key for u in node_q.sorted_contacts}
    shortlist = sorted([(d, u) for u, d in dist.items()])
    queried = set()
    nominated = {q} if q in roots else set()
    step = 0
    while True:
        batch = [u for _, u in shortlist[:k] if u not in queried]
        if not batch:
            break
        if reds:
            batch.sort(key=lambda u: (-store.score(u), dist[u]))
        for v in batch[:ALPHA]:
            queried.add(v)
            node_v = nodes.get(v)
            if node_v is None:
                # observed departure: drop the contact from this
                # search and from q's contacts
                shortlist.remove((dist[v], v))
                node_q.drop(v)
                continue
            returned, answer = _answer(net, v, key, attacked, mode, roots,
                                       truth, ranked)
            returned = [u for u in returned if u != q]
            if answer is not None:
                nominated.add(answer)
                if answer not in returned and answer not in (v, q):
                    returned.append(answer)
            if graph is not None:
                for b in returned:
                    graph.setdefault(b, []).append(v)
            bucket_insert(net, node_q, v, reds=reds)
            if v not in malicious:
                bucket_insert(net, node_v, q, active=False)
            for b in returned:
                if b not in dist:
                    d = dist[b] = b ^ key
                    insort(shortlist, (d, b))
        step += 1
    return nominated, queried, step


def kad_lookup(net, q, key, mode="regular", policy=None):
    """Iterative lookup from q for key; returns the outcome with its
    returned-by map.  net.begin_lookup admits it (mode, key and origin).

    The lookup succeeds when the closest root claimed to q is the true
    closest replica root; on success every node on a returning path is
    credited.  Only live contacts q actually queried are charged a use,
    so a contact's score is the fraction of times selecting it led to
    the right root; every credited node is one of them (see the module
    docstring).  When q is itself the true root it finds itself, the
    lookup succeeds, and nothing is recorded: no contact could have
    returned q, so none is blamed or credited.
    """
    attacked = net.begin_lookup(q, key, mode, policy)
    store = net.stores[q]
    roots = net.replica_roots(key)
    truth = roots[0] if roots else None
    graph = {}
    nominated, queried, step = _iterate(
        net, q, key, mode, attacked, roots, graph)
    closest_root = min(nominated, key=key.__xor__, default=None)
    success = closest_root is not None and closest_root == truth
    if truth != q:
        if success:
            credited = credit_reputation(q, graph, closest_root)
        else:
            credited = set()
        for u in queried:
            if u in net.nodes:
                store.record(u, u in credited)
    return KadLookupOutcome(key, frozenset(u for u in nominated if u in roots),
                            closest_root, success, graph, step, queried)


def warmup(net, lookups_per_node, policy=None, seed=0):
    """Populate buckets with lookups_per_node recorded regular-mode
    lookups from every honest node, in a fresh random permutation each
    round."""
    require_int("lookups_per_node", lookups_per_node, 0)
    rng = random.Random(seed)
    for _ in range(lookups_per_node):
        order = net.honest_nodes()
        rng.shuffle(order)
        for q in order:
            kad_lookup(net, q, net.random_key(rng), policy=policy)


def pollution_fraction(net):
    """Malicious share of all honest nodes' bucket entries."""
    total = bad = 0
    for v, node in net.nodes.items():
        if v in net.malicious:
            continue
        total += len(node.sorted_contacts)
        bad += sum(1 for u in node.sorted_contacts if u in net.malicious)
    return bad / total if total else 0.0
