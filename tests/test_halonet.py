import random

import pytest

from dhtsim.adversary import AttackPolicy
from dhtsim.halonet import (
    BAD_NODE_IN_PATH,
    FAILURE_REASONS,
    JOIN_SCORE,
    KNUCKLE_COLLUDER,
    KNUCKLE_NONEXISTENT,
    MODES,
    START_COLLUDER,
    SUCCESSOR_COUNT,
    HaloNetwork,
    _route_to_predecessor,
    classify_failure,
    halo_lookup,
)
from dhtsim.idspace import Ring, clockwise_closest
from dhtsim.reputation import DEFAULT_PRIOR
from oracles import (
    finger_bucket,
    knuckles,
    pointing_at,
    ring_distance,
    ring_owner,
    ring_predecessor,
    ring_successors,
    route_to_predecessor,
)


def small_net(n=64, colluding=0.0, seed=1, bits=16, **kw):
    return HaloNetwork(n, colluding, seed, bits=bits, **kw)


def first_hop(net, v, y, mode="regular", avoid=()):
    """v's next hop toward y by the program's route with the successor
    list's short cut off: the bucket walk's pick, or v itself when no
    bucket member makes progress.  In a reputed mode v picks with its
    store, so it must have one."""
    count = net.successor_count
    net.successor_count = 0
    try:
        _, path, _, _ = _route_to_predecessor(net, v, y, None, mode, False,
                                              set(avoid))
    finally:
        net.successor_count = count
    return path[0] if path else v


def window_covers(net, v, y):
    """Whether the program's route from v names pred(y) outright from
    v's successor list.  pred(y) acts as a colluder for one attacked
    route, so a covered first hop comes back as a covered hijack there;
    when pred(y) is v the route stops at v either way, and this is
    False."""
    pred = ring_predecessor(net.ring, y)
    honest = pred not in net.malicious
    net.malicious.add(pred)
    try:
        _, path, _, covered = _route_to_predecessor(net, v, y, pred,
                                                    "regular", True, set())
    finally:
        if honest:
            net.malicious.discard(pred)
    return path == [pred] and covered


class OfferLog:
    """A stand-in store that scores every contact 0, below JOIN_SCORE,
    so a ReDS hop accepts no bucket, and logs each bucket it is offered
    to break a tie over, picking the bucket's first member."""

    def __init__(self):
        self.offered = []

    def score(self, contact, prior=DEFAULT_PRIOR):
        return 0.0

    def break_tie(self, tied):
        self.offered.append(list(tied))
        return tied[0]


def test_build_populates_roles():
    net = HaloNetwork(200, colluding=0.2, seed=3)
    assert len(net.ring) == 200
    assert len(net.malicious) == 40
    assert len(net.stores) == 160
    assert set(net.colluders) == net.malicious
    assert net.colluders == sorted(net.colluders)
    with pytest.raises(ValueError):
        HaloNetwork(5)
    with pytest.raises(ValueError):
        HaloNetwork(100, colluding=1.0)


def test_closest_colluder_is_clockwise_first():
    net = small_net(64, colluding=0.25, seed=4)
    rng = random.Random(5)
    for _ in range(300):
        t = rng.randrange(net.space)
        got = net.closest_colluder(t)
        want = min(net.colluders, key=lambda c: ring_distance(t, c, net.bits))
        assert got == want


def test_finger_bucket_members():
    net = small_net(64, seed=6, bucket_size=3)
    rng = random.Random(7)
    for _ in range(200):
        nid = rng.choice(net.ring.ids)
        off = rng.randrange(net.bits)
        bucket = finger_bucket(net, nid, off)
        canon = net.ring.finger(nid, off)
        assert bucket[0] == canon
        assert len(bucket) == len(set(bucket)) <= 3
        # members walk backward from the canonical finger
        for a, b in zip(bucket, bucket[1:]):
            assert net.ring.predecessor(a) == b
        assert nid not in bucket[1:]


def test_knuckles_symmetric_ring_count():
    # 16 evenly spaced nodes in an 8-bit space: the owner of any target
    # appears in exactly log2(16) = 4 finger tables
    net = small_net(16, seed=8, bits=8)
    net.ring = Ring([i * 16 for i in range(16)], 8)
    ks = knuckles(net, 37)
    v = net.ring.owner(37)  # 48
    assert v == 48
    assert ks == {(48 - 16) % 256, (48 - 32) % 256, (48 - 64) % 256,
                  (48 - 128) % 256}


def test_knuckles_brute_force_oracle():
    rng = random.Random(9)
    for _ in range(20):
        net = small_net(rng.randint(12, 48), seed=rng.randrange(999), bits=12)
        t = rng.randrange(net.space)
        v = net.ring.owner(t)
        brute = {x for x in net.ring.ids if x != v
                 and any(net.ring.finger(x, i) == v for i in range(net.bits))}
        assert knuckles(net, t) == brute


def test_knuckle_nonexistent_rate_quarter():
    # with uniform ids, the interval that should hold a knuckle is empty
    # about a quarter of the time at high offsets
    net = HaloNetwork(1000, seed=10)
    rng = random.Random(11)
    misses = 0
    trials = 20000
    for _ in range(trials):
        v = net.ring.owner(rng.randrange(net.space))
        off = net.bits - 1 - rng.randrange(net.redundancy)
        misses += not net.ring.pointing(v, net.ring.predecessor(v), off)
    assert abs(misses / trials - 0.25) < 0.02


def test_chord_next_hop_against_all_table_entries():
    rng = random.Random(12)
    net = small_net(48, seed=13)
    for _ in range(500):
        v = rng.choice(net.ring.ids)
        y = rng.randrange(net.space)
        got = first_hop(net, v, y)
        d = ring_distance(v, y, net.bits)
        entries = set()
        for i in range(d.bit_length()):
            entries.update(finger_bucket(net, v, i))
        progress = [f for f in entries
                    if f != v and ring_distance(v, f, net.bits) < d]
        if progress:
            want = max(progress, key=lambda f: ring_distance(v, f, net.bits))
            assert got == want
        else:
            assert got == v


def test_chord_next_hop_detours_around_avoided():
    net = small_net(64, seed=13)
    rng = random.Random(14)
    for _ in range(200):
        v = rng.choice(net.ring.ids)
        y = rng.randrange(net.space)
        first = first_hop(net, v, y)
        if first == v:
            continue
        alt = first_hop(net, v, y, avoid={first})
        if alt != first:
            d = ring_distance(v, y, net.bits)
            assert ring_distance(v, alt, net.bits) < d


def nearest_progressing_bucket(net, v, target):
    """Members of v's nearest finger bucket that advance toward target."""
    d = ring_distance(v, target, net.bits)
    for i in range(d.bit_length() - 1, -1, -1):
        bucket = [c for c in finger_bucket(net, v, i)
                  if c != v and ring_distance(v, c, net.bits) < d]
        if bucket:
            return bucket
    return []


def test_route_short_circuits_over_successor_list():
    # hops whose successor list covers y while y's predecessor sits in
    # no bucket the finger walk reaches first: the route must still name
    # pred(y) outright, in every mode, and a colluder named so is covered
    net = small_net(64, colluding=0.25, seed=14)
    cases = []
    for v in net.honest_nodes():
        succ = ring_successors(net.ring, v, net.successor_count)
        for y in succ[1:]:
            pred = net.ring.predecessor(y)
            assert window_covers(net, v, y)
            if pred not in nearest_progressing_bucket(net, v, y):
                assert first_hop(net, v, y) != pred
                cases.append((v, y, pred))
    assert sum(p in net.malicious for _, _, p in cases) >= 10
    assert sum(p not in net.malicious for _, _, p in cases) >= 10
    for mode in MODES:
        net = small_net(64, colluding=0.25, seed=14)
        for v, y, pred in cases:
            for attacked in (False, True):
                w, path, hijack, covered = _route_to_predecessor(
                    net, v, y, pred, mode, attacked, set())
                assert path == [pred] and w == pred
                if attacked and pred in net.malicious:
                    assert hijack == START_COLLUDER and covered
                else:
                    assert hijack is None and not covered


def test_window_covers_matches_successor_list():
    rng = random.Random(36)
    seen = set()
    for trial in range(40):
        net = small_net(rng.randint(10, 40), seed=rng.randrange(999), bits=10)
        count = net.successor_count
        if trial % 4 == 0:
            # leaves shrink the ring below successor_count + 1 nodes
            keep = rng.randint(1, count)
            for nid in rng.sample(net.ring.ids, len(net.ring) - keep):
                net.leave(nid)
        for _ in range(50):
            v = rng.choice(net.ring.ids)
            y = rng.randrange(net.space)
            d = ring_distance(v, y, net.bits)
            net.successor_count = rng.randint(0, count + 2)
            succ = ring_successors(net.ring, v, net.successor_count)
            want = bool(succ) and d <= ring_distance(v, succ[-1], net.bits)
            if d == 0 or ring_predecessor(net.ring, y) == v:
                # y is v, or v is pred(y): covered or not, no hop
                w, path, _, _ = _route_to_predecessor(
                    net, v, y, v, "regular", True, set())
                assert (w, path) == (v, [])
                continue
            assert window_covers(net, v, y) == want
            seen.add(want)
    assert seen == {True, False}


def test_walk_offers_each_oracle_bucket_in_order():
    # a ReDS hop whose store scores everyone below JOIN_SCORE accepts no
    # bucket, so it is offered every bucket holding a member that makes
    # progress, nearest first, and falls back to the nearest bucket's
    # pick, its first member here, or v when no bucket has one
    rng = random.Random(39)
    buckets_seen = set()
    for bucket_size in (1, 2, 3, 4):
        for trial in range(12):
            net = small_net(40, seed=rng.randrange(999), bits=10,
                            bucket_size=bucket_size)
            if trial % 3 == 0:
                # leaves shrink the ring to successor_count + 2 nodes
                keep = net.successor_count + 2
                for nid in rng.sample(net.ring.ids, len(net.ring) - keep):
                    net.leave(nid)
            elif trial % 3 == 1:
                # fewer live nodes than bucket members: buckets wrap
                for nid in rng.sample(net.ring.ids, len(net.ring) - 3):
                    net.leave(nid)
            for _ in range(30):
                v = rng.choice(net.ring.ids)
                if rng.random() < 0.3:
                    v = rng.randrange(net.space)   # need not be live
                target = rng.choice(
                    [rng.randrange(net.space), rng.randint(-4, 4) % net.space])
                log = OfferLog()
                held = net.stores.get(v)
                net.stores[v] = log
                try:
                    got = first_hop(net, v, target, mode="aboost")
                finally:
                    if held is None:
                        del net.stores[v]
                    else:
                        net.stores[v] = held
                d = ring_distance(v, target, net.bits)
                want = []
                for i in range(d.bit_length() - 1, -1, -1):
                    bucket = [c for c in finger_bucket(net, v, i)
                              if 0 < ring_distance(v, c, net.bits) < d]
                    if bucket:
                        want.append(bucket)
                assert log.offered == want
                assert got == (want[0][0] if want else v)
                buckets_seen.update(len(b) for b in want)
    assert buckets_seen == {1, 2, 3, 4}


def replay_net(kind, seed, bucket_size):
    """A 25%-colluding ring with a history: joins, first-hand records
    and shared overrides, some of both scoring contacts below
    JOIN_SCORE.  shrunk leaves successor_count + 2 nodes; wrapped keeps
    only the ids in the quarters either side of zero, so windows and
    buckets wrap past it.  The same arguments build the same network."""
    rng = random.Random(seed)
    net = small_net(64, colluding=0.25, seed=seed, bits=10,
                    bucket_size=bucket_size)
    for _ in range(4):
        net.join(malicious=rng.random() < 0.25)
    if kind == "shrunk":
        keep = net.successor_count + 2
        for nid in rng.sample(net.ring.ids, len(net.ring) - keep):
            net.leave(nid)
    elif kind == "wrapped":
        quarter = net.space // 4
        for nid in list(net.ring.ids):
            if quarter <= nid < 3 * quarter:
                net.leave(nid)
    honest = net.honest_nodes()
    for v in honest:
        for c in rng.sample(net.ring.ids, len(net.ring) // 2):
            for _ in range(rng.randrange(3)):
                net.stores[v].record(c, rng.random() < 0.5)
    for v in rng.sample(honest, len(honest) // 2):
        net.score_overrides[v] = {
            c: rng.choice((0.0, 0.0, 0.2, JOIN_SCORE, 1.0))
            for c in rng.sample(net.ring.ids, len(net.ring) // 2)}
    return net


def tie_state(net):
    return {v: (st._tie_choice, st._rng and st._rng.getstate())
            for v, st in net.stores.items()}


def test_route_replays_oracle_hop_rule():
    # the one-loop route against the hop rule run through one helper
    # call per hop: the same (w, path, hijack, covered) on every route
    # and the same tie-break draws, on two copies of each network;
    # routes run as a lookup's subsearches do, so avoid fills from the
    # earlier paths
    rng = random.Random(42)
    routes = 0
    seen = {"mode": set(), "attacked": set(), "avoid": set(),
            "count": set(), "size": set(), "hijack": set(),
            "covered": set()}
    wraps = 0
    for kind in ("full", "shrunk", "wrapped"):
        for size in (1, 2, 3, 4):
            for seed in (rng.randrange(999), rng.randrange(999)):
                net = replay_net(kind, seed, size)
                ref = replay_net(kind, seed, size)
                for _ in range(10):
                    origin = rng.choice(net.honest_nodes())
                    target = rng.choice(edge_targets(net, rng))
                    mode = rng.choice(MODES)
                    attacked = rng.random() < 0.5
                    count = rng.randint(0, SUCCESSOR_COUNT + 2)
                    net.successor_count = ref.successor_count = count
                    avoid, ref_avoid = set(), set()
                    for k in range(net.redundancy):
                        y = (target - (1 << (net.bits - 1 - k))) % net.space
                        pred = ring_predecessor(net.ring, y)
                        seen["avoid"].add(bool(avoid))
                        got = _route_to_predecessor(net, origin, y, pred,
                                                    mode, attacked, avoid)
                        want = route_to_predecessor(ref, origin, y, pred,
                                                    mode, attacked,
                                                    ref_avoid)
                        assert got == want
                        w, path, hijack, covered = got
                        routes += 1
                        hops = [origin] + path
                        wraps += any(b < a for a, b in zip(hops, hops[1:]))
                        for avoided in (avoid, ref_avoid):
                            avoided.update(path)
                            if hijack is None or covered:
                                avoided.add(ring_owner(net.ring, y))
                        seen["hijack"].add(hijack)
                        seen["covered"].add(covered)
                    seen["mode"].add(mode)
                    seen["attacked"].add(attacked)
                    seen["count"].add(count)
                    seen["size"].add(size)
                assert tie_state(net) == tie_state(ref)
    assert routes >= 2000 and wraps > 100
    assert seen["mode"] == set(MODES)
    assert seen["count"] == set(range(SUCCESSOR_COUNT + 3))
    assert seen["size"] == {1, 2, 3, 4}
    assert seen["attacked"] == seen["avoid"] == seen["covered"] == \
        {True, False}
    assert {None, START_COLLUDER, BAD_NODE_IN_PATH,
            KNUCKLE_COLLUDER} <= seen["hijack"]


def test_route_reaches_predecessor():
    rng = random.Random(15)
    net = small_net(128, seed=16)
    for _ in range(1000):
        origin = rng.choice(net.ring.ids)
        y = rng.randrange(net.space)
        w, path, hijack, covered = _route_to_predecessor(
            net, origin, y, net.ring.predecessor(y), "regular", False, set())
        assert hijack is None
        assert covered is False
        assert w == net.ring.predecessor(y) or (
            # when y's owner is the origin's own successor region the
            # origin itself can be the predecessor
            w == origin and net.ring.predecessor(y) == origin)
        for hop in path:
            assert hop in net.ring


def test_all_honest_lookup_finds_owner_or_all_knuckles_missing():
    net = HaloNetwork(400, seed=17)
    rng = random.Random(18)
    failures = 0
    for _ in range(2000):
        origin = rng.choice(net.honest_nodes())
        t = rng.randrange(net.space)
        out = halo_lookup(net, origin, t, mode="regular")
        if not out.correct:
            failures += 1
            assert all(not net.ring.pointing(out.owner, out.before, s.offset)
                       for s in out.subsearches)
            for s in out.subsearches:
                assert classify_failure(net, out, s) == KNUCKLE_NONEXISTENT
        else:
            assert out.answer == net.ring.owner(t)
    # both-sides-empty happens for all ten offsets about 1/121 of the time
    assert failures / 2000 < 0.025


def test_consolidation_prefers_true_owner():
    net = HaloNetwork(500, colluding=0.2, seed=19)
    policy = AttackPolicy(1.0)
    rng = random.Random(20)
    seen_owner_win = 0
    for _ in range(500):
        origin = rng.choice(net.honest_nodes())
        t = rng.randrange(net.space)
        out = halo_lookup(net, origin, t, mode="regular", policy=policy)
        if any(s.candidate == out.owner for s in out.subsearches):
            assert out.answer == out.owner
            seen_owner_win += 1
    assert seen_owner_win > 0


def test_hijacked_subsearch_returns_closest_colluder():
    net = HaloNetwork(500, colluding=0.2, seed=21)
    policy = AttackPolicy(1.0)
    rng = random.Random(22)
    hijacked = 0
    for _ in range(300):
        origin = rng.choice(net.honest_nodes())
        t = rng.randrange(net.space)
        out = halo_lookup(net, origin, t, mode="regular", policy=policy)
        for s in out.subsearches:
            if s.hijack is not None and s.neighbor is None:
                hijacked += 1
                assert s.candidate == net.closest_colluder(t)
                assert s.path[-1] in net.malicious
            elif s.hijack is not None:
                # the probe of owner(y) went ahead: either the lying
                # predecessor was exposed by the short-circuiting hop,
                # or the owner probe itself hit a colluder
                assert (s.path and s.path[-1] in net.malicious) or \
                    s.neighbor in net.malicious
    assert hijacked > 50


def test_attacked_lookup_hijacks_every_malicious_contact():
    # colluders act on a single per-lookup coin: in an attacked lookup a
    # malicious node always ends its subsearch, so it can only be last
    net = HaloNetwork(500, colluding=0.2, seed=23)
    policy = AttackPolicy(1.0)
    rng = random.Random(24)
    for _ in range(300):
        origin = rng.choice(net.honest_nodes())
        out = halo_lookup(net, origin, rng.randrange(net.space),
                          mode="regular", policy=policy)
        assert out.attacked
        for s in out.subsearches:
            for hop in s.path[:-1]:
                assert hop not in net.malicious
            if s.hijack is None:
                assert all(h not in net.malicious for h in s.path)
                assert s.neighbor not in net.malicious


def test_unattacked_lookup_never_hijacks():
    net = HaloNetwork(500, colluding=0.2, seed=25)
    policy = AttackPolicy(0.0)
    rng = random.Random(26)
    for _ in range(200):
        origin = rng.choice(net.honest_nodes())
        out = halo_lookup(net, origin, rng.randrange(net.space),
                          mode="regular", policy=policy)
        assert not out.attacked
        assert all(s.hijack is None for s in out.subsearches)


def edge_targets(net, rng):
    """Targets just before and after 0, on and beside live ids, and a
    few uniform ones."""
    ids = net.ring.ids
    near_zero = [t % net.space for t in range(-3, 4)]
    beside = [(u + d) % net.space for u in rng.sample(ids, 3)
              for d in (-1, 0, 1)]
    return near_zero + beside + [rng.randrange(net.space) for _ in range(4)]


@pytest.mark.parametrize("shrink", [True, False])
def test_lookup_facts_match_brute_force(shrink):
    # each lookup's owner, its predecessor and knuckle facts, and each
    # subsearch's probes and answer, against scans of every live id;
    # shrunk rings hold
    # successor_count + 2 nodes, so knuckle intervals are wide, wrap
    # past zero and can hold the owner
    rng = random.Random(41)
    flags, hijacked = set(), 0
    for _ in range(12):
        net = small_net(40, colluding=0.25, seed=rng.randrange(999), bits=10)
        if shrink:
            keep = net.successor_count + 2
            for nid in rng.sample(net.ring.ids, len(net.ring) - keep):
                net.leave(nid)
        ring = net.ring
        policy = AttackPolicy(0.5, seed=rng.randrange(999))
        for t in edge_targets(net, rng):
            out = halo_lookup(net, rng.choice(net.honest_nodes()), t,
                              mode=rng.choice(MODES), policy=policy)
            assert out.owner == ring_owner(ring, t)
            assert out.before == ring_predecessor(ring, out.owner)
            lie = min(net.colluders, default=None,
                      key=lambda c: ring_distance(t, c, net.bits))
            for s in out.subsearches:
                exists = bool(pointing_at(ring, out.owner, s.offset))
                assert bool(ring.pointing(out.owner, out.before,
                                          s.offset)) == exists
                flags.add(exists)
                if s.neighbor is None:
                    # an uncovered hijack answers the colluders' lie
                    assert out.attacked and s.path[-1] in net.malicious
                    assert s.candidate == lie
                    hijacked += 1
                    continue
                y = (t - (1 << s.offset)) % net.space
                w = ring_predecessor(ring, y)
                assert s.neighbor == ring_owner(ring, y)
                assert not s.path or s.path[-1] == w
                answers = []
                for x in (w,) if w == s.neighbor else (w, s.neighbor):
                    if out.attacked and x in net.malicious:
                        answers.append(lie)
                        hijacked += 1
                    else:
                        answers.append(ring_owner(ring, x + (1 << s.offset)))
                assert s.candidate == clockwise_closest(t, answers, net.bits)
    assert flags == {True, False}
    assert hijacked > 20


def test_classification_covers_reasons():
    net = HaloNetwork(600, colluding=0.25, seed=27)
    policy = AttackPolicy(1.0)
    rng = random.Random(28)
    seen = set()
    for _ in range(600):
        origin = rng.choice(net.honest_nodes())
        t = rng.randrange(net.space)
        out = halo_lookup(net, origin, t, mode="regular", policy=policy)
        for s in out.subsearches:
            if s.candidate != out.owner:
                reason = classify_failure(net, out, s)
                assert reason in FAILURE_REASONS
                seen.add(reason)
                if reason == START_COLLUDER:
                    assert s.path[0] in net.malicious
                elif reason == BAD_NODE_IN_PATH:
                    assert s.path[-1] in net.malicious
                elif reason == KNUCKLE_COLLUDER:
                    assert (s.path and s.path[-1] in net.malicious) or \
                        s.neighbor in net.malicious
    assert {START_COLLUDER, BAD_NODE_IN_PATH, KNUCKLE_COLLUDER,
            KNUCKLE_NONEXISTENT} <= seen


def test_reds_next_hop_avoids_low_scored_contact():
    net = small_net(64, seed=29, bucket_size=2)
    pairs = []
    for origin in net.honest_nodes():
        for i in range(1, net.bits):
            # halfway through offset i's range, past the successor list
            y = (origin + 3 * (1 << (i - 1))) % net.space
            if window_covers(net, origin, y):
                continue
            bucket = nearest_progressing_bucket(net, origin, y)
            if len(bucket) == 2:
                pairs.append((origin, y, bucket))
    assert len(pairs) >= 10
    for origin, y, bucket in pairs[:10]:
        # score each member bad in turn, so neither the sticky tie-break
        # nor the order of progress can pick the good one by accident
        for good, bad in (bucket, bucket[::-1]):
            net = small_net(64, seed=29, bucket_size=2)
            assert first_hop(net, origin, y, mode="aboost") in bucket
            store = net.stores[origin]
            for _ in range(10):
                store.record(good, True)
                store.record(bad, False)
            assert first_hop(net, origin, y, mode="aboost") == good


def test_recorded_lookup_counts_first_contact_per_subsearch():
    # replay oracle: a recorded reputed lookup adds one use of the first
    # contact of every subsearch that contacted anyone, a success when
    # the subsearch's candidate is the answer; nothing else is written
    net = HaloNetwork(300, colluding=0.2, seed=36)
    policy = AttackPolicy(0.5, seed=36)
    rng = random.Random(36)
    want = {v: {} for v in net.stores}
    outcomes = set()
    for _ in range(300):
        origin = rng.choice(net.honest_nodes())
        mode = rng.choice(MODES)
        out = halo_lookup(net, origin, rng.randrange(net.space), mode=mode,
                          policy=policy, record=True)
        if mode == "regular":
            continue
        for s in out.subsearches:
            if s.path:
                c = want[origin].setdefault(s.path[0], [0, 0])
                c[1] += 1
                agreed = s.candidate == out.answer
                c[0] += agreed
                outcomes.add(agreed)
    assert outcomes == {True, False}
    assert {v: st.counts for v, st in net.stores.items()} == want


def test_recorded_lookup_writes_no_deeper_hop():
    # only the first hop of a subsearch is keyed: contacts met further
    # along a multi-hop path get no counter unless they led another
    # subsearch, and every key is a bare contact id
    net = HaloNetwork(300, colluding=0.2, seed=37)
    policy = AttackPolicy(0.5, seed=37)
    rng = random.Random(37)
    deep = 0
    for _ in range(50):
        origin = rng.choice(net.honest_nodes())
        before = dict(net.stores[origin].counts)
        out = halo_lookup(net, origin, rng.randrange(net.space),
                          mode="collaborative", policy=policy, record=True)
        firsts = {s.path[0] for s in out.subsearches if s.path}
        later = {v for s in out.subsearches for v in s.path[1:]}
        deep += len(later - firsts - set(before))
        new = set(net.stores[origin].counts) - set(before)
        assert new <= firsts
        assert all(isinstance(k, int) for k in net.stores[origin].counts)
    assert deep > 0  # multi-hop paths did occur and went unrecorded


def test_lookup_records_paths_for_reputed_modes():
    net = HaloNetwork(300, colluding=0.1, seed=30)
    origin = net.honest_nodes()[0]
    halo_lookup(net, origin, 12345, mode="collaborative",
                policy=AttackPolicy(1.0), record=True)
    assert net.stores[origin].counts  # first contacts were counted
    fresh = HaloNetwork(300, colluding=0.1, seed=30)
    o2 = fresh.honest_nodes()[0]
    halo_lookup(fresh, o2, 12345, mode="regular",
                policy=AttackPolicy(1.0), record=True)
    assert not fresh.stores[o2].counts


def test_lookup_argument_errors():
    net = HaloNetwork(100, colluding=0.2, seed=31)
    bad = next(iter(net.malicious))
    good = net.honest_nodes()[0]
    with pytest.raises(ValueError):
        halo_lookup(net, bad, 1)
    for redundancy in (0, net.bits + 1):
        with pytest.raises(ValueError):
            HaloNetwork(100, colluding=0.2, seed=31, redundancy=redundancy)
    with pytest.raises(ValueError):
        halo_lookup(net, good, 1, mode="bogus")
    for target in (-1, net.space, net.space + 1):
        with pytest.raises(ValueError):
            halo_lookup(net, good, target)
    assert halo_lookup(net, good, net.space - 1).target == net.space - 1
    with pytest.raises(ValueError):
        HaloNetwork(100, seed=31, bucket_size=0)
    gone = net.honest_nodes()[1]
    net.leave(gone)
    for mode in MODES:
        with pytest.raises(ValueError):
            halo_lookup(net, gone, 1, mode=mode)


def test_network_rejects_a_bad_successor_count():
    # a negative count used to act as 0 without a word
    for count in (-5, -1, 2.5, "8"):
        with pytest.raises(ValueError):
            HaloNetwork(100, seed=31, successor_count=count)
    assert HaloNetwork(100, seed=31, successor_count=0).successor_count == 0


def test_network_rejects_a_bad_bucket_size():
    # a fractional size used to pass, and the first lookup then raised
    # TypeError from range()
    for size in (1.5, 2.0, "2", 0, -1):
        with pytest.raises(ValueError):
            HaloNetwork(100, seed=31, bucket_size=size)
    net = HaloNetwork(100, seed=31, bucket_size=1)
    assert halo_lookup(net, net.honest_nodes()[0], 1).subsearches


def test_network_rejects_a_bad_redundancy():
    # a fractional count used to pass, and the first lookup then raised
    # TypeError from range()
    for redundancy in (2.5, 3.0, "3", 0, 33):
        with pytest.raises(ValueError):
            HaloNetwork(100, seed=31, redundancy=redundancy)
    net = HaloNetwork(100, seed=31, redundancy=3)
    assert len(halo_lookup(net, net.honest_nodes()[0], 1).subsearches) == 3


def test_join_prior_follows_join_order():
    # reference: each honest store pins JOIN_SCORE on every node that
    # joins while the store exists
    net = HaloNetwork(100, colluding=0.2, seed=37)
    rng = random.Random(38)
    pinned = {v: set() for v in net.stores}
    for _ in range(60):
        if rng.random() < 0.5:
            net.leave(rng.choice(net.ring.ids))
        new = net.join(malicious=rng.random() < 0.2)
        if new in net.stores:
            pinned[new] = set()
        for v in net.stores:
            pinned[v].add(new)
    for v in net.stores:
        for c in net.ring.ids:
            if c != v:
                want = JOIN_SCORE if c in pinned[v] else DEFAULT_PRIOR
                assert net.first_hand_score(v, c) == want
                assert net.contact_score(v, c) == want
    early = net.honest_nodes()
    late = net.join()
    later = net.join()
    assert all(net.first_hand_score(v, late) == JOIN_SCORE for v in early)
    assert net.first_hand_score(later, late) == DEFAULT_PRIOR
    assert net.first_hand_score(late, later) == JOIN_SCORE
    net.stores[early[0]].record(late, True)
    assert net.first_hand_score(early[0], late) == (1 + JOIN_SCORE) / 2


def test_lookup_deterministic_for_seed():
    def run(seed):
        net = HaloNetwork(300, colluding=0.2, seed=seed)
        policy = AttackPolicy(0.7, seed=seed)
        rng = random.Random(99)
        outs = []
        for _ in range(50):
            origin = rng.choice(net.honest_nodes())
            t = rng.randrange(net.space)
            out = halo_lookup(net, origin, t, mode="collaborative",
                              policy=policy, record=True)
            outs.append((out.answer, out.correct, out.attacked))
        return outs

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_subsearch_contact_counts_reasonable():
    net = HaloNetwork(1000, seed=34)
    rng = random.Random(35)
    total = n_sub = 0
    for _ in range(100):
        origin = rng.choice(net.honest_nodes())
        out = halo_lookup(net, origin, rng.randrange(net.space))
        for s in out.subsearches:
            total += s.contacts
            n_sub += 1
    mean = total / n_sub
    assert 3.0 < mean < 9.0
