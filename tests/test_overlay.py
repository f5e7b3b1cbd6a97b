"""The membership core both overlays share: the same draws for the same
seed, churn bookkeeping, bounded memory under long churn, and lookup
admission with its per-lookup attack coin."""

import random
import tracemalloc

import pytest

from dhtsim.adversary import AttackPolicy
from dhtsim.halonet import HaloNetwork, halo_lookup
from dhtsim.kadnet import KadNetwork, kad_lookup, warmup

OVERLAYS = pytest.mark.parametrize("overlay", [HaloNetwork, KadNetwork],
                                   ids=["halo", "kad"])


def test_both_overlays_draw_members_alike():
    halo = HaloNetwork(100, 0.2, seed=3)
    kad = KadNetwork(100, 0.2, seed=3)
    assert halo.ring.ids == kad.ids
    assert halo.colluders == kad.colluders
    assert halo.honest_nodes() == kad.honest_nodes()
    assert halo.stores.keys() == kad.stores.keys()
    for v, store in halo.stores.items():
        assert store.seed == kad.stores[v].seed


@OVERLAYS
def test_churn_ops_and_fresh_ids(overlay):
    net = overlay(100, colluding=0.2, seed=32)
    rng = random.Random(33)
    for _ in range(200):
        nid = rng.choice(net.ring.ids)
        was_bad = nid in net.malicious
        net.leave(nid)
        assert nid not in net.ring
        if was_bad:
            assert nid not in net.malicious and nid not in net.colluders
        live_before = set(net.ring.ids)
        new = net.join(malicious=rng.random() < 0.2)
        assert new not in live_before
        assert (new in net.malicious) == (new in set(net.colluders))
        live = set(net.ring.ids)
        assert net.colluders == sorted(net.malicious)
        assert set(net.stores) == live - net.malicious
        if overlay is KadNetwork:
            assert net.ids is net.ring.ids
            assert set(net.nodes) == live
    assert len(net.ring) == 100
    if overlay is HaloNetwork:
        assert net.joined and set(net.joined) <= set(net.ring.ids)
    # churn with no lookups writes nothing into any store
    assert all(not store.counts for store in net.stores.values())


@OVERLAYS
def test_leave_forgets_the_leaver_in_every_store(overlay):
    # Kad's leave used to forget nothing: a departed contact was dropped
    # only from a querier's own store, when that querier queried it
    net = overlay(100, colluding=0.2, seed=29)
    if overlay is KadNetwork:
        warmup(net, 2, seed=29)
    else:
        rng = random.Random(29)
        for origin in net.honest_nodes() * 2:
            halo_lookup(net, origin, rng.randrange(net.space),
                        mode="collaborative", record=True)
    stores = list(net.stores.values())

    def naming(u):
        """Stores counting u, and stores with a tie set naming u."""
        return (sum(u in st.counts for st in stores),
                sum(any(u in sig for sig in st._tie_choice)
                    for st in stores))

    gone = max(net.ring.ids, key=naming)
    counted, tied = naming(gone)
    assert counted > 10
    if overlay is HaloNetwork:
        assert tied > 10   # Kad's stores never break a tie
    net.leave(gone)
    for st in net.stores.values():
        assert gone not in st.counts
        assert all(gone not in sig for sig in st._tie_choice)


@OVERLAYS
def test_begin_lookup_takes_one_serial_per_lookup(overlay):
    net = overlay(50, colluding=0.2, seed=4)
    policy = AttackPolicy(0.5, seed=9)
    honest = net.honest_nodes()
    coins = [net.begin_lookup(honest[i % len(honest)], 0, "regular", policy)
             for i in range(100)]
    assert coins == [policy.should_attack(s) for s in range(100)]
    assert net.begin_lookup(honest[0], 0, "regular", None) is False
    assert net.serial == 101
    gone = honest[1]
    net.leave(gone)
    for origin in (net.colluders[0], gone):
        with pytest.raises(ValueError):
            net.begin_lookup(origin, 0, "regular", policy)
    # the mode is checked first, then the key, then the origin
    with pytest.raises(ValueError, match="mode"):
        net.begin_lookup(gone, -1, "bogus", policy)
    with pytest.raises(ValueError, match="key"):
        net.begin_lookup(gone, -1, "regular", policy)
    assert net.serial == 101


@pytest.mark.parametrize("overlay, options", [
    (HaloNetwork, {}), (KadNetwork, {"tolerance_bits": 0})],
    ids=["halo", "kad"])
def test_join_on_a_used_up_id_space_raises(overlay, options):
    # a join draws an id no live node holds: with all 16 ids live it
    # raises before drawing, and after a leave it must draw the departed
    # id, the only free one
    net = overlay(16, bits=4, **options)
    for _ in range(6):
        state = net.rng.getstate()
        with pytest.raises(ValueError):
            net.join()
        assert len(net.ring) == 16
        assert net.rng.getstate() == state
        gone = net.ring.ids[0]
        net.leave(gone)
        assert net.join() == gone
    if overlay is KadNetwork:
        small = KadNetwork(4, bits=2, tolerance_bits=0)
        with pytest.raises(ValueError):
            small.join()
        gone = small.ids[1]
        small.leave(gone)
        assert small.join() == gone


@OVERLAYS
def test_size_arguments_must_be_integers(overlay):
    # HaloNetwork(20.5) used to build 21 nodes, KadNetwork(10.5) raised
    # AttributeError and bits=2.5 raised TypeError
    for n in (20.5, 20.0, "20", 1, 0, -3):
        with pytest.raises(ValueError):
            overlay(n)
    for bits in (10.5, 10.0, "10", 0, -1):
        with pytest.raises(ValueError):
            overlay(20, bits=bits)
    assert len(overlay(20, bits=10).ring) == 20


@pytest.mark.parametrize("overlay, lookup", [
    (HaloNetwork, halo_lookup), (KadNetwork, kad_lookup)],
    ids=["halo", "kad"])
def test_lookup_rejects_a_bad_key_before_taking_a_serial(overlay, lookup):
    # a non-integer key used to take a serial, then raise TypeError
    # mid-lookup
    net = overlay(50, colluding=0.2, seed=5, bits=16)
    origin = net.honest_nodes()[0]
    policy = AttackPolicy(1.0, seed=1)
    for key in (1234.5, 7.0, "7", None, -1, net.space):
        with pytest.raises(ValueError):
            lookup(net, origin, key, policy=policy)
    # a tuple mode used to raise TypeError from Halo's error message
    for mode in ("bogus", ("a", "b")):
        with pytest.raises(ValueError):
            lookup(net, origin, 7, mode=mode, policy=policy)
    assert net.serial == 0
    lookup(net, origin, net.space - 1, policy=policy)
    assert net.serial == 1


@OVERLAYS
def test_long_churn_keeps_memory_bounded(overlay):
    # every join used to add its id to a set of used ids that never
    # shrank; each event here is a uniform live node leaving, then a
    # joiner of the same role, and the traced memory may not grow
    # between event 1,000 and event 4,000
    net = overlay(32, colluding=0.2, seed=17)
    rng = random.Random(17)
    if overlay is KadNetwork:
        warmup(net, 1, seed=17)
    tracemalloc.start()
    try:
        for event in range(1, 4001):
            gone = rng.choice(net.ring.ids)
            malicious = net.is_malicious(gone)
            net.leave(gone)
            net.join(malicious)
            origin = rng.choice(net.honest_nodes())
            if overlay is HaloNetwork:
                halo_lookup(net, origin, rng.randrange(net.space),
                            mode="collaborative", record=True)
            elif event % 4 == 0:
                kad_lookup(net, origin, net.random_key(rng),
                           mode="collaborative")
            if event == 1000:
                start = tracemalloc.get_traced_memory()[0]
        growth = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert growth < 64 * 1024
