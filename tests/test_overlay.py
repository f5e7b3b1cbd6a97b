"""The membership core both overlays share: the same draws for the same
seed, churn bookkeeping, and the per-lookup attack coin."""

import random

import pytest

from dhtsim.adversary import AttackPolicy
from dhtsim.halonet import HaloNetwork, halo_lookup
from dhtsim.kadnet import KadNetwork, kad_lookup

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
    seen = set(net.ring.ids)
    rng = random.Random(33)
    for _ in range(200):
        nid = rng.choice(net.ring.ids)
        was_bad = nid in net.malicious
        net.leave(nid)
        assert nid not in net.ring
        if was_bad:
            assert nid not in net.malicious and nid not in net.colluders
        new = net.join(malicious=rng.random() < 0.2)
        assert new not in seen
        seen.add(new)
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
def test_attack_coin_takes_one_serial_per_lookup(overlay):
    net = overlay(50, colluding=0.2, seed=4)
    policy = AttackPolicy(0.5, seed=9)
    honest = net.honest_nodes()
    coins = [net.attack_coin(honest[i % len(honest)], policy)
             for i in range(100)]
    assert coins == [policy.should_attack(s) for s in range(100)]
    assert net.attack_coin(honest[0], None) is False
    assert net.serial == 101
    gone = honest[1]
    net.leave(gone)
    for origin in (net.colluders[0], gone):
        with pytest.raises(ValueError):
            net.attack_coin(origin, policy)
    assert net.serial == 101


@pytest.mark.parametrize("overlay, options", [
    (HaloNetwork, {}), (KadNetwork, {"tolerance_bits": 0})],
    ids=["halo", "kad"])
def test_join_on_a_used_up_id_space_raises(overlay, options):
    # ids are never reused: 10 members and 6 joins use all 16 ids
    net = overlay(10, bits=4, **options)
    for _ in range(6):
        net.leave(net.ring.ids[0])
        net.join()
    state = net.rng.getstate()
    with pytest.raises(ValueError):
        net.join()
    assert len(net.ring) == 10
    assert net.rng.getstate() == state
    if overlay is KadNetwork:
        with pytest.raises(ValueError):
            KadNetwork(4, bits=2, tolerance_bits=0).join()


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
    assert net.serial == 0
    lookup(net, origin, net.space - 1, policy=policy)
    assert net.serial == 1
