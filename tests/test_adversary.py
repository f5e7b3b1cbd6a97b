import math
import random

import pytest

from dhtsim.adversary import (
    AttackPolicy,
    OneThreshold,
    Probabilistic,
    TwoThreshold,
    use_based_targets,
)
from dhtsim.idspace import Ring


def test_attack_policy_extremes_and_errors():
    always = AttackPolicy(1.0)
    never = AttackPolicy(0.0)
    for serial in range(100):
        assert always.should_attack(serial)
        assert not never.should_attack(serial)
    with pytest.raises(ValueError):
        AttackPolicy(1.2)


def test_attack_policy_deterministic_and_calibrated():
    p = AttackPolicy(0.5, seed=7)
    decisions = [p.should_attack(i) for i in range(1_000_000)]
    again = [p.should_attack(i) for i in range(1_000_000)]
    assert decisions == again
    frac = sum(decisions) / len(decisions)
    assert abs(frac - 0.5) < 0.002  # ~4 sigma at this sample size
    other_seed = AttackPolicy(0.5, seed=8)
    assert decisions != [other_seed.should_attack(i) for i in range(1_000_000)]
    assert AttackPolicy(0.5, 7).should_attack(3) == p.should_attack(3)


def test_one_threshold_boundary():
    s = OneThreshold(0.4)
    assert s.decide(0.4) == 1.0
    assert s.decide(0.39999) == 0.0
    assert s.decide(0.9) == 1.0


def test_two_threshold_hysteresis_cycle():
    s = TwoThreshold(0.3, 0.7)
    assert s.decide(0.9) == 1.0   # starts attacking
    assert s.decide(0.5) == 1.0   # still above tau1
    assert s.decide(0.3) == 0.0   # dropped to tau1: stop
    assert s.decide(0.6) == 0.0   # between thresholds: keep waiting
    assert s.decide(0.7) == 1.0   # reached tau2: resume
    with pytest.raises(ValueError):
        TwoThreshold(0.7, 0.7)


def test_two_threshold_never_attacks_below_tau1():
    rng = random.Random(12)
    for _ in range(1000):
        t1 = rng.uniform(0.05, 0.6)
        t2 = rng.uniform(t1 + 0.01, 0.99)
        s = TwoThreshold(t1, t2)
        for _ in range(30):
            pra = rng.random()
            p = s.decide(pra)
            if pra <= t1:
                assert p == 0.0


def test_probabilistic_clamps():
    s = Probabilistic(2.0, 0.1)
    assert s.decide(0.5) == pytest.approx(0.1)
    assert s.decide(1.0) == pytest.approx(1.0)
    assert s.decide(0.0) == 0.0


def test_probabilistic_clamp_matches_min_max():
    # raw values exactly 0 and 1, below 0 and above 1, -0.0 and NaN
    slopes = [0.0, -0.0, 0.5, 1.0, 2.0, 4.0, -2.0, math.inf]
    offsets = [0.0, -0.0, 0.25, 0.5, 1.0, -0.5, 1.5]
    xs = [i / 20 for i in range(21)]
    raws = []
    for slope in slopes:
        for offset in offsets:
            s = Probabilistic(slope, offset)
            for x in xs:
                raw = slope * (x - 0.5) + offset
                raws.append(raw)
                want = min(1.0, max(0.0, raw))
                got = s.decide(x)
                assert got == want
                assert math.copysign(1.0, got) == math.copysign(1.0, want)
    assert any(r == 0.0 and math.copysign(1.0, r) < 0 for r in raws)
    assert any(r == 0.0 and math.copysign(1.0, r) > 0 for r in raws)
    assert 1.0 in raws
    assert any(r < 0.0 for r in raws)
    assert any(r > 1.0 for r in raws)
    assert any(math.isnan(r) for r in raws)


def test_use_based_targets_perfect_ring():
    # 16 equally spaced nodes in an 8-bit space: victim for offset
    # 2**(8-j) is the node exactly that far behind the attacker
    bits = 8
    ids = [i * 16 for i in range(16)]
    ring = Ring(ids, bits)
    attacker = 128
    victims = use_based_targets(ring, attacker, 3)
    assert victims == [(128 - 128) % 256, (128 - 64) % 256, (128 - 32) % 256]
    with pytest.raises(ValueError):
        use_based_targets(ring, attacker, 0)
    with pytest.raises(ValueError):
        use_based_targets(ring, attacker, 5)


def test_use_based_targets_reject_an_attacker_off_the_ring():
    # an id that is not live used to get victims all the same
    ring = Ring(range(0, 4096, 37), 12)
    for attacker in (5, 38, 4096, -37):
        with pytest.raises(ValueError):
            use_based_targets(ring, attacker, 3)
    assert use_based_targets(ring, 37, 3)


def test_use_based_targets_are_real_knuckles():
    rng = random.Random(13)
    from dhtsim.idspace import sample_ids
    for _ in range(50):
        ids = sample_ids(64, rng, 16)
        ring = Ring(ids, 16)
        attacker = rng.choice(ids)
        m = rng.randint(1, int(math.log2(64)))
        for v in use_based_targets(ring, attacker, m):
            assert v in ring and v != attacker
            # v's finger at one of the top-m offsets lands on attacker
            hits = [ring.finger(v, 16 - j) for j in range(1, m + 1)]
            assert attacker in hits


def expected_use_based_attacked(lookups, m):
    """Expected lookups exposed when the top-m use fingers misbehave.

    The heaviest finger carries half of all lookups through a node, the
    next a quarter, and so on, so m corrupted fingers cover a
    1 - 2**-m fraction.
    """
    if m < 0:
        raise ValueError("negative m")
    return lookups * (1.0 - 0.5 ** m)


def test_expected_use_based_attacked_values():
    assert expected_use_based_attacked(10000, 1) == pytest.approx(5000)
    assert expected_use_based_attacked(10000, 2) == pytest.approx(7500)
    assert expected_use_based_attacked(100, 0) == 0
    with pytest.raises(ValueError):
        expected_use_based_attacked(10, -1)


def test_expected_use_based_matches_monte_carlo():
    # lookups reach a node through the finger covering their origin;
    # the top-m fingers cover the far half, quarter, ... of the ring
    rng = random.Random(14)
    bits = 14
    space = 1 << bits
    lookups = 200_000
    for m in (1, 2, 3):
        attacked = 0
        for _ in range(lookups):
            dist = rng.randrange(1, space)  # origin's distance behind target
            if dist >= space >> m:
                attacked += 1
        expect = expected_use_based_attacked(lookups, m)
        sigma = math.sqrt(lookups * (1 - 0.5 ** m) * 0.5 ** m)
        assert abs(attacked - expect) < 4 * sigma + 1


def test_policy_coordination_single_coin():
    # many colluders consulting the same policy on one lookup agree
    p = AttackPolicy(0.3, seed=5)
    for serial in range(200):
        decisions = {p.should_attack(serial) for _ in range(20)}
        assert len(decisions) == 1
