import copy
import random
import statistics
import tracemalloc
import weakref
from functools import lru_cache
from types import SimpleNamespace

import pytest

from dhtsim.adversary import AttackPolicy
from dhtsim.halonet import HaloNetwork, halo_lookup
from dhtsim import sharedrep
from dhtsim.idspace import Ring
from dhtsim.sharedrep import (
    SharedExchange,
    _colluder_columns,
    _dropoff_grid,
    _forge,
    aggregate,
)
from oracles import adversarial_report, dropoff_bin, expected_dropoff, knuckles


def ring_shim(ids, bits):
    return SimpleNamespace(ring=Ring(ids, bits), bits=bits, space=1 << bits)


def test_joint_knuckles_regular_ring():
    # evenly spaced 2**j ring: every finger is held by exactly j nodes,
    # so each holder sees j-1 joint knuckles
    j, bits = 6, 16
    ids = [i << (bits - j) for i in range(1 << j)]
    net = ring_shim(ids, bits)
    for k in ids:
        fingers = {net.ring.finger(k, i) for i in range(bits)} - {k}
        assert len(fingers) == j
        for f in fingers:
            assert len(knuckles(net, f) - {k}) == j - 1


def test_joint_knuckles_matches_bruteforce():
    net = HaloNetwork(300, seed=4)
    # reverse map over every node's full finger table
    holds = {}
    for u in net.ring.ids:
        for i in range(net.bits):
            f = net.ring.finger(u, i)
            if f != u:
                holds.setdefault(f, set()).add(u)
    rng = random.Random(4)
    for k in rng.sample(net.ring.ids, 40):
        for f in {net.ring.finger(k, i) for i in range(net.bits)} - {k}:
            assert knuckles(net, f) - {k} == holds[f] - {k}


def test_knuckle_count_at_scale():
    net = HaloNetwork(10000, seed=5)
    rng = random.Random(5)
    counts = [len(knuckles(net, f)) for f in rng.sample(net.ring.ids, 600)]
    assert statistics.fmean(counts) == pytest.approx(13.3, abs=1.5)


def test_aggregate_promotion_example():
    received = [0.1] * 5 + [1.0] * 6
    assert aggregate("average", 0.3, received) == pytest.approx(6.5 / 11)
    assert aggregate("median", 0.3, received) == 1.0


def test_aggregate_agrees_when_everyone_agrees():
    rng = random.Random(0)
    for method in ("average", "median", "dropoff"):
        assert aggregate(method, 0.7, [0.7] * 9, rng) == pytest.approx(0.7)


def test_aggregate_empty_falls_back_to_own():
    rng = random.Random(0)
    for method in ("average", "median", "dropoff"):
        assert aggregate(method, 0.42, [], rng) == 0.42
    # methods are named exactly as in METHODS
    for method in ("mode", "Dropoff", "drop-off", "MEDIAN"):
        with pytest.raises(ValueError):
            aggregate(method, 0.5, [0.5])
        with pytest.raises(ValueError):
            SharedExchange(ring_shim([1, 2], 4), method)


def test_dropoff_aggregate_needs_an_rng():
    # a built-in fallback rng would replay the same admission draws on
    # every call; average and median draw nothing
    for received in ([0.2, 0.9], []):
        with pytest.raises(ValueError):
            aggregate("dropoff", 0.5, received)
    assert aggregate("average", 0.5, [0.2, 0.9]) == pytest.approx(0.55)
    assert aggregate("median", 0.5, [0.2, 0.4, 0.9]) == 0.4


class Draws:
    """An rng whose every draw is the same value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_scoring_bin_admission():
    # a report equal to the own score is always admitted, even on the
    # draw closest to one; a report at distance one never is, even on
    # a draw of zero, and an empty bin falls back to the own score
    top, zero = Draws(1.0 - 2 ** -53), Draws(0.0)
    assert aggregate("dropoff", 0.5, [0.2, 0.5, 0.9, 0.5001, 0.5], top) == 0.5
    assert aggregate("dropoff", 0.0, [1.0, 0.9, 1.0, 0.7], zero) == 0.8
    assert aggregate("dropoff", 0.0, [1.0] * 5, zero) == 0.0
    # the bin's median, from one draw per clamped report in order
    rng = random.Random(1)
    for _ in range(500):
        own = rng.choice([0.0, 1.0, rng.random(), rng.uniform(-0.5, 1.5)])
        received = [rng.choice([own, rng.random(), rng.uniform(-0.5, 1.5)])
                    for _ in range(rng.randrange(1, 12))]
        seed = rng.random()
        mine, theirs = random.Random(seed), random.Random(seed)
        anchor = min(1.0, max(0.0, own))
        admitted = dropoff_bin(
            anchor, [min(1.0, max(0.0, v)) for v in received], theirs)
        want = statistics.median(admitted) if admitted else anchor
        assert aggregate("dropoff", own, received, mine) == want
        assert mine.getstate() == theirs.getstate()


def test_expected_dropoff_frozen_values():
    p, q, e = expected_dropoff(5, 6, 0.1, 1.0, 0.3)
    # frozen from exact rational enumeration of the admission binomials
    assert p == pytest.approx(0.8795329088, abs=1e-9)
    assert q == pytest.approx(0.08419477248, abs=1e-9)
    assert e == pytest.approx(0.170532734464, abs=1e-9)


def test_expected_dropoff_bin_composition():
    # admission probabilities for the promotion example put four honest
    # and 1.8 malicious reports in the bin on average
    rng = random.Random(3)
    honest = malicious = 0
    trials = 20000
    for _ in range(trials):
        honest += len(dropoff_bin(0.3, [0.1] * 5, rng))
        malicious += len(dropoff_bin(0.3, [1.0] * 6, rng))
    assert honest / trials == pytest.approx(4.0, abs=0.05)
    assert malicious / trials == pytest.approx(1.8, abs=0.05)


def test_dropoff_monte_carlo_matches_expectation():
    rng = random.Random(7)
    received = [0.1] * 5 + [1.0] * 6
    trials = [aggregate("dropoff", 0.3, received, rng) for _ in range(100000)]
    mean = statistics.fmean(trials)
    sigma = statistics.pstdev(trials) / len(trials) ** 0.5
    _, _, e = expected_dropoff(5, 6, 0.1, 1.0, 0.3)
    assert abs(mean - e) < 3 * sigma


def test_expected_dropoff_no_malicious_limit():
    # without malicious reporters p is just the chance of admitting any
    # honest report, and a perfectly agreeing cohort pins E on r_h
    p, q, e = expected_dropoff(5, 0, 0.1, 1.0, 0.3)
    assert p == pytest.approx(1 - 0.2 ** 5)
    assert q == 0.0
    p, q, e = expected_dropoff(5, 0, 0.3, 1.0, 0.3)
    assert p == 1.0
    assert e == pytest.approx(0.3)


def test_expected_dropoff_validation():
    with pytest.raises(ValueError):
        expected_dropoff(-1, 3, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        expected_dropoff(3, 3, 1.5, 0.5, 0.5)


def test_probability_bounds_property():
    rng = random.Random(12)
    for _ in range(1500):
        n_h, n_m = rng.randrange(13), rng.randrange(13)
        r_h, r_m, r_k = (rng.random() for _ in range(3))
        p, q, e = expected_dropoff(n_h, n_m, r_h, r_m, r_k)
        assert -1e-12 <= p <= 1 + 1e-12
        assert -1e-12 <= q <= 1 + 1e-12
        assert p + q <= 1 + 1e-9
        lo, hi = min(r_h, r_m), max(r_h, r_m)
        assert lo - 1e-9 <= e <= hi + 1e-9


def test_adversarial_report_extremal_for_plain_methods():
    assert adversarial_report("median", 0.3, 0.1, goal=1.0) == 1.0
    assert adversarial_report("average", 0.3, 0.1, goal=1.0) == 1.0
    assert adversarial_report("median", 0.7, 0.9, goal=0.0) == 0.0
    # default goal pushes away from the honest consensus
    assert adversarial_report("median", 0.3, 0.1) == 1.0
    assert adversarial_report("median", 0.7, 0.9) == 0.0
    # and an exchange's forger reports its goal outright
    for method in ("average", "median"):
        ex = SharedExchange(ring_shim([1, 2], 4), method)
        for goal in (0.0, 1.0):
            assert ex.forged_report(0.3, 0.1, goal, 5, 6) == goal


def test_adversarial_dropoff_interior_optimum():
    report = adversarial_report("dropoff", 0.3, 0.1, goal=1.0)
    assert 0.0 < report < 1.0
    _, _, at_opt = expected_dropoff(5, 6, 0.1, report, 0.3)
    _, _, at_extreme = expected_dropoff(5, 6, 0.1, 1.0, 0.3)
    assert at_opt > at_extreme
    # independent coarse search agrees on the neighborhood
    best = max((expected_dropoff(5, 6, 0.1, r / 50, 0.3)[2], r / 50)
               for r in range(51))
    assert abs(best[1] - report) <= 0.04
    assert at_opt >= best[0] - 1e-12


def test_adversarial_dropoff_slander_symmetry():
    promote = adversarial_report("dropoff", 0.3, 0.1, goal=1.0)
    slander = adversarial_report("dropoff", 0.7, 0.9, goal=0.0)
    assert slander == pytest.approx(1.0 - promote, abs=1e-9)


def test_adversarial_dropoff_is_exact_grid_argmax():
    """The exchange's drop-off forger returns exactly the first grid
    point at which expected_dropoff pulls hardest toward the goal."""
    ex = SharedExchange(ring_shim([1, 2], 4), "dropoff")
    rng = random.Random(13)
    for _ in range(150):
        n_h = rng.randint(0, 8)
        n_m = rng.randint(1, 8)
        own = rng.randint(0, 100) / 100
        truth = rng.randint(0, 100) / 100
        for goal in (0.0, 1.0):
            vals = []
            for s in range(201):
                _, _, e = expected_dropoff(n_h, n_m, truth, s / 200, own)
                vals.append(e if goal >= 0.5 else -e)
            best = vals.index(max(vals))
            report = ex.forged_report(own, truth, goal, n_h, n_m)
            assert report == best / 200
            assert report == adversarial_report("dropoff", own, truth, goal,
                                                n_h, n_m)


def test_adversarial_report_argument_errors():
    # steps=0 used to divide by zero, a negative steps returned goal
    # unsearched, and a goal outside [0, 1] was echoed back
    for steps in (0, -3):
        with pytest.raises(ValueError):
            adversarial_report("dropoff", 0.3, 0.1, 1.0, steps=steps)
    for method in ("average", "median", "dropoff"):
        for goal in (2.0, -0.5, float("nan")):
            with pytest.raises(ValueError):
                adversarial_report(method, 0.3, 0.1, goal)
    # the smallest grid is its two end points
    assert adversarial_report("dropoff", 0.3, 0.1, 1.0, steps=1) in (0.0, 1.0)


def test_grid_kernel_matches_pointwise_oracle():
    """The column-wise grid equals, bit for bit, the closed form
    evaluated one point at a time, and the forger's pick equals a
    search over those points that keeps the first extreme."""
    rng = random.Random(29)
    cases = [(0, 1), (0, 6), (1, 1), (3, 1), (9, 1), (12, 3), (30, 12)]
    cases += [(rng.randint(0, 30), rng.randint(1, 12)) for _ in range(90)]
    for n_h, n_m in cases:
        own = rng.choice([0.0, 1.0, rng.randint(0, 100) / 100,
                          rng.random()])
        # an own score equal to the honest one makes flat grids with ties
        truth = own if rng.random() < 0.3 else rng.randint(0, 100) / 100
        steps = rng.choice([1, 2, 7, 50, 200, 333])
        R = [s / steps for s in range(steps + 1)]
        R += [rng.choice([0.0, 1.0, own, rng.random()]) for _ in range(3)]
        columns = _colluder_columns(n_m, own, R)
        for point in zip(*_dropoff_grid(n_m, own, R, columns, n_h, truth),
                         R):
            assert point[:3] == expected_dropoff(n_h, n_m, truth, point[3],
                                                 own)
        grid = R[:steps + 1]
        columns = _colluder_columns(n_m, own, grid)
        for goal in (0.0, 1.0):
            assert _forge(n_m, own, grid, columns, n_h, truth, goal) == \
                adversarial_report("dropoff", own, truth, goal, n_h, n_m,
                                   steps)


def test_exchange_broadcasts_only_changes():
    net = HaloNetwork(200, 0.2, seed=11)
    policy = AttackPolicy(1.0, seed=11)
    ex = SharedExchange(net, "dropoff", seed=11)
    rng = random.Random(1)
    for origin in net.honest_nodes():
        halo_lookup(net, origin, rng.randrange(net.space),
                    mode="collaborative", policy=policy, record=True)
    first = ex.run_epoch()
    assert first > 0
    # nothing trained between boundaries, so nothing is re-broadcast
    assert ex.run_epoch() == 0
    for origin in net.honest_nodes()[:40]:
        halo_lookup(net, origin, rng.randrange(net.space),
                    mode="collaborative", policy=policy, record=True)
    assert 0 < ex.run_epoch() < first


def test_exchange_installs_clamped_overrides():
    net = HaloNetwork(150, 0.2, seed=3)
    policy = AttackPolicy(1.0, seed=3)
    ex = SharedExchange(net, "dropoff", seed=3)
    rng = random.Random(3)
    for _ in range(300):
        origin = rng.choice(net.honest_nodes())
        halo_lookup(net, origin, rng.randrange(net.space),
                    mode="collaborative", policy=policy, record=True)
    ex.run_epoch()
    assert set(net.score_overrides) <= set(net.stores)
    values = [v for table in net.score_overrides.values()
              for v in table.values()]
    assert values
    assert all(0.0 <= v <= 1.0 for v in values)
    # overrides cover fingers the holder actually has
    for holder, table in list(net.score_overrides.items())[:20]:
        fingers = {net.ring.finger(holder, i) for i in range(net.bits)}
        assert set(table) <= fingers


def test_exchange_survives_churn():
    net = HaloNetwork(120, 0.2, seed=9)
    policy = AttackPolicy(1.0, seed=9)
    ex = SharedExchange(net, "dropoff", seed=9)
    rng = random.Random(9)
    for round_ in range(6):
        for origin in net.honest_nodes():
            halo_lookup(net, origin, rng.randrange(net.space),
                        mode="collaborative", policy=policy, record=True)
        gone = rng.choice(net.ring.ids)
        was_bad = net.is_malicious(gone)
        net.leave(gone)
        net.join(malicious=was_bad)
        ex.run_epoch()
    live = set(net.ring.ids)
    assert all(f in live for f in ex.reports)
    assert all(s in live for table in ex.reports.values() for s in table)


def test_exchanges_share_no_report_cache():
    def one_epoch():
        net = HaloNetwork(120, 0.2, seed=5)
        policy = AttackPolicy(1.0, seed=5)
        ex = SharedExchange(net, "dropoff", seed=5)
        assert ex.forged_report.cache_info().currsize == 0
        rng = random.Random(5)
        for origin in net.honest_nodes():
            halo_lookup(net, origin, rng.randrange(net.space),
                        mode="collaborative", policy=policy, record=True)
        ex.run_epoch()
        return ex, net.score_overrides

    first, overrides = one_epoch()
    second, again = one_epoch()
    assert again == overrides
    # the second exchange forged every report afresh, as the first did
    info = first.forged_report.cache_info()
    assert info.misses > 0
    assert second.forged_report.cache_info() == info


def test_churn_leaves_no_departed_id_behind():
    # nothing said about a node that departed and is not live again is
    # read again: no store may keep its counter or a tie set naming it,
    # no shared-score table may hold it, and after the next epoch no
    # exchange report may either
    net = HaloNetwork(100, 0.2, seed=21)
    policy = AttackPolicy(1.0, seed=21)
    ex = SharedExchange(net, "dropoff", seed=21)
    rng = random.Random(21)
    departed = set()
    # how often there was something to drop
    counted = tied = overridden = stale = 0
    for i in range(1, 601):
        origin = rng.choice(net.honest_nodes())
        halo_lookup(net, origin, rng.randrange(net.space), mode="shared",
                    policy=policy, record=True)
        if i % 4 == 0:
            gone = rng.choice(net.ring.ids)
            stores = net.stores.values()
            counted += any(gone in st.counts for st in stores)
            tied += any(gone in sig for st in stores for sig in st._tie_choice)
            overridden += any(gone in table
                              for table in net.score_overrides.values())
            was_bad = net.is_malicious(gone)
            net.leave(gone)
            departed.add(gone)
            departed.discard(net.join(malicious=was_bad))
            for st in net.stores.values():
                assert departed.isdisjoint(st.counts)
                assert all(departed.isdisjoint(sig) for sig in st._tie_choice)
            assert departed.isdisjoint(net.score_overrides)
            for table in net.score_overrides.values():
                assert departed.isdisjoint(table)
        if i % 100 == 0:
            # (finger, sender) report entries naming a departed id
            stale += sum(f in departed or s in departed
                         for f, t in ex.reports.items() for s in t)
            ex.run_epoch()
            assert departed.isdisjoint(ex.reports)
            assert all(departed.isdisjoint(t) for t in ex.reports.values())
            # a table is kept exactly for each finger with a live honest
            # holder; an empty table used to outlive its last one
            assert set(ex.reports) == {
                f for f, hs in ex.finger_holders().items()
                if any(u in net.stores for u in hs)}
    assert counted > 20 and tied > 20 and stale > 20
    assert overridden > 20


class PerRequestExchange(SharedExchange):
    """The exchange forging one report per request in holder order, each
    cache miss searching the grid point by point with the oracle: the
    reference for the grouped forging in SharedExchange.run_epoch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.forged_report = lru_cache(maxsize=65536)(adversarial_report)

    def run_epoch(self):
        net = self.net
        holders = self.finger_holders()
        old_reports = self.reports
        self.reports = {}
        sent = 0
        for f, hs in holders.items():
            honest = [u for u in hs if u in net.stores]
            if not honest:
                continue
            # a table per finger with a live honest holder, keeping only
            # those holders' old reports, in their old order
            table = {}
            for s, v in old_reports.get(f, {}).items():
                if s in honest:
                    table[s] = v
            self.reports[f] = table
            for k in honest:
                r = net.first_hand_score(k, f)
                if table.get(k) != r:
                    table[k] = r
                    sent += 1
            n_bad = len(hs) - len(honest)
            goal = 1.0 if net.is_malicious(f) else 0.0
            for j in honest:
                own = net.first_hand_score(j, f)
                received = [v for s, v in table.items() if s != j]
                if self.adversarial and n_bad:
                    truth = statistics.fmean(received) if received else own
                    forged = self.forged_report(self.method, round(own, 2),
                                                round(truth, 2), goal,
                                                len(received), n_bad)
                    received = received + [forged] * n_bad
                net.score_overrides.setdefault(j, {})[f] = aggregate(
                    self.method, own, received, self.rng)
        return sent


def _shared_churn_epochs(exchange_cls, seed, epochs=5):
    """Shared-mode lookups with churn and an adversarial drop-off epoch
    after each batch; per epoch, the broadcasts, overrides and cache."""
    net = HaloNetwork(150, 0.2, seed=seed)
    policy = AttackPolicy(1.0, seed=seed)
    ex = exchange_cls(net, "dropoff", seed=seed)
    rng = random.Random(seed)
    trail = []
    for _ in range(epochs):
        for i in range(1, 121):
            origin = rng.choice(net.honest_nodes())
            halo_lookup(net, origin, rng.randrange(net.space), mode="shared",
                        policy=policy, record=True)
            if i % 20 == 0:
                gone = rng.choice(net.ring.ids)
                was_bad = net.is_malicious(gone)
                net.leave(gone)
                net.join(malicious=was_bad)
        sent = ex.run_epoch()
        trail.append((sent, copy.deepcopy(net.score_overrides),
                      ex.forged_report.cache_info()))
    return trail


def test_grouped_forging_matches_per_request_oracle():
    """Forging grouped by colluder count and own score installs the same
    overrides, bit for bit, and reads the same report cache, as forging
    each request in holder order."""
    grouped = _shared_churn_epochs(SharedExchange, 17)
    oracle = _shared_churn_epochs(PerRequestExchange, 17)
    assert grouped == oracle
    info = grouped[-1][2]
    assert info.hits > 0 and info.misses > 0


def test_one_group_of_colluder_columns_alive_at_a_time(monkeypatch):
    alive = weakref.WeakSet()
    built = []

    class Held:
        """The (admit, below) pair, weakly referenceable."""

        def __init__(self, pair):
            self.pair = pair

        def __iter__(self):
            return iter(self.pair)

    build = sharedrep._colluder_columns

    def tracked(n_m, r_k, R):
        # the previous group's columns are gone before these are built
        assert not alive
        columns = Held(build(n_m, r_k, R))
        alive.add(columns)
        built.append((n_m, r_k))
        return columns

    monkeypatch.setattr(sharedrep, "_colluder_columns", tracked)
    net = HaloNetwork(150, 0.2, seed=23)
    policy = AttackPolicy(1.0, seed=23)
    ex = SharedExchange(net, "dropoff", seed=23)
    rng = random.Random(23)
    builds = 0
    for _ in range(3):
        for origin in net.honest_nodes():
            halo_lookup(net, origin, rng.randrange(net.space), mode="shared",
                        policy=policy, record=True)
        del built[:]
        ex.run_epoch()
        assert not alive
        # each group's columns were built once in the epoch
        assert built and len(set(built)) == len(built)
        builds += len(built)
    # and misses sharing a group shared its columns
    assert builds < ex.forged_report.cache_info().misses


def test_adversarial_epoch_memory_is_bounded():
    """Every drop-off epoch under churn peaks below 1 MB of new
    allocations: the epoch keeps no object per fold, and no colluder
    columns outlive their group."""
    net = HaloNetwork(200, 0.2, seed=1)
    policy = AttackPolicy(1.0, seed=1)
    ex = SharedExchange(net, "dropoff", seed=1)
    rng = random.Random(1)
    peaks = []
    for i in range(1, 1001):
        origin = rng.choice(net.honest_nodes())
        halo_lookup(net, origin, rng.randrange(net.space), mode="shared",
                    policy=policy, record=True)
        if i % 4 == 0:
            gone = rng.choice(net.ring.ids)
            was_bad = net.is_malicious(gone)
            net.leave(gone)
            net.join(malicious=was_bad)
        if i % 200 == 0:
            tracemalloc.start()
            try:
                ex.run_epoch()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert len(peaks) == 5 and ex.forged_report.cache_info().misses > 0
    assert max(peaks) < 1024 * 1024, peaks
