import random
import statistics
import tracemalloc

import pytest

from dhtsim.adversary import (OneThreshold, Probabilistic, TwoThreshold,
                              use_based_targets)
from dhtsim.analysis import (
    OscillationModel,
    probabilistic_grid,
    simulate_oscillation,
    sweep,
    tau_grid,
    threshold_pair_grid,
    use_based_sim,
)
from dhtsim.idspace import Ring
from dhtsim.sharedrep import METHODS
from oracles import old_loop, selection_prob, use_based_trials


def test_fast_learning_heavy_bias_allows_one_attack():
    # quick history decay plus near-deterministic selection: the first
    # attack tanks the score and the attacker is never selected again
    model = OscillationModel(0.5, 100)
    for (tau,) in tau_grid():
        total = simulate_oscillation(model, OneThreshold(tau))
        assert total <= 1.001
        assert total >= 0.9


def test_slow_light_trajectory_settles():
    model = OscillationModel(0.01, 1)
    _, trajectory = old_loop(model, OneThreshold(0.32))
    tail = trajectory[len(trajectory) // 2:]
    score = statistics.fmean(t[0] for t in tail)
    pra = statistics.fmean(t[1] for t in tail)
    assert abs(score - 0.42) <= 0.05
    assert abs(pra - 0.32) <= 0.05


def test_one_threshold_sweep_has_interior_peak():
    model = OscillationModel(0.01, 1)
    curve = sweep(OneThreshold, tau_grid(), model)
    fractions = [fr for _, fr in curve]
    peak = max(range(len(fractions)), key=fractions.__getitem__)
    assert 0 < peak < len(fractions) - 1
    assert fractions[peak] > fractions[0]
    assert fractions[peak] > fractions[-1]


def test_two_threshold_peak_stays_bounded():
    model = OscillationModel(0.01, 100)
    curve = sweep(TwoThreshold, threshold_pair_grid(0.02, 0.5, 0.98), model)
    peak = max(fr for _, fr in curve)
    assert 0.05 <= peak <= 0.08


def test_probabilistic_peak_stays_bounded():
    model = OscillationModel(0.01, 100)
    curve = sweep(Probabilistic, probabilistic_grid(), model)
    table = dict(curve)
    assert max(table.values()) <= 0.08
    assert table[(0.0, 0.0)] == 0.0


def test_attacks_accumulate_monotonically():
    # expected attacks can only grow with more lookups
    model = OscillationModel(0.01, 1, lookups=3000)
    rng = random.Random(2)
    for _ in range(4):
        strategy = OneThreshold(rng.uniform(0.05, 0.95))
        _, trajectory = old_loop(model, strategy)
        running = 0.0
        for s, pra, p in trajectory:
            step = pra * p
            assert step >= 0.0
            running += step
        total = simulate_oscillation(model, OneThreshold(strategy.tau))
        assert running == pytest.approx(total)


def test_heavy_bias_concentrates_selection():
    probs = selection_prob([0.5, 0.9], 100)
    assert probs[1] > 0.999999
    assert probs[0] < 1e-6


def test_monte_carlo_matches_recursion():
    model = OscillationModel(0.01, 1)
    expected = simulate_oscillation(model, OneThreshold(0.32))
    samples = [old_loop(model, OneThreshold(0.32), random.Random(seed))[0]
               for seed in range(8)]
    mean = statistics.fmean(samples)
    spread = statistics.stdev(samples)
    assert abs(mean - expected) <= 4 * spread / len(samples) ** 0.5 + 1e-9


def test_model_validation():
    with pytest.raises(ValueError):
        OscillationModel(0.01, 1, lookups=0)
    with pytest.raises(ValueError):
        OscillationModel(0.01, 1, s_h=0.0)
    with pytest.raises(ValueError):
        # a nonsense smoothing weight is rejected with the model
        simulate_oscillation(OscillationModel(2.0, 1), OneThreshold(0.5))
    # a non-finite or negative bias would give NaN totals or a bare
    # ZeroDivisionError/OverflowError inside the loop
    for beta in (float("nan"), float("inf"), -float("inf"), -50, -1e-9):
        with pytest.raises(ValueError):
            OscillationModel(0.5, beta, s0=0.5)
    with pytest.raises(ValueError):
        OscillationModel(1.0, -50, s_h=1.0, s0=0.5)
    for beta in (0, 1, 100):
        assert OscillationModel(0.5, beta).beta_bias == beta
    for lookups in (2.5, 3.0, "10"):
        with pytest.raises(ValueError):
            OscillationModel(0.01, 1, lookups=lookups)


@pytest.mark.parametrize("call", [
    lambda: use_based_sim(2.5, 10, 1, 0.8, 0.8),
    lambda: use_based_sim(1, 10, 1, 0.8, 0.8),
    lambda: use_based_sim("64", 10, 1, 0.8, 0.8),
    lambda: use_based_sim(64, 10.0, 1, 0.8, 0.8),
    lambda: use_based_sim(64, 0, 1, 0.8, 0.8),
    lambda: use_based_sim(64, 10, 2.0, 0.8, 0.8),
    lambda: use_based_sim(64, 10, 7, 0.8, 0.8),
    lambda: OscillationModel(0.01, 1, lookups=2.5),
    lambda: use_based_targets(Ring(range(0, 256, 16), 8), 128, 2.5),
    lambda: use_based_targets(Ring(range(0, 256, 16), 8), 128, 0),
], ids=["sim-n-float", "sim-n-small", "sim-n-str", "sim-lookups-float",
        "sim-lookups-zero", "sim-m-float", "sim-m-large",
        "model-lookups-float", "targets-m-float", "targets-m-zero"])
def test_size_arguments_raise_value_error(call):
    # use_based_sim(2.5, ...) used to return 0.0, and use_based_targets
    # with m=2.5 raised TypeError from range()
    with pytest.raises(ValueError):
        call()


class Constant:
    def __init__(self, p):
        self.p = p

    def decide(self, pr_selected):
        return self.p


@pytest.mark.parametrize("p", [1.5, -0.1])
def test_strategy_outside_unit_interval_rejected(p):
    model = OscillationModel(0.01, 1)
    with pytest.raises(ValueError):
        simulate_oscillation(model, Constant(p))


def random_params(family, rng):
    if family is OneThreshold:
        return (rng.uniform(0.0, 1.0),)
    if family is TwoThreshold:
        t1 = rng.uniform(0.0, 0.9)
        return (t1, rng.uniform(t1 + 0.01, 1.0))
    return (rng.uniform(0.0, 4.0), rng.uniform(-0.5, 1.5))


def equivalence_cases(family):
    rng = random.Random(31)
    cases = []
    for alpha in (0.0, 1.0, None):
        for beta in (0.0, 100.0, None):
            for _ in range(4):
                cases.append((
                    rng.uniform(0.0, 1.0) if alpha is None else alpha,
                    rng.uniform(0.0, 20.0) if beta is None else beta,
                    rng.choice([1.0, rng.uniform(0.01, 1.0)]),
                    rng.choice([1.0, rng.uniform(0.01, 1.0)]),
                    random_params(family, rng)))
    return cases


@pytest.mark.parametrize("family", [OneThreshold, TwoThreshold,
                                    Probabilistic])
def test_specialised_loop_is_bit_identical(family):
    # == on the expected total, which sums every step's Pr[A] * p
    for alpha, beta, s_h, s0, params in equivalence_cases(family):
        model = OscillationModel(alpha, beta, s_h=s_h, s0=s0, lookups=300)
        assert simulate_oscillation(model, family(*params)) == \
            old_loop(model, family(*params))[0]


def test_recursion_memory_does_not_grow_with_lookups():
    # the recursion keeps no per-step record: 200,000 steps fit in the
    # few small objects a single step allocates
    model = OscillationModel(0.01, 1, lookups=200_000)
    strategy = OneThreshold(0.32)
    tracemalloc.start()
    try:
        simulate_oscillation(model, strategy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024


def test_grids_reject_bad_steps():
    for step in (0, 0.0, -0.05):
        with pytest.raises(ValueError):
            tau_grid(step=step)
    with pytest.raises(ValueError):
        tau_grid(start=0.9, stop=0.1)
    with pytest.raises(ValueError):
        threshold_pair_grid(start=0.9, stop=0.1)
    with pytest.raises(ValueError):
        threshold_pair_grid(step=0)
    assert tau_grid(0.1, 0.5, 0.5) == [(0.5,)]


def test_tau_grid_stops_at_stop():
    # a step that does not divide stop - start ends short of stop, never
    # past it; one that does ends on it
    assert tau_grid(0.35) == [(0.05,), (0.4,), (0.75,)]
    for k in range(1, 200):
        taus = [t for (t,) in tau_grid(k / 200)]
        assert taus[-1] <= 0.95 < taus[-1] + k / 200 + 1e-9, k
    assert len(tau_grid()) == 19 and tau_grid()[-1] == (0.95,)


def test_use_based_lone_victim_accepts_consensus():
    p = use_based_sim(10000, 10000, 1, 0.8, 0.8)
    assert abs(p - 98.6) <= 2.0


def test_use_based_five_victims():
    p = use_based_sim(10000, 10000, 5, 0.8, 0.8)
    assert abs(p - 43.1) <= 3.0


def test_use_based_declines_with_victim_count():
    values = [use_based_sim(10000, 10000, m, 0.8, 0.8) for m in range(1, 7)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_use_based_median_breakdown():
    # six victims of thirteen knuckles: the well-served seven still hold
    # the median, so every victim computes the consensus score
    assert use_based_sim(10000, 4000, 6, 0.8, 0.8, method="median") == 100.0


def test_use_based_validation():
    with pytest.raises(ValueError):
        use_based_sim(10000, 100, 0, 0.8, 0.8)
    with pytest.raises(ValueError):
        use_based_sim(10000, 100, 14, 0.8, 0.8)
    with pytest.raises(ValueError):
        use_based_sim(10000, 0, 1, 0.8, 0.8)
    for bad in (-0.1, 1.5, 3.0, float("nan")):
        with pytest.raises(ValueError):
            use_based_sim(1024, 10, 2, bad, 0.8)
        with pytest.raises(ValueError):
            use_based_sim(1024, 10, 2, 0.8, bad)
    for presence in (-0.5, 2.0, float("nan")):
        with pytest.raises(ValueError):
            use_based_sim(1024, 10, 2, 0.8, 0.8, victim_presence=presence)
    for edge in (0.0, 1.0):
        use_based_sim(1024, 10, 2, edge, edge, victim_presence=edge)
    for n in (0, 1, -8):
        with pytest.raises(ValueError):
            use_based_sim(n, 10, 1, 0.8, 0.8)
    with pytest.raises(ValueError):
        use_based_sim(1000, 2.5, 1, 0.8, 0.8)
    with pytest.raises(ValueError):
        use_based_sim(1000, 10, 2.5, 0.8, 0.8)
    with pytest.raises(ValueError):
        use_based_sim(1000, 10, 1, 0.8, 0.8, method="mode")
    # two nodes give one knuckle, so one victim is the only choice
    assert use_based_sim(2, 10, 1, 0.8, 0.8) == 0.0


@pytest.mark.parametrize("method", METHODS)
def test_use_based_matches_per_trial_oracle(method):
    # == on the share, whether or not the method reuses a victim count
    for m in range(1, 7):
        for presence in (0.0, 0.5, 1.0):
            for seed in (0, 1, 2):
                args = (10000, 200, m, 0.8, 0.8)
                kwargs = dict(method=method, seed=seed,
                              victim_presence=presence)
                assert use_based_sim(*args, **kwargs) == \
                    use_based_trials(*args, **kwargs)
