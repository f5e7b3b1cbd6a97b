import random
from collections import Counter

import pytest

from dhtsim.reputation import ReputationStore
from oracles import ewma_update, selection_prob


def test_score_prior_and_counting():
    st = ReputationStore()
    assert st.score("x") == 0.5
    st.record("x", True)
    assert st.score("x") == pytest.approx((1 + 0.5) / 2)
    for _ in range(9):
        st.record("x", True)
    assert st.score("x") == pytest.approx(10.5 / 11)
    st2 = ReputationStore()
    for _ in range(10):
        st2.record("y", False)
    assert st2.score("y") == pytest.approx(0.5 / 11)


def test_replay_oracle():
    rng = random.Random(10)
    st = ReputationStore()
    log = []
    for _ in range(2000):
        contact = rng.randrange(6)
        ok = rng.random() < 0.6
        log.append((contact, ok))
        st.record(contact, ok)
    # recount from the log and compare every score
    counts = {}
    for contact, ok in log:
        c = counts.setdefault(contact, [0, 0])
        c[1] += 1
        c[0] += ok
    assert st.counts == counts
    for contact, (s, u) in counts.items():
        assert st.score(contact) == pytest.approx((s + 0.5) / (u + 1))
        assert st.score(contact, 0.3) == pytest.approx((s + 0.3) / (u + 1))


def test_break_tie_single_and_errors():
    st = ReputationStore()
    assert st.break_tie(["a"]) == "a"
    with pytest.raises(ValueError):
        st.break_tie([])


def test_break_tie_sticky_per_tie_set():
    st = ReputationStore(seed=42)
    first = st.break_tie(["a", "b"])
    for _ in range(50):
        assert st.break_tie(["a", "b"]) == first
        # the pick belongs to the set, not to the order it comes in
        assert st.break_tie(["b", "a"]) == first
    # another set draws its own pick and leaves the first one alone
    assert st.break_tie(["a", "b", "c"]) in ("a", "b", "c")
    assert st.break_tie(["a", "b"]) == first


def test_break_tie_fresh_tie_uniform_over_seeds():
    hits = Counter(
        ReputationStore(seed=s).break_tie(["a", "b", "c", "d"])
        for s in range(2000)
    )
    for c in "abcd":
        assert abs(hits[c] / 2000 - 0.25) < 0.05


def test_break_tie_picks_as_an_rng_built_up_front():
    """The store builds its rng at the first tie; its picks are those of
    random.Random(seed) built with the store, over repeated and new tie
    sets and a forgotten contact."""
    sets = random.Random(12)
    pool = list("abcdefgh")
    for seed in (0, 5, 2 ** 29 + 3):
        st = ReputationStore(seed=seed)
        assert st.seed == seed
        eager = random.Random(seed)
        memo = {}
        for step in range(300):
            tied = sets.sample(pool, sets.randint(1, 4))
            if len(tied) == 1:
                want = tied[0]
            else:
                sig = frozenset(tied)
                if sig not in memo:
                    memo[sig] = tied[eager.randrange(len(tied))]
                want = memo[sig]
            assert st.break_tie(tied) == want
            if step == 150:
                st.forget("c")
                memo = {sig: pick for sig, pick in memo.items()
                        if "c" not in sig}


def test_ewma_exact_decay():
    s = 0.5
    for j in range(1, 20):
        s = ewma_update(s, 0.0, 0.1)
        assert s == pytest.approx(0.9 ** j * 0.5, rel=1e-12)
    assert ewma_update(0.4, 1.0, 0.25) == pytest.approx(0.55)
    with pytest.raises(ValueError):
        ewma_update(0.5, 1.0, 1.5)


def test_selection_prob_cases():
    assert selection_prob([1.0, 1.0], 0.0) == [0.5, 0.5]
    p = selection_prob([0.8, 0.2], 1.0)
    assert p[0] == pytest.approx(0.8) and sum(p) == pytest.approx(1.0)
    # heavy bias makes the better contact all but certain
    p = selection_prob([0.8, 0.2], 100.0)
    expect_low = 0.25 ** 100 / (1 + 0.25 ** 100)
    assert p[1] == pytest.approx(expect_low, rel=1e-9)
    assert p[0] == pytest.approx(1.0) and p[1] < 1e-60
    with pytest.raises(ValueError):
        selection_prob([], 1.0)
    with pytest.raises(ValueError):
        selection_prob([0.0, 0.0], 2.0)
    with pytest.raises(ValueError):
        selection_prob([0.5, -0.1], 2.0)


def test_selection_prob_sums_to_one():
    rng = random.Random(11)
    for _ in range(1000):
        scores = [rng.random() for _ in range(rng.randint(1, 8))]
        scores[rng.randrange(len(scores))] += 0.01  # keep max positive
        beta = rng.choice([0.0, 0.5, 1.0, 3.0, 10.0])
        p = selection_prob(scores, beta)
        assert sum(p) == pytest.approx(1.0)
        assert all(x >= 0 for x in p)
