"""Numerical studies of reputation gaming.

Two attacker families are modeled.  An oscillation attacker alternates
honest and malicious behavior against a score tracker, trying to farm
reputation between attacks; the expected-value recursion below follows
one attacker and one honest contact competing in a single bucket.  A
use-based attacker misbehaves only toward the knuckles that route the
most lookups through it, then relies on the well-served majority to
shout down the victims' reports in the shared-score exchange.
"""

import math
import random

from .overlay import require_int
from .sharedrep import aggregate, check_method

DEFAULT_HONEST_SCORE = 0.90
DEFAULT_LOOKUPS = 20000


class OscillationModel:
    """One attacker and one honest contact in a single bucket.

    The honest contact's score s_h stays fixed; the attacker starts at
    s0 and is re-scored by an exponentially weighted average whenever
    it is selected.  alpha_ewma sets how fast history decays, beta_bias
    (finite, at least 0) how sharply selection favors the higher score.
    No churn: the attacker's only lever is its own behavior.
    """

    def __init__(self, alpha_ewma, beta_bias, s_h=DEFAULT_HONEST_SCORE,
                 s0=1.0, lookups=DEFAULT_LOOKUPS):
        require_int("lookups", lookups, 1)
        if not 0.0 < s_h <= 1.0 or not 0.0 < s0 <= 1.0:
            raise ValueError("scores outside (0, 1]")
        if not 0.0 <= alpha_ewma <= 1.0:
            raise ValueError("alpha_ewma outside [0, 1]")
        if not 0.0 <= beta_bias < math.inf:
            raise ValueError("beta_bias must be finite and non-negative")
        self.alpha_ewma = alpha_ewma
        self.beta_bias = beta_bias
        self.s_h = s_h
        self.s0 = s0
        self.lookups = lookups


def simulate_oscillation(model, strategy):
    """Expected number of attacks over the model's lookups.

    Each lookup selects the attacker with probability
    Pr[A] = s**beta / (s**beta + s_h**beta); the strategy turns that
    into an attack probability p, and the attacked total accumulates
    Pr[A] * p.  The attacker's result is honest (1) exactly when it is
    not attacking, so its score moves by the EWMA rule toward 1 - p,
    weighted by the chance it was selected and observed at all, so the
    recursion is deterministic in expectation.  Only the total is kept.

    The loop is specialised to its two scores.  s_h**beta, the strategy's
    decide and 1 - alpha are computed once; each step does the rest
    inline, in the same order as the general selection-probability and
    EWMA rules, so the total matches tests/oracles.py's old_loop, which
    runs through those rules and keeps every step, bit for bit.  The
    rules' argument checks are not repeated because they cannot fail
    here: the model holds alpha in [0, 1], beta finite and non-negative
    and s0, s_h in (0, 1], and with Pr[A] and p in [0, 1] each step
    moves s to a mix of s and values in [0, 1], so s never goes negative
    and s_h > 0 keeps the pair from being all zero.  (Should both
    weights underflow to zero, the division raises ZeroDivisionError.)
    The one check that stays is the strategy's: a p outside [0, 1]
    raises ValueError.
    """
    beta = model.beta_bias
    w_h = model.s_h ** beta
    alpha = model.alpha_ewma
    keep = 1.0 - alpha
    decide = strategy.decide
    s = model.s0
    total = 0.0
    for _ in range(model.lookups):
        w = s ** beta
        pra = w / (w + w_h)
        p = decide(pra)
        if not 0.0 <= p <= 1.0:
            raise ValueError("strategy emitted probability outside [0, 1]")
        total += pra * p
        s += pra * (alpha * (1.0 - p) + keep * s - s)
    return total


def sweep(strategy_family, grid, model):
    """Attacked fraction per grid point.

    Each point constructs a fresh strategy from its parameter tuple, so
    stateful families restart cleanly.  Returns (params, fraction)
    pairs in grid order.
    """
    out = []
    for params in grid:
        total = simulate_oscillation(model, strategy_family(*params))
        out.append((params, total / model.lookups))
    return out


def tau_grid(step=0.05, start=0.05, stop=0.95):
    """Threshold values start..stop inclusive, as one-tuples."""
    if not step > 0 or not start <= stop:
        raise ValueError("need step > 0 and start <= stop")
    # a step that does not divide stop - start ends short of stop
    count = int((stop - start) / step + 1e-9) + 1
    return [(round(start + i * step, 10),) for i in range(count)]


def threshold_pair_grid(step=0.05, start=0.05, stop=0.95):
    """All ordered (tau1, tau2) pairs with tau1 < tau2."""
    taus = [t for (t,) in tau_grid(step, start, stop)]
    return [(t1, t2) for t1 in taus for t2 in taus if t1 < t2]


def probabilistic_grid(slopes=None, offsets=None):
    """(slope, offset) pairs for the linear attack policy."""
    if slopes is None:
        slopes = [round(0.25 * i, 10) for i in range(9)]
    if offsets is None:
        offsets = [round(0.1 * i, 10) for i in range(11)]
    return [(rho, c) for rho in slopes for c in offsets]


def use_based_sim(n, lookups, m, s, f, method="dropoff", seed=0,
                  victim_presence=0.75):
    """Share of trials, in percent, where a victim of a use-based
    attacker still computes the non-victim consensus score for it.

    The attacker is a finger of about log2(n) knuckles and misbehaves
    toward the m that use it most.  Those victims score it 1 - f first
    hand while the rest score it s.  Each trial rebuilds one victim's
    shared score from its joint knuckles' reports: the k - m well
    served knuckles keep using the attacker, so they always have a
    fresh score to broadcast, while fellow victims have mostly stopped
    routing through it and report only with probability
    victim_presence.  A trial counts when the aggregate lands within
    0.01 of the consensus value s.  A trial's reports depend only on how
    many victims are present, and average and median draw no rng, so
    they aggregate each count once; drop-off aggregates every trial.
    """
    require_int("n", n, 2)
    k = int(math.log2(n))
    require_int("m", m, 1, k)
    require_int("lookups", lookups, 1)
    check_method(method)
    if not all(0.0 <= v <= 1.0 for v in (s, f, victim_presence)):
        raise ValueError("s, f and victim_presence must lie in [0, 1]")
    rng = random.Random(seed)
    own = 1.0 - f
    hit = {}
    hits = 0
    for _ in range(lookups):
        present = sum(rng.random() < victim_presence for _ in range(m - 1))
        if method == "dropoff" or present not in hit:
            received = [s] * (k - m) + [own] * present
            shared = aggregate(method, own, received, rng)
            hit[present] = abs(shared - s) < 0.01
        hits += hit[present]
    return 100.0 * hits / lookups
