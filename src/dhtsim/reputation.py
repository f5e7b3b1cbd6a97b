"""First-hand reputation state and the selection rules built on it.

A store maps observation keys (contact ids, or tuples of ids naming a
routing-path prefix) to success/use counters.  Scores are smoothed
toward a neutral prior so that unobserved contacts start at 0.5 and a
single bad observation does not zero a contact out.
"""

import random
from collections import OrderedDict

DEFAULT_PRIOR = 0.5
DEFAULT_PRIOR_WEIGHT = 1.0


def ewma_update(score, result, alpha):
    """Exponentially weighted update of score toward result."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha outside [0, 1]")
    return alpha * result + (1.0 - alpha) * score


def selection_prob(scores, beta_bias):
    """Probability of picking each entry, proportional to score**beta.

    Higher beta concentrates choice on the best-scored entries; beta of
    zero is uniform.
    """
    if not scores:
        raise ValueError("no scores")
    if any(s < 0 for s in scores):
        raise ValueError("negative score")
    if max(scores) == 0:
        raise ValueError("all scores zero")
    weights = [s ** beta_bias for s in scores]
    total = sum(weights)
    return [w / total for w in weights]


class ReputationStore:
    """Per-node success/use counters with a pseudocount prior.

    score(key) = (successes + prior * prior_weight) / (uses + prior_weight),
    so a fresh key scores exactly the prior and long records dominate it.
    Departed keys move to a bounded cache so a quick rejoin cannot shed a
    bad history.
    """

    def __init__(self, prior=DEFAULT_PRIOR, prior_weight=DEFAULT_PRIOR_WEIGHT,
                 join_score=None, cache_limit=128, seed=0):
        self.prior = prior
        self.prior_weight = prior_weight
        self.join_score = prior if join_score is None else join_score
        self.cache_limit = cache_limit
        self.counts = {}        # key -> [successes, uses]
        self.priors = {}        # key -> per-key prior override
        self.cache = OrderedDict()  # departed key -> (successes, uses)
        self._rng = random.Random(seed)
        self._tie_choice = {}   # frozen tie set -> sticky pick

    def record(self, key, success):
        """Count one use of key, successful or not."""
        entry = self.counts.get(key)
        if entry is None:
            entry = self.counts[key] = [0, 0]
        entry[1] += 1
        if success:
            entry[0] += 1

    def record_path(self, path, success, max_depth=None):
        """Count one use of every prefix of path.

        Blame and credit are positional: the whole prefix that led to an
        outcome shares it.  max_depth caps how long a prefix is kept.
        """
        if not path:
            raise ValueError("empty path")
        depth = len(path) if max_depth is None else min(len(path), max_depth)
        for d in range(1, depth + 1):
            self.record(tuple(path[:d]), success)

    def score(self, key, prior=None):
        """Smoothed success rate of key; prior overrides the key's own."""
        if prior is None:
            prior = self.priors.get(key, self.prior)
        entry = self.counts.get(key)
        if entry is None:
            return prior
        successes, uses = entry
        return (successes + prior * self.prior_weight) / (uses + self.prior_weight)

    def select_max(self, candidates, key=None, score_fn=None):
        """Highest-scoring candidate; ties broken once at random, sticky.

        A tie among the same candidate set reuses its first random pick
        until the scores diverge, so routing does not flap between
        equally scored contacts.  score_fn overrides the stored scores,
        letting callers blend in externally supplied ones.
        """
        if not candidates:
            raise ValueError("no candidates")
        if score_fn is None:
            keyfn = key if key is not None else lambda c: c
            score_fn = lambda c: self.score(keyfn(c))
        pairs = [(score_fn(c), c) for c in candidates]
        best = max(s for s, _ in pairs)
        tied = [c for s, c in pairs if s == best]
        if len(tied) == 1:
            return tied[0]
        sig = frozenset(tied)
        pick = self._tie_choice.get(sig)
        if pick is None or pick not in tied:
            pick = tied[self._rng.randrange(len(tied))]
            self._tie_choice[sig] = pick
        return pick

    def on_leave(self, key):
        """Move key's record to the departure cache, oldest evicted."""
        entry = self.counts.pop(key, None)
        self.priors.pop(key, None)
        if entry is not None:
            self.cache[key] = tuple(entry)
            self.cache.move_to_end(key)
            while len(self.cache) > self.cache_limit:
                self.cache.popitem(last=False)

    def on_join(self, key):
        """Admit key: restore a cached record, else start at join_score."""
        cached = self.cache.pop(key, None)
        if cached is not None:
            self.counts[key] = list(cached)
            return
        if self.join_score != self.prior:
            self.priors[key] = self.join_score
