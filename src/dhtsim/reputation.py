"""First-hand reputation state and the selection rules built on it.

A store maps each contact id to a success/use counter.  Scores are
smoothed toward a neutral prior so that unobserved contacts start at
0.5 and a single bad observation does not zero a contact out.
"""

import random

DEFAULT_PRIOR = 0.5
PRIOR_WEIGHT = 1.0


class ReputationStore:
    """One node's first-hand success/use counter per contact id.

    Its score is (successes + prior * PRIOR_WEIGHT) / (uses + PRIOR_WEIGHT),
    so an unobserved contact scores exactly the prior and a long record
    dominates it.  The store keeps its seed and builds its tie-break
    rng, random.Random(seed), at the first tie it breaks: a store that
    never breaks a tie (every Kademlia store) never pays for one, and
    the picks are those of an rng built up front.
    """

    def __init__(self, seed=0):
        self.counts = {}        # contact id -> [successes, uses]
        self.seed = seed
        self._rng = None        # random.Random(seed), built at the first tie
        self._tie_choice = {}   # frozen tie set -> sticky pick

    def record(self, contact, success):
        """Count one use of contact, successful or not."""
        entry = self.counts.get(contact)
        if entry is None:
            entry = self.counts[contact] = [0, 0]
        entry[1] += 1
        if success:
            entry[0] += 1

    def score(self, contact, prior=DEFAULT_PRIOR):
        """Smoothed success rate of contact, starting from prior."""
        entry = self.counts.get(contact)
        if entry is None:
            return prior
        successes, uses = entry
        return (successes + prior * PRIOR_WEIGHT) / (uses + PRIOR_WEIGHT)

    def forget(self, contact):
        """Drop contact's counter and every tie set naming it."""
        self.counts.pop(contact, None)
        for sig in [sig for sig in self._tie_choice if contact in sig]:
            del self._tie_choice[sig]

    def break_tie(self, tied):
        """One of the equally scored candidates in tied, picked at random
        the first time this set ties and reused whenever it ties again,
        so routing does not flap between equally scored contacts."""
        if not tied:
            raise ValueError("no candidates")
        if len(tied) == 1:
            return tied[0]
        sig = frozenset(tied)
        pick = self._tie_choice.get(sig)
        if pick is None:
            if self._rng is None:
                self._rng = random.Random(self.seed)
            pick = tied[self._rng.randrange(len(tied))]
            self._tie_choice[sig] = pick
        return pick
