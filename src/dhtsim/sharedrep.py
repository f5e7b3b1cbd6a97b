"""Shared reputation between joint knuckles of the ring overlay.

Nodes holding the same finger swap their first-hand scores for it at
epoch boundaries and fold the received reports into a shared score.
Three aggregation rules are provided: plain average, median, and a
drop-off rule that admits a received score with probability
1 - |received - own| and takes the median of the admitted bin, so
reports far from the node's own observations rarely count.  Colluding
holders report values crafted against whichever rule is in use.
"""

import random
import statistics
from functools import lru_cache
from math import comb

from .halonet import knuckles

METHODS = ("average", "median", "dropoff")


def _canon_method(method):
    m = method.lower().replace("-", "")
    if m not in METHODS:
        raise ValueError("unknown aggregation method: %r" % (method,))
    return m


def _clamp(value):
    return min(1.0, max(0.0, value))


class ScoringBin:
    """Received scores admitted for one finger.

    The holder's own score anchors the admission weight but is never
    itself an entry; an empty bin falls back to it.
    """

    def __init__(self, own):
        self.own = _clamp(own)
        self.entries = []

    def offer(self, value, rng):
        """Admit value with probability 1 - |value - own|."""
        value = _clamp(value)
        if rng.random() < 1.0 - abs(value - self.own):
            self.entries.append(value)
            return True
        return False

    def median(self):
        if not self.entries:
            return self.own
        return statistics.median(self.entries)


def joint_knuckles(net, k, f):
    """Nodes other than k that hold f in their finger tables."""
    out = knuckles(net, f)
    out.discard(k)
    return out


def aggregate(method, own, received, rng=None):
    """Fold received scores for a finger into one shared score.

    Average and median run over the raw reports; drop-off builds a
    scoring bin by the admission rule and takes its median.  With
    nothing received (or nothing admitted) the node keeps its own
    first-hand score.
    """
    method = _canon_method(method)
    own = _clamp(own)
    received = [_clamp(v) for v in received]
    if not received:
        return own
    if method == "average":
        return statistics.fmean(received)
    if method == "median":
        return statistics.median(received)
    if rng is None:
        rng = random.Random(0)
    bin_ = ScoringBin(own)
    for v in received:
        bin_.offer(v, rng)
    return bin_.median()


def expected_dropoff(n_h, n_m, r_h, r_m, r_k):
    """Closed-form expectation of the drop-off aggregate.

    n_h honest reporters all say r_h, n_m malicious reporters all say
    r_m, and the receiving node's own score is r_k.  Returns (p, q, e):
    p is the chance the admitted honest reports outnumber the admitted
    malicious ones (the bin median lands on r_h), q the chance of a
    nonzero tie (median averages the two values), and e the expected
    aggregate with the remaining probability mass landing on r_m.
    """
    _check_dropoff(n_h, n_m, r_h, r_m, r_k)
    return _dropoff(_admission(n_h, r_h, r_k), n_m, r_h, r_m, r_k)


def _check_dropoff(n_h, n_m, *scores):
    if n_h < 0 or n_m < 0:
        raise ValueError("negative reporter count")
    for r in scores:
        if not 0.0 <= r <= 1.0:
            raise ValueError("score outside [0, 1]")


def _admission(n, r, r_k):
    """Chance that exactly i of n reports of r enter a bin owned at
    r_k, for i = 0..n."""
    d = abs(r - r_k)
    return [comb(n, i) * (1.0 - d) ** i * d ** (n - i)
            for i in range(n + 1)]


def _dropoff(admit_h, n_m, r_h, r_m, r_k):
    """expected_dropoff with the honest admission pmf precomputed,
    which does not depend on r_m."""
    n_h = len(admit_h) - 1
    admit_m = _admission(n_m, r_m, r_k)
    # below[m]: chance that fewer than m malicious reports are admitted
    below = [sum(admit_m[:m]) for m in range(n_m + 2)]
    p = 0.0
    for i in range(1, n_h + 1):
        p += admit_h[i] * below[min(i, n_m + 1)]
    q = sum(admit_h[i] * admit_m[i] for i in range(1, min(n_h, n_m) + 1))
    e = p * r_h + q * (r_h + r_m) / 2.0 + (1.0 - p - q) * r_m
    return p, q, e


def adversarial_report(method, target_own_score, truth, goal=None,
                       n_honest=5, n_malicious=6, steps=200):
    """Score a colluding reporter sends to drag the aggregate toward
    goal (1.0 promotes the finger, 0.0 slanders it; by default it
    pushes away from the honest consensus).

    Average and median take extremal reports at face value.  Drop-off
    admits a report with probability 1 - |report - own|, so the optimum
    trades admission odds against pull and sits strictly inside the
    unit interval; it is found by grid search on the closed form.
    """
    method = _canon_method(method)
    if goal is None:
        goal = 1.0 if truth < 0.5 else 0.0
    if method in ("average", "median"):
        return goal
    _check_dropoff(n_honest, n_malicious, truth, target_own_score)
    admit_h = _admission(n_honest, truth, target_own_score)
    best_r = goal
    best_val = None
    for s in range(steps + 1):
        r = s / steps
        _, _, e = _dropoff(admit_h, n_malicious, truth, r, target_own_score)
        val = e if goal >= 0.5 else -e
        if best_val is None or val > best_val:
            best_val, best_r = val, r
    return best_r


class SharedExchange:
    """Epoch-boundary score exchange wired into a live network.

    At each boundary every honest holder of a finger broadcasts its
    first-hand score for it, but only when the score changed since the
    previous epoch; receivers keep the latest report per sender.
    Colluding holders are not bound by the protocol: they inject a
    report tailored per receiver against the aggregation method,
    promoting colluding fingers and slandering honest ones.  Each
    honest holder's aggregate lands in the network's score overrides,
    where routing reads it in place of the first-hand score.
    """

    def __init__(self, net, method="dropoff", seed=0, adversarial=True):
        self.net = net
        self.method = _canon_method(method)
        self.rng = random.Random(seed)
        self.adversarial = adversarial
        self.last_sent = {}   # (sender, finger) -> last broadcast value
        self.reports = {}     # finger -> {honest sender: latest value}
        # forged reports by rounded inputs; one bounded cache per exchange,
        # so no two exchanges share state
        self.forged_report = lru_cache(maxsize=65536)(adversarial_report)

    def finger_holders(self):
        """Map each live finger to the nodes holding it, one ring scan."""
        holders = {}
        ring = self.net.ring
        for u in ring.ids:
            seen = set()
            for i in range(self.net.bits):
                f = ring.finger(u, i)
                if f != u and f not in seen:
                    seen.add(f)
                    holders.setdefault(f, []).append(u)
        return holders

    def run_epoch(self):
        """Advance one epoch: broadcast changed scores, re-aggregate.

        Returns the number of broadcasts sent, which is zero when no
        first-hand score moved since the previous boundary.
        """
        net = self.net
        holders = self.finger_holders()
        self._prune(holders)
        sent = 0
        for f, hs in holders.items():
            honest = [u for u in hs if u in net.stores]
            if not honest:
                continue
            table = self.reports.setdefault(f, {})
            for k in honest:
                r = net.first_hand_score(k, f)
                if self.last_sent.get((k, f)) != r:
                    self.last_sent[(k, f)] = r
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

    def _prune(self, holders):
        """Forget reports about departed fingers and from ex-holders."""
        for f in list(self.reports):
            hs = holders.get(f)
            if hs is None:
                for s in self.reports.pop(f):
                    self.last_sent.pop((s, f), None)
                continue
            live = set(hs)
            table = self.reports[f]
            for s in list(table):
                if s not in live or s not in self.net.stores:
                    del table[s]
                    self.last_sent.pop((s, f), None)
