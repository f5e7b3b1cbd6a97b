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
from functools import lru_cache, partial
from itertools import groupby
from math import comb

METHODS = ("average", "median", "dropoff")
GRID_STEPS = 200   # the drop-off forger searches reports s / GRID_STEPS


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
    (p,), (q,), (e,) = _dropoff_grid(n_h, r_h, _Colluders(n_m, r_k, [r_m]))
    return p, q, e


def _check_dropoff(n_h, n_m, *scores):
    if n_h < 0 or n_m < 0:
        raise ValueError("negative reporter count")
    for r in scores:
        if not 0.0 <= r <= 1.0:
            raise ValueError("score outside [0, 1]")


def _admission(n, D):
    """Chance that exactly i of n equal reports enter a bin, as one row
    per i = 0..n holding a column entry per distance d in D between the
    report and the bin owner's score."""
    return [[comb(n, i) * (1.0 - d) ** i * d ** (n - i) for d in D]
            for i in range(n + 1)]


class _Colluders:
    """The colluder side of the drop-off closed form: n_m colluders each
    reporting a point of R to a bin owner whose own score is r_k.

    Nothing here depends on the honest reporters, so one instance serves
    every grid search that shares (n_m, r_k, R).
    """

    def __init__(self, n_m, r_k, R):
        self.n_m = n_m
        self.r_k = r_k
        self.R = R
        self.admit = _admission(n_m, [abs(r - r_k) for r in R])
        self._below = []

    def below(self, i):
        """Per point, the chance that fewer than i of the n_m reports are
        admitted, for 1 <= i <= n_m + 1; built on first use.  Each column
        is its own sum() call: Python 3.12 compensates float sums, so a
        running prefix would differ there."""
        while len(self._below) < i:
            rows = self.admit[:len(self._below) + 1]
            self._below.append([sum(t) for t in zip(*rows)])
        return self._below[i - 1]


def _grid_colluders(n_m, r_k, steps):
    """The colluder columns over the grid points s / steps, s = 0..steps."""
    return _Colluders(n_m, r_k, [s / steps for s in range(steps + 1)])


def _dropoff_grid(n_h, r_h, colluders):
    """expected_dropoff's (p, q, e) for n_h honest reports of r_h against
    every colluder report r_m in colluders.R at once, as three columns
    indexed like R.

    A point's entries come from the same float operations in the same
    order whatever else R holds, and whether or not the colluder columns
    were built for an earlier search.
    """
    n_m, R = colluders.n_m, colluders.R
    admit_h = [row[0] for row in _admission(n_h, [abs(r_h - colluders.r_k)])]
    admit_m = colluders.admit
    P = [0.0] * len(R)
    for i in range(1, n_h + 1):
        # past n_m + 1 the chance stays the whole pmf's sum
        below = colluders.below(min(i, n_m + 1))
        h = admit_h[i]
        P = [p + h * b for p, b in zip(P, below)]
    ties = [[admit_h[i] * a for a in admit_m[i]]
            for i in range(1, min(n_h, n_m) + 1)]
    Q = [sum(t) for t in zip(*ties)] if ties else [0] * len(R)
    E = [p * r_h + q * (r_h + r_m) / 2.0 + (1.0 - p - q) * r_m
         for p, q, r_m in zip(P, Q, R)]
    return P, Q, E


def adversarial_report(method, target_own_score, truth, goal=None,
                       n_honest=5, n_malicious=6, steps=GRID_STEPS):
    """Score a colluding reporter sends to drag the aggregate toward
    goal (1.0 promotes the finger, 0.0 slanders it; by default it
    pushes away from the honest consensus).

    Average and median take extremal reports at face value.  Drop-off
    admits a report with probability 1 - |report - own|, so the optimum
    trades admission odds against pull and sits strictly inside the
    unit interval.  It is the first of the steps + 1 grid points
    s / steps with the most extreme closed-form expectation; the grid
    is evaluated column-wise, all points per term of the closed form.
    Each call builds its own colluder columns; SharedExchange shares
    them between searches with the same colluder count and own score.
    """
    return _forge(_grid_colluders, method, target_own_score, truth, goal,
                  n_honest, n_malicious, steps)


def _forge(colluders, method, target_own_score, truth, goal, n_honest,
           n_malicious, steps):
    """adversarial_report, taking the drop-off grid's colluder columns
    from colluders(n_malicious, target_own_score, steps)."""
    method = _canon_method(method)
    if steps < 1:
        raise ValueError("need at least one grid step")
    if goal is None:
        goal = 1.0 if truth < 0.5 else 0.0
    elif not 0.0 <= goal <= 1.0:
        raise ValueError("goal outside [0, 1]")
    if method in ("average", "median"):
        return goal
    _check_dropoff(n_honest, n_malicious, truth, target_own_score)
    side = colluders(n_malicious, target_own_score, steps)
    _, _, E = _dropoff_grid(n_honest, truth, side)
    extreme = max if goal >= 0.5 else min
    return side.R[extreme(range(len(side.R)), key=E.__getitem__)]


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

    An epoch first lists every forge request in holder order.  It then
    forges them grouped by (colluder count, rounded own score), the
    inputs of the drop-off grid's colluder columns, so each group's
    columns are built once and dropped before the next group's.  Last
    it folds every aggregate in holder order, so the grouping moves no
    draw of the exchange's rng.
    """

    def __init__(self, net, method="dropoff", seed=0, adversarial=True):
        self.net = net
        self.method = _canon_method(method)
        self.rng = random.Random(seed)
        self.adversarial = adversarial
        self.reports = {}     # finger -> {honest sender: latest value}
        # forged reports by rounded inputs; one bounded cache per exchange,
        # so no two exchanges share state.  Its misses share the colluder
        # columns of the group being forged, which run_epoch drops before
        # the next group.
        self._colluders = lru_cache(maxsize=1)(_grid_colluders)
        self.forged_report = lru_cache(maxsize=65536)(
            partial(_forge, self._colluders))

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
        # one fold per (finger, honest receiver) in holder order, kept as
        # columns indexed by fold: an object per fold would raise the
        # epoch's peak memory
        fingers = []   # (finger, its reports in table order, colluders)
        at, receivers, owns, slots = [], [], [], []
        for f, hs in holders.items():
            honest = [u for u in hs if u in net.stores]
            if not honest:
                continue
            table = self.reports.setdefault(f, {})
            for k in honest:
                r = net.first_hand_score(k, f)
                owns.append(r)
                if table.get(k) != r:
                    table[k] = r
                    sent += 1
            # every honest holder has a report in table by now
            slot = {s: i for i, s in enumerate(table)}
            at += [len(fingers)] * len(honest)
            receivers += honest
            slots += [slot[j] for j in honest]
            n_bad = len(hs) - len(honest) if self.adversarial else 0
            fingers.append((f, list(table.values()), n_bad))

        def others(i):
            """Every report on fold i's finger but its receiver's own."""
            values, s = fingers[at[i]][1], slots[i]
            return values[:s] + values[s + 1:]

        def group(i):
            """The inputs of fold i's colluder columns, less the grid."""
            return fingers[at[i]][2], round(owns[i], 2)

        # one forge per request, grouped; sorted() is stable, so a group
        # keeps holder order
        asks = sorted((i for i, k in enumerate(at) if fingers[k][2]),
                      key=group)
        forged = [None] * len(receivers)
        for _, same in groupby(asks, key=group):
            for i in same:
                f, _, n_bad = fingers[at[i]]
                own = owns[i]
                received = others(i)
                truth = statistics.fmean(received) if received else own
                goal = 1.0 if net.is_malicious(f) else 0.0
                forged[i] = self.forged_report(
                    self.method, round(own, 2), round(truth, 2), goal,
                    len(received), n_bad, GRID_STEPS)
            # drop this group's columns before the next group's are built
            self._colluders.cache_clear()
        for i, j in enumerate(receivers):
            f, _, n_bad = fingers[at[i]]
            received = others(i) + [forged[i]] * n_bad
            net.score_overrides.setdefault(j, {})[f] = aggregate(
                self.method, owns[i], received, self.rng)
        return sent

    def _prune(self, holders):
        """Forget reports about departed fingers and from ex-holders."""
        for f in list(self.reports):
            hs = holders.get(f)
            if hs is None:
                del self.reports[f]
                continue
            live = set(hs)
            table = self.reports[f]
            for s in list(table):
                if s not in live or s not in self.net.stores:
                    del table[s]
