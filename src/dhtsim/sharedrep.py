"""Shared reputation between joint knuckles of the ring overlay.

Nodes holding the same finger swap their first-hand scores for it at
epoch boundaries and fold the received reports into a shared score.
Three aggregation rules are provided: plain average, median, and a
drop-off rule that admits a received score with probability
1 - |received - own| and takes the median of the admitted reports, so
reports far from the node's own observations rarely count.

Colluding holders report values crafted against whichever rule is in
use.  Against average and median they report their goal outright.
Against drop-off they send the grid point s / GRID_STEPS whose
closed-form expected aggregate pulls hardest toward their goal;
_dropoff_grid evaluates that closed form at every grid point at once.
"""

import random
import statistics
from functools import lru_cache
from itertools import groupby
from math import comb

METHODS = ("average", "median", "dropoff")
GRID_STEPS = 200   # the drop-off forger searches reports s / GRID_STEPS
_GRID = tuple(s / GRID_STEPS for s in range(GRID_STEPS + 1))


def _check_method(method):
    if method not in METHODS:
        raise ValueError("unknown aggregation method: %r" % (method,))
    return method


def _clamp(value):
    return min(1.0, max(0.0, value))


def aggregate(method, own, received, rng=None):
    """Fold received scores for a finger into one shared score.

    Average and median run over the raw reports.  Drop-off admits each
    report in turn with probability 1 - |report - own|, one draw of rng
    per report, and takes the median of the admitted ones.  The node's
    own score anchors admission but is never itself admitted.  With
    nothing received (or nothing admitted) the node keeps its own
    first-hand score.
    """
    _check_method(method)
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
    admitted = [v for v in received if rng.random() < 1.0 - abs(v - own)]
    return statistics.median(admitted) if admitted else own


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


def _dropoff_grid(n_h, r_h, colluders):
    """The drop-off closed form for n_h honest reports of r_h against
    every colluder report r_m in colluders.R at once, as three columns
    (P, Q, E) indexed like R.

    P is the chance the admitted honest reports outnumber the admitted
    colluder ones (the bin median lands on r_h), Q the chance of a
    nonzero tie (the median averages the two values), and E the expected
    aggregate, the remaining probability mass landing on r_m.  A point's
    entries come from the same float operations in the same order
    whatever else R holds, and whether or not the colluder columns were
    built for an earlier search.
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


def _forge(colluders, n_honest, truth, goal):
    """The point of colluders.R a colluder reports against n_honest
    honest reports of truth: the first point with the most extreme
    expected drop-off aggregate, the largest when goal >= 0.5 (promote
    the finger), else the smallest (slander it)."""
    _, _, E = _dropoff_grid(n_honest, truth, colluders)
    extreme = max if goal >= 0.5 else min
    return colluders.R[extreme(range(len(colluders.R)), key=E.__getitem__)]


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
        self.method = _check_method(method)
        self.rng = random.Random(seed)
        self.adversarial = adversarial
        self.reports = {}     # finger -> {honest sender: latest value}
        # the colluder columns of the group being forged, by (n_bad, own);
        # run_epoch empties it before the next group
        self._columns = columns = {}

        def forge(own, truth, goal, n_received, n_bad):
            if method != "dropoff":
                return goal
            side = columns.get((n_bad, own))
            if side is None:
                side = columns[n_bad, own] = _Colluders(n_bad, own, _GRID)
            return _forge(side, n_received, truth, goal)

        # forged reports by rounded inputs; one bounded cache per exchange,
        # so no two exchanges share state.  forge closes over columns, not
        # self, so the cache keeps no reference cycle through the exchange.
        self.forged_report = lru_cache(maxsize=65536)(forge)

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
                    round(own, 2), round(truth, 2), goal, len(received),
                    n_bad)
            # drop this group's columns before the next group's are built
            self._columns.clear()
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
