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
Its colluder-side terms depend only on the colluder count and the
receiver's own score, so _colluder_columns builds them once for every
forge sharing the two, and an exchange epoch forges its requests
grouped by them.
"""

import random
import statistics
from functools import lru_cache
from math import comb

METHODS = ("average", "median", "dropoff")
GRID_STEPS = 200   # the drop-off forger searches reports s / GRID_STEPS
_GRID = tuple(s / GRID_STEPS for s in range(GRID_STEPS + 1))


def check_method(method):
    """method, when it names one of METHODS, else a ValueError."""
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
    own score anchors admission but is never itself admitted, and
    drop-off without an rng is a ValueError.  With nothing received (or
    nothing admitted) the node keeps its own first-hand score.
    """
    if check_method(method) == "dropoff" and rng is None:
        raise ValueError("drop-off aggregation needs an rng")
    own = _clamp(own)
    received = [_clamp(v) for v in received]
    if not received:
        return own
    if method == "average":
        return statistics.fmean(received)
    if method == "median":
        return statistics.median(received)
    admitted = [v for v in received if rng.random() < 1.0 - abs(v - own)]
    return statistics.median(admitted) if admitted else own


def _admission(n, D):
    """Chance that exactly i of n equal reports enter a bin, as one row
    per i = 0..n holding a column entry per distance d in D between the
    report and the bin owner's score."""
    return [[comb(n, i) * (1.0 - d) ** i * d ** (n - i) for d in D]
            for i in range(n + 1)]


def _colluder_columns(n_m, r_k, R):
    """The colluder side of the drop-off closed form, for n_m colluders
    each reporting a point of R to a bin owner whose own score is r_k,
    as (admit, below).  admit holds _admission's rows; below[i - 1]
    holds, per point, the chance that fewer than i of the reports are
    admitted, for 1 <= i <= n_m + 1.

    Nothing here depends on the honest reporters, so one pair serves
    every grid search that shares (n_m, r_k, R).  Each below column is
    its own sum() call: Python 3.12 compensates float sums, so a running
    prefix would differ there.
    """
    admit = _admission(n_m, [abs(r - r_k) for r in R])
    return admit, [[sum(t) for t in zip(*admit[:i])]
                   for i in range(1, n_m + 2)]


def _dropoff_grid(n_m, r_k, R, columns, n_h, r_h):
    """The drop-off closed form for n_h honest reports of r_h against
    every colluder report r_m in R at once, as three columns (P, Q, E)
    indexed like R; columns is _colluder_columns(n_m, r_k, R).

    P is the chance the admitted honest reports outnumber the admitted
    colluder ones (the bin median lands on r_h), Q the chance of a
    nonzero tie (the median averages the two values), and E the expected
    aggregate, the remaining probability mass landing on r_m.  A point's
    entries come from the same float operations in the same order
    whatever else R holds.
    """
    admit_m, below = columns
    admit_h = [row[0] for row in _admission(n_h, [abs(r_h - r_k)])]
    P = [0.0] * len(R)
    for i in range(1, n_h + 1):
        h = admit_h[i]
        # past n_m + 1 the chance stays the whole pmf's sum
        P = [p + h * b for p, b in zip(P, below[min(i, n_m + 1) - 1])]
    ties = [[admit_h[i] * a for a in admit_m[i]]
            for i in range(1, min(n_h, n_m) + 1)]
    Q = [sum(t) for t in zip(*ties)] if ties else [0] * len(R)
    E = [p * r_h + q * (r_h + r_m) / 2.0 + (1.0 - p - q) * r_m
         for p, q, r_m in zip(P, Q, R)]
    return P, Q, E


def _forge(n_m, r_k, R, columns, n_honest, truth, goal):
    """The point of R that n_m colluders report to a bin owner scoring
    r_k against n_honest honest reports of truth: the first point with
    the most extreme expected drop-off aggregate, the largest when
    goal >= 0.5 (promote the finger), else the smallest (slander it)."""
    _, _, E = _dropoff_grid(n_m, r_k, R, columns, n_honest, truth)
    extreme = max if goal >= 0.5 else min
    return R[extreme(range(len(R)), key=E.__getitem__)]


class SharedExchange:
    """Epoch-boundary score exchange wired into a live network.

    At each boundary every honest holder of a finger broadcasts its
    first-hand score for it, but only when the score changed since the
    previous epoch; receivers keep the latest report per sender.  The
    broadcast pass builds the report tables afresh: one per finger with
    a live honest holder, holding those holders' old reports in their
    old order.  So a departed sender's reports, and the table of a
    finger that departed or lost its last honest holder, are dropped
    there.  A joiner may draw a departed id first: if it holds the same
    finger, it keeps its predecessor's last report, in its
    predecessor's place in the table's order, until it broadcasts its
    own score.  The table then ends the broadcast pass holding the
    values a fresh sender would leave, so only the broadcast count and
    the order the reports are folded in (and drop-off's draws paired
    with them) can differ.
    Colluding holders are not bound by the protocol: they inject a
    report tailored per receiver against the aggregation method,
    promoting colluding fingers and slandering honest ones.  Each
    honest holder's aggregate lands in the network's score overrides,
    where routing reads it in place of the first-hand score.

    An epoch runs three passes over one list of (finger, honest
    holders, colluder count).  The first rebuilds the report tables and
    broadcasts changed scores.  The second forges one report per
    (finger, honest holder) with colluders, sorted by (colluder count,
    rounded own score), the inputs of the drop-off grid's colluder
    columns, so each group's columns are built once and dropped before
    the next group's.  The third folds every aggregate in holder order,
    so the grouping moves no draw of the exchange's rng.
    """

    def __init__(self, net, method="dropoff", seed=0, adversarial=True):
        self.net = net
        self.method = check_method(method)
        self.rng = random.Random(seed)
        self.adversarial = adversarial
        self.reports = {}     # finger -> {honest sender: latest value}
        # the colluder columns of the group being forged, by (n_bad, own):
        # forge drops them at the next group's first miss, run_epoch
        # after the last group
        self._group = group = {}

        def forge(own, truth, goal, n_received, n_bad):
            if method != "dropoff":
                return goal
            columns = group.get((n_bad, own))
            if columns is None:
                group.clear()
                columns = group[n_bad, own] = _colluder_columns(
                    n_bad, own, _GRID)
            return _forge(n_bad, own, _GRID, columns, n_received, truth,
                          goal)

        # forged reports by rounded inputs; one bounded cache per exchange,
        # so no two exchanges share state.  forge closes over group, not
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
        old = self.reports
        self.reports = {}
        sent = 0
        folds = []   # (finger, honest holders, colluder count)
        for f, hs in self.finger_holders().items():
            honest = [u for u in hs if u in net.stores]
            if not honest:
                continue
            # the live honest holders' old reports keep their order
            table = self.reports[f] = {
                s: v for s, v in old.get(f, {}).items() if s in honest}
            for k in honest:
                r = net.first_hand_score(k, f)
                if table.get(k) != r:
                    table[k] = r
                    sent += 1
            n_bad = len(hs) - len(honest) if self.adversarial else 0
            folds.append((f, honest, n_bad))
        # every honest holder's own score is now its entry in table
        # one forge request per (finger, honest holder) with colluders
        asks = []
        for f, honest, n_bad in folds:
            if not n_bad:
                continue
            table = self.reports[f]
            goal = 1.0 if net.is_malicious(f) else 0.0
            for k in honest:
                received = [v for s, v in table.items() if s != k]
                truth = statistics.fmean(received) if received else table[k]
                asks.append((n_bad, round(table[k], 2), len(asks),
                             round(truth, 2), goal, len(received)))
        # forge grouped by colluder count and own score; a request's
        # index breaks ties, so a group keeps holder order
        asks.sort()
        forged = [None] * len(asks)
        for n_bad, own, i, truth, goal, n_received in asks:
            forged[i] = self.forged_report(own, truth, goal, n_received,
                                           n_bad)
        self._group.clear()   # no colluder columns outlive the epoch
        forged = iter(forged)
        for f, honest, n_bad in folds:
            table = self.reports[f]
            for k in honest:
                received = [v for s, v in table.items() if s != k]
                if n_bad:
                    received += [next(forged)] * n_bad
                net.score_overrides.setdefault(k, {})[f] = aggregate(
                    self.method, table[k], received, self.rng)
        return sent
