"""The benchmark's workloads: fixed-seed runs of the paper's experiments.

A workload runs in rounds.  Each round builds its networks afresh from
the seed, runs its recorded warmup (together the set-up), then its
measured phase, so every round of a run repeats the same operations and
must produce the same outcomes.  One caller issues each operation only
after the last returned (a closed loop).  An operation is one lookup,
one churn event, one exchange epoch or one sweep grid point; it fails
when it raises or when its output fails a check against reference.py.
"""

import random
from bisect import insort
from collections import Counter, namedtuple
from contextlib import nullcontext
from time import perf_counter

import reference
from dhtsim import adversary, analysis, halonet, kadnet, sharedrep

BITS = 32
COLLUDING = 0.2
ATTACK_RATE = 1.0
KAD_REPLICAS = 10
KAD_TOLERANCE_BITS = 8
HALO_MODES = ("regular", "aboost", "collaborative")

Halo = namedtuple("Halo", "n warmup measured")
Churn = namedtuple("Churn", "n warmup measured churn_every epoch_every")
Kad = namedtuple("Kad", "n warmup measured")
Sweep = namedtuple("Sweep", "steps warmup_points use_based_trials")

# Full sizes keep one round to a few seconds on a 2-core machine, so a
# run holds enough rounds for steady medians; the small ones are for the
# smoke test.
SIZES = {
    "halo-attack": (Halo(1000, 300, 500), Halo(100, 20, 30)),
    "halo-shared-churn": (Churn(200, 200, 400, 4, 200),
                          Churn(60, 20, 40, 4, 20)),
    "kad-attack": (Kad(500, 100, 200), Kad(60, 10, 20)),
    "oscillation-sweep": (Sweep(2000, 5, 2000), Sweep(50, 2, 100)),
}


class Round:
    """Timings, operation counts and outcome trail of one round.

    Only the program's calls are timed: set-up time is the sum of the
    build calls and warmup operations, run time the sum of the measured
    operations.  Checks run outside the timed calls, with tracing
    paused.
    """

    def __init__(self, tracer=None):
        self._paused = tracer.paused if tracer is not None else nullcontext
        self.measuring = False
        self.setup_s = 0.0
        self.run_s = 0.0
        self.op_us = []        # per measured main operation
        self.attempted = 0
        self.failed = 0
        self.wrong = 0         # failed a check, as opposed to raising
        self.hits = 0          # lookups that found the true owner or root
        self.problems = []
        self.trail = []        # outcome records, for the digest and replay
        self.results = {}
        self.counts = Counter()

    def build(self, fn, *args, **kwargs):
        """Call fn as set-up that is not itself an operation."""
        t0 = perf_counter()
        value = fn(*args, **kwargs)
        self.setup_s += perf_counter() - t0
        return value

    def ops(self, count, check, fn, *args, main=False, **kwargs):
        """Run one call of fn as count operations and check its output.

        check returns one message per operation whose output is wrong.
        main marks the operations whose time per operation is reported.
        Returns fn's value, or None when it raised.
        """
        self.attempted += count
        t0 = perf_counter()
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # a raising operation counts as failed
            self._charge(perf_counter() - t0, count, main)
            self.failed += count
            self._note("%s raised %r" % (fn.__name__, exc))
            return None
        self._charge(perf_counter() - t0, count, main)
        with self._paused():
            bad = check(value)
        if bad:
            self.failed += len(bad)
            self.wrong += len(bad)
            for message in bad:
                self._note(message)
        return value

    def _charge(self, seconds, count, main):
        if not self.measuring:
            self.setup_s += seconds
            return
        self.run_s += seconds
        if main:
            self.op_us.extend([seconds * 1e6 / count] * count)

    def _note(self, message):
        if len(self.problems) < 10:
            self.problems.append(message)


def halo_checker(rnd, ids, origin, target):
    """Check one Halo lookup against a brute-force owner."""
    def check(out):
        bad = []
        owner = reference.ring_owner(ids, target, BITS)
        candidates = [s.candidate for s in out.subsearches]
        if (out.origin, out.target) != (origin, target):
            bad.append("halo lookup answered another query")
        elif out.owner != owner:
            bad.append("halo owner %d, brute force %d" % (out.owner, owner))
        elif out.answer != reference.clockwise_closest(target, candidates,
                                                       BITS):
            bad.append("halo answer is not the closest candidate")
        elif owner in candidates and out.answer != owner:
            bad.append("halo answer passed over the owner")
        rnd.trail.append((origin, target, out.answer, out.attacked))
        if not bad:
            rnd.counts["halonet.contacts"] += out.contacts
            rnd.hits += out.answer == owner
        return bad
    return check


def halo_attack(rnd, seed, size):
    """Regular, aboost and collaborative Halo lookups on a static ring
    where every colluder attacks: read-only routing and scoring."""
    for mode in HALO_MODES:
        rnd.measuring = False
        net = rnd.build(halonet.HaloNetwork, size.n, COLLUDING, seed,
                        bits=BITS)
        policy = adversary.AttackPolicy(ATTACK_RATE, seed)
        ids = list(net.ring.ids)
        honest = net.honest_nodes()
        rng = random.Random(seed)
        for phase, count in (("warmup", size.warmup),
                             ("measured", size.measured)):
            rnd.measuring = phase == "measured"
            rnd.hits = 0
            for _ in range(count):
                origin = rng.choice(honest)
                target = rng.randrange(1 << BITS)
                rnd.ops(1, halo_checker(rnd, ids, origin, target),
                        halonet.halo_lookup, net, origin, target, mode=mode,
                        policy=policy, record=True, main=True)
        rnd.results["success." + mode] = rnd.hits / size.measured
        rnd.counts["reputation.prior_entries"] += prior_entries(net)


def halo_shared_churn(rnd, seed, size):
    """Shared-mode Halo lookups with join/leave churn and drop-off score
    exchange epochs against forging colluders."""
    cache = getattr(sharedrep, "_report_cached", None)
    if cache is not None:
        cache.cache_clear()   # start each round as a fresh process would
    net = rnd.build(halonet.HaloNetwork, size.n, COLLUDING, seed, bits=BITS)
    exchange = rnd.build(sharedrep.SharedExchange, net, "dropoff",
                         seed=seed, adversarial=True)
    policy = adversary.AttackPolicy(ATTACK_RATE, seed)
    rng = random.Random(seed)
    live = list(net.ring.ids)
    bad = set(net.malicious)
    used = set(live)
    pending = []              # roles of departed nodes awaiting a join

    def check_ring(problem):
        def check(_):
            if net.ring.ids != live:
                return ["ring ids differ from the live set after " + problem]
            return []
        return check

    def check_join(malicious):
        def check(nid):
            out = []
            if nid in used or not 0 <= nid < 1 << BITS:
                out.append("join reused or invented id %r" % (nid,))
            elif net.is_malicious(nid) != malicious:
                out.append("join gave node %d the wrong role" % nid)
            else:
                used.add(nid)
                insort(live, nid)
                if malicious:
                    bad.add(nid)
            rnd.trail.append(("join", nid))
            return out + check_ring("a join")(nid)
        return check

    def check_epoch(sent):
        out = []
        values = [v for table in net.score_overrides.values()
                  for v in table.values()]
        if not all(0.0 <= v <= 1.0 for v in values):
            out.append("score override outside [0, 1]")
        holders = reference.finger_holders(live, BITS)
        if hasattr(exchange, "finger_holders"):
            found = {f: set(hs) for f, hs in exchange.finger_holders().items()}
            if found != holders:
                out.append("finger_holders differs from brute force")
        pairs = sum(1 for hs in holders.values() for u in hs if u not in bad)
        if not 0 <= sent <= pairs:
            out.append("%d broadcasts for %d honest holder-finger pairs"
                       % (sent, pairs))
        rnd.trail.append(("epoch", sent, hash(tuple(sorted(values)))))
        rnd.counts["sharedrep.broadcasts"] += sent
        return out

    def lookup():
        origin = rng.choice([u for u in live if u not in bad])
        target = rng.randrange(1 << BITS)
        rnd.ops(1, halo_checker(rnd, live, origin, target),
                halonet.halo_lookup, net, origin, target, mode="shared",
                policy=policy, record=True, main=True)

    for _ in range(size.warmup):
        lookup()
    rnd.measuring = True
    rnd.hits = 0
    epochs = []
    for i in range(1, size.measured + 1):
        lookup()
        if i % size.churn_every == 0:
            if pending:
                malicious = pending.pop()
                rnd.ops(1, check_join(malicious), net.join,
                        malicious=malicious)
            else:
                gone = rng.choice(live)
                live.remove(gone)
                pending.append(gone in bad)
                bad.discard(gone)
                rnd.trail.append(("leave", gone))
                rnd.ops(1, check_ring("a leave"), net.leave, gone)
        if i % size.epoch_every == 0:
            epochs.append(rnd.ops(1, check_epoch, exchange.run_epoch))
    rnd.results["success.shared"] = rnd.hits / size.measured
    rnd.results["broadcasts_per_epoch"] = epochs
    rnd.counts["reputation.prior_entries"] += prior_entries(net)
    if cache is not None:
        info = cache.cache_info()
        rnd.counts["sharedrep.report_cache.hits"] += info.hits
        rnd.counts["sharedrep.report_cache.misses"] += info.misses


def kad_key(rng, ids):
    """A key with at least one replica root in search tolerance."""
    while True:
        key = rng.randrange(1 << BITS)
        if reference.xor_roots(ids, key, 1, KAD_TOLERANCE_BITS, BITS):
            return key


def kad_attack(rnd, seed, size):
    """Kademlia lookups in its three modes, after join self-lookups and
    recorded warmup, where every colluder attacks."""
    for mode in kadnet.MODES:
        rnd.measuring = False
        net = rnd.build(kadnet.KadNetwork, size.n, COLLUDING, seed,
                        bits=BITS, replica_count=KAD_REPLICAS,
                        tolerance_bits=KAD_TOLERANCE_BITS)
        policy = adversary.AttackPolicy(ATTACK_RATE, seed)
        ids = list(net.ids)
        honest = net.honest_nodes()
        rng = random.Random(seed)

        def checker(q, key):
            def check(out):
                roots = reference.xor_roots(ids, key, KAD_REPLICAS,
                                            KAD_TOLERANCE_BITS, BITS)
                bad = []
                if out.key != key:
                    bad.append("kad lookup answered another key")
                elif out.success != (out.closest_root == roots[0]):
                    bad.append("kad success disagrees with the true root")
                elif not set(out.found_roots) <= set(roots):
                    bad.append("kad found a root outside the replica set")
                rnd.trail.append((q, key, out.closest_root, out.success))
                if not bad:
                    rnd.counts["kadnet.steps"] += out.steps
                    rnd.counts["kadnet.queried"] += len(out.queried)
                    rnd.hits += out.closest_root == roots[0]
                return bad
            return check

        for phase, count in (("warmup", size.warmup),
                             ("measured", size.measured)):
            rnd.measuring = phase == "measured"
            rnd.hits = 0
            for _ in range(count):
                q = rng.choice(honest)
                key = kad_key(rng, ids)
                rnd.ops(1, checker(q, key), kadnet.kad_lookup, net, q, key,
                        mode=mode, policy=policy, main=True)
        rnd.results["success." + mode] = rnd.hits / size.measured
        rnd.results["pollution." + mode] = kadnet.pollution_fraction(net)
        rnd.counts["reputation.prior_entries"] += prior_entries(net)


FAMILIES = (
    (adversary.OneThreshold, analysis.tau_grid, reference.one_threshold),
    (adversary.TwoThreshold, analysis.threshold_pair_grid,
     reference.two_threshold),
    (adversary.Probabilistic, analysis.probabilistic_grid,
     reference.probabilistic),
)
SAMPLE_EVERY = 7   # re-derive every 7th grid point with the reference
HONEST_SCORE = 0.9


def oscillation_sweep(rnd, seed, size):
    """Oscillation sweeps over the three attacker families' grids, and
    the use-based attack simulation for each aggregation method."""
    rng = random.Random(seed)
    alpha = rng.uniform(0.005, 0.05)
    beta = rng.uniform(1.0, 10.0)
    model = rnd.build(analysis.OscillationModel, alpha, beta, s_h=HONEST_SCORE,
                      s0=1.0, lookups=size.steps)
    grids = [rnd.build(make_grid) for _, make_grid, _ in FAMILIES]

    def check_sweep(grid, ref):
        def check(curve):
            if [params for params, _ in curve] != list(grid):
                return ["sweep returned another grid"] * len(grid)
            bad = []
            for i, (params, fraction) in enumerate(curve):
                rnd.trail.append((params, fraction))
                if not 0.0 <= fraction <= 1.0:
                    bad.append("fraction %r outside [0, 1]" % fraction)
                elif i % SAMPLE_EVERY == 0:
                    want = reference.attacked_fraction(
                        ref(*params), alpha, beta, HONEST_SCORE, 1.0,
                        size.steps)
                    if abs(fraction - want) > 1e-9:
                        bad.append("fraction at %r is %r, reference %r"
                                   % (params, fraction, want))
            return bad
        return check

    for (family, _, ref), grid in zip(FAMILIES, grids):
        warm = grid[:size.warmup_points]
        rnd.ops(len(warm), check_sweep(warm, ref), analysis.sweep, family,
                warm, model)
    rnd.measuring = True
    for (family, _, ref), grid in zip(FAMILIES, grids):
        curve = rnd.ops(len(grid), check_sweep(grid, ref), analysis.sweep,
                        family, grid, model, main=True)
        if curve:
            params, peak = max(curve, key=lambda point: point[1])
            rnd.results["peak." + family.__name__] = [params, peak]
    victims = rng.randint(1, 6)
    for method in sharedrep.METHODS:
        def check(percent):
            rnd.trail.append((method, percent))
            return [] if 0.0 <= percent <= 100.0 else [
                "use-based share %r outside [0, 100]" % percent]
        percent = rnd.ops(1, check, analysis.use_based_sim, 10000,
                          size.use_based_trials, victims, 0.8, 0.8,
                          method=method, seed=seed, main=True)
        rnd.results["use_based.%s.m%d" % (method, victims)] = percent


def prior_entries(net):
    """Per-key prior overrides held across the network's stores."""
    return sum(len(getattr(store, "priors", ())) for store in
               net.stores.values())


WORKLOADS = {
    "halo-attack": halo_attack,
    "halo-shared-churn": halo_shared_churn,
    "kad-attack": kad_attack,
    "oscillation-sweep": oscillation_sweep,
}
