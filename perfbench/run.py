#!/usr/bin/env python3
"""Benchmark dhtsim on fixed-seed runs of the paper's experiments.

    python3 perfbench/run.py --workload halo-attack --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its src/
directory.  The run repeats whole rounds of the workload (see
workloads.py) for about --seconds seconds, at least three of them, and
prints an outcome digest, the simulated results and, as its last line,
one JSON object: whether every output was correct, the operations
attempted and failed, and the metrics.  With --trace 0 those are the
end-to-end metrics, measured untraced; with --trace 1 they are the
per-layer metrics of a traced run, per round.  --workload all runs every
workload in a fresh interpreter, one after another.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_ROUNDS = 3
# per-layer counts gathered by the workloads themselves, per round
COUNTS = ("halonet.contacts", "kadnet.steps", "kadnet.queried",
          "sharedrep.broadcasts", "sharedrep.report_cache.hits",
          "sharedrep.report_cache.misses", "reputation.prior_entries")


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(names) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smoke-test sizes instead of the full ones")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_program():
    """Put the checkout's src/ first on the path; fail without it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dhtsim", "__init__.py")):
        sys.exit("perfbench: no dhtsim sources under %s" % src)
    sys.path.insert(0, src)


def run_all(args, names):
    """Each workload in its own interpreter; its output passes through."""
    status = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small
                                              else [])
        print("== %s" % name, flush=True)
        status = subprocess.run(cmd, check=False).returncode or status
    return status


def upper_quartile(values):
    return statistics.quantiles(list(values), n=4)[-1]


def main(argv=None):
    import_program()
    import workloads
    from tracer import NAMES, Tracer

    args = parse_args(argv, workloads.WORKLOADS)
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.workload][1 if args.small else 0]

    rounds = []
    first_trail = None
    replay_ok = True
    spent = []
    start = perf_counter()
    while True:
        gc.collect()
        t0 = perf_counter()
        rnd = workloads.Round(tracer)
        workload(rnd, args.seed, size)
        spent.append(perf_counter() - t0)
        if first_trail is None:
            first_trail = rnd.trail
        elif rnd.trail != first_trail:
            replay_ok = False
            rnd.problems.append("round %d did not replay round 1"
                                % (len(rounds) + 1))
        rnd.trail = None
        rounds.append(rnd)
        elapsed = perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and \
                elapsed + statistics.median(spent) > args.seconds:
            break

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    wrong = sum(r.wrong for r in rounds)
    for problem in sorted({p for r in rounds for p in r.problems})[:10]:
        print("problem: %s" % problem)
    digest = hashlib.sha256(repr(first_trail).encode()).hexdigest()
    print("workload %s seed %d: %d rounds in %.1f s" % (
        args.workload, args.seed, len(rounds), perf_counter() - start))
    print("digest %s" % digest)
    print("results %s" % json.dumps(rounds[0].results, sort_keys=True))
    series = {
        "setup_s": [r.setup_s for r in rounds],
        "run_s": [r.run_s for r in rounds],
        "op_p50_us": [statistics.median(r.op_us) for r in rounds],
        "op_p90_us": [statistics.quantiles(r.op_us, n=10)[-1] for r in rounds],
    }
    print("rounds %s" % json.dumps(series))

    n = len(rounds)
    if args.trace:
        metrics = {}
        for name in NAMES:
            metrics[name + ".calls"] = (tracer.calls[name] / n, "count")
            metrics[name + ".self_ms"] = (tracer.self_s[name] * 1e3 / n, "ms")
        for key in COUNTS:
            metrics[key] = (sum(r.counts[key] for r in rounds) / n, "count")
        hits = metrics["sharedrep.report_cache.hits"][0]
        asked = hits + metrics["sharedrep.report_cache.misses"][0]
        metrics["sharedrep.report_cache.hit_ratio"] = (
            hits / asked if asked else 0.0, "ratio")
        metrics["trace.run_s"] = (upper_quartile(series["run_s"]), "s")
    else:
        # setup_s is the median over rounds.  The other times are taken at
        # the upper quartile over rounds: on a shared machine the slow,
        # contended speed is the one that recurs from run to run, while
        # faster spells come and go.
        metrics = {"setup_s": (statistics.median(series["setup_s"]), "s")}
        for name, unit in (("run_s", "s"), ("op_p50_us", "us"),
                           ("op_p90_us", "us")):
            metrics[name] = (upper_quartile(series[name]), unit)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    print(json.dumps({
        "correct": wrong == 0 and replay_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
