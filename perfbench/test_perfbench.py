"""Tests of the benchmark itself: a small run of every workload, the
traced run's repeatable counts, and the clean Kademlia root check."""

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from dhtsim import kadnet  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=1):
    """Last line of a small run of the benchmark, parsed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--small"],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", NAMES)
def test_small_run_reports_every_metric_and_no_failure(workload):
    result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_for_a_seed(workload):
    first, second = bench(workload, 1, seed=5), bench(workload, 1, seed=5)
    assert first["correct"] and first["failed"] == 0
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [{name: m["value"] for name, m in r["metrics"].items()
               if m["unit"] == "count"} for r in (first, second)]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_clean_kademlia_finds_the_true_root():
    net = kadnet.KadNetwork(1000, 0.0, seed=1, bits=workloads.BITS,
                            replica_count=workloads.KAD_REPLICAS,
                            tolerance_bits=workloads.KAD_TOLERANCE_BITS)
    rng = random.Random(7)
    honest = net.honest_nodes()
    misses = 0
    for _ in range(1000):
        key = workloads.kad_key(rng, net.ids)
        out = kadnet.kad_lookup(net, rng.choice(honest), key)
        root = reference.xor_roots(net.ids, key, 1,
                                   workloads.KAD_TOLERANCE_BITS,
                                   workloads.BITS)[0]
        misses += out.closest_root != root or not out.success
    assert misses == 0
