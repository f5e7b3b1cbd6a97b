"""Pinned outcome digests of the benchmark's fixed-seed runs.

Each workload's digest hashes the outcome trail of its first round:
every lookup's answer, every churn event, every exchange epoch and
every grid point.  A change meant to leave outcomes alone must keep
these prefixes; a change that moves outcomes updates them and says why.
Every workload is pinned at its --small size and at full size for
seed 1.  Full size reaches ring wrap-around, finger bucket and k-bucket
edge cases that the small overlays rarely do, and runs the oscillation
sweeps' full grids.  kad-attack and halo-shared-churn are pinned at full
size for seed 2 as well, so the XOR-closest search, the join
self-lookups and the drop-off forger meet a second id draw.  A run that prints a problem line fails with that line, so a
crashing operation names its exception instead of only moving the
digest.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DIGESTS = {
    "halo-attack": "b2acbdb6f42b",
    "halo-shared-churn": "1250950f7d53",
    "kad-attack": "4174762ed591",
    "oscillation-sweep": "78b001ba7a28",
}

FULL_SIZE_DIGESTS = {
    "halo-attack": "8c65801714f6",
    "halo-shared-churn": "6f8d3a4c5160",
    "kad-attack": "bc376fdb15a2",
    "oscillation-sweep": "63b53c14e87b",
}

SEED_TWO_FULL_SIZE_DIGESTS = {
    "halo-shared-churn": "09b012fb204c",
    "kad-attack": "273ab45f25b5",
}


def seed_digest(workload, seed, *flags):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1"]
        + list(flags),
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    problems = [line for line in lines if line.startswith("problem:")]
    assert not problems, "\n".join(problems)
    digests = [line.split()[1] for line in lines
               if line.startswith("digest ")]
    assert len(digests) == 1
    return digests[0]


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_small_seed_one_digest(workload):
    assert seed_digest(workload, 1, "--small").startswith(DIGESTS[workload])


@pytest.mark.parametrize("workload", sorted(FULL_SIZE_DIGESTS))
def test_full_size_seed_one_digest(workload):
    assert seed_digest(workload, 1).startswith(FULL_SIZE_DIGESTS[workload])


@pytest.mark.parametrize("workload", sorted(SEED_TWO_FULL_SIZE_DIGESTS))
def test_full_size_seed_two_digest(workload):
    assert seed_digest(workload, 2).startswith(
        SEED_TWO_FULL_SIZE_DIGESTS[workload])
