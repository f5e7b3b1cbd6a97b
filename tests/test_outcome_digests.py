"""Pinned outcome digests of the benchmark's seed-1 runs.

Each workload's digest hashes the outcome trail of its first round:
every lookup's answer, every churn event, every exchange epoch and
every grid point.  A change meant to leave outcomes alone must keep
these prefixes; a change that moves outcomes updates them and says why.
Every workload is pinned at its --small size; the two Halo workloads
and kad-attack are pinned at full size too, which reaches ring
wrap-around, finger bucket and k-bucket edge cases that the small
overlays rarely do.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DIGESTS = {
    "halo-attack": "b2acbdb6f42b",
    "halo-shared-churn": "a2e740ad7d8e",
    "kad-attack": "4174762ed591",
    "oscillation-sweep": "78b001ba7a28",
}

FULL_SIZE_DIGESTS = {
    "halo-attack": "8c65801714f6",
    "halo-shared-churn": "8fa3a56dac52",
    "kad-attack": "bc376fdb15a2",
}


def seed_one_digest(workload, *flags):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1"]
        + list(flags),
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True)
    digests = [line.split()[1] for line in proc.stdout.splitlines()
               if line.startswith("digest ")]
    assert len(digests) == 1
    return digests[0]


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_small_seed_one_digest(workload):
    assert seed_one_digest(workload, "--small").startswith(DIGESTS[workload])


@pytest.mark.parametrize("workload", sorted(FULL_SIZE_DIGESTS))
def test_full_size_seed_one_digest(workload):
    assert seed_one_digest(workload).startswith(FULL_SIZE_DIGESTS[workload])
