"""The benchmark's Monte Carlo jobs against their recorded outputs.

Pool entries of every Monte Carlo job type of the benchmark deck must
print the output whose digest ``bench/recorded.json`` holds, so any bit
drift in a path sampler fails here as well as in a benchmark run.  The
jobs run through ``pool_digests.mismatches``, which reads the benchmark's
``workloads.py``, ``jobs.py`` and ``recorded.json`` and never writes
under ``bench/``.  Every second pool entry of the compound-Poisson job
types runs, and every tenth of the Gaussian and Cauchy ones, which take
longer, to keep the suite's time down; the last entry, 99, runs for
every type.  So entries 0, 50 and 99 of each of the 11 types run here,
and the CI workflow runs all 1100 with ``tests/pool_digests.py``.
"""

import pytest

import pool_digests

STRIDE = 2
GAUSSIAN_STRIDE = 10


@pytest.mark.parametrize("workload,job_type", [
    ("clock_jump", "simulate_cp_plus"),
    ("clock_jump", "simulate_cp_minus"),
    ("clock_jump", "simulate_saw_tooth"),
    ("identities_moments", "moments_saw_tooth"),
    ("identities_moments", "identities_saw_tooth"),
])
def test_recorded_jump_digests(workload, job_type):
    assert pool_digests.mismatches(workload, job_type, STRIDE)[1] == []


@pytest.mark.parametrize("workload,job_type", [
    ("clock_gaussian", "ldp_brownian"),
    ("clock_gaussian", "clt_brownian"),
    ("clock_gaussian", "lln_cauchy"),
    ("identities_moments", "moments_brownian"),
    ("identities_moments", "logA_brownian"),
    ("identities_moments", "identities_brownian"),
])
def test_recorded_gaussian_digests(workload, job_type):
    assert pool_digests.mismatches(workload, job_type,
                                   GAUSSIAN_STRIDE)[1] == []
