"""The benchmark's Monte Carlo jobs against their recorded outputs.

Pool entries of every Monte Carlo job type of the benchmark deck must
print the output whose digest ``bench/recorded.json`` holds, so any bit
drift in a path sampler fails here as well as in a benchmark run.  The
benchmark's ``workloads.py``, ``jobs.py`` and ``recorded.json`` are read,
never written.  Every second pool entry of the compound-Poisson job types
runs, and every tenth of the Gaussian and Cauchy ones, which take longer,
to keep the suite's time down.
"""

import sys
from pathlib import Path

import pytest

import levyclocks
import levyclocks.cli  # noqa: F401  (the jobs call levyclocks.cli.run)

BENCH = Path(__file__).resolve().parent.parent / "bench"
STRIDE = 2
GAUSSIAN_STRIDE = 10


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``workloads`` and ``jobs`` modules and its record."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        import jobs
        import workloads
    return workloads, jobs, jobs.load_recorded()


def check_pool(bench, workload: str, job_type: str, stride: int) -> None:
    """Every ``stride``-th pool entry of one job type against its digest."""
    workloads, jobs, recorded = bench
    pool = [spec for spec in workloads.mc_pool(workload)
            if spec["type"] == job_type]
    assert len(pool) == workloads.POOL_SIZE
    for spec in pool[::stride]:
        job = jobs.prepare(spec, levyclocks)
        assert job.check(job.run(), recorded) == [], job.key


@pytest.mark.parametrize("workload,job_type", [
    ("clock_jump", "simulate_cp_plus"),
    ("clock_jump", "simulate_cp_minus"),
    ("clock_jump", "simulate_saw_tooth"),
    ("identities_moments", "moments_saw_tooth"),
    ("identities_moments", "identities_saw_tooth"),
])
def test_recorded_jump_digests(bench, workload, job_type):
    check_pool(bench, workload, job_type, STRIDE)


@pytest.mark.parametrize("workload,job_type", [
    ("clock_gaussian", "ldp_brownian"),
    ("clock_gaussian", "clt_brownian"),
    ("clock_gaussian", "lln_cauchy"),
    ("identities_moments", "moments_brownian"),
    ("identities_moments", "logA_brownian"),
    ("identities_moments", "identities_brownian"),
])
def test_recorded_gaussian_digests(bench, workload, job_type):
    check_pool(bench, workload, job_type, GAUSSIAN_STRIDE)
