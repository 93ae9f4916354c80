"""The benchmark's compound-Poisson jobs against their recorded outputs.

Every ``clock_jump`` job of the benchmark deck pool, and the saw-tooth
jobs of ``identities_moments``, must print the Monte Carlo output whose
digest ``bench/recorded.json`` holds, so any bit drift in the jump-path
sampler fails here as well as in a benchmark run.  The benchmark's
``workloads.py``, ``jobs.py`` and ``recorded.json`` are read, never
written.  Every second pool entry runs, to keep the suite's time down.
"""

import sys
from pathlib import Path

import pytest

import levyclocks
import levyclocks.cli  # noqa: F401  (the jobs call levyclocks.cli.run)

BENCH = Path(__file__).resolve().parent.parent / "bench"
STRIDE = 2


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``workloads`` and ``jobs`` modules and its record."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        import jobs
        import workloads
    return workloads, jobs, jobs.load_recorded()


@pytest.mark.parametrize("workload,job_type", [
    ("clock_jump", "simulate_cp_plus"),
    ("clock_jump", "simulate_cp_minus"),
    ("clock_jump", "simulate_saw_tooth"),
    ("identities_moments", "moments_saw_tooth"),
    ("identities_moments", "identities_saw_tooth"),
])
def test_recorded_jump_digests(bench, workload, job_type):
    workloads, jobs, recorded = bench
    pool = [spec for spec in workloads.mc_pool(workload)
            if spec["type"] == job_type]
    assert len(pool) == workloads.POOL_SIZE
    for spec in pool[::STRIDE]:
        job = jobs.prepare(spec, levyclocks)
        assert job.check(job.run(), recorded) == [], job.key
