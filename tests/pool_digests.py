"""The benchmark's Monte Carlo pool jobs against their recorded digests.

``mismatches`` runs pool entries of one job type through the benchmark's
own ``jobs.prepare``, ``Job.run`` and ``Job.check``.  It reads
``bench/workloads.py``, ``bench/jobs.py`` and ``bench/recorded.json`` and
writes nothing under ``bench/``.  ``tests/test_recorded.py`` checks a
fixed sample of the entries; run as a script, this module checks every
entry of every job type, 1100 jobs::

    PYTHONPATH=src python -B -W error tests/pool_digests.py
"""

import functools
import sys
from pathlib import Path

import levyclocks
import levyclocks.cli  # noqa: F401  (the jobs call levyclocks.cli.run)

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("clock_gaussian", "clock_jump", "identities_moments")
POOL_JOBS = 1100


@functools.cache
def bench():
    """The benchmark's ``workloads`` and ``jobs`` modules and its record."""
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        import jobs
        import workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
    return workloads, jobs, jobs.load_recorded()


def job_types() -> list[tuple[str, str]]:
    """(workload, job type) of every Monte Carlo job type, in deck order."""
    workloads = bench()[0]
    return [(workload, job_type) for workload in WORKLOADS
            for job_type in dict.fromkeys(
                spec["type"] for spec in workloads.mc_pool(workload))]


def mismatches(workload: str, job_type: str,
               stride: int = 1) -> tuple[int, list[str]]:
    """(jobs run, mismatches) over every ``stride``-th pool entry of one
    job type, from entry 0, and its last entry."""
    workloads, jobs, recorded = bench()
    pool = [spec for spec in workloads.mc_pool(workload)
            if spec["type"] == job_type]
    assert len(pool) == workloads.POOL_SIZE
    entries = sorted({*range(0, len(pool), stride), len(pool) - 1})
    bad = []
    for k in entries:
        job = jobs.prepare(pool[k], levyclocks)
        bad += [f"{job.key}: {e}" for e in job.check(job.run(), recorded)]
    return len(entries), bad


if __name__ == "__main__":
    n, bad = 0, []
    for workload, job_type in job_types():
        ran, found = mismatches(workload, job_type)
        n, bad = n + ran, bad + found
    print(f"{n} pool jobs, {len(bad)} mismatches", *bad, sep="\n")
    sys.exit(1 if bad or n != POOL_JOBS else 0)
