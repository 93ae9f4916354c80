"""One benchmark worker: set up, run a deck of jobs back to back, report.

Started by ``run.py`` in a fresh process with BLAS/OpenMP threads pinned
to 1.  Every job runs twice in a row, once on the program (``src/``) and
once on the frozen reference copy of the library (``reference/``), the
order alternating from job to job, so that both see the same machine
speed.  Only the program is checked and traced.  Prints one JSON object
as its last stdout line.

    python3 bench/worker.py --workload NAME --seed N --jobs K
        [--trace] [--setup-only] [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _setup(workload: str, seed: int, n_jobs: int):
    """Import the program and build its deck; returns (deck, seconds)."""
    started = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE), str(HERE / "reference")]
    import levyclocks.cli  # noqa: F401  (timed: part of set-up)
    import jobs
    from workloads import build_deck
    deck = [jobs.prepare(spec, sys.modules["levyclocks"])
            for spec in build_deck(workload, seed, n_jobs)]
    return deck, time.perf_counter() - started


def _reference_deck(workload: str, seed: int, n_jobs: int):
    import levyclocks_seed.cli  # noqa: F401
    import jobs
    from workloads import build_deck
    return [jobs.prepare(spec, sys.modules["levyclocks_seed"])
            for spec in build_deck(workload, seed, n_jobs)]


def _timed(job) -> tuple[float, str | None, str | None]:
    """(seconds, output, error) of one job."""
    t0 = time.perf_counter()
    try:
        output, error = job.run(), None
    except Exception as exc:             # counted as a failed job; go on
        output, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, output, error


def _run_deck(deck, reference, recorded, tracer=None) -> dict:
    """Run the job pairs back to back; time each, then check the
    program's output."""
    import jobs
    job_s, ref_s, outputs, errors = [], [], [], []
    items = failed = mismatched = 0
    for index, (job, ref_job) in enumerate(zip(deck, reference)):
        if index % 2:
            ref_s.append(_timed(ref_job)[0])
        if tracer is not None:
            tracer.job = index
        seconds, output, error = _timed(job)
        job_s.append(seconds)
        if not index % 2:
            ref_s.append(_timed(ref_job)[0])
        bad = [error] if output is None else job.check(output, recorded)
        outputs.append(error if output is None else jobs.digest(output))
        if bad:
            failed += 1
            mismatched += job.recorded
            errors.append(f"job {index} ({job.type}): {bad[0]}")
        else:
            items += job.items()
    return {"wall_s": sum(job_s), "ref_wall_s": sum(ref_s), "job_s": job_s,
            "ref_job_s": ref_s, "items": items, "attempted": len(deck),
            "failed": failed, "mismatched": mismatched, "outputs": outputs,
            "errors": errors}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    deck, setup_s = _setup(args.workload, args.seed, args.jobs)
    result: dict = {"setup_s": setup_s}
    if not args.setup_only:
        import jobs
        reference = _reference_deck(args.workload, args.seed, args.jobs)
        recorded = jobs.load_recorded()
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            result.update(_run_deck(deck, reference, recorded, tracer))
        finally:
            if tracer is not None:
                tracer.restore()
        if tracer is not None:
            # on the Monte Carlo workloads every item is a completed path
            result["per_layer"] = tracer.metrics(result["items"])
            result["absent"] = tracer.absent
            if args.spans is not None:
                tracer.write_spans(args.spans)
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        import numpy
        result["env"] = {"python": sys.version.split()[0],
                         "numpy": numpy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
