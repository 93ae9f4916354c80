"""levyclocks benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload rate_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1    # the four, one by one

Workloads (see ``BENCHMARK.json``): ``rate_sweep``, ``clock_gaussian``,
``clock_jump``, ``identities_moments``.  Each run builds a seeded deck of
jobs (``workloads.py``) sized to about ``--seconds`` of work and executes
it in a fresh single-threaded worker process (``worker.py``), one job
after another (a closed loop with one client).  Every job's output is
checked (``jobs.py``); a failed or mismatching job is counted, and the run
goes on.

The machine this benchmark was written on changes speed by up to 2x for
seconds to minutes at a time, so raw times of two runs differ by more
than any useful bound.  Each job is therefore also run, right before or
after, on a frozen copy of the library as it was when the benchmark was
defined (``reference/levyclocks_seed``), and the timing metrics that
decide acceptance are ratios to it: ``wall_vs_seed`` (total job time),
``job_p50_vs_seed`` (median over jobs of the job's time ratio) and
``job_tail_vs_seed`` (ratio of the tail job times).
The raw ``wall_s``, ``paths_per_s`` or ``rate_points_per_s``,
``job_s_p50``, ``job_s_tail`` and ``failed_frac`` are printed and saved
too.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs a half-size deck twice, untraced and traced
(``tracer.py``), each in a fresh worker; checks that both produce
identical outputs; and reports the per-layer metrics and the tracing
overhead (the change of ``wall_vs_seed``).

Every metric is printed as one ``workload name value unit`` row, with the
Python and numpy versions, the core count and the seed; the last stdout
line is the JSON result.  The full result (and, for traced runs, the
spans) is written under ``.bench_out/``.

``python3 bench/record.py`` re-records the outputs the checks compare
with;
``python3 bench/selftest.py`` runs every workload at a tiny size.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from workloads import JOBS_PER_SECOND, WORKLOADS  # noqa: E402

# Fresh processes that only set up, half before and half after the timed
# run; with the main worker's own set-up they give the median that
# setup_s reports.
SETUP_PROBES = 6
# Every run ends within this many seconds, or fails.
DEADLINE_S = 170.0
# The tail job time is the slowest with at least this many jobs beyond.
TAIL_BEYOND = 10

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS")


class WorkerError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in _THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
            env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """(time, percentile) of the slowest job with TAIL_BEYOND jobs beyond."""
    ordered = sorted(values)
    rank = len(ordered) - 1
    if len(ordered) > TAIL_BEYOND:
        rank -= TAIL_BEYOND
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(setup: list[float], res: dict) -> dict[str, tuple[float, str]]:
    """The metrics that decide acceptance."""
    job_s, ref_s = res["job_s"], res["ref_job_s"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_vs_seed": (res["wall_s"] / res["ref_wall_s"], "x"),
        "job_p50_vs_seed": (statistics.median(
            [a / b for a, b in zip(job_s, ref_s)]), "x"),
        "job_tail_vs_seed": (tail(job_s)[0] / tail(ref_s)[0], "x"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_frac": (1.0 - res["failed"] / res["attempted"], "frac"),
    }


def raw_times(workload: str, res: dict) -> dict[str, tuple[float, str]]:
    """Raw times, printed and saved but too noisy here to bound."""
    wall = res["wall_s"]
    rate = "rate_points_per_s" if workload == "rate_sweep" else "paths_per_s"
    return {
        "wall_s": (wall, "s"),
        rate: (res["items"] / wall, "1/s"),
        "job_s_p50": (statistics.median(res["job_s"]), "s"),
        "job_s_tail": (tail(res["job_s"])[0], "s"),
        "failed_frac": (res["failed"] / res["attempted"], "frac"),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run(args)
    codes = [run(argparse.Namespace(**{**vars(args), "workload": workload}))
             for workload in WORKLOADS]
    return max(codes)


def run(args: argparse.Namespace) -> int:
    """One workload: set-up probes, the timed worker(s), checks, report."""
    deadline = time.monotonic() + DEADLINE_S

    n_jobs = round(JOBS_PER_SECOND[args.workload] * args.seconds
                   / (2 if args.trace else 1))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--jobs", str(max(1, n_jobs))]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        probes = 0 if args.trace else SETUP_PROBES // 2
        setup = [_worker([*common, "--setup-only"], deadline)["setup_s"]
                 for _ in range(probes)]
        res = _worker(common, deadline)
        setup.append(res["setup_s"])
        setup += [_worker([*common, "--setup-only"], deadline)["setup_s"]
                  for _ in range(probes)]
        traced = None
        if args.trace:
            traced = _worker([*common, "--trace", "--spans",
                              str(OUT / f"spans-{tag}.jsonl")], deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    correct = res["mismatched"] == 0
    shown = raw_times(args.workload, res)
    if traced is None:
        metrics = end_to_end(setup, res)
    else:
        metrics = {k: tuple(v) for k, v in traced["per_layer"].items()}
        overhead = (traced["wall_s"] / traced["ref_wall_s"]) \
            / (res["wall_s"] / res["ref_wall_s"]) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "frac")
        if res["outputs"] != traced["outputs"]:
            correct = False
            print("traced and untraced runs produced different outputs",
                  file=sys.stderr)
        correct = correct and traced["mismatched"] == 0

    for line in res["errors"][:20]:
        print(f"failed: {line}", file=sys.stderr)
    env = {**res["env"], "cores": os.cpu_count(), "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    print(f"levyclocks benchmark  workload={args.workload} seed={args.seed} "
          f"python={env['python']} numpy={env['numpy']} cores={env['cores']} "
          f"jobs={res['attempted']} failed={res['failed']} "
          f"tail=p{tail(res['job_s'])[1]:.0f}")
    absent = tuple(f"{name}." for name in (traced or {}).get("absent", ()))
    for name, (value, unit) in {**metrics, **shown}.items():
        text = "absent" if name.startswith(absent) else f"{value:.6g}"
        note = "  (raw, not bounded)" if name in shown else ""
        print(f"{args.workload:<20} {name:<42} {text:>14} {unit}{note}")

    result = {"correct": correct, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {**result, "raw": shown, "env": env, "setup_s": setup,
         "job_s": res["job_s"], "ref_job_s": res["ref_job_s"],
         "errors": res["errors"]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
