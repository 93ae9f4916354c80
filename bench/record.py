"""Re-record the outputs that the benchmark checks against.

    python3 bench/record.py

Runs every Monte Carlo job any deck can contain (the seed pool of each
job type) and the ``figures`` job, and writes ``bench/recorded.json``:
the digest of each job's Monte Carlo output, keyed by its argv, and the
figure tables.  Re-recording changes what the benchmark accepts, so it
is a benchmark change of its own.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import levyclocks.cli  # noqa: E402
import jobs  # noqa: E402
from workloads import WORKLOADS, mc_pool  # noqa: E402


def main() -> int:
    started = time.perf_counter()
    figures = jobs.run_cli(levyclocks, ["figures", "--n", "200"])
    digests = {}
    for workload in WORKLOADS:
        if workload == "rate_sweep":
            continue
        for spec in mc_pool(workload):
            job = jobs.prepare(spec, levyclocks)
            digests[job.key] = job.mc_digest(job.run())
        print(f"{workload}: {len(digests)} digests, "
              f"{time.perf_counter() - started:.0f} s", file=sys.stderr)
    jobs.RECORDED_PATH.write_text(json.dumps(
        {"figures": figures, "digests": digests}, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
