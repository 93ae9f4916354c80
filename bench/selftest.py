"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

For every workload, runs ``run.py`` untraced and traced with
``--seconds 1`` and checks that the result line names every metric of
``BENCHMARK.json`` (end-to-end metrics nonzero), that all outputs
matched, and that the traced run produced the same job outputs as the
untraced one.  Then checks that a copy holding only ``BENCHMARK.json``
and the benchmark directory fails without printing a result.
Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180)


def _check(workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append("correct is false: " + proc.stderr[-500:])
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            problems.append(f"metric {metric['name']}: {got}")
        elif not trace and not (math.isfinite(got["value"])
                                and got["value"] > 0):
            problems.append(f"metric {metric['name']} = {got['value']}")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def _check_bare_copy() -> list[str]:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["a copy without the program exited 0 or printed a result"]
    return []


def main() -> int:
    failed = False
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            problems = _check(workload, trace)
            print(f"{workload} trace={trace}: "
                  f"{'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"  {problem}")
            failed = failed or bool(problems)
    problems = _check_bare_copy()
    print(f"bare copy: {'ok' if not problems else 'FAIL ' + problems[0]}")
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
