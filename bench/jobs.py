"""Execution and output checks of single benchmark jobs.

``prepare`` turns a deck entry into a callable job on one copy of the
library (the program under test, or the frozen reference copy in
``reference/``), building its model where the job calls the library
directly; ``Job.run`` executes it and returns its output text;
``Job.check`` compares that output with the digests and reference tables
in ``recorded.json`` and with the analytic properties the test suite
asserts, and returns the list of mismatches.  Checks never raise: a
mismatch is counted by the caller and the run goes on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

from workloads import CHECK_POINTS, model_flags

RECORDED_PATH = Path(__file__).with_name("recorded.json")

_FAMILY_VALUES = {
    "brownian": "brownian_drift",
    "cp-plus": "cp_plus_drift",
    "cp-minus": "cp_minus_drift",
    "sawtooth": "saw_tooth",
    "stable": "stable_conditioned",
    "csbp": "csbp_immigration",
    "hypergeometric": "hypergeometric_stable",
}

# Tolerances of tests/test_rate.py: 1e-8 on I and on I - x psi*(1/x),
# 5e-5 on I', 1e-9 max(1, |m|) on the L round trip.  The 1e-8 bounds are
# absolute there, on models whose I is O(1); here they scale with
# max(1, |I|) because the draws span six decades of scale.
TOL_I = 1e-8
TOL_SLOPE = 5e-5
TOL_L = 1e-9


class JobFailed(Exception):
    """The program returned an error for this job."""


def load_recorded() -> dict:
    return json.loads(RECORDED_PATH.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def run_cli(lib, argv: list[str]) -> str:
    """``lib.cli.run(argv)`` with stdout captured; raises on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.run(argv)
    if code != 0:
        lines = err.getvalue().strip().splitlines() or ["(no message)"]
        raise JobFailed(f"exit {code}: {lines[-1]}")
    return out.getvalue()


def _close(value: float, ref: float, tol: float) -> bool:
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    return abs(value - ref) <= tol


def _key_values(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    start = lines.index(header) + 1
    return [line.split(",") for line in lines[start:] if "," in line]


# --------------------------------------------------------------------------
# Monte Carlo jobs (and the figures job): cli.run with captured stdout.
# --------------------------------------------------------------------------

def _saw_tooth_L(beta: float, gamma: float, theta: float) -> float:
    # psi(m) = -theta  <=>  m^2 + (gamma - beta + theta) m + theta gamma = 0
    b = gamma - beta + theta
    return -(-b + math.sqrt(b * b - 4.0 * theta * gamma)) / 2.0


def _ledger_reference(family: str, r_max: int = 10) -> list[float]:
    """E I^-1 .. E I^-(r_max+1) from the recursion, in closed form."""
    if family == "brownian":                    # nu = 1
        psi, value = (lambda r: 2.0 * r * (r + 1.0)), 2.0
    else:                                       # saw tooth (1, 3)
        psi, value = (lambda r: r * (2.0 + r) / (3.0 + r)), 1.0 - 1.0 / 3.0
    out = [value]
    for r in range(1, r_max + 1):
        value *= psi(float(r)) / r
        out.append(value)
    return out


def _split_cli_output(job_type: str, text: str) -> tuple[str, list[str]]:
    """(Monte Carlo part of the output, analytic mismatches)."""
    bad: list[str] = []
    lines = text.splitlines()
    if job_type.startswith("simulate"):
        taus = [float(row[1]) for row in _csv_rows(text, "path_id,tau")]
        log_t = 8.0                              # all jobs use t = e^8
        if job_type == "simulate_cp_plus" and \
                max(taus) > math.log1p(math.exp(log_t)) * (1.0 + 1e-13):
            bad.append("cp_plus tau above log(1 + t)")
        if job_type == "simulate_saw_tooth" and \
                min(taus) < log_t * (1.0 - 1e-13):
            bad.append("saw_tooth tau below log t")
        return text, bad
    if job_type in ("lln_cauchy", "clt_brownian", "logA_brownian"):
        ref = {"lln_cauchy": 2.0 / math.pi, "logA_brownian": 2.0,
               "clt_brownian": 0.0}[job_type]
        header = "t,estimate,stderr,reference"
        head = lines[:lines.index(header) + 1]
        rows = _csv_rows(text, header)
        for row in rows:
            if not _close(float(row[3]), ref, 1e-12):
                bad.append(f"reference {row[3]} != {ref!r}")
        kv = _key_values(text)
        if job_type == "clt_brownian" and kv.get("target_variance") != "0.5":
            bad.append(f"target_variance {kv.get('target_variance')}")
        mc = [line for line in head if not line.startswith("target_variance")]
        mc += [",".join(row[:3]) for row in rows]
        return "\n".join(mc), bad
    if job_type == "ldp_brownian":
        ref = float(_key_values(text)["reference_I"])
        x = 1.0                                  # I(x) for nu = 1
        if not _close(ref, (1.0 - 2.0 * x) ** 2 / (8.0 * x), TOL_I):
            bad.append(f"reference_I {ref!r} != 0.125")
        return "\n".join(l for l in lines
                         if not l.startswith("reference_I")), bad
    if job_type.startswith("moments"):
        family = "brownian" if job_type.endswith("brownian") else "sawtooth"
        ledger = _csv_rows(text, "s,value,method,stderr,finite")
        ledger = ledger[:ledger.index(["s", "estimate", "stderr", "n_paths",
                                       "horizon", "tail_bound"])]
        for row, ref in zip(ledger, _ledger_reference(family), strict=True):
            if not _close(float(row[1]), ref, 1e-12 * abs(ref)):
                bad.append(f"ledger E I^{row[0]} = {row[1]} != {ref!r}")
        mc_row = _csv_rows(text, "s,estimate,stderr,n_paths,horizon,"
                                 "tail_bound")[0]
        mean = 2.0 if family == "brownian" else 2.0 / 3.0
        horizon = max(20.0, 10.0 / mean)
        tail = (2.0 / mean) * math.exp(-0.5 * mean * horizon)
        if float(mc_row[4]) != horizon or \
                not _close(float(mc_row[5]), tail, 1e-12 * tail):
            bad.append(f"horizon/tail_bound {mc_row[4]}, {mc_row[5]}")
        return ",".join(mc_row[:4]), bad
    if job_type.startswith("identities"):
        value = float(_key_values(text)["first_passage_analytic_L"])
        if job_type.endswith("brownian"):
            ref = (1.0 - math.sqrt(3.0)) / 2.0   # nu = 1, theta = -1
        else:
            ref = _saw_tooth_L(1.0, 3.0, -1.0)
        if not _close(value, ref, TOL_L * max(1.0, abs(ref))):
            bad.append(f"analytic_L {value!r} != {ref!r}")
        return "\n".join(l for l in lines
                         if not l.startswith("first_passage_analytic_L")), bad
    raise ValueError(f"unknown job type {job_type!r}")


def _figure_tables(text: str) -> list[list[list[float]]]:
    tables = []
    for line in text.splitlines():
        if line == "x,I,Iprime":
            tables.append([])
        else:
            tables[-1].append([float(v) for v in line.split(",")])
    return tables


def _check_figures(text: str, reference: str) -> list[str]:
    got, ref = _figure_tables(text), _figure_tables(reference)
    if [len(t) for t in got] != [len(t) for t in ref]:
        return ["figure tables differ in shape"]
    bad = []
    for k, (table, ref_table) in enumerate(zip(got, ref), start=1):
        for (x, i_val, slope), (rx, ri, rs) in zip(table, ref_table):
            if not (_close(x, rx, 1e-12 * max(1.0, abs(rx)))
                    and _close(i_val, ri, TOL_I)
                    and _close(slope, rs, TOL_SLOPE)):
                bad.append(f"fig{k} row x={x!r}: ({i_val!r}, {slope!r}) vs "
                           f"({ri!r}, {rs!r})")
    return bad


class CliJob:
    # Output recorded at the reference commit: any failure is a regression.
    recorded = True

    def __init__(self, spec: dict, lib):
        self.lib = lib
        self.type = spec["type"]
        self.argv = spec["argv"]
        self.paths = spec["paths"]
        self.key = " ".join(self.argv)

    def run(self) -> str:
        return run_cli(self.lib, self.argv)

    def items(self) -> int:
        """Paths completed, or rate points produced by ``figures``."""
        if self.type == "figures":
            return 5 * int(self.argv[-1])
        if self.type.startswith("identities"):
            # fundamental relation, both tilted ensembles, first passage
            return min(self.paths, 64) + 2 * self.paths + self.paths
        return self.paths

    def check(self, output: str, recorded: dict) -> list[str]:
        if self.type == "figures":
            return _check_figures(output, recorded["figures"])
        mc_text, bad = _split_cli_output(self.type, output)
        want = recorded["digests"].get(self.key)
        if want is None:
            bad.append("no recorded digest for this job")
        elif digest(mc_text) != want:
            bad.append("Monte Carlo output differs from the recorded digest")
        return bad

    def mc_digest(self, output: str) -> str:
        return digest(_split_cli_output(self.type, output)[0])


# --------------------------------------------------------------------------
# rate_sweep draws: profile, rate-curve, then direct library calls.
# --------------------------------------------------------------------------

class DrawJob:
    # Checked for properties only; the reference commit fails some draws.
    recorded = False

    def __init__(self, spec: dict, lib):
        self.lib = lib
        self.type = spec["type"]
        self.flags = model_flags(spec["family"], spec["params"])
        self.points = spec["points"]
        self.model = lib.make_model(_FAMILY_VALUES[spec["family"]],
                                    spec["params"])
        self.values: dict = {}

    def run(self) -> str:
        lib, model = self.lib, self.model
        prof_text = run_cli(lib, ["profile", *self.flags])
        kv = _key_values(prof_text)
        tau_plus, tau_zero, tau_e = (float(kv[k]) for k in
                                     ("tau_plus", "tau_zero", "tau_e"))
        hi_edge = tau_zero if math.isfinite(tau_zero) else 8.0 * tau_e
        x_lo = tau_plus + 0.05 * (hi_edge - tau_plus)
        x_hi = tau_plus + 0.95 * (hi_edge - tau_plus)
        curve_text = run_cli(lib, [
            "rate-curve", *self.flags, "--x-lo", repr(x_lo),
            "--x-hi", repr(x_hi), "--n", str(self.points)])
        curve = [[float(v) for v in row]
                 for row in _csv_rows(curve_text, "x,I,Iprime")]

        prof = lib.profile(model)
        step = (len(curve) - 1) // (CHECK_POINTS - 1)
        picks = [curve[k * step] for k in range(CHECK_POINTS)]
        rate = [lib.rate_I(model, row[0], prof) for row in picks]
        dual = [lib.legendre_dual(model, 1.0 / row[0]) for row in picks]
        at_tau_e = lib.rate_I(model, prof.tau_e, prof)

        lo = prof.m0 if math.isfinite(prof.m0) else -6.0
        hi = model.m_plus if math.isfinite(model.m_plus) else 6.0
        ms = [lo + f * (hi - lo) for f in (0.05, 0.35, 0.65, 0.95)]
        ms = [m for m in ms if m != 0.0]
        thetas = [-model.psi(m) for m in ms]
        inverse = [lib.invert_L(model, th, prof) for th in thetas]

        self.values = {"curve": curve, "picks": picks, "rate": rate,
                       "dual": dual, "at_tau_e": at_tau_e, "ms": ms,
                       "inverse": inverse}
        return (prof_text + curve_text +
                repr((rate, dual, at_tau_e, thetas, inverse)))

    def items(self) -> int:
        """I, psi* and L values produced."""
        return self.points + 3 * CHECK_POINTS + 1

    def check(self, output: str, recorded: dict) -> list[str]:
        v = self.values
        bad = []
        if not all(row[1] >= 0.0 for row in v["curve"]):
            bad.append("I < 0 (or NaN) on the rate curve")
        if v["at_tau_e"] != 0.0:
            bad.append(f"I(tau_e) = {v['at_tau_e']!r}")
        for row, i_val, dual in zip(v["picks"], v["rate"], v["dual"]):
            x = row[0]
            if i_val != row[1]:
                bad.append(f"rate_I({x!r}) = {i_val!r} but the curve has "
                           f"{row[1]!r}")
            if not _close(i_val, x * dual, TOL_I * max(1.0, abs(i_val))):
                bad.append(f"I({x!r}) = {i_val!r} vs x psi*(1/x) = "
                           f"{x * dual!r}")
        for m, inv in zip(v["ms"], v["inverse"]):
            if not _close(inv, -m, TOL_L * max(1.0, abs(m))):
                bad.append(f"L(-psi({m!r})) = {inv!r}")
        return bad


def prepare(spec: dict, lib):
    """The job of one deck entry, run on the library package ``lib``."""
    return (DrawJob if spec["kind"] == "draw" else CliJob)(spec, lib)
