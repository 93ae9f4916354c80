"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public function of ``levyclocks``
with a timing wrapper at every module global that binds it (``estimators``
imports ``sample_levy_path`` by name, ``rate`` imports
``maximize_concave``), and ``LevyModel.psi``/``psi_derivs`` on the class.
``Tracer.restore`` puts the originals back.  A name the library no longer
has is recorded as absent.

Each call is a span.  Self time is the span's duration minus the time its
child spans cover, accumulated as the spans close.  Spans are kept in
memory (up to ``MAX_SPANS``; the hot ψ calls are only counted) and written
out by ``write_spans`` at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# (layer, attribute path) of every traced function.  The layer is the
# levyclocks module that defines it; the attribute path is looked up on it.
TRACED = (
    ("models", "LevyModel.psi"),
    ("models", "LevyModel.psi_derivs"),
    ("numerics", "find_root"),
    ("numerics", "maximize_concave"),
    ("rate", "profile"),
    ("rate", "rate_curve"),
    ("rate", "rate_I"),
    ("rate", "legendre_dual"),
    ("rate", "invert_L"),
    ("paths", "path_rng"),
    ("paths", "sample_levy_path"),
    ("paths", "simulate_cauchy_modulus"),
    ("paths", "exp_functional"),
    ("paths", "log_exp_functional_total"),
    ("paths", "clock_tau_many"),
    ("estimators", "tau_ensemble"),
    ("estimators", "estimate_lln"),
    ("estimators", "estimate_clt"),
    ("estimators", "estimate_ldp_slope"),
    ("estimators", "estimate_logA_rate"),
    ("estimators", "first_passage_check"),
    ("estimators", "tilted_identity_check"),
    ("moments", "mc_exp_functional"),
    ("moments", "moment_recursion"),
    ("cli", "run"),
)

_PSI = ("models.psi", "models.psi_derivs")
MAX_SPANS = 200_000
_JUMP_CHUNK_DEFAULT = 128


class _Stat:
    __slots__ = ("calls", "total", "self_time", "psi", "points")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.psi = 0        # ψ evaluations inside the span, children included
        self.points = 0     # rows returned (rate_curve only)


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.job = -1
        self.psi_calls = 0
        self.horizon_misses = 0
        self.nodes = 0
        self.draws = 0
        self._stack: list[list] = []       # [span id, child time]
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _psi_wrapper(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self.psi_calls += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                if stack:
                    stack[-1][1] += dur
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur
        return traced

    def _span_wrapper(self, name: str, fn, on_result=None, on_error=None):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            psi0 = self.psi_calls
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[1]
                stat.psi += self.psi_calls - psi0
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, parent, self.job, name, t0, t1))
                else:
                    self.dropped_spans += 1
            if on_result is not None:
                on_result(result)
            return result
        return traced

    # -- path counters (computed from returned grid sizes) -------------------

    def _count_levy_path(self, path) -> None:
        n = len(path.times)
        self.nodes += n
        if path.jumps is None:                  # Gaussian: one normal a step
            self.draws += n - 1
        else:                                   # chunks of (gap, size) pairs
            chunk = getattr(sys.modules.get("levyclocks.paths"),
                            "_JUMP_CHUNK", _JUMP_CHUNK_DEFAULT)
            self.draws += 2 * chunk * ((n - 2) // chunk + 1)

    def _count_cauchy_path(self, path) -> None:
        n = len(path.times)
        self.nodes += n
        self.draws += (n - 1) * (path.d + 1)

    def _count_miss(self, exc) -> None:
        if type(exc).__name__ == "HorizonExceededError":
            self.horizon_misses += 1

    def _count_points(self, rows) -> None:
        self.stats["rate.rate_curve"].points += len(rows)

    # -- install / restore ---------------------------------------------------

    def install(self) -> None:
        hooks = {
            "paths.sample_levy_path": (self._count_levy_path, None),
            "paths.simulate_cauchy_modulus": (self._count_cauchy_path, None),
            "paths.clock_tau_many": (None, self._count_miss),
            "rate.rate_curve": (self._count_points, None),
        }
        package = [m for k, m in sorted(sys.modules.items())
                   if k == "levyclocks" or k.startswith("levyclocks.")]
        for layer, attr in TRACED:
            name = f"{layer}.{attr.split('.')[-1]}"
            self.stats[name] = _Stat()
            owner = sys.modules.get(f"levyclocks.{layer}")
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(last) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            if name in _PSI:
                wrapper = self._psi_wrapper(name, original)
            else:
                wrapper = self._span_wrapper(name, original, *hooks.get(
                    name, (None, None)))
            if path:                            # a method: patch the class
                self._patched.append((owner, last, original))
                setattr(owner, last, wrapper)
                continue
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, paths_completed: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}; absent names read 0."""
        s = self.stats

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {
            "models.psi.calls": (s["models.psi"].calls, "count"),
            "models.psi_derivs.calls": (s["models.psi_derivs"].calls, "count"),
            "models.psi.self_s": (s["models.psi"].self_time, "s"),
        }
        for fn in ("find_root", "maximize_concave"):
            st = s[f"numerics.{fn}"]
            out[f"numerics.{fn}.calls"] = (st.calls, "count")
            out[f"numerics.{fn}.self_s"] = (st.self_time, "s")
            out[f"numerics.{fn}.psi_per_call"] = (ratio(st.psi, st.calls),
                                                  "psi/call")
        for fn in ("profile", "rate_I"):
            out[f"rate.{fn}.calls"] = (s[f"rate.{fn}"].calls, "count")
            out[f"rate.{fn}.self_s"] = (s[f"rate.{fn}"].self_time, "s")
        curve = s["rate.rate_curve"]
        out["rate.rate_curve.self_s"] = (curve.self_time, "s")
        out["rate.rate_curve.s_per_point"] = (ratio(curve.total, curve.points),
                                              "s/point")
        out["rate.rate_curve.psi_per_point"] = (ratio(curve.psi, curve.points),
                                                "psi/point")
        for fn in ("legendre_dual", "invert_L"):
            st = s[f"rate.{fn}"]
            out[f"rate.{fn}.s_per_call"] = (ratio(st.total, st.calls),
                                            "s/call")
            out[f"rate.{fn}.psi_per_call"] = (ratio(st.psi, st.calls),
                                              "psi/call")
        for fn in ("path_rng", "sample_levy_path", "simulate_cauchy_modulus",
                   "exp_functional", "log_exp_functional_total",
                   "clock_tau_many"):
            out[f"paths.{fn}.calls"] = (s[f"paths.{fn}"].calls, "count")
            out[f"paths.{fn}.self_s"] = (s[f"paths.{fn}"].self_time, "s")
        samples = (s["paths.sample_levy_path"].calls
                   + s["paths.simulate_cauchy_modulus"].calls)
        out["paths.horizon_misses"] = (self.horizon_misses, "count")
        out["paths.useful_sample_frac"] = (ratio(paths_completed, samples),
                                           "frac")
        out["paths.nodes_per_path"] = (ratio(self.nodes, samples),
                                       "nodes/path")
        out["paths.draws"] = (self.draws, "count")
        for fn in ("tau_ensemble", "estimate_lln", "estimate_clt",
                   "estimate_ldp_slope", "estimate_logA_rate",
                   "first_passage_check", "tilted_identity_check"):
            out[f"estimators.{fn}.self_s"] = (s[f"estimators.{fn}"].self_time,
                                              "s")
        for fn in ("mc_exp_functional", "moment_recursion"):
            out[f"moments.{fn}.self_s"] = (s[f"moments.{fn}"].self_time, "s")
        out["cli.run.self_s"] = (s["cli.run"].self_time, "s")
        return out

    def write_spans(self, target: Path) -> None:
        """Spans as JSON lines: id, parent, job, name, start, end (s)."""
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w") as fh:
            fh.write(json.dumps({"dropped_spans": self.dropped_spans,
                                 "absent": self.absent}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
