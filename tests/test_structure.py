"""Structural checks: each keeps one past refactor of the code in place.

They read the source, or what importing it loads, not its values, and
they are the structural checks of the project: the CI workflow runs them
through the tier-1 command like every other test.  Three of them, the
stdout, ``ctypes`` and CLI-import checks, are also still workflow steps of
their own (ROADMAP item 17).  The regexes run over
``src/levyclocks/*.py`` line by line, as ``grep`` would.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "levyclocks"


def matching_lines(pattern: str, paths=None) -> list[str]:
    """``file:line: text`` of each source line that ``pattern`` matches."""
    return [f"{path.name}:{k}: {line}"
            for path in (paths or sorted(SRC.glob("*.py")))
            for k, line in enumerate(path.read_text().splitlines(), start=1)
            if re.search(pattern, line)]


def run_python(script: str) -> subprocess.CompletedProcess:
    """``script`` in a fresh ``python -W error`` on ``src``: a check of
    what importing the package loads cannot run in this process, where
    the suite has loaded numpy."""
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", script], cwd=SRC.parent.parent,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, timeout=120)


def test_output_text_is_formatted_in_cli_py_only():
    assert [hit for hit in matching_lines("17g")
            if not hit.startswith("cli.py:")] == []


def test_only_cli_py_writes_to_stdout_or_stderr():
    assert [hit for hit in matching_lines(r"print\(|sys\.std(out|err)")
            if not hit.startswith("cli.py:")] == []


def test_one_philox_construction_the_one_paths_philox_rekeys():
    assert [hit for hit in
            matching_lines(r"(Philox|Generator|default_rng)[(]")
            if not re.search(r"np.random.Generator\(np.random.Philox"
                             r"\(key=0\)\)$", hit)
            and "``Philox(" not in hit] == []


def test_growing_clock_runs_are_built_in_one_place():
    # the run_paths call of estimators._clock_sample, the one miss= there
    assert sum(path.read_text().count("miss=")
               for path in SRC.glob("*.py")) == 1


def test_check_identities_takes_one_route():
    # no single check and no try in estimators.identity_checks, and no
    # branch on m or theta in the identity functions
    with open(SRC / "estimators.py") as f:
        funcs = {node.name: node for node in ast.parse(f.read()).body
                 if isinstance(node, ast.FunctionDef)}
    # the module's functions that identity_checks reaches by its calls
    reached, todo = set(), ["identity_checks"]
    while todo:
        name = todo.pop()
        reached.add(name)
        todo += [node.func.id for node in ast.walk(funcs[name])
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id in funcs
                 and node.func.id not in reached]
    second = sorted(reached & {"tilted_identity_check",
                               "first_passage_check"})
    tries = [node.lineno for node in ast.walk(funcs["identity_checks"])
             if isinstance(node, ast.Try)]
    # m = 0 and theta = 0 take the route of every other value: no if,
    # conditional expression or comparison here reads m, theta or th
    branches = sorted({
        f"{name}:{node.lineno}"
        for name in ("identity_checks", "tilted_identity_check",
                     "_tilted_result", "_first_passage_result")
        for node in ast.walk(funcs[name])
        for test in ([node.test] if isinstance(node, (ast.If, ast.IfExp))
                     else [node] if isinstance(node, ast.Compare)
                     else [])
        if any(isinstance(n, ast.Name) and n.id in ("m", "theta", "th")
               for n in ast.walk(test))})
    assert (second, tries, branches) == ([], [], [])


def test_rate_solvers_evaluate_the_exponent_through_base_triple():
    # no find_root objective in rate.py calls psi or psi_derivs
    with open(SRC / "rate.py") as f:
        tree = ast.parse(f.read())
    # functions nested in the module's functions: the find_root objectives
    nested = [inner for outer in tree.body
              if isinstance(outer, ast.FunctionDef)
              for inner in ast.walk(outer)
              if isinstance(inner, (ast.FunctionDef, ast.Lambda))
              and inner is not outer]
    calls = sorted(f"line {node.lineno}: .{node.func.attr}("
                   for inner in nested for node in ast.walk(inner)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr in ("psi", "psi_derivs"))
    # nor is psi or psi_derivs itself handed to find_root as the objective
    handed = sorted(f"line {node.lineno}: find_root(.{arg.attr}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "find_root"
                    for arg in node.args[:1]
                    if isinstance(arg, ast.Attribute)
                    and arg.attr in ("psi", "psi_derivs"))
    assert calls + handed == []


def family_comparisons(path: Path) -> list[str]:
    """``file:line`` of each Family member that a comparison reads, in
    either operand: ``is``, ``==``, ``in (...)`` and the rest."""
    return sorted({
        f"{path.name}:{node.lineno}"
        for compare in ast.walk(ast.parse(path.read_text()))
        if isinstance(compare, ast.Compare)
        for node in ast.walk(compare)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "Family"})


def test_no_family_comparison():
    # each family is declared once, by one function in models.py's table,
    # and every module reads the declaration, not the family's name
    assert [hit for path in sorted(SRC.glob("*.py"))
            for hit in family_comparisons(path)] == []


def test_digamma_and_trigamma_share_one_recurrence():
    # which models.py reads through numerics._psi_pair only
    assert len(matching_lines("while x < 12.0",
                              [SRC / "numerics.py"])) == 1
    assert matching_lines(r"\b(di|tri)gamma\(", [SRC / "models.py"]) == []


def test_the_engine_uses_numpys_public_philox_api_only():
    assert matching_lines(r"ctypes|state_address|[.]cffi") == []


IMPORT_CLI = """
import sys
before = set(sys.modules)
import levyclocks.cli  # noqa: F401
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
outside = sorted(loaded - set(sys.stdlib_module_names)
                 - {"numpy", "levyclocks"})
print(f"{len(set(sys.modules) - before)} modules loaded; outside "
      f"the standard library, numpy and levyclocks: {outside}")
sys.exit(1 if outside else 0)
"""


def test_importing_the_cli_loads_only_stdlib_numpy_and_levyclocks():
    done = run_python(IMPORT_CLI)
    assert done.returncode == 0, done.stdout + done.stderr


ANALYTIC_HALF = """
import contextlib
import io
import sys
import levyclocks
import levyclocks.cli
for argv in (
        ["profile", "--family", "brownian", "--nu", "1"],
        ["rate-curve", "--family", "sawtooth", "--beta", "1",
         "--gamma", "3", "--x-lo", "1.2", "--x-hi", "5", "--n", "20"],
        ["figures", "--n", "30"],
        ["moments", "--family", "cp-minus", "--beta", "3",
         "--gamma", "2.5", "--r-max", "8"]):
    with contextlib.redirect_stdout(io.StringIO()):
        if levyclocks.cli.run(argv) != 0:
            sys.exit(f"{argv} failed")
monte_carlo = ("numpy", "levyclocks.paths", "levyclocks.estimators")
loaded = [name for name in monte_carlo if name in sys.modules]
print(f"{len(sys.modules)} modules after the analytic commands; "
      f"of numpy, paths and estimators loaded: {loaded}")
levyclocks.tau_ensemble
missing = [name for name in monte_carlo if name not in sys.modules]
print(f"not loaded by levyclocks.tau_ensemble: {missing}")
sys.exit(1 if loaded or missing else 0)
"""


def test_the_analytic_half_loads_no_numpy():
    done = run_python(ANALYTIC_HALF)
    assert done.returncode == 0, done.stdout + done.stderr
