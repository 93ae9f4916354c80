"""Command-line interface: subcommands, exit codes, reproducibility."""

import pytest

from levyclocks import brownian_drift, model_to_text, rate_curve, rate_curve_text
from levyclocks.cli import run


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Full `profile` stdout for each boundary case: 3a/4c, 3a/4b (untilted and
# tilted), 3b/4a and 3c/4a.
PROFILES = {
    "brownian_3a_4c": (
        ["--family", "brownian", "--nu", "1"],
        "model: family=brownian_drift nu=1.0 tilt=0.0\n"
        "m0: -0.5\n"
        "psi_m0: -0.5\n"
        "mean: 2\n"
        "tau_plus: 0\n"
        "tau_zero: inf\n"
        "tau_e: 0.5\n"
        "delta: (0, inf)\n"
        "class_tau_zero: 3a\n"
        "class_tau_plus: 4c\n"
        "ldp_status: full\n"
        "asymptote_slope: 0.5\n"
        "asymptote_intercept: -0.5\n"
        "I_at_tau_zero: inf\n"
        "Iprime_at_tau_zero: 0.5\n"
        "I_at_tau_plus: inf\n"
        "Iprime_at_tau_plus: -inf\n"),
    "sawtooth_3a_4b": (
        ["--family", "sawtooth", "--beta", "1", "--gamma", "3"],
        "model: family=saw_tooth beta=1.0 gamma=3.0 tilt=0.0\n"
        "m0: -1.2679491924311228\n"
        "psi_m0: -0.53589838486224539\n"
        "mean: 0.66666666666666674\n"
        "tau_plus: 1\n"
        "tau_zero: inf\n"
        "tau_e: 1.4999999999999998\n"
        "delta: (1, inf)\n"
        "class_tau_zero: 3a\n"
        "class_tau_plus: 4b\n"
        "ldp_status: full\n"
        "asymptote_slope: 0.53589838486224539\n"
        "asymptote_intercept: -1.2679491924311228\n"
        "b_plus: 1\n"
        "I_at_tau_zero: inf\n"
        "Iprime_at_tau_zero: 0.53589838486224539\n"
        "I_at_tau_plus: 1\n"
        "Iprime_at_tau_plus: -inf\n"),
    "sawtooth_tilted_4b": (
        ["--family", "sawtooth", "--beta", "1", "--gamma", "3", "--tilt", "1"],
        "model: family=saw_tooth beta=1.0 gamma=3.0 tilt=1.0\n"
        "m0: -2.2679491924311228\n"
        "psi_m0: -1.2858983848622454\n"
        "mean: 0.8125\n"
        "tau_plus: 1\n"
        "tau_zero: inf\n"
        "tau_e: 1.2307692307692308\n"
        "delta: (1, inf)\n"
        "class_tau_zero: 3a\n"
        "class_tau_plus: 4b\n"
        "ldp_status: full\n"
        "asymptote_slope: 1.2858983848622454\n"
        "asymptote_intercept: -2.2679491924311228\n"
        "b_plus: 0.75\n"
        "I_at_tau_zero: inf\n"
        "Iprime_at_tau_zero: 1.2858983848622454\n"
        "I_at_tau_plus: 0.75\n"
        "Iprime_at_tau_plus: -inf\n"),
    "cp_plus_3b_4a": (
        ["--family", "cp-plus", "--d", "1", "--beta", "2", "--gamma", "1"],
        "model: family=cp_plus_drift d=1.0 beta=2.0 gamma=1.0 tilt=0.0\n"
        "m0: -inf\n"
        "psi_m0: -inf\n"
        "mean: 3\n"
        "tau_plus: 0\n"
        "tau_zero: 1\n"
        "tau_e: 0.33333333333333331\n"
        "delta: (0, 1)\n"
        "class_tau_zero: 3b\n"
        "class_tau_plus: 4a\n"
        "ldp_status: full\n"
        "b_zero: 2\n"
        "I_at_tau_zero: 2\n"
        "Iprime_at_tau_zero: inf\n"
        "I_at_tau_plus: 1\n"
        "Iprime_at_tau_plus: inf\n"),
    "cp_plus_3c_4a": (
        ["--family", "cp-plus", "--d", "0", "--beta", "2", "--gamma", "1"],
        "model: family=cp_plus_drift d=0.0 beta=2.0 gamma=1.0 tilt=0.0\n"
        "m0: -inf\n"
        "psi_m0: -2\n"
        "mean: 2\n"
        "tau_plus: 0\n"
        "tau_zero: inf\n"
        "tau_e: 0.5\n"
        "delta: (0, inf)\n"
        "class_tau_zero: 3c\n"
        "class_tau_plus: 4a\n"
        "ldp_status: full\n"
        "I_at_tau_zero: inf\n"
        "Iprime_at_tau_zero: 2\n"
        "I_at_tau_plus: 1\n"
        "Iprime_at_tau_plus: inf\n"),
}


class TestProfileCommand:
    def test_sawtooth_profile(self, capsys):
        code, out, err = invoke(capsys, [
            "profile", "--family", "sawtooth", "--beta", "1", "--gamma", "3"])
        assert code == 0
        values = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert float(values["tau_e"]) == pytest.approx(1.5, rel=1e-12)
        assert values["class_tau_plus"] == "4b"
        assert values["class_tau_zero"] == "3a"
        assert "wall_time_s" in err

    @pytest.mark.parametrize("argv,expected", PROFILES.values(),
                             ids=PROFILES.keys())
    def test_stdout_pinned(self, capsys, argv, expected):
        code, out, _ = invoke(capsys, ["profile", *argv])
        assert code == 0
        assert out == expected

    def test_model_file(self, capsys, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(model_to_text(brownian_drift(1.0)))
        code, out, _ = invoke(capsys, ["profile", "--model-file", str(path)])
        assert code == 0
        assert "m0: -0.5" in out

    def test_4c_slope_matches_rate_curve(self, capsys):
        # I'(tau_plus) = -inf at 4c, spelled as rate-curve spells it.
        code, out, _ = invoke(capsys, ["profile", "--family", "brownian",
                                       "--nu", "1"])
        assert code == 0
        assert "Iprime_at_tau_plus: -inf" in out.splitlines()
        code, out, _ = invoke(capsys, [
            "rate-curve", "--family", "brownian", "--nu", "1",
            "--x-lo", "0", "--x-hi", "1", "--n", "3"])
        assert out.splitlines()[1] == "0,inf,-inf"

    def test_construction_error_exit_2(self, capsys):
        code, _, err = invoke(capsys, [
            "profile", "--family", "sawtooth", "--beta", "3", "--gamma", "1"])
        assert code == 2
        assert "constraint" in err

    def test_usage_error_exit_1(self, capsys):
        code, _, _ = invoke(capsys, ["profile", "--family", "sawtooth",
                                     "--beta", "1"])
        assert code == 1
        code, _, _ = invoke(capsys, ["no-such-command"])
        assert code == 1


class TestRateCurveCommand:
    def test_matches_library(self, capsys):
        code, out, _ = invoke(capsys, [
            "rate-curve", "--family", "brownian", "--nu", "1",
            "--x-lo", "0.1", "--x-hi", "2.0", "--n", "7"])
        assert code == 0
        expected = rate_curve_text(rate_curve(brownian_drift(1.0), 0.1, 2.0, 7))
        assert out == expected

    def test_domain_error_exit_2(self, capsys):
        code, _, _ = invoke(capsys, [
            "rate-curve", "--family", "sawtooth", "--beta", "1",
            "--gamma", "3", "--x-lo", "0.2", "--x-hi", "2.0"])
        assert code == 2
        code, out, err = invoke(capsys, [
            "rate-curve", "--family", "brownian", "--nu", "1",
            "--x-lo", "0.5", "--x-hi", "inf", "--n", "3"])
        assert code == 2
        assert out == ""
        assert "error:" in err


class TestFigures:
    def test_five_files(self, capsys, tmp_path):
        code, _, _ = invoke(capsys, ["--out", str(tmp_path), "figures",
                                     "--n", "20"])
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv",
                         "fig5.csv"]
        header = (tmp_path / "fig1.csv").read_text().splitlines()[0]
        assert header == "x,I,Iprime"

    def test_fig1_matches_rate_curve(self, capsys, tmp_path):
        invoke(capsys, ["--out", str(tmp_path), "figures", "--n", "20"])
        expected = rate_curve_text(rate_curve(brownian_drift(1.0), 0.05, 3.0,
                                              20))
        assert (tmp_path / "fig1.csv").read_text() == expected


class TestStochasticCommands:
    def test_seed_required(self, capsys):
        code, _, _ = invoke(capsys, [
            "lln", "--family", "sawtooth", "--beta", "1", "--gamma", "3",
            "--t", "100"])
        assert code == 1

    def test_lln_runs_and_reproduces(self, capsys):
        argv = ["lln", "--family", "sawtooth", "--beta", "1", "--gamma", "3",
                "--t", "100", "--t", "1000", "--paths", "64", "--seed", "7"]
        code1, out1, _ = invoke(capsys, argv)
        code2, out2, _ = invoke(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[0] == "estimator: lln"

    def test_lln_cauchy(self, capsys):
        code, out, _ = invoke(capsys, [
            "lln", "--family", "cauchy", "--d", "3", "--t", "50",
            "--paths", "16", "--step", "0.05", "--seed", "3"])
        assert code == 0
        assert "cauchy_modulus d=3" in out
        code, _, err = invoke(capsys, [
            "lln", "--family", "cauchy", "--d", "3", "--t", "50",
            "--paths", "3", "--seed", "1", "--alpha", "2"])
        assert code == 2
        assert ("error: the Cauchy modulus is a pssMp of index 1; "
                "cfg.alpha must be 1") in err.splitlines()

    def test_simulate_table(self, capsys):
        code, out, _ = invoke(capsys, [
            "simulate", "--family", "brownian", "--nu", "1", "--t", "50",
            "--paths", "8", "--step", "0.02", "--seed", "5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "path_id,tau"
        assert len(lines) == 9

    def test_clt(self, capsys):
        code, out, _ = invoke(capsys, [
            "clt", "--family", "brownian", "--nu", "1", "--t", "2980.0",
            "--paths", "64", "--step", "0.02", "--seed", "5"])
        assert code == 0
        assert "target_variance: 0.5" in out

    def test_ldp(self, capsys):
        code, out, _ = invoke(capsys, [
            "ldp", "--family", "brownian", "--nu", "1", "--x", "1.0",
            "--t", "403", "--t", "2981", "--t", "22026",
            "--paths", "400", "--step", "0.02", "--seed", "5"])
        assert code == 0
        assert "reference_I: 0.125" in out

    def test_moments_ledger(self, capsys):
        code, out, _ = invoke(capsys, [
            "moments", "--family", "brownian", "--nu", "1", "--r-max", "3"])
        assert code == 0
        assert out.splitlines()[0] == "s,value,method,stderr,finite"
        assert out.splitlines()[1].startswith("-1,2,exact")

    def test_moments_mc_needs_seed(self, capsys):
        code, _, _ = invoke(capsys, [
            "moments", "--family", "brownian", "--nu", "1", "--r-max", "2",
            "--mc-s", "-1"])
        assert code == 1

    def test_check_identities(self, capsys):
        code, out, _ = invoke(capsys, [
            "check-identities", "--family", "brownian", "--nu", "1",
            "--paths", "400", "--step", "0.02", "--seed", "5",
            "--m", "1", "--t", "2", "--a", "1", "--theta", "-1",
            "--t-fp", "50"])
        assert code == 0
        assert "fundamental_relation_max_abs_err: " in out
        assert "tilted_z" in out
        assert "first_passage_analytic_L" in out
        err = float(next(line.split(": ")[1] for line in out.splitlines()
                         if line.startswith("fundamental_relation")))
        assert err <= 1e-12

    def test_check_identities_two_thetas(self, capsys):
        # one ensemble serves both: each group equals the run with that
        # theta alone
        argv = ["check-identities", "--family", "brownian", "--nu", "1",
                "--paths", "60", "--step", "0.02", "--seed", "5",
                "--t-fp", "50"]
        code, out, _ = invoke(capsys, [*argv, "--theta", "-0.5",
                                       "--theta", "-1"])
        assert code == 0
        lines = out.splitlines()
        start = lines.index("first_passage_theta: -0.5")
        assert lines[start + 5] == "first_passage_theta: -1"
        for theta, at in (("-0.5", start), ("-1", start + 5)):
            code, one, _ = invoke(capsys, [*argv, "--theta", theta])
            assert code == 0
            assert one.splitlines() == lines[:start] + lines[at + 1:at + 5]

    def test_check_identities_other_index(self, capsys):
        code, out, _ = invoke(capsys, [
            "check-identities", "--family", "brownian", "--nu", "1",
            "--paths", "20", "--seed", "3", "--alpha", "1.5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[2].startswith("fundamental_relation_max_abs_err: ")
        assert lines[3:] == [
            "tilted: skipped (stated for clocks of index 1)",
            "first_passage: skipped (stated for clocks of index 1)"]

    def test_horizon_exit_3(self, capsys):
        # seed 2 contains a slow path that misses the undoubled horizon
        code, _, err = invoke(capsys, [
            "simulate", "--family", "sawtooth", "--beta", "1", "--gamma", "3",
            "--t", "100", "--paths", "200", "--seed", "2",
            "--max-doublings", "0"])
        assert code == 3
        assert "horizon" in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--family", "brownian", "--nu", "1", "--t", "inf"],
        ["simulate", "--family", "brownian", "--nu", "1", "--t", "nan"],
        ["simulate", "--family", "cauchy", "--d", "3", "--t", "inf"],
        ["simulate", "--family", "brownian", "--nu", "1", "--t", "50",
         "--step", "inf"],
        ["lln", "--family", "brownian", "--nu", "1", "--t", "inf"],
        ["logA", "--family", "brownian", "--nu", "1", "--t", "inf"],
        ["check-identities", "--family", "brownian", "--nu", "1",
         "--t-fp", "inf"],
        ["ldp", "--family", "brownian", "--nu", "1", "--x", "1", "--t", "10",
         "--t", "20", "--t", "40", "--eps", "-1"],
        ["ldp", "--family", "brownian", "--nu", "1", "--x", "1", "--t", "10",
         "--t", "20", "--t", "40", "--eps", "nan"],
    ], ids=["simulate_inf", "simulate_nan", "simulate_cauchy_inf",
            "simulate_step_inf", "lln_inf", "logA_inf", "identities_inf",
            "ldp_eps_negative", "ldp_eps_nan"])
    def test_non_finite_or_empty_window_exit_2(self, capsys, argv):
        # the flags of each case come last and win over these
        code, out, err = invoke(capsys, [argv[0], "--paths", "2", "--step",
                                         "0.05", "--seed", "1", *argv[1:]])
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("argv", [
        ["check-identities", "--t-fp", "1"],
        ["check-identities", "--t-fp", "0.5"],
        ["clt", "--t", "1"],
        ["clt", "--t", "0.5"],
    ], ids=["identities_t1", "identities_t_half", "clt_t1", "clt_t_half"])
    def test_log_t_needs_t_above_1_exit_2(self, capsys, argv):
        code, out, err = invoke(capsys, [argv[0], "--family", "brownian",
                                         "--nu", "1", "--seed", "1",
                                         "--paths", "10", *argv[1:]])
        assert code == 2
        assert out == ""
        assert "must satisfy t > 1" in err


def test_entry_point_runs():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "levyclocks.cli", "profile", "--family",
         "brownian", "--nu", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "tau_e: 0.5" in proc.stdout


def test_runs_in_one_process_match_separate_runs(capsys):
    # The parser is built once per process; flags of one run (--tilt,
    # --gamma) must not carry over into the next.
    import subprocess
    import sys
    first = ["profile", "--family", "brownian", "--nu", "1", "--tilt", "0.25"]
    curve = ["rate-curve", "--family", "sawtooth", "--beta", "1", "--gamma",
             "3", "--x-lo", "1.5", "--x-hi", "4", "--n", "5"]
    usage = ["profile", "--family", "sawtooth", "--beta", "1"]
    again = ["profile", "--family", "brownian", "--nu", "1"]
    results = [invoke(capsys, argv)[:2] for argv in (first, curve, usage,
                                                      again)]
    for argv, (code, out) in zip((first, curve, usage, again), results):
        proc = subprocess.run(
            [sys.executable, "-m", "levyclocks.cli", *argv],
            capture_output=True, text=True)
        assert (code, out) == (proc.returncode, proc.stdout)
    assert [code for code, _ in results] == [0, 0, 1, 0]
    assert "tilt=0.0" in results[3][1]
