"""Command-line interface: subcommands, exit codes, reproducibility."""

import pytest

from levyclocks import (
    EvaluationError,
    brownian_drift,
    model_to_text,
    rate_curve,
)
from levyclocks import cli
from levyclocks.cli import run


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_table(text):
    """(header, rows of floats) of a CSV table as the CLI writes it."""
    header, *lines = text.splitlines()
    return header, [tuple(map(float, line.split(","))) for line in lines]


# tau(10) of paths 0-2 of cp-plus (150, 40, 1), seed 1: A overflows near
# Lévy time 3.7, before the first rung, 4
CP_PLUS_OVERFLOW_TAUS = [0.027918612844430146, 0.034182479858904977,
                         0.029503703871555476]

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

    def test_tiny_gamma(self, capsys):
        # (gamma - m)^2 underflows to 0 near m = 0: psi' = -1 + beta/gamma
        # is formed from beta/g and gamma/g
        code, out, _ = invoke(capsys, [
            "profile", "--family", "cp-minus", "--beta", "2", "--gamma",
            "1e-300"])
        assert code == 0
        values = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert float(values["mean"]) == pytest.approx(2e300, rel=1e-12)
        assert float(values["tau_e"]) == pytest.approx(
            5e-301, rel=1e-12, abs=0.0)
        assert values["class_tau_zero"] == "3a"

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

    def test_tiny_kappa(self, capsys):
        # kappa^2 underflows to 0 in trigamma's 1/kappa^2, which is +inf
        code, out, _ = invoke(capsys, [
            "profile", "--family", "csbp", "--kappa", "1e-200", "--delta",
            "1", "--c", "1"])
        assert code == 0
        values = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert float(values["mean"]) == pytest.approx(1e200, rel=1e-12)
        assert values["class_tau_zero"] == "3a"

    @pytest.mark.parametrize("argv,flag", [
        (["lln", "--family", "cauchy", "--d", "3", "--tilt", "5", "--t",
          "50", "--paths", "4", "--step", "0.05", "--seed", "1"], "--tilt"),
        (["profile", "--family", "brownian", "--nu", "1", "--gamma", "7"],
         "--gamma"),
    ], ids=["cauchy_tilt", "brownian_gamma"])
    def test_flag_the_model_does_not_take_exit_1(self, capsys, argv, flag):
        code, out, err = invoke(capsys, argv)
        assert code == 1
        assert out == ""
        assert f"does not take {flag}" in err

    @pytest.mark.parametrize("extra", [["--family", "brownian"],
                                       ["--nu", "1"], ["--tilt", "0"]])
    def test_model_file_takes_no_model_flags_exit_1(self, capsys, tmp_path,
                                                      extra):
        path = tmp_path / "model.txt"
        path.write_text(model_to_text(brownian_drift(1.0)))
        code, out, err = invoke(capsys, ["profile", "--model-file",
                                         str(path), *extra])
        assert code == 1
        assert out == ""
        assert f"--model-file does not take {extra[0]}" in err

    def test_package_errors_exit_2(self, capsys, monkeypatch):
        # any error of the package, the root solver's included, exits 2
        def fail(model):
            raise EvaluationError("no root")
        monkeypatch.setattr(cli, "profile", fail)
        code, out, err = invoke(capsys, ["profile", "--family", "brownian",
                                         "--nu", "1"])
        assert code == 2
        assert out == ""
        assert "error: no root" in err.splitlines()


    # Each family's value, its short name and the flags of one valid model.
    FAMILY_NAMES = [
        ("brownian_drift", "brownian", ["--nu", "1"]),
        ("cp_plus_drift", "cp-plus", ["--d", "1", "--beta", "2", "--gamma",
                                      "1"]),
        ("cp_minus_drift", "cp-minus", ["--beta", "2", "--gamma", "1"]),
        ("saw_tooth", "sawtooth", ["--beta", "1", "--gamma", "3"]),
        ("stable_conditioned", "stable", ["--alpha-par", "1.5", "--c", "1"]),
        ("csbp_immigration", "csbp", ["--kappa", "0.5", "--delta", "0.6",
                                      "--c", "1"]),
        ("hypergeometric_stable", "hypergeometric", ["--alpha-par", "1",
                                                     "--d", "3"]),
    ]

    @pytest.mark.parametrize("value,short,flags", FAMILY_NAMES,
                             ids=[short for _, short, _ in FAMILY_NAMES])
    def test_family_names_in_any_case(self, capsys, value, short, flags):
        outs = set()
        for name in (value, short):
            for spelled in (name, name.upper(), name.title()):
                code, out, _ = invoke(capsys, ["profile", "--family",
                                               spelled, *flags])
                assert code == 0
                outs.add(out)
        assert len(outs) == 1
        assert outs.pop().startswith(f"model: family={value} ")

    def test_unknown_family_exit_1(self, capsys):
        code, out, err = invoke(capsys, ["profile", "--family", "Saw-Tooth",
                                         "--beta", "1", "--gamma", "3"])
        assert code == 1
        assert out == ""
        assert "unknown family 'Saw-Tooth'" in err


class TestRateCurveCommand:
    def test_matches_library(self, capsys):
        code, out, _ = invoke(capsys, [
            "rate-curve", "--family", "brownian", "--nu", "1",
            "--x-lo", "0.1", "--x-hi", "2.0", "--n", "7"])
        assert code == 0
        expected = rate_curve(brownian_drift(1.0), 0.1, 2.0, 7)
        assert csv_table(out) == ("x,I,Iprime", expected)

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
        expected = rate_curve(brownian_drift(1.0), 0.05, 3.0, 20)
        assert csv_table((tmp_path / "fig1.csv").read_text()) == (
            "x,I,Iprime", expected)


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
        # below the square root of double range every r^2 is finite
        code, out, _ = invoke(capsys, [
            "lln", "--family", "cauchy", "--d", "3", "--t", "1e150",
            "--paths", "2", "--seed", "1"])
        assert code == 0
        assert out.endswith("\n9.9999999999999998e+149,0.69135868838077075,"
                            "0.030698972170841443,0.63661977236758127\n")
        code, _, err = invoke(capsys, [
            "lln", "--family", "cauchy", "--d", "3", "--t", "50",
            "--paths", "3", "--seed", "1", "--alpha", "2"])
        assert code == 2
        assert ("error: the Cauchy modulus is a pssMp of index 1; "
                "cfg.alpha must be 1") in err.splitlines()

    @pytest.mark.parametrize("d", ["3.7", "nan", "inf"])
    def test_cauchy_dimension_not_integer_exit_2(self, capsys, d):
        code, out, err = invoke(capsys, [
            "lln", "--family", "cauchy", "--d", d, "--t", "100",
            "--paths", "5", "--seed", "1"])
        assert code == 2
        assert out == ""
        assert "error: Cauchy modulus requires an integer dimension" in err

    def test_simulate_table(self, capsys):
        code, out, _ = invoke(capsys, [
            "simulate", "--family", "brownian", "--nu", "1", "--t", "50",
            "--paths", "8", "--step", "0.02", "--seed", "5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "path_id,tau"
        assert len(lines) == 9

    @pytest.mark.parametrize("alpha,seed,row", [
        ("1", "7", "16,1.9050881545350582"),
        ("2", "0", "25,1.2604585436555167"),
    ], ids=["alpha_1", "alpha_2"])
    def test_simulate_weight_past_both_ends_of_range(self, capsys, alpha,
                                                     seed, row):
        # the row holds a segment where exp(alpha xi) underflows to 0 and
        # expm1(z)/z overflows; its weight, formed in log space, leaves
        # A(horizon) finite, so the row is served, not a horizon miss
        code, out, _ = invoke(capsys, [
            "simulate", "--family", "sawtooth", "--beta", "0.0104",
            "--gamma", "0.01042", "--alpha", alpha, "--t", "5.72",
            "--paths", "50", "--seed", seed])
        assert code == 0
        assert row in out.splitlines()

    def test_simulate_deep_jumps(self, capsys):
        # rows whose A, or the clock's remainder rem exp(-xi_k), passes
        # double range in an intermediate though the result is finite: the
        # rows print the clocks mpmath gives on their nodes, not the ends
        # of the segments the targets were inverted on
        code, out, _ = invoke(capsys, [
            "simulate", "--family", "sawtooth", "--beta", "0.002",
            "--gamma", "0.003", "--t", "1.9216758284884567e+46",
            "--paths", "145", "--seed", "0"])
        assert code == 0
        rows = out.splitlines()
        for row in ("53,5218.8477453898549", "72,935.82669559863302",
                    "144,2845.5228664506349"):
            assert row in rows

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
            "--m", "1", "--t", "2", "--theta", "-1",
            "--t-fp", "50"])
        assert code == 0
        assert "fundamental_relation_max_abs_err: " in out
        assert "tilted_z" in out
        assert "first_passage_analytic_L" in out
        err = float(next(line.split(": ")[1] for line in out.splitlines()
                         if line.startswith("fundamental_relation")))
        assert err <= 1e-12

    def test_check_identities_has_no_a(self, capsys):
        # the start point is --start, as for the fundamental relation
        code, _, err = invoke(capsys, [
            "check-identities", "--family", "brownian", "--nu", "1",
            "--paths", "20", "--seed", "5", "--a", "1"])
        assert code == 1
        assert "usage error" in err

    def test_drift_condition_exit_2(self, capsys):
        # psi'(0) = -2: refused before any path, not after the ladder
        code, out, err = invoke(capsys, [
            "lln", "--family", "brownian", "--nu", "1", "--tilt", "-1",
            "--t", "100", "--seed", "1"])
        assert code == 2
        assert out == ""
        assert "drift condition violated" in err

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

    @pytest.mark.parametrize("argv", [
        ["simulate", "--family", "cp-plus", "--d", "1", "--beta", "1e13",
         "--gamma", "1", "--t", "10", "--paths", "1", "--seed", "1"],
        ["simulate", "--family", "brownian", "--nu", "1", "--t", "10",
         "--step", "1e-14", "--paths", "1", "--seed", "1"],
    ], ids=["jump_events", "gaussian_steps"])
    def test_refused_allocation_exit_2(self, capsys, argv):
        # each asks for an array of more than 2^47 bytes, past the x86-64
        # user address space, which every machine refuses at once
        code, out, err = invoke(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_horizon_exit_3(self, capsys):
        # seed 2 contains a slow path that misses the undoubled horizon
        code, _, err = invoke(capsys, [
            "simulate", "--family", "sawtooth", "--beta", "1", "--gamma", "3",
            "--t", "100", "--paths", "200", "--seed", "2",
            "--max-doublings", "0"])
        assert code == 3
        assert "horizon" in err
        # the tilted side draws paths n_paths .. 2 n_paths - 1: row 65 of
        # its run is path 265
        code, _, err = invoke(capsys, [
            "check-identities", "--family", "brownian", "--nu", "1", "--m",
            "-0.45", "--t", "1000", "--step", "0.05", "--paths", "200",
            "--seed", "1", "--max-doublings", "1"])
        assert code == 3
        assert ("horizon error: tilted path 265 cannot reach clock target "
                "1000.0 within horizon 138.15510557964276 after 1 "
                "doublings") in err

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
        ["ldp", "--family", "brownian", "--nu", "1", "--x", "1", "--t", "100",
         "--t", "100", "--t", "100"],
        ["lln", "--family", "brownian", "--nu", "1", "--t", "100",
         "--max-doublings", "1100"],
        # more than 2^53 Gaussian steps; a geometric grid that never grows
        ["simulate", "--family", "brownian", "--nu", "1", "--t", "5",
         "--step", "1e-300"],
        ["lln", "--family", "cauchy", "--d", "3", "--t", "5",
         "--step", "1e-300"],
        # a Poisson mean of more than 2^53 events by the horizon
        ["logA", "--family", "cp-plus", "--d", "1", "--beta", "2", "--gamma",
         "1", "--t", "1e20", "--paths", "2", "--seed", "1"],
        ["logA", "--family", "sawtooth", "--beta", "1", "--gamma", "3",
         "--t", "1e300", "--paths", "2", "--seed", "1"],
        # every first-passage weight exp(theta tau) underflows to 0
        ["check-identities", "--family", "brownian", "--nu", "1",
         "--paths", "50", "--theta", "-1000"],
        ["check-identities", "--family", "sawtooth", "--beta", "1",
         "--gamma", "3", "--paths", "50", "--theta", "-400"],
        # a Cauchy-modulus r^2 past double range
        ["lln", "--family", "cauchy", "--d", "3", "--t", "1e154", "--step",
         "0.01"],
        ["lln", "--family", "cauchy", "--d", "3", "--t", "1e300", "--step",
         "0.01"],
    ], ids=["simulate_inf", "simulate_nan", "simulate_cauchy_inf",
            "simulate_step_inf", "lln_inf", "logA_inf", "identities_inf",
            "ldp_eps_negative", "ldp_eps_nan", "ldp_repeated_t",
            "lln_max_doublings_1100", "simulate_step_1e-300",
            "lln_cauchy_step_1e-300", "logA_cp_plus_t_1e20",
            "logA_sawtooth_t_1e300", "identities_theta_-1000",
            "identities_sawtooth_theta_-400", "lln_cauchy_t_1e154",
            "lln_cauchy_t_1e300"])
    def test_non_finite_or_empty_window_exit_2(self, capsys, argv):
        # the flags of each case come last and win over these
        code, out, err = invoke(capsys, [argv[0], "--paths", "2", "--step",
                                         "0.05", "--seed", "1", *argv[1:]])
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("argv,taus", [
        (["--family", "cp-plus", "--d", "150", "--beta", "40", "--gamma",
          "1", "--t", "10", "--paths", "3"], CP_PLUS_OVERFLOW_TAUS),
        (["--family", "cp-plus", "--d", "150", "--beta", "40", "--gamma",
          "1", "--t", "10", "--paths", "100"], CP_PLUS_OVERFLOW_TAUS),
        (["--family", "brownian", "--nu", "120", "--t", "1e250", "--step",
          "1", "--paths", "4"], [2.0] * 4),
    ], ids=["cp_plus_3_paths", "cp_plus_100_paths", "brownian_t_1e250"])
    def test_overflow_exit_0_without_warnings(self, capsys, argv, taus):
        # A overflows on every row before the horizon it is drawn to, the
        # first rung 4 of cp-plus and 2 of the Brownian rows, but the clock
        # reads a row only up to its target: the run exits 0, without a
        # numpy warning (which the suite turns into an error), and prints
        # tau from the path up to the target
        code, out, err = invoke(capsys, ["simulate", "--seed", "1", *argv])
        assert code == 0
        header, rows = csv_table(out)
        assert header == "path_id,tau"
        assert [tau for _, tau in rows[:len(taus)]] == taus
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("argv", [
        ["check-identities", "--t-fp", "1"],
        ["check-identities", "--t-fp", "0.5"],
        ["check-identities", "--t-fp", "inf"],
        ["clt", "--t", "1"],
        ["clt", "--t", "0.5"],
    ], ids=["identities_t1", "identities_t_half", "identities_t_inf",
            "clt_t1", "clt_t_half"])
    def test_log_t_needs_t_above_1_exit_2(self, capsys, argv):
        code, out, err = invoke(capsys, [argv[0], "--family", "brownian",
                                         "--nu", "1", "--seed", "1",
                                         "--paths", "10", *argv[1:]])
        assert code == 2
        assert out == ""
        assert "must satisfy t > 1" in err

    @pytest.mark.parametrize("argv,message", [
        (["--family", "brownian", "--nu", "120"],
         "exponential functional overflowed"),
        (["--family", "cp-plus", "--d", "150", "--beta", "40", "--gamma",
          "1", "--m", "0.5"], "exponential functional overflowed"),
        (["--family", "brownian", "--nu", "1", "--t", "2", "--start", "1e200",
          "--alpha", "2"], "rescaling the clock targets"),
        (["--family", "brownian", "--nu", "1", "--t", "2", "--start",
          "1e-200", "--alpha", "2"], "rescaling the clock targets"),
        (["--family", "brownian", "--nu", "1", "--t", "2", "--start",
          "1e300", "--paths", "2"], "rescaling the clock targets"),
    ], ids=["brownian", "cp_plus", "start_1e200_alpha_2",
            "start_1e-200_alpha_2", "start_1e300"])
    def test_identities_overflow_exit_2_under_w_error(self, argv, message):
        # A(8) past double range, which would place the fundamental
        # relation's targets, is refused before they are placed; a start
        # whose alpha-th power, or its product with the targets, leaves
        # double range is refused before any clock is read there
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "levyclocks.cli",
             "check-identities", "--paths", "4", "--seed", "1", *argv],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"error: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr


LDP = ["ldp", "--family", "brownian", "--nu", "1", "--seed", "1",
       "--paths", "4"]


@pytest.mark.parametrize("argv,code,message", [
    (["profile"], 1, "usage error: --family or --model-file is required"),
    (["lln", "--family", "cauchy", "--t", "50", "--seed", "1"], 1,
     "usage error: --d (dimension) is required for cauchy"),
    (["profile", "--family", "cauchy", "--d", "3"], 2,
     "error: this subcommand needs a Lévy-family model, not the Cauchy "
     "modulus"),
    ([*LDP, "--x", "0.5", "--t", "1", "--t", "50", "--t", "100"], 2,
     "error: LDP targets must satisfy t > 1"),
    ([*LDP, "--x", "0", "--t", "50", "--t", "100", "--t", "200"], 2,
     "error: x must be > 0, got 0.0"),
], ids=["no_model", "cauchy_without_d", "profile_cauchy", "ldp_t_1",
        "ldp_x_0"])
def test_refusals(capsys, argv, code, message):
    got, out, err = invoke(capsys, argv)
    assert got == code
    assert out == ""
    assert message in err.splitlines()


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


# Full stdout of every subcommand but `profile` (pinned above), including
# the `--mc-s` table, a `# truncated` ledger note, a NaN KS statistic, the
# LDP `excluded` line both ways and each `first_passage` skip line.  The
# rate curves pin, to 17 digits, the exponent branches the figures leave
# out: stable, csbp at kappa < 1 and kappa = 1, hypergeometric at alpha = 2
# and an Esscher-tilted Gamma-ratio model.  cp-plus at beta = 0 has the one
# point Delta = {1/d}, so no curve: its profile is pinned here instead.
STDOUT = {
    "rate_curve": (
        ["rate-curve", "--family", "sawtooth", "--beta", "1", "--gamma", "3",
         "--x-lo", "1.2", "--x-hi", "5", "--n", "20"],
        "x,I,Iprime\n"
        "1.2,0.102943725152286,-0.9497474683058329\n"
        "1.3999999999999999,0.0077037206368559263,-0.16619044897648158\n"
        "1.5999999999999999,0.0058874503045718563,0.11091270347398857\n"
        "1.7999999999999998,0.043078061834694481,0.24722325026743305\n"
        "2,0.10102051443364379,0.32576538582523301\n"
        "2.2000000000000002,0.1715010882118847,0.3755878219546227\n"
        "2.3999999999999999,0.25019685344498266,0.40933750641234146\n"
        "2.5999999999999996,0.33459130693772232,0.43332734244452337\n"
        "2.7999999999999998,0.42311116191056752,0.4510229508718861\n"
        "3,0.5147186257614299,0.46446609406726236\n"
        "3.2000000000000002,0.60869976553915406,0.47492746689711873\n"
        "3.3999999999999995,0.70454649851761453,0.48323343697317184\n"
        "3.5999999999999996,0.80188696040658369,0.48994119415175313\n"
        "3.7999999999999998,0.90044248653957226,0.49543798924629606\n"
        "4,0.99999999999999989,0.49999999999999994\n"
        "4.2000000000000002,1.1003937068899652,0.50382862466464817\n"
        "4.3999999999999995,1.2014926204446188,0.50707361094478709\n"
        "4.5999999999999996,1.303191850635123,0.50984822388913076\n"
        "4.7999999999999998,1.4054063928744567,0.51223944568860547\n"
        "5,1.5080666151703324,0.51431498841332479\n"),
    "rate_curve_stable": (
        ["rate-curve", "--family", "stable", "--alpha-par", "1.5", "--c", "1",
         "--x-lo", "0.2", "--x-hi", "4", "--n", "12"],
        "x,I,Iprime\n"
        "0.20000000000000001,3.4583899817274322,-36.990198615047035\n"
        "0.54545454545454541,0.28237143685628574,-1.7023754235058297\n"
        "0.89090909090909087,0.024231006465249144,-0.23879321101371942\n"
        "1.2363636363636361,0.0033395794895328124,0.058604548136177478\n"
        "1.5818181818181818,0.044029366224483751,0.16194578724058503\n"
        "1.9272727272727272,0.10902652909717553,0.20900281605983231\n"
        "2.2727272727272725,0.18598247379711647,0.23418652485191263\n"
        "2.6181818181818182,0.26967799676016485,0.24918550207280718\n"
        "2.9636363636363638,0.3575383739606085,0.25882296873002869\n"
        "3.3090909090909091,0.44814981125166958,0.26537599003194862\n"
        "3.6545454545454548,0.54067239389186539,0.2700312291381391\n"
        "4,0.63457609909977486,0.27345571890386905\n"),
    "rate_curve_csbp": (
        ["rate-curve", "--family", "csbp", "--kappa", "0.5", "--delta", "1",
         "--c", "1", "--x-lo", "0", "--x-hi", "2", "--n", "12"],
        "x,I,Iprime\n"
        "0,0.5,inf\n"
        "0.18181818181818182,0.088173389177362199,-0.66798065476577262\n"
        "0.36363636363636365,0.017261008681719189,-0.19866078767013021\n"
        "0.54545454545454541,0.00011807273196022625,-0.012743569372365227\n"
        "0.72727272727272729,0.0073744309646809475,0.083334251582949326\n"
        "0.90909090909090906,0.028075832130330158,0.13986063712383726\n"
        "1.0909090909090908,0.057014406565713799,0.17597809414232782\n"
        "1.2727272727272727,0.091370291788937408,0.20045579469923727\n"
        "1.4545454545454546,0.12947910929947434,0.21780430400598386\n"
        "1.6363636363636365,0.17029440182532973,0.23054254829663057\n"
        "1.8181818181818181,0.21312520336944113,0.24016813574350532\n"
        "2,0.25749697879343253,0.24761693082462594\n"),
    "rate_curve_csbp_kappa_1": (
        ["rate-curve", "--family", "csbp", "--kappa", "1", "--delta", "1",
         "--c", "1", "--x-lo", "0.1", "--x-hi", "4", "--n", "12"],
        "x,I,Iprime\n"
        "0.10000000000000001,2.0249999999999999,-24.75\n"
        "0.45454545454545459,0.16363636363636358,-0.95999999999999974\n"
        "0.80909090909090908,0.011261491317671096,-0.13189622522408781\n"
        "1.1636363636363636,0.0057528409090909088,0.06536865234375\n"
        "1.5181818181818183,0.044216113228089299,0.14153429667610887\n"
        "1.8727272727272728,0.10167696381288616,0.17871618437175982\n"
        "2.2272727272727271,0.16906307977736545,0.19960433152852977\n"
        "2.581818181818182,0.2422855313700385,0.21249504066653443\n"
        "2.9363636363636365,0.31923022797635803,0.22100518551888737\n"
        "3.290909090909091,0.39869412355600198,0.22691615030066237\n"
        "3.6454545454545455,0.47994218997959648,0.23118792793577153\n"
        "4,0.5625,0.234375\n"),
    "rate_curve_hypergeometric_alpha_2": (
        ["rate-curve", "--family", "hypergeometric", "--alpha-par", "2", "--d",
         "3", "--x-lo", "0.1", "--x-hi", "4", "--n", "12"],
        "x,I,Iprime\n"
        "0.10000000000000001,2.0249999999999999,-24.75\n"
        "0.45454545454545459,0.16363636363636369,-0.95999999999999952\n"
        "0.80909090909090908,0.011261491317671096,-0.13189622522408781\n"
        "1.1636363636363636,0.0057528409090909088,0.06536865234375\n"
        "1.5181818181818183,0.044216113228089299,0.14153429667610887\n"
        "1.8727272727272728,0.10167696381288616,0.17871618437175985\n"
        "2.2272727272727271,0.16906307977736545,0.19960433152852977\n"
        "2.581818181818182,0.2422855313700385,0.21249504066653446\n"
        "2.9363636363636365,0.31923022797635825,0.22100518551888745\n"
        "3.290909090909091,0.39869412355600187,0.22691615030066234\n"
        "3.6454545454545455,0.4799421899795967,0.23118792793577161\n"
        "4,0.5625,0.234375\n"),
    "rate_curve_hypergeometric_tilted": (
        ["rate-curve", "--family", "hypergeometric", "--alpha-par", "1", "--d",
         "3", "--tilt", "0.5", "--x-lo", "0", "--x-hi", "1.5", "--n", "12"],
        "x,I,Iprime\n"
        "0,0.5,inf\n"
        "0.13636363636363635,0.0074217070569257276,-0.40774584772040923\n"
        "0.27272727272727271,0.033721215777783253,0.62456994587562986\n"
        "0.40909090909090912,0.15417621139212528,1.0948479058912091\n"
        "0.54545454545454541,0.32378163381765174,1.3714655987270885\n"
        "0.68181818181818177,0.523936898837015,1.552452403198487\n"
        "0.81818181818181823,0.74468612639797171,1.6780365820634389\n"
        "0.95454545454545459,0.98000427284050107,1.7686139369404925\n"
        "1.0909090909090908,1.2259807837170529,1.835848597077941\n"
        "1.2272727272727273,1.479959480899635,1.8869250751935991\n"
        "1.3636363636363635,1.7400758390999562,1.9264928881671217\n"
        "1.5,2.0049866855493406,1.9576704602592958\n"),
    "profile_cp_plus_beta_0": (
        ["profile", "--family", "cp-plus", "--d", "1", "--beta", "0",
         "--gamma", "1"],
        "model: family=cp_plus_drift d=1.0 beta=0.0 gamma=1.0 tilt=0.0\n"
        "m0: -inf\n"
        "psi_m0: -inf\n"
        "mean: 1\n"
        "tau_plus: 1\n"
        "tau_zero: 1\n"
        "tau_e: 1\n"
        "delta: (1, 1)\n"
        "class_tau_zero: 3b\n"
        "class_tau_plus: 4b\n"
        "ldp_status: full\n"
        "b_zero: -0\n"
        "b_plus: -0\n"
        "I_at_tau_zero: -0\n"
        "Iprime_at_tau_zero: inf\n"
        "I_at_tau_plus: -0\n"
        "Iprime_at_tau_plus: -inf\n"),
    "figures": (
        ["figures", "--n", "30"],
        "x,I,Iprime\n"
        "0.050000000000000003,2.0249999999999999,-49.5\n"
        "0.15172413793103451,0.39972570532915352,-4.9300103305785106\n"
        "0.25344827586206897,0.1199214168425991,-1.4459484474061732\n"
        "0.35517241379310349,0.029527954469367235,-0.490903949476859\n"
        "0.45689655172413796,0.0020331815224463104,-0.098789604841580628\n"
        "0.55862068965517242,0.0030757769263516435,0.099432251181222397\n"
        "0.66034482758620705,0.019467452957594333,0.21333910518171112\n"
        "0.76206896551724146,0.04506163207988767,0.28476075428431036\n"
        "0.86379310344827598,0.076607130566453352,0.33247078696897625\n"
        "0.96551724137931039,0.11222290640394089,0.36591198979591838\n"
        "1.0672413793103448,0.15074508383934043,0.39025501029593301\n"
        "1.1689655172413795,0.19141491201302013,0.40852411656703302\n"
        "1.2706896551724141,0.23371660506246206,0.4225839471692972\n"
        "1.3724137931034484,0.27728729856177436,0.43363488295750108\n"
        "1.4741379310344829,0.32186428715466825,0.44247802742724252\n"
        "1.5758620689655174,0.36725269750245243,0.44966459020632138\n"
        "1.6775862068965519,0.41330492256441154,0.45558391049603425\n"
        "1.7793103448275864,0.45990711039828941,0.46051732167538012\n"
        "1.8810344827586207,0.50697003697967702,0.46467220765516715\n"
        "1.9827586206896555,0.55442278860569716,0.46820415879017008\n"
        "2.0844827586206893,0.6022082941159691,0.47123175302955977\n"
        "2.1862068965517238,0.65028010442728146,0.47384663993073867\n"
        "2.2879310344827588,0.69860003118259995,0.47612055909125234\n"
        "2.3896551724137933,0.74713638851569897,0.4781103136081491\n"
        "2.4913793103448278,0.79586266555303675,0.47986135223476734\n"
        "2.5931034482758619,0.84475651137197327,0.48141038790176544\n"
        "2.6948275862068964,0.89379894985328823,0.48278733786634215\n"
        "2.796551724137931,0.9429737658914068,0.48401677915103819\n"
        "2.8982758620689655,0.99226702086196639,0.48511905288522278\n"
        "3,1.0416666666666663,0.48611111111111105\n"
        "x,I,Iprime\n"
        "0.01,0.72857505441059423,-12.929113468566944\n"
        "0.044137931034482762,0.46317477159334913,-5.277328419984876\n"
        "0.078275862068965515,0.31854563896960347,-3.4407777930496377\n"
        "0.11241379310344826,0.21898474847351956,-2.4705494228215565\n"
        "0.14655172413793105,0.14625450314756638,-1.8267460386394372\n"
        "0.18068965517241381,0.092421659920920607,-1.3472919995504979\n"
        "0.21482758620689654,0.053184975378884697,-0.96392529774600333\n"
        "0.2489655172413793,0.025914615713199168,-0.64202148868837827\n"
        "0.28310344827586209,0.0088793365900774607,-0.36174821829221959\n"
        "0.31724137931034485,0.00088493346867312556,-0.11069381711610139\n"
        "0.35137931034482761,0.0010848517724140472,0.11947685951522131\n"
        "0.38551724137931037,0.0088729213645959981,0.33471409016111897\n"
        "0.41965517241379308,0.023819340576416326,0.53951703629532533\n"
        "0.45379310344827584,0.045631400486408569,0.73749096312143947\n"
        "0.4879310344827586,0.074129520630566825,0.93170772333178808\n"
        "0.52206896551724136,0.10923362971621792,1.1249627041907526\n"
        "0.55620689655172417,0.15095735350245121,1.3199824363138237\n"
        "0.59034482758620688,0.19940899260770273,1.5196203897506351\n"
        "0.62448275862068969,0.2547994585657225,1.7270746959720926\n"
        "0.6586206896551724,0.31745857622274354,1.9461686283351112\n"
        "0.69275862068965521,0.38786287267046071,2.181756449017533\n"
        "0.72689655172413792,0.46668084061529536,2.4403664371046156\n"
        "0.76103448275862073,0.55484710490743683,2.7313030300393439\n"
        "0.79517241379310344,0.65368830567577052,3.0686922345677567\n"
        "0.82931034482758614,0.76514984268691277,3.4756441846142052\n"
        "0.86344827586206896,0.89224139461424956,3.9937866617675173\n"
        "0.89758620689655166,1.040030573316491,4.7090184363828422\n"
        "0.93172413793103448,1.2183419473616031,5.8414344359948362\n"
        "0.96586206896551718,1.4522666429799056,8.2564831444362419\n"
        "1,2,inf\n"
        "x,I,Iprime\n"
        "0.01,0.74574659192896209,-11.353389912498081\n"
        "0.18206896551724139,0.23405424164678568,-1.1584732567059757\n"
        "0.35413793103448277,0.10373749471850721,-0.4886333458520995\n"
        "0.52620689655172415,0.043900832108274113,-0.23888067865578522\n"
        "0.69827586206896552,0.014743117732536698,-0.11231948171213739\n"
        "0.87034482758620701,0.0023284027434902696,-0.037864092451584196\n"
        "1.0424137931034483,0.00021793943916625057,0.010118666732664183\n"
        "1.2144827586206897,0.0049561677669307039,0.043034298791098005\n"
        "1.386551724137931,0.014500241531497315,0.066674571349518694\n"
        "1.5586206896551726,0.027556734530178748,0.084264298383971301\n"
        "1.730689655172414,0.043263333400888726,0.097726240008488285\n"
        "1.9027586206896552,0.061021397676344319,0.10826942634975281\n"
        "2.0748275862068963,0.080401516813856211,0.11668722786731538\n"
        "2.2468965517241379,0.10108722265070072,0.12351884696970514\n"
        "2.4189655172413791,0.12283990532967945,0.12914168746513058\n"
        "2.5910344827586207,0.14547611575721467,0.13382661199738158\n"
        "2.7631034482758619,0.16885241152190295,0.13777227228049102\n"
        "2.935172413793103,0.1928549618710422,0.14112713926004916\n"
        "3.1072413793103451,0.2173922476539544,0.14400404224139163\n"
        "3.2793103448275862,0.2423898279107003,0.14649000280728877\n"
        "3.4513793103448278,0.26778651888046778,0.14865303222272863\n"
        "3.623448275862069,0.29353155839684192,0.15054692169130771\n"
        "3.7955172413793101,0.3195824705144113,0.15221467720940143\n"
        "3.9675862068965517,0.34590343603380302,0.15369102139151841\n"
        "4.1396551724137929,0.37246403403721295,0.15500424178126071\n"
        "4.3117241379310345,0.39923825924044265,0.15617757415720604\n"
        "4.4837931034482761,0.42620374695779495,0.15723025017466152\n"
        "4.6558620689655177,0.453341156134212,0.15817829949359272\n"
        "4.8279310344827584,0.4806336739935535,0.15903517014008137\n"
        "5,0.50806661517033258,0.15981221278122765\n"
        "x,I,Iprime\n"
        "1,1,-inf\n"
        "1.1724137931034484,0.13219451163638385,-1.1808470804095614\n"
        "1.3448275862068966,0.020326706691438656,-0.29758429460444286\n"
        "1.5172413793103448,0.00019372947765670945,0.022220811466871524\n"
        "1.6896551724137931,0.019188493316976807,0.1823449873098319\n"
        "1.8620689655172413,0.059337220221429066,0.27590428575084963\n"
        "2.0344827586206895,0.11243125455539904,0.33592798531284879\n"
        "2.2068965517241379,0.17409612912573891,0.37697097917857059\n"
        "2.3793103448275863,0.24175825319871691,0.40637641999296092\n"
        "2.5517241379310347,0.31379396594854547,0.42821366013340179\n"
        "2.7241379310344827,0.38912377342164095,0.44490025776839992\n"
        "2.896551724137931,0.46699991571782762,0.45795201950850262\n"
        "3.0689655172413794,0.54688698907766098,0.46836129960716977\n"
        "3.2413793103448274,0.62839100906134981,0.47680122281357479\n"
        "3.4137931034482758,0.71121530425000068,0.48374215051437613\n"
        "3.5862068965517242,0.79513204084251443,0.48952118102650594\n"
        "3.7586206896551726,0.87996324460373587,0.49438523759593322\n"
        "3.9310344827586206,0.96556780271766451,0.49851866818801044\n"
        "4.1034482758620694,1.0518323478982159,0.50206143140107773\n"
        "4.2758620689655178,1.1386647309574078,0.50512137972455418\n"
        "4.4482758620689653,1.2259892600648263,0.50778273938335317\n"
        "4.6206896551724137,1.3137431710919178,0.51011207956069948\n"
        "4.7931034482758621,1.4018739718519186,0.51216258831728922\n"
        "4.9655172413793105,1.4903374170978954,0.51397718417337834\n"
        "5.1379310344827589,1.5790959456948008,0.51559081298560228\n"
        "5.3103448275862073,1.6681174611063232,0.51703216565743526\n"
        "5.4827586206896548,1.7573743701127171,0.51832497813049538\n"
        "5.6551724137931032,1.8468428180017682,0.51948902608160186\n"
        "5.8275862068965516,1.9365020748310653,0.52054089375657586\n"
        "6,2.0263340389897242,0.52149457381478259\n"
        "x,I,Iprime\n"
        "0.050000000000000003,0.53897694867374424,-4.0692466677750287\n"
        "0.22068965517241379,0.17718126801411832,-1.1587078737343472\n"
        "0.39137931034482759,0.048125373138831778,-0.45193932531113534\n"
        "0.5620689655172415,0.0036826540258658447,-0.10246764932962454\n"
        "0.73275862068965525,0.005236215710090697,0.1044888367142261\n"
        "0.90344827586206899,0.035230392724007853,0.23790776671386163\n"
        "1.074137931034483,0.084045295984189416,0.3285665904400093\n"
        "1.2448275862068965,0.14589276698706771,0.39258636151656562\n"
        "1.4155172413793105,0.21708291676066788,0.43920990491814071\n"
        "1.5862068965517244,0.29516349775163364,0.474054343589284\n"
        "1.7568965517241379,0.37844996705339184,0.50068136305608979\n"
        "1.9275862068965519,0.4657525308142384,0.52142709608146509\n"
        "2.0982758620689657,0.55621037006520901,0.53786821355818415\n"
        "2.2689655172413796,0.6491873536541648,0.55109561989111189\n"
        "2.4396551724137927,0.74420446646817717,0.56188094807118272\n"
        "2.6103448275862067,0.84089488778666954,0.57078089271429466\n"
        "2.7810344827586206,0.93897343779444398,0.57820430355673946\n"
        "2.9517241379310346,1.038215365270327,0.58445633859713841\n"
        "3.1224137931034486,1.1384413436424285,0.58976813301090847\n"
        "3.2931034482758617,1.2395066766377716,0.59431711789927644\n"
        "3.4637931034482756,1.3412934108871144,0.5982411800477635\n"
        "3.6344827586206896,1.4437044898849398,0.60164868893137868\n"
        "3.8051724137931036,1.5466593637593815,0.60462570287704487\n"
        "3.9758620689655175,1.6500906521751995,0.60724121921665208\n"
        "4.1465517241379315,1.7539415791953932,0.60955104812441718\n"
        "4.317241379310345,1.8581639809688806,0.61160070476874329\n"
        "4.4879310344827594,1.9627167433455259,0.61342759232933175\n"
        "4.6586206896551721,2.0675645656072987,0.61506266666863207\n"
        "4.8293103448275856,2.1726769740307073,0.6165317179053591\n"
        "5,2.2780275286188307,0.61785636590339654\n"),
    "simulate_sawtooth": (
        ["simulate", "--family", "sawtooth", "--beta", "1", "--gamma", "3",
         "--t", "100", "--paths", "20", "--seed", "4"],
        "path_id,tau\n"
        "0,5.5192253170213412\n"
        "1,5.1915496213111449\n"
        "2,5.8992344735257767\n"
        "3,6.7641049966639928\n"
        "4,11.065795443855031\n"
        "5,7.162009680999609\n"
        "6,5.1761736535773082\n"
        "7,5.6246709311334042\n"
        "8,4.8817306393254825\n"
        "9,7.0240096932683507\n"
        "10,5.2099704418859956\n"
        "11,5.3909793700938105\n"
        "12,7.678092625442491\n"
        "13,7.4125896257983426\n"
        "14,6.1363120232475312\n"
        "15,7.2721713460273687\n"
        "16,9.6356332296229752\n"
        "17,5.6731314263040735\n"
        "18,13.505569226672513\n"
        "19,5.3828765596834192\n"),
    # cp_plus without jumps tilted by gamma, to jump parameter 0: drift 1,
    # so A(u) = e^u - 1 and tau(5) = log 6
    "simulate_cp_plus_tilted_zero_rate": (
        ["simulate", "--family", "cp-plus", "--d", "1", "--beta", "0",
         "--gamma", "1", "--tilt", "1", "--t", "5", "--paths", "2",
         "--seed", "1"],
        "path_id,tau\n"
        "0,1.791759469228055\n"
        "1,1.791759469228055\n"),
    "lln_brownian": (
        ["lln", "--family", "brownian", "--nu", "1", "--t", "50", "--t", "400",
         "--paths", "40", "--step", "0.02", "--seed", "7"],
        "estimator: lln\n"
        "model: family=brownian_drift nu=1.0 tilt=0.0\n"
        "seed: 7\n"
        "n_paths: 40\n"
        "step: 0.02\n"
        "horizon: 10.0\n"
        "alpha: 1.0\n"
        "start: 1.0\n"
        "t,estimate,stderr,reference\n"
        "50,0.6784955860084132,0.049512530669324983,0.5\n"
        "400,0.58349403584965553,0.033276268058203703,0.5\n"),
    "lln_cauchy": (
        ["lln", "--family", "cauchy", "--d", "3", "--t", "50", "--paths", "16",
         "--step", "0.05", "--seed", "3"],
        "estimator: lln\n"
        "model: cauchy_modulus d=3\n"
        "seed: 3\n"
        "n_paths: 16\n"
        "step: 0.05\n"
        "horizon: 10.0\n"
        "alpha: 1.0\n"
        "start: 1.0\n"
        "t,estimate,stderr,reference\n"
        "50,0.98700142150746328,0.14565360854234008,0.63661977236758127\n"),
    "clt_brownian": (
        ["clt", "--family", "brownian", "--nu", "1", "--t", "400", "--paths",
         "40", "--step", "0.02", "--seed", "5"],
        "estimator: clt\n"
        "model: family=brownian_drift nu=1.0 tilt=0.0\n"
        "seed: 5\n"
        "n_paths: 40\n"
        "step: 0.02\n"
        "horizon: 10.0\n"
        "alpha: 1.0\n"
        "start: 1.0\n"
        "target_variance: 0.5\n"
        "t,estimate,stderr,reference\n"
        "400,0.22487735471220544,0,0\n"),
    "clt_cp_plus_nan": (
        ["clt", "--family", "cp-plus", "--d", "1", "--beta", "0", "--gamma",
         "1", "--t", "403", "--paths", "12", "--seed", "3"],
        "estimator: clt\n"
        "model: family=cp_plus_drift d=1.0 beta=0.0 gamma=1.0 tilt=0.0\n"
        "seed: 3\n"
        "n_paths: 12\n"
        "step: 0.01\n"
        "horizon: 10.0\n"
        "alpha: 1.0\n"
        "start: 1.0\n"
        "target_variance: 0.0\n"
        "t,estimate,stderr,reference\n"
        "403,nan,0,0\n"),
    "ldp_none_excluded": (
        ["ldp", "--family", "brownian", "--nu", "1", "--x", "1", "--t", "20",
         "--t", "55", "--t", "148", "--paths", "60", "--step", "0.02",
         "--seed", "5"],
        "estimator: ldp-slope\n"
        "model: family=brownian_drift nu=1.0 tilt=0.0\n"
        "seed: 5\n"
        "x: 1\n"
        "eps: 0.050000000000000003\n"
        "slope: 0.0025055952387605853\n"
        "slope_stderr: 0.39987709073438205\n"
        "reference_I: 0.125\n"
        "excluded: none\n"
        "t,p_hat,hits\n"
        "20,0.033333333333333333,2\n"
        "55,0.016666666666666666,1\n"
        "148,0.033333333333333333,2\n"),
    "ldp_excluded": (
        ["ldp", "--family", "brownian", "--nu", "1", "--x", "5", "--t", "20",
         "--t", "55", "--t", "148", "--paths", "60", "--step", "0.02",
         "--seed", "5"],
        "estimator: ldp-slope\n"
        "model: family=brownian_drift nu=1.0 tilt=0.0\n"
        "seed: 5\n"
        "x: 5\n"
        "eps: 0.45000000000000001\n"
        "slope: nan\n"
        "slope_stderr: nan\n"
        "reference_I: 2.0249999999999999\n"
        "excluded: 20,55,148\n"
        "t,p_hat,hits\n"
        "20,0,0\n"
        "55,0,0\n"
        "148,0,0\n"),
    "moments_brownian": (
        ["moments", "--family", "brownian", "--nu", "1", "--r-max", "4"],
        "s,value,method,stderr,finite\n"
        "-1,2,exact,,true\n"
        "-2,8,recursion,,true\n"
        "-3,48,recursion,,true\n"
        "-4,384,recursion,,true\n"
        "-5,3840,recursion,,true\n"),
    "moments_sawtooth_mc": (
        ["moments", "--family", "sawtooth", "--beta", "1", "--gamma", "3",
         "--r-max", "3", "--mc-s", "-1", "--paths", "30", "--step", "0.02",
         "--seed", "2"],
        "s,value,method,stderr,finite\n"
        "-1,0.66666666666666674,exact,,true\n"
        "-2,0.5,recursion,,true\n"
        "-3,0.40000000000000002,recursion,,true\n"
        "-4,0.33333333333333337,recursion,,true\n"
        "s,estimate,stderr,n_paths,horizon,tail_bound\n"
        "-1,0.67981342222385932,0.045235938570230588,"
        "30,20,0.0038179014040194198\n"),
    "moments_cp_minus_truncated": (
        ["moments", "--family", "cp-minus", "--beta", "3", "--gamma", "2.5",
         "--r-max", "8"],
        "s,value,method,stderr,finite\n"
        "-1,0.19999999999999996,exact,,true\n"
        "-2,0.19999999999999996,recursion,,true\n"
        "-3,0.99999999999999978,recursion,,true\n"
        "# truncated: phi(3) = inf (domain end m_plus = 2.5)\n"),
    "logA": (
        ["logA", "--family", "sawtooth", "--beta", "1", "--gamma", "3", "--t",
         "20", "--paths", "30", "--step", "0.02", "--seed", "6", "--alpha",
         "2", "--start", "0.5", "--horizon", "12"],
        "estimator: logA\n"
        "model: family=saw_tooth beta=1.0 gamma=3.0 tilt=0.0\n"
        "seed: 6\n"
        "n_paths: 30\n"
        "step: 0.02\n"
        "horizon: 12.0\n"
        "alpha: 2.0\n"
        "start: 0.5\n"
        "t,estimate,stderr,reference\n"
        "20,1.2828887535827957,0.041830426481689942,1.3333333333333335\n"),
    "identities_two_thetas": (
        ["check-identities", "--family", "brownian", "--nu", "1", "--paths",
         "40", "--step", "0.02", "--seed", "5", "--t-fp", "30", "--theta",
         "-0.5", "--theta", "-1"],
        "model: family=brownian_drift nu=1.0 tilt=0.0\n"
        "seed: 5\n"
        "fundamental_relation_max_abs_err: 0\n"
        "tilted_lhs: 0.094336785095339229\n"
        "tilted_rhs: 0.086095489792840249\n"
        "tilted_z: 0.41648472584629553\n"
        "first_passage_theta: -0.5\n"
        "first_passage_lhs: -0.28417166690514045\n"
        "first_passage_rhs: -0.17357271145209369\n"
        "first_passage_rhs_stderr: 0.028465375274815692\n"
        "first_passage_analytic_L: -0.20710678118654752\n"
        "first_passage_theta: -1\n"
        "first_passage_lhs: -0.5168883007016617\n"
        "first_passage_rhs: -0.31603362718935479\n"
        "first_passage_rhs_stderr: 0.045906664784005451\n"
        "first_passage_analytic_L: -0.36602540378443865\n"),
    "identities_sawtooth": (
        ["check-identities", "--family", "sawtooth", "--beta", "1", "--gamma",
         "3", "--paths", "30", "--step", "0.02", "--seed", "8", "--t-fp",
         "30"],
        "model: family=saw_tooth beta=1.0 gamma=3.0 tilt=0.0\n"
        "seed: 8\n"
        "fundamental_relation_max_abs_err: 0\n"
        "tilted_lhs: 0.3849915237886643\n"
        "tilted_rhs: 0.3762038638288091\n"
        "tilted_z: 0.38223293554641052\n"
        "first_passage_lhs: -1.2384091522858365\n"
        "first_passage_rhs: -1.3188485634972118\n"
        "first_passage_rhs_stderr: 0.084758044761012924\n"
        "first_passage_analytic_L: -1.3027756377319943\n"),
    # past the 64 paths of the fundamental relation's run, which serves
    # the first 64 rows of the base side's growing run
    "identities_200_paths": (
        ["check-identities", "--family", "brownian", "--nu", "1", "--paths",
         "200", "--step", "0.02", "--seed", "5", "--t-fp", "30", "--theta",
         "-0.5", "--theta", "-1"],
        "model: family=brownian_drift nu=1.0 tilt=0.0\n"
        "seed: 5\n"
        "fundamental_relation_max_abs_err: 0\n"
        "tilted_lhs: 0.07746497891313614\n"
        "tilted_rhs: 0.086815829629977831\n"
        "tilted_z: -1.2383418588208306\n"
        "first_passage_theta: -0.5\n"
        "first_passage_lhs: -0.29122116875263554\n"
        "first_passage_rhs: -0.21010483339361949\n"
        "first_passage_rhs_stderr: 0.01403851060049109\n"
        "first_passage_analytic_L: -0.20710678118654752\n"
        "first_passage_theta: -1\n"
        "first_passage_lhs: -0.52544320913873144\n"
        "first_passage_rhs: -0.38174031641692496\n"
        "first_passage_rhs_stderr: 0.023067748415950814\n"
        "first_passage_analytic_L: -0.36602540378443865\n"),
    "identities_sawtooth_200_paths": (
        ["check-identities", "--family", "sawtooth", "--beta", "1", "--gamma",
         "3", "--paths", "200", "--seed", "8", "--t-fp", "30"],
        "model: family=saw_tooth beta=1.0 gamma=3.0 tilt=0.0\n"
        "seed: 8\n"
        "fundamental_relation_max_abs_err: 0\n"
        "tilted_lhs: 0.38964166896249869\n"
        "tilted_rhs: 0.39210121793804575\n"
        "tilted_z: -0.24441283829203814\n"
        "first_passage_lhs: -1.2389000027334276\n"
        "first_passage_rhs: -1.2831637281055601\n"
        "first_passage_rhs_stderr: 0.028310673745269438\n"
        "first_passage_analytic_L: -1.3027756377319943\n"),
    "identities_cp_plus_skip": (
        ["check-identities", "--family", "cp-plus", "--d", "1", "--beta", "2",
         "--gamma", "1", "--m", "0.5", "--paths", "30", "--step", "0.02",
         "--seed", "8"],
        "model: family=cp_plus_drift d=1.0 beta=2.0 gamma=1.0 tilt=0.0\n"
        "seed: 8\n"
        "fundamental_relation_max_abs_err: 0\n"
        "tilted_lhs: 0.20545562779186055\n"
        "tilted_rhs: 0.23115350089053116\n"
        "tilted_z: -0.58216435111118969\n"
        "first_passage: skipped (needs a spectrally negative family)\n"),
    "identities_alpha_half": (
        ["check-identities", "--family", "brownian", "--nu", "1", "--paths",
         "20", "--seed", "3", "--alpha", "0.5"],
        "model: family=brownian_drift nu=1.0 tilt=0.0\n"
        "seed: 3\n"
        "fundamental_relation_max_abs_err: 0\n"
        "tilted: skipped (stated for clocks of index 1)\n"
        "first_passage: skipped (stated for clocks of index 1)\n"),
    # m = 0 and theta = 0 draw their runs like any other value, and give
    # 1 = 1 and 0 = 0 from them
    "identities_m_zero": (
        ["check-identities", "--family", "brownian", "--nu", "1", "--paths",
         "50", "--step", "0.02", "--seed", "5", "--m", "0"],
        "model: family=brownian_drift nu=1.0 tilt=0.0\n"
        "seed: 5\n"
        "fundamental_relation_max_abs_err: 0\n"
        "tilted_lhs: 1\n"
        "tilted_rhs: 1\n"
        "tilted_z: 0\n"
        "first_passage_lhs: -0.45865933698588818\n"
        "first_passage_rhs: -0.34184863778478802\n"
        "first_passage_rhs_stderr: 0.046911558473593878\n"
        "first_passage_analytic_L: -0.36602540378443865\n"),
    "identities_theta_zero": (
        ["check-identities", "--family", "sawtooth", "--beta", "1", "--gamma",
         "3", "--paths", "50", "--seed", "5", "--theta", "0"],
        "model: family=saw_tooth beta=1.0 gamma=3.0 tilt=0.0\n"
        "seed: 5\n"
        "fundamental_relation_max_abs_err: 0\n"
        "tilted_lhs: 0.38907828399003824\n"
        "tilted_rhs: 0.37116271544974949\n"
        "tilted_z: 1.3950654609542832\n"
        "first_passage_lhs: 0\n"
        "first_passage_rhs: 0\n"
        "first_passage_rhs_stderr: 0\n"
        "first_passage_analytic_L: 0\n"),
    "identities_m_and_theta_zero": (
        ["check-identities", "--family", "brownian", "--nu", "1", "--paths",
         "50", "--step", "0.02", "--seed", "5", "--m", "0", "--theta", "0"],
        "model: family=brownian_drift nu=1.0 tilt=0.0\n"
        "seed: 5\n"
        "fundamental_relation_max_abs_err: 0\n"
        "tilted_lhs: 1\n"
        "tilted_rhs: 1\n"
        "tilted_z: 0\n"
        "first_passage_lhs: 0\n"
        "first_passage_rhs: 0\n"
        "first_passage_rhs_stderr: 0\n"
        "first_passage_analytic_L: 0\n"),
    "identities_cp_plus_m_zero": (
        ["check-identities", "--family", "cp-plus", "--d", "1", "--beta", "2",
         "--gamma", "1", "--paths", "50", "--seed", "5", "--m", "0"],
        "model: family=cp_plus_drift d=1.0 beta=2.0 gamma=1.0 tilt=0.0\n"
        "seed: 5\n"
        "fundamental_relation_max_abs_err: 0\n"
        "tilted_lhs: 1\n"
        "tilted_rhs: 1\n"
        "tilted_z: 0\n"
        "first_passage: skipped (needs a spectrally negative family)\n"),
    "identities_theta_zero_and_below": (
        ["check-identities", "--family", "sawtooth", "--beta", "1", "--gamma",
         "3", "--paths", "50", "--seed", "5", "--theta", "0", "--theta", "-1"],
        "model: family=saw_tooth beta=1.0 gamma=3.0 tilt=0.0\n"
        "seed: 5\n"
        "fundamental_relation_max_abs_err: 0\n"
        "tilted_lhs: 0.38907828399003824\n"
        "tilted_rhs: 0.37116271544974949\n"
        "tilted_z: 1.3950654609542832\n"
        "first_passage_theta: 0\n"
        "first_passage_lhs: 0\n"
        "first_passage_rhs: 0\n"
        "first_passage_rhs_stderr: 0\n"
        "first_passage_analytic_L: 0\n"
        "first_passage_theta: -1\n"
        "first_passage_lhs: -1.2289935184926415\n"
        "first_passage_rhs: -1.3174289011555527\n"
        "first_passage_rhs_stderr: 0.064288046100218418\n"
        "first_passage_analytic_L: -1.3027756377319943\n"),
}


@pytest.mark.parametrize("argv,expected", STDOUT.values(), ids=STDOUT.keys())
def test_stdout_pinned(capsys, argv, expected):
    code, out, _ = invoke(capsys, argv)
    assert code == 0
    assert out == expected


def test_analytic_commands_need_no_numpy():
    # numpy made unimportable: profile, rate-curve, figures and the moment
    # ledger still print their pinned stdout
    import json
    import subprocess
    import sys
    cases = [(["profile", *argv], out) for argv, out in (
        PROFILES["brownian_3a_4c"], PROFILES["cp_plus_3b_4a"])]
    cases += [STDOUT["rate_curve"], STDOUT["figures"],
              STDOUT["moments_brownian"], STDOUT["moments_cp_minus_truncated"]]
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from levyclocks import cli\n"
        "outs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        code = cli.run(argv)\n"
        "    outs.append([code, out.getvalue()])\n"
        "print(json.dumps(outs))\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script,
         json.dumps([argv for argv, _ in cases])],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, out] for _, out in cases]
