import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import format_matrix_text
from locact import activity, cli, complexity, genericity, linsys, nonlinear
from locact.errors import LocactError, NoConvergence, StageError
from locact.serialize import dumps_canonical, format_csv_row
from test_complexity import (
    _fhn_rational_oracle,
    _one_port_rational_oracle,
    _use_numpy_evaluator,
    _use_per_rational_scan,
    _use_per_row_oracles,
)


def write_matrix(path, M, fmt="json"):
    text = linsys.format_matrix_json(M) if fmt == "json" else format_matrix_text(M)
    path.write_text(text)
    return str(path)


@pytest.fixture
def paper_pair(tmp_path):
    A = write_matrix(tmp_path / "A.json", np.array([[-1.0, 10.0], [0.0, -2.0]]))
    P = write_matrix(tmp_path / "P.txt", np.eye(2), fmt="text")
    return A, P


@pytest.fixture
def large_abscissa_pair(tmp_path):
    # spectral abscissa about 387, one port
    U = np.array([[0.55, -0.92, -1.84, -1.93],
                  [1.25, 1.65, 0.43, 0.92],
                  [0.17, 1.74, 1.26, -1.99],
                  [1.43, -1.87, 0.92, -1.3]])
    A = write_matrix(tmp_path / "A.json", 200.0 * U)
    P = write_matrix(tmp_path / "P.json", np.diag([1.0, 0.0, 0.0, 0.0]))
    return A, P


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _cmd_fhn_oracle(mu, beta, gamma, xi, overrides, output=None, sweep=None,
                    sweep_csv=None):
    """``cli.cmd_fhn`` with a per-point sweep loop: Newton, spectrum, the
    rational and its classification point by point, the rational from its
    closed form in x_d, beta and xi."""
    for name, value in (("mu", mu), ("beta", beta), ("gamma", gamma), ("xi", xi)):
        if not np.isfinite(value):
            raise cli.InputError(f"--{name} must be finite, got {value}")
    cfg = cli._config(activity.WitnessSearchConfig, overrides)
    tols = cli._config(complexity.ClassifierTolerances, overrides)
    report = {"params": {"mu": mu, "beta": beta, "gamma": gamma, "xi": xi}}
    try:
        report["pipeline"] = nonlinear.analyze_equilibrium_pipeline(
            nonlinear.fhn_system(mu, beta, gamma, xi),
            nonlinear.fhn_equilibrium_guesses(mu, beta, gamma, xi)[0], cfg, tols)
    except StageError as exc:
        report["pipeline"] = {"error": str(exc), "stage": exc.stage}
    if sweep is not None:
        lo, hi, count = sweep
        rows = []
        x_guess = None
        abscissas = []
        for m in np.linspace(lo, hi, count):
            try:
                sysm = nonlinear.fhn_system(m, beta, gamma, xi)
                guess = x_guess if x_guess is not None else \
                    nonlinear.fhn_equilibrium_guesses(m, beta, gamma, xi)[0]
                eq = nonlinear.find_equilibrium(sysm, guess)
                x_guess = eq.x_star
                max_re = float(np.linalg.eigvals(eq.jacobian_full).real.max())
                rf = _fhn_rational_oracle(float(eq.x_star[0]), beta, xi)
                edge = complexity.edge_of_chaos_classify(rf, tols)
                rows.append((float(m), float(eq.x_star[0]), float(eq.x_star[1]),
                             max_re, edge.edge_of_chaos))
                abscissas.append((float(m), max_re))
            except LocactError as exc:
                rows.append((float(m), "error", str(exc), "", ""))
        csv_lines = ["mu,x_d,y_d,maxReEig_full,edge_of_chaos"]
        csv_lines += [format_csv_row(r) for r in rows]
        csv_text = "\n".join(csv_lines) + "\n"
        if sweep_csv:
            with open(sweep_csv, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        mu_star = None
        for (m0, p0), (m1, p1) in zip(abscissas[:-1], abscissas[1:]):
            if np.sign(p0) != np.sign(p1) and p0 != 0.0:
                try:
                    res = nonlinear.hopf_locate(
                        lambda m: nonlinear.fhn_system(m, beta, gamma, xi),
                        m0, m1, tol=1e-6,
                    )
                    mu_star = {"mu": res.mu_star, "is_hopf": res.is_hopf,
                               "equilibrium": res.equilibrium.tolist()}
                except LocactError as exc:
                    mu_star = {"error": str(exc)}
                break
        report["sweep"] = {"points": len(rows), "csv": sweep_csv,
                           "hopf": mu_star}
        if not sweep_csv:
            report["sweep"]["rows"] = [list(r) for r in rows]
    cli._emit(report, output)
    return 0


def _fhn_bytes(capsys, monkeypatch, argv, csv_path, oracle):
    """Exit code, stdout and sweep CSV bytes of one ``fhn`` run, through the
    shipped command or through the per-point loop with the per-rational
    axis scan and the per-row oracles of the rational, its poles and its
    axis candidates (numpy's polynomial utilities, one row at a time)."""
    with monkeypatch.context() as patch:
        if oracle:
            patch.setattr(cli, "cmd_fhn", _cmd_fhn_oracle)
            patch.setattr(complexity, "one_port_rational", _one_port_rational_oracle)
            _use_per_rational_scan(patch)
            _use_per_row_oracles(patch)
        code, out = run_cli(capsys, *argv)
    csv = csv_path.read_bytes() if csv_path.exists() else None
    if csv is not None:
        csv_path.unlink()
    return code, out, csv


class TestAnalyze:
    def test_destabilization_matrix_is_active(self, paper_pair, capsys):
        code, out = run_cli(capsys, "analyze", *paper_pair)
        assert code == 0
        report = json.loads(out)
        assert report["activity"]["status"] == "Active"
        assert report["activity"]["witness"]["W"] < 0.0

    def test_negative_identity_is_passive(self, tmp_path, capsys):
        A = write_matrix(tmp_path / "A.json", -np.eye(2))
        P = write_matrix(tmp_path / "P.json", np.eye(2))
        code, out = run_cli(capsys, "analyze", A, P)
        assert code == 0
        report = json.loads(out)
        assert report["activity"]["status"] == "Passive"
        assert report["activity"]["certificate"]["max_eig"] == -1.0

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        A = write_matrix(tmp_path / "A.json", np.eye(3))
        P = write_matrix(tmp_path / "P.json", np.eye(2))
        code, out = run_cli(capsys, "analyze", A, P)
        assert code == 2
        assert "error" in json.loads(out)

    def test_generic_membership_runs_once(self, tmp_path, capsys, monkeypatch):
        # the two-pulse route and the genericity section share one call;
        # the report is the one the two separate calls gave
        A = np.array([[0.5, 1.0], [-1.0, 0.2]])
        P = np.diag([1.0, 0.0])
        paths = (write_matrix(tmp_path / "A.json", A), write_matrix(tmp_path / "P.json", P))
        sys = linsys.make_system(A, P)
        expected = dumps_canonical({
            "activity": activity.classify_activity(sys).to_json(),
            "genericity": genericity.in_generic_M(sys).to_json(),
        }) + "\n"
        in_generic_M = genericity.in_generic_M
        calls = []
        monkeypatch.setattr(genericity, "in_generic_M",
                            lambda s, *a, **k: calls.append(s) or in_generic_M(s, *a, **k))
        code, out = run_cli(capsys, "analyze", *paths)
        assert code == 0 and len(calls) == 1
        assert "generic two-pulse" in json.loads(out)["activity"]["notes"]
        assert out == expected

    def test_unknown_tolerance_key_exits_2(self, paper_pair, capsys):
        code, out = run_cli(capsys, "analyze", *paper_pair, "--tol.bogus=1")
        assert code == 2
        assert "bogus" in json.loads(out)["error"]

    @pytest.mark.parametrize("key", ["spec_tol", "exp_tol", "sym_tol", "imag_tol",
                                     "newton_tol"])
    def test_unused_tolerance_key_exits_2(self, paper_pair, capsys, key):
        # these keys reached no computation, so the CLI no longer accepts them
        code, out = run_cli(capsys, "analyze", *paper_pair, f"--tol.{key}=1e-3")
        assert code == 2
        assert key in json.loads(out)["error"]

    def test_bad_env_seed_is_ignored(self, paper_pair, capsys, monkeypatch):
        monkeypatch.setenv("LOCACT_SEED", "abc")
        code, out = run_cli(capsys, "analyze", *paper_pair)
        assert code == 0
        assert json.loads(out)["activity"]["status"] == "Active"

    def test_tolerance_override_accepted(self, paper_pair, capsys):
        code, out = run_cli(capsys, "analyze", *paper_pair, "--tol.cert_tol=1e-6")
        assert code == 0

    def test_output_file(self, paper_pair, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _ = run_cli(capsys, "--output", str(out_path), "analyze", *paper_pair)
        assert code == 0
        assert json.loads(out_path.read_text())["activity"]["status"] == "Active"

    def test_large_real_eigenvalue_is_active(self, tmp_path, capsys):
        # the real-eigenpair horizon shrinks with the eigenvalue, so e^(lam t)
        # stays representable instead of tripping the overflow guard
        A = write_matrix(tmp_path / "A.json", np.array([[400.0]]))
        P = write_matrix(tmp_path / "P.json", np.array([[1.0]]))
        code, out = run_cli(capsys, "analyze", A, P)
        assert code == 0
        report = json.loads(out)
        assert report["activity"]["status"] == "Active"
        assert report["activity"]["witness"]["W"] < 0.0

    def test_large_spectral_abscissa_is_inconclusive(self, large_abscissa_pair, capsys):
        # the scan horizon 200/max_re is below 2, so the scan holds no
        # mollifiable two-pulse horizon; the verdict says so instead of crashing
        code, out = run_cli(capsys, "analyze", *large_abscissa_pair)
        assert code == 0
        activity = json.loads(out)["activity"]
        assert activity["status"] == "Inconclusive"
        assert "ScanExhausted" in activity["notes"]
        assert "T_max" in activity["notes"]

    def test_determinism_byte_identical(self, paper_pair, capsys):
        _, first = run_cli(capsys, "analyze", *paper_pair)
        _, second = run_cli(capsys, "analyze", *paper_pair)
        assert first == second


class TestWitness:
    def test_scalar_unstable_csv_self_consistency(self, tmp_path, capsys):
        A = write_matrix(tmp_path / "A.json", np.array([[2.0]]))
        P = write_matrix(tmp_path / "P.json", np.array([[1.0]]))
        csv_path = tmp_path / "traj.csv"
        code, out = run_cli(capsys, "witness", A, P, "--csv", str(csv_path))
        assert code == 0
        report = json.loads(out)
        W = report["witness"]["W"]
        rows = csv_path.read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header == ["t", "x1", "u1", "integrand"]
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        integral = np.trapezoid(data[:, -1], data[:, 0])
        assert integral == pytest.approx(W, rel=0.01)

    def test_passive_input_exits_3(self, tmp_path, capsys):
        A = write_matrix(tmp_path / "A.json", -np.eye(2))
        P = write_matrix(tmp_path / "P.json", np.eye(2))
        code, out = run_cli(capsys, "witness", A, P)
        assert code == 3
        assert json.loads(out)["status"] == "Passive"

    def test_real_eigenpair_beside_a_near_real_pair_exits_0(self, tmp_path, capsys):
        # the real eigenvalue 0.5 sorts between the members of 0.5 +/- 1e-16i
        A = write_matrix(tmp_path / "A.json", np.array(
            [[0.5, 1e-16, 0.0], [-1e-16, 0.5, 0.0], [0.0, 0.0, 0.5]]))
        P = write_matrix(tmp_path / "P.json", np.diag([0.0, 0.0, 1.0]))
        csv_path = tmp_path / "traj.csv"
        code, out = run_cli(capsys, "witness", A, P, "--csv", str(csv_path))
        assert code == 0
        assert json.loads(out)["witness"]["W"] == -0.013911951370681314

    def test_large_spectral_abscissa_exits_3(self, large_abscissa_pair, capsys):
        code, out = run_cli(capsys, "witness", *large_abscissa_pair)
        assert code == 3
        assert json.loads(out)["status"] == "Inconclusive"

    def test_inconclusive_input_exits_3_with_notes(self, tmp_path, capsys):
        A = write_matrix(tmp_path / "A.json", np.array([[-1.0, 10.0], [0.0, -2.0]]))
        P = write_matrix(tmp_path / "P.json", np.array([[1.0, 0.7], [0.0, 0.0]]))
        code, out = run_cli(capsys, "witness", A, P)
        assert code == 3
        report = json.loads(out)
        assert report["status"] == "Inconclusive"
        assert report["notes"].startswith("P is not symmetric")

    def test_oblique_projection_with_dissipative_A_is_passive(self, tmp_path, capsys):
        A = write_matrix(tmp_path / "A.json", -np.eye(2))
        P = write_matrix(tmp_path / "P.json", np.array([[1.0, 0.7], [0.0, 0.0]]))
        code, out = run_cli(capsys, "analyze", A, P)
        assert code == 0
        verdict = json.loads(out)["activity"]
        assert verdict["status"] == "Passive" and verdict["witness"] is None
        assert verdict["certificate"] == {"kind": "SymANegSemidef", "max_eig": -1.0}
        code, out = run_cli(capsys, "witness", A, P)
        assert code == 3
        assert json.loads(out) == {"status": "Passive", "witness": None, "notes":
                                   "passivity certificate via dissipativity of A (max eig -1)"}


class TestFormatCsvRow:
    @pytest.mark.parametrize("v", [0.0, -0.0, 1.0, -2.5, 0.1, 1e308, -1e-300,
                                   5e-324, 2.2250738585072009e-308, math.pi,
                                   float("nan"), float("inf"), float("-inf")])
    def test_float_fast_path_prints_the_ladders_bytes(self, v):
        # a float takes the fast path, a numpy float64 the isinstance ladder
        assert type(np.float64(v)) is not float
        assert format_csv_row([v]) == format_csv_row([np.float64(v)]) \
            == format(np.float64(v), ".17g")
        assert format_csv_row([v, np.float64(v), "x", True, 3]) == \
            ",".join([format_csv_row([v])] * 2 + ["x", "1", "3"])


    @given(st.lists(st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf,
                                                    -math.inf, 5e-324]), max_size=9))
    def test_float_row_prints_each_cells_bytes(self, row):
        assert format_csv_row(row) == ",".join(format(v, ".17g") for v in row)


class TestFhn:
    def test_defaults_pipeline(self, capsys):
        code, out = run_cli(capsys, "fhn", "--mu", "0.05")
        assert code == 0
        report = json.loads(out)
        eq = report["pipeline"]["equilibrium"]["x_star"]
        assert eq[0] == pytest.approx(-0.904070, abs=1e-4)
        assert eq[1] == pytest.approx(-0.612555, abs=1e-4)
        assert report["pipeline"]["edge_of_chaos"]["edge_of_chaos"] is True

    def test_defaults_are_those_of_nonlinear(self, capsys):
        code, out = run_cli(capsys, "fhn")
        assert code == 0
        assert json.loads(out)["params"] == nonlinear.FHN_DEFAULTS

    @pytest.mark.parametrize("flag, value", [
        ("--mu", "1e308"), ("--beta", "1e-308"), ("--gamma", "1e308")])
    def test_overflowing_equilibrium_cubic_exits_0(self, capsys, flag, value):
        # the cubic of the equilibrium guesses overflowed: exit 1, traceback
        code, out = run_cli(capsys, "fhn", flag, value)
        assert code == 0
        assert "pipeline" in json.loads(out)

    @pytest.mark.parametrize("argv", [
        ("--mu", "1e308"), ("--gamma", "1e308"),
        ("--beta", "2", "--xi", "1e308", "--sweep=-8:-3:11")])
    def test_overflowing_newton_solve_warns_nothing(self, capsys, argv):
        # the residual norm ("overflow encountered in dot"), the kinetics
        # and the pseudo-inverse step of find_equilibrium warned; as errors,
        # the warnings changed the reports
        plain = run_cli(capsys, "fhn", *argv)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(capsys, "fhn", *argv) == plain

    def test_sweep_beyond_the_point_bound_exits_2(self, capsys):
        # 0:1:100000000000 exited 1 with a 745 GiB allocation failure; only
        # the bound plus one is run here, which is rejected before any array
        code, out = run_cli(capsys, "fhn", "--sweep", "0:1:100001")
        assert code == 2
        assert json.loads(out)["error"] == "--sweep takes at most 100000 steps, got 100001"

    def test_sweep_locates_hopf(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code, out = run_cli(capsys, "fhn", "--sweep", "0:0.1:21",
                            "--sweep-csv", str(csv_path))
        assert code == 0
        report = json.loads(out)
        hopf = report["sweep"]["hopf"]
        assert 0.045 <= hopf["mu"] <= 0.055
        assert hopf["is_hopf"] is True
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "mu,x_d,y_d,maxReEig_full,edge_of_chaos"
        assert len(rows) == 22

    def test_sweep_bytes_match_numpy_evaluation(self, tmp_path, capsys, monkeypatch):
        csv_path = tmp_path / "sweep.csv"
        argv = ("fhn", "--mu", "0.05", "--sweep", "0:0.1:41", "--sweep-csv", str(csv_path))
        shipped = run_cli(capsys, *argv), csv_path.read_bytes()
        probed = _use_numpy_evaluator(monkeypatch)
        assert (run_cli(capsys, *argv), csv_path.read_bytes()) == shipped
        # the sweep's stacked probes, over all 41 rows, went through the oracle
        assert max(probed) >= 41

    def test_classifier_tolerances_reach_point_report(self, capsys):
        code, out = run_cli(capsys, "fhn", "--mu", "0.05")
        default = json.loads(out)["pipeline"]["edge_of_chaos"]
        assert default["cond_iv"] is True and default["evidence"]["iv"]["re_Y"] < -0.1
        code, out = run_cli(capsys, "fhn", "--mu", "0.05", "--tol.axis_val_tol=10")
        assert code == 0
        edge = json.loads(out)["pipeline"]["edge_of_chaos"]
        assert edge["cond_iv"] is False and edge["edge_of_chaos"] is False
        assert edge["evidence"] == default["evidence"]

    def test_sweep_takes_one_residual_per_newton_iterate(self, tmp_path, capsys,
                                                         monkeypatch):
        # 413 Newton solves; each iterate's residual is evaluated once, by
        # the line search that accepted it
        calls = []
        residual = nonlinear._residual
        monkeypatch.setattr(nonlinear, "_residual",
                            lambda sys, x: calls.append(x) or residual(sys, x))
        code, _ = run_cli(capsys, "fhn", "--mu", "0.05", "--sweep", "0:0.1:401",
                          "--sweep-csv", str(tmp_path / "sweep.csv"))
        assert code == 0
        assert len(calls) == 1229

    def test_point_scans_horizons_only_to_its_first_hit(self, capsys, monkeypatch):
        # the two-pulse scan of the mu = 0.05 point evaluated all 39,961
        # horizons up to T_max = 2000; the first block of 256 holds its first
        # hit, and the lookahead adds 41
        horizons = []
        sums = activity._two_pulse_sums
        monkeypatch.setattr(activity, "_two_pulse_sums", lambda lam, gh, sq, k, Ts:
                            horizons.append(len(Ts)) or sums(lam, gh, sq, k, Ts))
        code, out = run_cli(capsys, "fhn", "--mu", "0.05")
        assert code == 0
        assert "generic two-pulse" in json.loads(out)["pipeline"]["activity"]["notes"]
        assert 0 < sum(horizons) <= 297

    def test_bad_sweep_spec_exits_2(self, capsys):
        code, out = run_cli(capsys, "fhn", "--sweep", "0:0.1")
        assert code == 2

    @pytest.mark.parametrize("spec", ["-inf:0:5", "0:inf:3", "-1e308:1e308:3",
                                      "nan:1:3", "0:nan:3"])
    def test_non_finite_sweep_exits_2(self, capsys, spec):
        code, out = run_cli(capsys, "fhn", f"--sweep={spec}")
        assert code == 2
        assert "--sweep" in json.loads(out)["error"]

    @pytest.mark.parametrize("argv", [
        ("--mu", "0.05", "--sweep", "0:0.1:401"),
        ("--mu", "0.7", "--sweep=-0.5:1.5:81"),
        ("--mu", "-0.1", "--beta", "0.7", "--sweep=-2:3:201"),
        # a singular Jacobian at every iterate: pseudo-inverse steps throughout
        ("--xi", "0", "--sweep", "0:0.1:41"),
        # no point converges: the spectra are taken of a (0, 2, 2) stack
        ("--beta", "1e308", "--xi", "10", "--sweep", "0:0.1:3"),
    ])
    def test_sweep_bytes_match_per_point_loop(self, tmp_path, capsys, monkeypatch, argv):
        csv_path = tmp_path / "sweep.csv"
        for extra in (("--sweep-csv", str(csv_path)), ()):
            full = ("fhn", *argv, *extra)
            stacked = _fhn_bytes(capsys, monkeypatch, full, csv_path, oracle=False)
            assert stacked[0] == 0
            assert stacked == _fhn_bytes(capsys, monkeypatch, full, csv_path, oracle=True)

    def test_spectra_of_an_empty_stack(self):
        assert np.linalg.eigvals(np.zeros((0, 2, 2))).real.max(axis=1).shape == (0,)

    def test_failed_rows_match_per_point_loop(self, tmp_path, capsys, monkeypatch):
        # a Newton failure at the 4th point, a classification failure at the
        # 10th (mu = 0.045, next to the Hopf crossing) and a rational that
        # overflows at the last keep their error rows: the stacked
        # classification raises, and each point is classified alone.  The
        # other rows are unaffected, and the Hopf bracket skips the failed point
        mus = np.linspace(0.0, 0.1, 21)
        find_equilibrium = nonlinear.find_equilibrium
        pole_conditions = complexity._pole_conditions
        poisoned = set()  # the numerators of the rationals at mus[9]

        def failing_newton(sys, guess, **kwargs):
            if sys.params["mu"] == float(mus[3]):
                raise NoConvergence("injected Newton failure")
            eq = find_equilibrium(sys, guess, **kwargs)
            if sys.params["mu"] == float(mus[9]):
                poisoned.add(complexity.one_port_rational(eq.jacobian_kinetic).num)
            if sys.params["mu"] == float(mus[20]):
                # x_d = 1e200: the kinetic Jacobian and the closed form in
                # x_d both give an infinite numerator
                x = np.array([1e200, eq.x_star[1]])
                with np.errstate(over="ignore"):
                    eq = dataclasses.replace(eq, x_star=x, jacobian_kinetic=sys.jacobian_f(x))
            return eq

        def failing_conditions(rf, *args):
            if rf.num in poisoned:
                raise LocactError("injected classification failure")
            return pole_conditions(rf, *args)

        hopf_locate = nonlinear.hopf_locate
        brackets = []

        def recorded_hopf(builder, mu_lo, mu_hi, **kwargs):
            brackets.append((mu_lo, mu_hi))
            return hopf_locate(builder, mu_lo, mu_hi, **kwargs)

        monkeypatch.setattr(nonlinear, "find_equilibrium", failing_newton)
        monkeypatch.setattr(complexity, "_pole_conditions", failing_conditions)
        monkeypatch.setattr(nonlinear, "hopf_locate", recorded_hopf)
        csv_path = tmp_path / "sweep.csv"
        argv = ("fhn", "--mu", "0.03", "--sweep", "0:0.1:21", "--sweep-csv", str(csv_path))
        stacked = _fhn_bytes(capsys, monkeypatch, argv, csv_path, oracle=False)
        assert stacked == _fhn_bytes(capsys, monkeypatch, argv, csv_path, oracle=True)
        assert brackets == [(float(mus[8]), float(mus[10]))] * 2
        rows = stacked[2].decode().splitlines()
        assert rows[4].endswith(",error,injected Newton failure,,")
        assert rows[10].endswith(",error,injected classification failure,,")
        assert rows[21].endswith(",error,coefficients must be finite, got "
                                 "num=[inf, inf, 1.0], den=[0.128, 1.0, 0.0],,")
        assert sum(",error," in row for row in rows) == 3
        assert json.loads(stacked[1])["sweep"]["hopf"]["is_hopf"] is True

    def test_overflowing_jacobian_gives_error_rows(self, capsys):
        # exited 1 with numpy's LinAlgError from the spectrum of a Jacobian
        # holding -xi beta = -1e309
        code, out = run_cli(capsys, "fhn", "--beta", "1e308", "--xi", "10",
                            "--sweep", "0:0.1:3")
        assert code == 0
        report = json.loads(out)
        assert report["pipeline"]["stage"] == "find_equilibrium"
        assert "is not finite" in report["pipeline"]["error"]
        rows = report["sweep"]["rows"]
        assert [row[1] for row in rows] == ["error"] * 3
        assert all("Jacobian at the equilibrium" in row[2] for row in rows)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--mu", "--beta", "--gamma", "--xi"])
    def test_non_finite_parameter_exits_2(self, capsys, flag, value):
        code, out = run_cli(capsys, "fhn", flag, value)
        assert code == 2
        assert flag in json.loads(out)["error"]

    def test_degenerate_xi_zero_completes_with_flag(self, capsys):
        code, out = run_cli(capsys, "fhn", "--mu", "0.05", "--xi", "0")
        assert code == 0
        report = json.loads(out)
        assert "pseudo-inverse" in report["pipeline"]["equilibrium"]["notes"]


class TestRdCell:
    def test_single_cell_linear_kinetics(self, tmp_path, capsys):
        spec = {
            "N": 1, "boundary": "dirichlet", "m": 1, "n": 2, "D": [0.0125],
            "kinetics": {"type": "linear", "A": [[0.5, -1.0], [1.0, -0.8]]},
            "guesses": [[0.0, 0.0]],
        }
        path = tmp_path / "cell.json"
        path.write_text(json.dumps(spec))
        code, out = run_cli(capsys, "rd-cell", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["laplacian"] == [[-4.0]]
        assert len(report["reports"]) == 1
        assert report["reports"][0]["activity"]["status"] in (
            "Active", "Passive", "Inconclusive")

    def test_toroidal_laplacian_rows_sum_to_zero(self, tmp_path, capsys):
        spec = {
            "N": 3, "boundary": "toroidal", "m": 1, "n": 2, "D": [0.0125],
            "kinetics": {"type": "fhn", "mu": 0.05},
        }
        path = tmp_path / "cell.json"
        path.write_text(json.dumps(spec))
        code, out = run_cli(capsys, "rd-cell", str(path))
        assert code == 0
        L = np.array(json.loads(out)["laplacian"])
        assert L.shape == (9, 9)
        np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-14)

    def test_m_exceeding_n_exits_2(self, tmp_path, capsys):
        spec = {"N": 1, "m": 3, "n": 2, "D": [0.1, 0.1, 0.1],
                "kinetics": {"type": "linear", "A": [[0.0, 0.0], [0.0, 0.0]]}}
        path = tmp_path / "cell.json"
        path.write_text(json.dumps(spec))
        code, out = run_cli(capsys, "rd-cell", str(path))
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, out = run_cli(capsys, "rd-cell", "/nonexistent/spec.json")
        assert code == 2

    LINEAR = {"N": 1, "m": 1, "n": 2, "D": [0.0125],
              "kinetics": {"type": "linear", "A": [[0.5, -1.0], [1.0, -0.8]]}}
    FHN = {"N": 1, "m": 1, "n": 2, "D": [0.0125], "kinetics": {"type": "fhn"}}

    def _run_spec(self, tmp_path, capsys, text):
        path = tmp_path / "cell.json"
        path.write_text(text)
        return run_cli(capsys, "rd-cell", str(path))

    @pytest.mark.parametrize("key, value", [
        ("N", 1.5), ("m", 1.9), ("n", 2.2), ("N", True), ("m", True), ("n", "2")])
    def test_non_integer_size_exits_2(self, tmp_path, capsys, key, value):
        # int() truncated these, and took a bool for 1
        code, out = self._run_spec(tmp_path, capsys,
                                   json.dumps({**self.LINEAR, key: value}))
        assert code == 2
        assert f"'{key}'" in json.loads(out)["error"]

    def test_integral_float_size_is_accepted(self, tmp_path, capsys):
        want = self._run_spec(tmp_path, capsys, json.dumps(self.LINEAR))
        assert want[0] == 0
        spec = {**self.LINEAR, "N": 1.0, "m": 1.0, "n": 2.0}
        assert self._run_spec(tmp_path, capsys, json.dumps(spec)) == want

    @pytest.mark.parametrize("base, key, text", [
        ("LINEAR", "D", '"D": [1e400]'), ("LINEAR", "D", '"D": [NaN]'),
        ("LINEAR", "D", '"D": [-Infinity]'),
        ("FHN", "mu", '"kinetics": {"type": "fhn", "mu": NaN}'),
        ("FHN", "beta", '"kinetics": {"type": "fhn", "beta": 1e400}'),
        ("FHN", "gamma", '"kinetics": {"type": "fhn", "gamma": -Infinity}'),
        ("FHN", "xi", '"kinetics": {"type": "fhn", "xi": NaN}'),
        ("LINEAR", "A", '"kinetics": {"type": "linear", "A": [[0.5, NaN], [1.0, -0.8]]}'),
        ("LINEAR", "A", '"kinetics": {"type": "linear", "A": [[0.5, -1.0], [1e400, -0.8]]}'),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, base, key, text):
        spec = getattr(self, base)
        head = text.split(":")[0]
        fields = [f'"{k}": {json.dumps(v)}' for k, v in spec.items() if f'"{k}"' != head]
        code, out = self._run_spec(tmp_path, capsys, "{" + ", ".join(fields + [text]) + "}")
        assert code == 2
        assert f"'{key}'" in json.loads(out)["error"]

    @pytest.mark.parametrize("key, change", [
        # these crashed with a traceback
        ("boundary", {"boundary": 5}),
        ("guesses", {"guesses": ["x"]}),
        ("guesses", {"guesses": 5}),
        # these ran, the bool as 1 and the strings as numbers
        ("D", {"D": [True]}),
        ("D", {"D": ["0.1"]}),
        ("mu", {"kinetics": {"type": "fhn", "mu": "0.05"}}),
        ("A", {"kinetics": {"type": "linear", "A": [[True, "1"], [0, -1]]}}),
        ("guesses", {"guesses": [[True, 0.0]]}),
    ])
    def test_non_number_value_exits_2(self, tmp_path, capsys, key, change):
        # a spec number is a JSON int or float, as in a matrix file's rows
        base = self.FHN if key == "mu" else self.LINEAR
        code, out = self._run_spec(tmp_path, capsys, json.dumps({**base, **change}))
        assert code == 2
        assert f"'{key}'" in json.loads(out)["error"]

    @pytest.mark.parametrize("key, change", [
        ("boundry", {"boundry": "neumann"}),
        ("Mu", {"kinetics": {"type": "fhn", "Mu": 0.3}}),
        ("mu", {"kinetics": {"type": "linear", "A": [[0.5, -1.0], [1.0, -0.8]], "mu": 0.3}}),
        ("A", {"kinetics": {"type": "fhn", "A": [[0.5, -1.0], [1.0, -0.8]]}}),
    ])
    def test_unknown_key_exits_2(self, tmp_path, capsys, key, change):
        # each of these printed the plain spec's report, its key ignored
        code, out = self._run_spec(tmp_path, capsys, json.dumps({**self.FHN, **change}))
        assert code == 2
        assert f"unknown key '{key}'" in json.loads(out)["error"]

    @pytest.mark.parametrize("kind", [["fhn"], {"fhn": 1}, 5, None])
    def test_kinetics_type_that_is_not_a_name_exits_2(self, tmp_path, capsys, kind):
        spec = {**self.FHN, "kinetics": {"type": kind}}
        code, out = self._run_spec(tmp_path, capsys, json.dumps(spec))
        assert code == 2
        assert "unknown kinetics" in json.loads(out)["error"]

    @pytest.mark.parametrize("N", [65, 100000])
    def test_grid_beyond_64_exits_2(self, tmp_path, capsys, N):
        # N = 100000 exited 1 with a 74.5 GiB allocation failure
        code, out = self._run_spec(tmp_path, capsys, json.dumps({**self.FHN, "N": N}))
        assert code == 2
        assert json.loads(out)["error"] == f"'N' must be at most 64, got {N}"

    def test_overflowing_fhn_guess_cubic_still_reports(self, tmp_path, capsys):
        # the default guess came from a cubic that overflowed: exit 1, traceback
        spec = {**self.FHN, "kinetics": {"type": "fhn", "mu": 1e308}}
        code, out = self._run_spec(tmp_path, capsys, json.dumps(spec))
        assert code == 0
        assert json.loads(out)["reports"][0]["equilibrium"]["residual"] <= 1e-10

    def test_spec_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        code, out = self._run_spec(tmp_path, capsys, json.dumps([self.LINEAR]))
        assert code == 2
        assert "JSON object" in json.loads(out)["error"]


class TestGenericityCommand:
    def test_scalar_density(self, capsys):
        code, out = run_cli(capsys, "genericity", "--n", "1", "--samples", "200")
        assert code == 0
        report = json.loads(out)
        assert report["fraction"] >= 0.99

    def test_seed_reproducibility(self, capsys):
        _, first = run_cli(capsys, "--seed", "42", "genericity", "--n", "3",
                           "--samples", "100")
        _, second = run_cli(capsys, "--seed", "42", "genericity", "--n", "3",
                            "--samples", "100")
        assert first == second
        assert json.loads(first)["seed"] == 42

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("LOCACT_SEED", "9")
        code, out = run_cli(capsys, "genericity", "--n", "2", "--samples", "50")
        assert code == 0
        assert json.loads(out)["seed"] == 9

    def test_bad_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("LOCACT_SEED", "abc")
        code, out = run_cli(capsys, "genericity", "--n", "2", "--samples", "50")
        assert code == 2
        assert "LOCACT_SEED" in json.loads(out)["error"]

    def test_zero_n_exits_2(self, capsys):
        code, out = run_cli(capsys, "genericity", "--n", "0")
        assert code == 2

    def test_n_beyond_the_bound_exits_2(self, capsys):
        # --n 100000 asked for an 80 GB draw in one call; only the bound
        # plus one is run here, which is rejected before any array
        code, out = run_cli(capsys, "genericity", "--n", "4097")
        assert code == 2
        assert json.loads(out)["error"] == "--n must be at most 4096, got 4097"


_CLASSIFIER = ["on_axis_tol", "resid_tol", "axis_val_tol", "cluster_tol"]
_WITNESS = ["T_max", "T_scan_step", "quad_steps_per_unit_time", "cert_tol",
            "eigvec_in_imP_tol"]
# (command, key) pairs whose key reaches no call of that command
_IGNORED_PAIRS = (
    [("analyze", k) for k in ["genericity_tol"] + _CLASSIFIER]
    + [("witness", k) for k in ["genericity_tol"] + _CLASSIFIER]
    + [("fhn", k) for k in ["proj_tol", "genericity_tol"]]
    + [("rd-cell", k) for k in ["proj_tol", "genericity_tol"] + _CLASSIFIER]
    + [("genericity", k) for k in ["proj_tol"] + _WITNESS + _CLASSIFIER]
)


@pytest.fixture
def argv_of(paper_pair, tmp_path):
    spec = tmp_path / "cell.json"
    spec.write_text(json.dumps({
        "N": 1, "m": 1, "n": 2, "D": [0.0125],
        "kinetics": {"type": "linear", "A": [[0.5, -1.0], [1.0, -0.8]]},
    }))
    return {
        "analyze": ["analyze", *paper_pair],
        "witness": ["witness", *paper_pair],
        "fhn": ["fhn", "--mu", "0.05"],
        "rd-cell": ["rd-cell", str(spec)],
        "genericity": ["genericity", "--n", "2", "--samples", "5"],
    }


class TestFlagsWithoutEffect:
    """A flag that would change nothing exits 2 and is named."""

    @pytest.mark.parametrize("command", ["analyze", "witness", "fhn", "rd-cell"])
    def test_seed_outside_genericity_exits_2(self, argv_of, capsys, command):
        code, out = run_cli(capsys, "--seed", "3", *argv_of[command])
        assert code == 2
        error = json.loads(out)["error"]
        assert "--seed" in error and command in error

    def test_sweep_csv_without_sweep_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code, out = run_cli(capsys, "fhn", "--mu", "0.05", "--sweep-csv", str(csv_path))
        assert code == 2
        assert "--sweep-csv" in json.loads(out)["error"]
        assert not csv_path.exists()

    def test_empty_sweep_exits_2(self, capsys):
        code, out = run_cli(capsys, "fhn", "--mu", "0.05", "--sweep=")
        assert code == 2
        assert "--sweep" in json.loads(out)["error"]

    @pytest.mark.parametrize("command", ["analyze", "fhn"])
    def test_non_integral_quad_steps_exits_2(self, argv_of, capsys, command):
        code, out = run_cli(capsys, *argv_of[command],
                            "--tol.quad_steps_per_unit_time=256.9")
        assert code == 2
        assert "quad_steps_per_unit_time" in json.loads(out)["error"]
        _, default = run_cli(capsys, *argv_of[command])
        assert run_cli(capsys, *argv_of[command],
                       "--tol.quad_steps_per_unit_time=256") == (0, default)


_SWEEP = ("--sweep", "0:0.1:3")


class TestOutputPaths:
    """Every file the CLI writes goes through one helper: an empty path or
    one that cannot be written exits 2 with a one-line error."""

    @pytest.mark.parametrize("command, flag", [
        ("analyze", "--output"), ("witness", "--csv"), ("fhn", "--sweep-csv")])
    def test_empty_path_exits_2(self, argv_of, capsys, command, flag):
        argv = argv_of[command] + (list(_SWEEP) if command == "fhn" else [])
        for extra in ([flag, ""], [f"{flag}="]):
            if flag == "--output":
                code, out = run_cli(capsys, *extra, *argv)
            else:
                code, out = run_cli(capsys, *argv, *extra)
            assert code == 2
            error = json.loads(out)["error"]
            assert flag in error and "\n" not in error

    @pytest.mark.parametrize("command, flag, target", [
        ("analyze", "--output", "missing/r.json"),
        ("witness", "--csv", "missing/x.csv"),
        ("fhn", "--sweep-csv", "."),
        ("fhn", "--output", "."),
    ])
    def test_unwritable_path_exits_2(self, argv_of, tmp_path, capsys, command, flag,
                                     target):
        path = str(tmp_path / target)
        argv = argv_of[command] + (list(_SWEEP) if command == "fhn" else [])
        if flag == "--output":
            code, out = run_cli(capsys, flag, path, *argv)
        else:
            code, out = run_cli(capsys, *argv, flag, path)
        assert code == 2
        error = json.loads(out)["error"]
        assert error.startswith(f"cannot write {path}: ") and "\n" not in error


_SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("command", ["analyze", "witness"])
def test_closed_stdout_exits_2(paper_pair, command):
    # stdout is a pipe whose read end is already closed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "locact.cli", command, *paper_pair],
            stdout=write_end, stderr=subprocess.PIPE, timeout=300,
            env=dict(os.environ, PYTHONPATH=str(_SRC)))
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _analyze_in_2_gib(A, P, *options):
    """``cli.main(["analyze", A, P, *options])`` in a child process whose
    address space is limited to 2 GiB: (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from locact import cli; sys.exit(cli.main(sys.argv[1:]))",
         "analyze", A, P, *options],
        capture_output=True, timeout=300, preexec_fn=_limit_address_space,
        env=dict(os.environ, PYTHONPATH=str(_SRC), OPENBLAS_NUM_THREADS="1"))
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("A, T_max, choice", [
    ([[1e-5, 1.0], [-1.0, 1e-5]], "1e9", "a=+1, T=16.7"),
    ([[1.0, 1.0], [-2.0, -0.9999999999]], "1e308", "a=-1, T=2.05")])
def test_two_pulse_scan_never_allocates_its_whole_grid(tmp_path, A, T_max, choice):
    # the whole horizon grid up to T_max would take 7.45 GiB and 1.42 PiB
    # (about 1e9 and 2e14 horizons); the witness lies in the first block
    A = write_matrix(tmp_path / "A.json", np.array(A))
    P = write_matrix(tmp_path / "P.json", np.diag([1.0, 0.0]))
    code, out, err = _analyze_in_2_gib(A, P, f"--tol.T_max={T_max}")
    assert (code, err) == (0, b"")
    assert json.loads(out)["activity"]["notes"] == \
        f"witness: generic two-pulse scan ({choice})"
    assert (code, out, err) == _analyze_in_2_gib(A, P)


class TestToleranceKeysPerCommand:
    @pytest.mark.parametrize("command,key", _IGNORED_PAIRS)
    def test_key_without_effect_exits_2(self, argv_of, capsys, command, key):
        code, out = run_cli(capsys, *argv_of[command], f"--tol.{key}=5")
        assert code == 2
        error = json.loads(out)["error"]
        assert key in error and command in error

    @pytest.mark.parametrize("flag", [
        "--tol.T_max=-1", "--tol.T_max=nan", "--tol.T_max=inf",
        "--tol.T_scan_step=0", "--tol.cert_tol=-inf",
        "--tol.quad_steps_per_unit_time=nan", "--tol.quad_steps_per_unit_time=inf",
        "--tol.quad_steps_per_unit_time=0.5", "--tol.proj_tol=nan",
        "--tol.proj_tol=-1",
    ])
    def test_invalid_value_exits_2(self, argv_of, capsys, flag):
        code, out = run_cli(capsys, *argv_of["analyze"], flag)
        assert code == 2
        assert flag.split("=")[0][len("--tol."):] in json.loads(out)["error"]

    @pytest.mark.parametrize("command,flag", [
        ("genericity", "--tol.genericity_tol=-1"),
        ("genericity", "--tol.genericity_tol=-1e-300"),
        ("fhn", "--tol.resid_tol=-1"),
        ("fhn", "--tol.on_axis_tol=-1e-7"),
        ("fhn", "--tol.axis_val_tol=-1"),
        ("fhn", "--tol.cluster_tol=-1"),
    ])
    def test_negative_tolerance_exits_2(self, argv_of, capsys, command, flag):
        code, out = run_cli(capsys, *argv_of[command], flag)
        assert code == 2
        assert "non-negative" in json.loads(out)["error"]

    def test_genericity_tol_accepted_by_genericity(self, argv_of, capsys):
        code, out = run_cli(capsys, *argv_of["genericity"],
                            "--tol.genericity_tol=1e-6")
        assert code == 0
        assert json.loads(out)["tol"] == 1e-6


_FUZZ_NUMBER = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200]))
_SQUARE_ROWS = st.sampled_from([st.floats(-4.0, 4.0)] * 2 + [_FUZZ_NUMBER]).flatmap(
    lambda entry: st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k)))


class TestExitCodeContract:
    def test_matrix_of_codes(self, tmp_path, capsys):
        A_ok = write_matrix(tmp_path / "A.json", np.array([[2.0]]))
        P_ok = write_matrix(tmp_path / "P.json", np.array([[1.0]]))
        A_pass = write_matrix(tmp_path / "Ap.json", np.array([[-2.0]]))
        cases = [
            (("analyze", A_ok, P_ok), 0),
            (("witness", A_ok, P_ok), 0),
            (("witness", A_pass, P_ok), 3),
            (("analyze", A_ok, str(tmp_path / "missing.json")), 2),
        ]
        for argv, expected in cases:
            code, _ = run_cli(capsys, *argv)
            assert code == expected, argv

    @pytest.mark.parametrize("A, family", [
        ([[0.0, 0.0, 0.0], [0.0, 1e200, 0.0], [0.0, 0.0, 1.0]], "MollifierTrajectory"),
        ([[0.0, 1e200, 1e200], [0.0, 1e200, 1e200], [1e200, 0.0, 0.0]],
         "MollifierTrajectory"),
        ([[0.0, 1e200], [0.0, 1.0]], "MollifierReal"),
    ], ids=["diagonal", "dense", "upper"])
    def test_huge_entries_analyze_without_warnings(self, tmp_path, capsys, A, family):
        # the integrator's states and the genericity norms overflow; a
        # non-finite W is never accepted, an infinite norm fails membership
        A_path = write_matrix(tmp_path / "A.json", np.array(A))
        P = write_matrix(tmp_path / "P.json", np.eye(len(A)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run_cli(capsys, "analyze", A_path, P)
        verdict = json.loads(out)["activity"]
        assert code == 0
        assert (verdict["status"], verdict["witness"]["signal"]["variant"]) == \
            ("Active", family)

    def test_matrix_with_singular_eigenvectors_exits_0(self, tmp_path, capsys):
        # eig returns an exactly singular eigenvector matrix for this A
        A = write_matrix(tmp_path / "A.json", np.array(
            [[1.0, 1.0, 0.0, -1.0], [0.0, 1.0, 1.0, 1.0], [-1.0, 1.0, 0.0, 1.0],
             [1.0, -1.0, 0.0, -1.0]]))
        P = write_matrix(tmp_path / "P.json", np.eye(4))
        code, out = run_cli(capsys, "analyze", A, P)
        assert code == 0
        assert json.loads(out)["activity"]["status"] == "Active"

    @pytest.mark.parametrize("text", [
        '{"n": 1, "rows": 5}',
        '{"n": 1, "rows": [1]}',
        '{"n": null, "rows": [[1]]}',
        '{"n": 1, "rows": [[{"a": 1}]]}',
        '{"n": 1e400, "rows": [[1]]}',
        '{"n": 2, "rows": [[1e308, 1e308], [1e308, 1e308]]}',
        '{"n": ' + "[" * 100000 + "]" * 100000 + "}",
        "2\n1 0\n0 1\n5 5\n",
        "2 7 junk\n1 0\n0 1\n",
    ], ids=["rows-number", "row-number", "n-null", "entry-object", "n-overflow",
            "norm-overflow", "nested-past-recursion-limit", "text-extra-row",
            "text-tokens-after-n"])
    def test_malformed_or_overflowing_matrix_exits_2(self, tmp_path, capsys, text):
        A = tmp_path / "A.json"
        A.write_text(text)
        P = write_matrix(tmp_path / "P.json", np.eye(2))
        for command in ("analyze", "witness"):
            code, out = run_cli(capsys, command, str(A), P)
            assert code == 2
            assert json.loads(out)["error"]

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.sampled_from(["null", "1e400", "-1", "2.5", '"2"', "true", "0"] + ["len"] * 14),
           rows=st.one_of(_SQUARE_ROWS, _SQUARE_ROWS, st.lists(st.lists(st.one_of(
               _FUZZ_NUMBER, st.booleans(), st.none(), st.just({"a": 1}), st.just([1.0])),
               max_size=3), max_size=3)),
           text_format=st.booleans(), projection=st.sampled_from(["identity", "port"]))
    def test_fuzzed_matrix_files_exit_0_2_or_3(self, tmp_path, capsys, n, rows,
                                               text_format, projection):
        # the declared n matches the rows in two draws of three, so small
        # valid matrices are among the inputs
        n = str(len(rows)) if n == "len" else n
        A = tmp_path / "A.json"
        if text_format:
            A.write_text(n + "\n" + "\n".join(" ".join(map(str, r)) for r in rows))
        else:
            A.write_text('{"n": %s, "rows": %s}' % (n, json.dumps(rows)))
        size = max(len(rows), 1)
        P = np.eye(size) if projection == "identity" else np.diag([1.0] + [0.0] * (size - 1))
        P = write_matrix(tmp_path / "P.json", P)
        for command in ("analyze", "witness"):
            code, _ = run_cli(capsys, command, str(A), P)
            assert code in (0, 2, 3)
