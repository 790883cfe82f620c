"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line on success (pytest -s or -rA shows them);
a failed assertion marks the criterion red.
"""

import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from conftest import FunctionSignal, random_member_of_M, two_pulse_energy_closed_form
from locact import activity, complexity, genericity, linsys, nonlinear, signals
from locact.activity import (
    ACTIVE,
    PASSIVE,
    classify_activity,
    complex_eigen_signal,
    energy_integral,
    real_eigen_signal,
    witness_two_pulse_generic,
)


def _report(n, name):
    print(f"[acceptance] criterion {n} ({name}): PASS")


def test_criterion_01_theorem2_oracle_equivalence():
    rng = np.random.default_rng(20240001)
    start = time.time()
    checked_active = 0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        A = rng.uniform(-2.0, 2.0, (n, n))
        sys = linsys.make_system(A, np.eye(n))
        verdict = classify_activity(sys)
        expected = ACTIVE if linsys.max_sym_eigenvalue(A) > 1e-9 else PASSIVE
        assert verdict.status == expected, \
            f"mismatch on n={n}: {verdict.status} != {expected}"
        if verdict.status == ACTIVE:
            w = verdict.witness
            assert w is not None
            assert w.W < -abs(w.quadrature_error_estimate), \
                f"witness not verified: W={w.W}, err={w.quadrature_error_estimate}"
            checked_active += 1
    elapsed = time.time() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds budget"
    assert checked_active > 0
    _report(1, f"Theorem-2 oracle, 200 systems, {checked_active} active, "
               f"{elapsed:.1f}s")


def test_criterion_02_closed_form_vs_quadrature():
    rng = np.random.default_rng(20240002)
    for trial in range(50):
        n = int(rng.integers(1, 5))
        sys = random_member_of_M(rng, n)
        spec = linsys.spectrum(sys.A)
        assert spec.diagonalizable
        T = float(rng.uniform(2.0, 10.0))
        a = float(rng.choice([-1.0, 1.0]))
        W_cf = two_pulse_energy_closed_form(spec, spec.G[0, :], spec.H[:, 0],
                                            a, 1.0, 1.0, T)
        sig = signals.TwoPulse(a=a, b=1.0, k=1.0, T=T,
                               direction=np.eye(n)[:, 0])
        W_q, _ = energy_integral(sys, sig, T, steps=max(3000, int(400 * T)))
        assert abs(W_cf - W_q) <= 1e-6 * (1.0 + abs(W_q)), \
            f"trial {trial}: closed {W_cf} vs quadrature {W_q}"
    _report(2, "Lemma-5 closed form vs split-grid quadrature, 50 systems")


def test_criterion_03_real_eigen_witness():
    # scalar case: W = -(T^2/4) int_0^1 e^{2t} rho(2t-1)^2 dt
    sys1 = linsys.make_system([[1.0]], [[1.0]])
    sig = real_eigen_signal(sys1, 1.0, [1.0], T=1.0)
    W, _ = energy_integral(sys1, sig, 1.0)
    t = np.linspace(0.0, 1.0, 1_000_001)
    q = signals.mollifier(2.0 * t - 1.0) ** 2
    oracle = -0.25 * np.trapezoid(np.exp(2.0 * t) * q, t)
    assert W < 0.0
    assert W == pytest.approx(oracle, rel=1e-6)

    # n = 2 with the eigenvector inside im P
    sys2 = linsys.make_system(np.diag([1.0, -1.0]), np.diag([1.0, 0.0]))
    sig2 = real_eigen_signal(sys2, 1.0, [1.0, 0.0], T=1.0)
    W2, _ = energy_integral(sys2, sig2, 1.0)
    assert W2 < 0.0
    assert W2 == pytest.approx(oracle, rel=1e-6)  # decoupled scalar dynamics
    _report(3, f"Example-3 witness, W={W:.6e} vs oracle {oracle:.6e}")


def test_criterion_04_complex_pair_witness():
    A = np.array([[0.1, -1.0], [1.0, 0.1]])
    sys = linsys.make_system(A, np.eye(2))
    spec = linsys.spectrum(A)
    lam = spec.eigenvalues[0]
    assert lam == pytest.approx(0.1 + 1.0j, abs=1e-12)
    sig = complex_eigen_signal(sys, lam.real, lam.imag,
                               spec.G[:, 0].real, spec.G[:, 0].imag)
    W, err = energy_integral(sys, sig, sig.T)
    assert W < 0.0 and W < -err

    # finite differences of g confirm positive slope across the window
    v1, v2 = sig.v1, sig.v2

    def g(ts):
        vec = np.outer(np.sin(lam.imag * ts), v1) + np.outer(np.cos(lam.imag * ts), v2)
        return np.exp(2.0 * lam.real * ts) * np.sum(vec * vec, axis=1)

    ts = np.linspace(sig.t0 - sig.eps + 1e-9, sig.t0 + sig.eps - 1e-9, 257)
    h = 1e-7
    slopes = (g(ts + h) - g(ts - h)) / (2.0 * h)
    assert np.all(slopes > 0.0)
    assert sig.t0 - sig.eps >= 0.0 and sig.t0 + sig.eps <= sig.T
    _report(4, f"Example-4 witness, t0={sig.t0:.4f}, eps={sig.eps:.4f}, W={W:.4e}")


def test_criterion_05_generic_two_pulse_search():
    rng = np.random.default_rng(20240005)
    for trial in range(50):
        n = int(rng.integers(1, 5))
        sys = random_member_of_M(rng, n, min_abscissa=0.1)
        max_re = float(np.linalg.eigvals(sys.A).real.max())
        assert max_re >= 0.1
        gw = witness_two_pulse_generic(sys)  # T_max defaults to 200 / max Re
        assert gw.closed_form_W < 0.0, f"trial {trial}: scan failed"
        assert gw.W < -gw.quadrature_error_estimate, f"trial {trial}: mollified W lost sign"
        assert gw.signal.base.a in (-1.0, 1.0) and gw.T >= 2.0
    _report(5, "Theorem-7 constructive search, 50/50 verified witnesses")


def test_criterion_06_fhn_paper_numbers():
    # the quoted equilibrium is the paper's Hopf-point datum: locate the Hopf
    # parameter in [0, 0.1] and compare the equilibrium there
    res = nonlinear.hopf_locate(lambda m: nonlinear.fhn_system(m),
                                0.0, 0.1, tol=1e-7, x_guess=[-1.0, -0.6])
    assert 0.045 <= res.mu_star <= 0.055, f"mu* = {res.mu_star}"
    assert res.is_hopf
    npt.assert_allclose(res.equilibrium, [-0.9083, -0.6159], atol=1e-3)
    _report(6, f"FitzHugh-Nagumo: mu*={res.mu_star:.6f}, "
               f"equilibrium=({res.equilibrium[0]:.4f}, {res.equilibrium[1]:.4f})")


def test_criterion_07_destabilization_example():
    A = np.array([[-1.0, 10.0], [0.0, -2.0]])
    D = np.array([[1.0, -1.0], [-1.0, 1.0]])
    npt.assert_allclose(linsys.spectrum(A).eigenvalues, [-1.0, -2.0], atol=1e-10)
    npt.assert_allclose(np.sort(np.linalg.eigvalsh(D)), [0.0, 2.0], atol=1e-10)
    lam_full = linsys.spectrum(A - D).eigenvalues
    assert lam_full[0].real == pytest.approx((-5.0 + math.sqrt(45.0)) / 2.0,
                                             abs=1e-10)
    sys = nonlinear.NonlinearPortSystem(
        f=lambda x: A @ x, D=lambda x: D @ x, P=np.eye(2), n=2,
        jacobian_f=lambda x: A, jacobian_D=lambda x: D)
    report = nonlinear.analyze_equilibrium_pipeline(sys, [0.1, 0.1])
    assert report["jacobians"]["max_re_eig_kinetic"] < 0.0
    assert report["jacobians"]["max_re_eig_full"] > 0.0
    assert report["equilibrium"]["stability"] == "Unstable"
    _report(7, "dissipation-induced destabilization reproduced")


def test_criterion_08_edge_of_chaos_classification():
    rf = nonlinear.fhn_complexity_function(0.05, 1.28, 0.12, 0.1)
    ec = complexity.edge_of_chaos_classify(rf)
    (pole, mult), = complexity.poles(rf).poles
    assert pole == pytest.approx(-0.128, abs=1e-12) and mult == 1
    assert not ec.cond_i and not ec.cond_ii and not ec.cond_iii
    assert ec.cond_iv and ec.edge_of_chaos

    fixtures = [
        (complexity.make_rational([1.0], [-1.0, 1.0]), "i"),    # 1 / (s - 1)
        (complexity.make_rational([1.0], [0.0, 0.0, 1.0]), "ii"),  # 1 / s^2
        (complexity.make_rational([1.0], [1.0, 1.0]), None),    # 1 / (s + 1)
    ]
    for rf_fix, expected in fixtures:
        ec_fix = complexity.edge_of_chaos_classify(rf_fix)
        flags = {"i": ec_fix.cond_i, "ii": ec_fix.cond_ii,
                 "iii": ec_fix.cond_iii, "iv": ec_fix.cond_iv}
        if expected is None:
            assert not ec_fix.locally_active
        else:
            assert flags[expected]
            assert not ec_fix.edge_of_chaos
    _report(8, "edge-of-chaos classifier: FHN edge + three fixtures")


def test_criterion_09_genericity_density_and_openness():
    tol = 1e-8
    P_cache = {}
    # a (20, n, n) draw is the stream of 20 draws of (n, n)
    stacked = np.random.default_rng(20240009).standard_normal((20, 3, 3))
    one_by_one = np.random.default_rng(20240009)
    assert stacked.tobytes() == np.stack(
        [one_by_one.standard_normal((3, 3)) for _ in range(20)]).tobytes()
    rng = np.random.default_rng(20240009)
    for n in (1, 2, 3, 4):
        fraction = genericity.sample_density_M(n, 1000, seed=1000 + n, tol=tol)
        assert fraction >= 0.99, f"density {fraction} at n={n}"
        # openness probe on every sampled member of the generic set
        P = np.zeros((n, n))
        P[0, 0] = 1.0
        P_cache[n] = P
        sample_rng = np.random.default_rng(1000 + n)
        members = 0
        for _ in range(1000):
            A = sample_rng.standard_normal((n, n))
            sys = linsys.make_system(A, P)
            if not genericity.in_generic_M(sys, tol=tol).in_M:
                continue
            members += 1
            # 20 perturbations of norm tol / 10, tested as one stack; for
            # P = e1 e1^T the port reflector is I
            E = rng.standard_normal((20, n, n))
            E *= np.array([(tol / 10.0) / np.linalg.norm(e) for e in E])[:, None, None]
            groups = genericity._membership(A + E, tol / 2.0)
            assert sum(g.in_M.size for g in groups) == 20
            assert all(g.in_M.all() for g in groups)
        assert members >= 990
    _report(9, "generic-set density >= 0.99 for n in 1..4 + openness probes")


def test_criterion_10_numerical_hygiene():
    rng = np.random.default_rng(20240010)
    # semigroup property of the matrix exponential, 50 instances
    for _ in range(50):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n))
        A *= 5.0 / max(1.0, np.linalg.norm(A))
        s, t = rng.uniform(0.0, 2.0, 2)
        whole = linsys.matrix_exponential(A, s + t)
        split = linsys.matrix_exponential(A, s) @ linsys.matrix_exponential(A, t)
        assert np.linalg.norm(whole - split) <= \
            10.0 * linsys.EXP_TOL * np.linalg.norm(whole)
    # convergence order of the forced integrator, 50 instances
    for _ in range(50):
        n = int(rng.integers(1, 4))
        sys = linsys.make_system(rng.standard_normal((n, n)), np.eye(n))
        freq = rng.uniform(0.5, 3.0, n)
        phase = rng.uniform(0.0, 2.0 * np.pi, n)

        def u(ts, f=freq, p=phase):
            ts = np.atleast_1d(ts)
            return np.sin(np.outer(ts, f) + p)

        ends = {}
        for steps in (20, 40, 80, 160):
            ends[steps] = linsys.solve_forced(sys, FunctionSignal(u, 1.5), 1.5,
                                              steps).states[-1]
        ref = ends[160] + (ends[160] - ends[80]) / 15.0
        e1 = np.linalg.norm(ends[20] - ref)
        e2 = np.linalg.norm(ends[40] - ref)
        if e1 < 1e-12:
            continue  # already at the roundoff floor; order not measurable
        assert e1 / e2 >= 12.0
    _report(10, "semigroup + convergence order, 50 seeded instances each")
