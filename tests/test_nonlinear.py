import math
import types

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locact import activity, genericity, linsys, nonlinear
from locact.errors import (
    BranchLost,
    DimensionMismatch,
    EquilibriumNotFound,
    LocactError,
    NoConvergence,
    NonFiniteEvaluation,
    NoSignChange,
    StageError,
)
from locact.nonlinear import (
    analyze_equilibrium_pipeline,
    discrete_laplacian,
    fhn_equilibrium_guesses,
    fhn_system,
    find_equilibrium,
    hopf_locate,
    jacobian_fd,
    rd_single_cell,
)
from locact.serialize import dumps_canonical

BETA, GAMMA, XI = 1.28, 0.12, 0.1


def fhn_equilibrium_oracle(mu):
    """x_d from the cubic x^3 - 3(1 - mu - 1/beta)x + 3 gamma/beta = 0,
    y_d = (x_d + gamma)/beta; independent of the Newton path."""
    roots = np.roots([1.0, 0.0, -3.0 * (1.0 - mu - 1.0 / BETA), 3.0 * GAMMA / BETA])
    real = [r.real for r in roots if abs(r.imag) < 1e-9]
    assert len(real) == 1
    x = real[0]
    return np.array([x, (x + GAMMA) / BETA])


class TestJacobianFd:
    def test_linear_map_recovered(self, rng):
        M = rng.standard_normal((3, 3))
        J = jacobian_fd(lambda x: M @ x, rng.standard_normal(3))
        npt.assert_allclose(J, M, atol=1e-8)

    def test_fhn_kinetic_jacobian_at_origin(self):
        sys = fhn_system(0.05, BETA, GAMMA, XI)
        J = jacobian_fd(sys.f, np.zeros(2))
        npt.assert_allclose(J, [[1.0, -1.0], [XI, -XI * BETA]], atol=1e-8)

    def test_fd_matches_analytic_on_fhn(self, rng, monkeypatch):
        monkeypatch.setattr(nonlinear, "FD_STEP", 1e-5)
        sys = fhn_system(0.05, BETA, GAMMA, XI)
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, 2)
            fd = jacobian_fd(sys.f, x)
            analytic = sys.jacobian_f(x)
            assert np.linalg.norm(fd - analytic) <= \
                1e-6 * (1.0 + np.linalg.norm(analytic))


class TestFindEquilibrium:
    def test_fhn_equilibrium_at_mu_005(self):
        sys = fhn_system(0.05, BETA, GAMMA, XI)
        report = find_equilibrium(sys, [-1.0, -0.6])
        npt.assert_allclose(report.x_star, fhn_equilibrium_oracle(0.05), atol=1e-9)
        assert report.residual <= 1e-10
        assert report.stability == "Unstable"  # just past the crossing

    def test_linear_system_equilibrium_is_origin(self, rng):
        A = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        sys = nonlinear.NonlinearPortSystem(
            f=lambda x: A @ x, D=lambda x: np.zeros(3), P=np.zeros((3, 3)), n=3)
        report = find_equilibrium(sys, rng.standard_normal(3))
        npt.assert_allclose(report.x_star, np.zeros(3), atol=1e-8)

    def test_fhn_kinetic_linearization(self):
        sys = fhn_system(0.05, BETA, GAMMA, XI)
        report = find_equilibrium(sys, [-1.0, -0.6])
        xd = report.x_star[0]
        npt.assert_allclose(report.jacobian_kinetic,
                            [[1.0 - xd * xd, -1.0], [XI, -XI * BETA]], atol=1e-9)
        npt.assert_allclose(sys.P, np.diag([1.0, 0.0]))

    def test_linear_field_returned_exactly(self, rng):
        A = rng.standard_normal((2, 2))
        sys = nonlinear.NonlinearPortSystem(
            f=lambda x: A @ x, D=lambda x: np.zeros(2), P=np.eye(2), n=2,
            jacobian_f=lambda x: A)
        report = find_equilibrium(sys, np.zeros(2))
        npt.assert_array_equal(report.jacobian_kinetic, A)

    def test_no_real_root_raises(self, monkeypatch):
        monkeypatch.setattr(nonlinear, "NEWTON_MAX_ITER", 60)
        sys = nonlinear.NonlinearPortSystem(
            f=lambda x: np.array([x[0] ** 2 + 1.0]), D=lambda x: np.zeros(1),
            P=np.zeros((1, 1)), n=1)
        with pytest.raises(NoConvergence) as info:
            find_equilibrium(sys, [0.5])
        assert info.value.best_residual > 0.0

    def test_dissipation_jacobian_is_one_read_only_array(self):
        sys = fhn_system(0.05, BETA, GAMMA, XI)
        JD = sys.jacobian_D(np.zeros(2))
        assert sys.jacobian_D(np.ones(2)) is JD
        npt.assert_array_equal(JD, 0.05 * np.eye(2))
        with pytest.raises(ValueError, match="read-only"):
            JD[0, 0] = 1.0

    def test_full_jacobian_includes_dissipation(self):
        sys = fhn_system(0.05, BETA, GAMMA, XI)
        report = find_equilibrium(sys, [-1.0, -0.6])
        # full = kinetic - P dD: only the (1,1) entry shifts by -mu
        diff = report.jacobian_kinetic - report.jacobian_full
        npt.assert_allclose(diff, [[0.05, 0.0], [0.0, 0.0]], atol=1e-9)

    def test_non_finite_jacobian_raises(self):
        # xi beta = 1e309 overflows the Jacobian at the converged point; its
        # spectrum raised numpy's LinAlgError
        sys = fhn_system(0.05, 1e308, GAMMA, 10.0)
        guess = nonlinear.fhn_equilibrium_guesses(0.05, 1e308, GAMMA, 10.0)[0]
        with pytest.raises(NonFiniteEvaluation, match="Jacobian at the equilibrium"):
            find_equilibrium(sys, guess)

    @pytest.mark.parametrize("analytic", [True, False])
    def test_one_jacobian_and_one_spectrum_per_equilibrium(self, monkeypatch, analytic):
        # the report keeps the Jacobians of its best iterate, equal to those
        # evaluated afresh there, and computes the one spectrum of the full
        # Jacobian when it is first read
        base = fhn_system(0.05, BETA, GAMMA, XI)
        sys = base if analytic else nonlinear.NonlinearPortSystem(
            f=base.f, D=base.D, P=base.P, n=2)
        eigvals = np.linalg.eigvals
        spectra = []
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda J: spectra.append(J) or eigvals(J))
        report = find_equilibrium(sys, [-1.0, -0.6])
        assert len(spectra) == 0
        for _ in range(2):
            assert report.stability == "Unstable"
            npt.assert_array_equal(report.eigenvalues_full, eigvals(report.jacobian_full))
        assert len(spectra) == 1
        J_full, J_kin = nonlinear._jacobians(sys, report.x_star)
        npt.assert_array_equal(report.jacobian_full, J_full)
        npt.assert_array_equal(report.jacobian_kinetic, J_kin)
        npt.assert_array_equal(report.eigenvalues_full, eigvals(J_full))


def _outcome(decide, J):
    try:
        return bool(decide(J))
    except np.linalg.LinAlgError as exc:
        return str(exc)


class TestIllConditioned:
    def test_equals_the_condition_number_test(self):
        # 2 x 2 matrices at every edge of the shortcut (scaled by 10^±160, rows
        # near-dependent at depths 1e-8 to 1e-18, rank one with subnormal
        # products, entries 0, ±inf, nan and 5e-324, small integers) and 3 x 3
        # matrices, which take the SVD
        rng = np.random.default_rng(33)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324])
        cases = []
        for _ in range(400):
            J = rng.standard_normal((2, 2))
            K = J.copy()
            K[1] = rng.standard_normal() * K[0] + 10.0 ** -rng.uniform(8, 18) * K[1]
            L = J.copy()
            L.flat[rng.choice(4, rng.integers(1, 4), replace=False)] = rng.choice(special)
            cases += [J * 10.0 ** rng.integers(-160, 161),
                      K * 10.0 ** rng.integers(-160, 161), K, L,
                      np.outer(*rng.standard_normal((2, 2))) * 10.0 ** rng.integers(-165, -150),
                      rng.integers(-3, 4, (2, 2)).astype(float),
                      rng.standard_normal((3, 3)) * 10.0 ** rng.integers(-5, 6)]
        # κ ≈ 2.2e14, but a d and b c round to adjacent subnormals, so the
        # computed det J is 50 times too large: only the range test on s
        # sends this one to the SVD
        cases.append(2.0 ** -517 * np.array([[1.0, 1.0], [1.0 + 2007 * 2.0 ** -52,
                                                          1.0 + 2089 * 2.0 ** -52]]))
        decided = []
        with np.errstate(all="ignore"):
            for J in cases:
                want = _outcome(lambda J: np.linalg.cond(J) > 1e14, J)
                assert _outcome(nonlinear._ill_conditioned, J) == want, J
                decided.append(want)
        assert min(decided.count(True), decided.count(False)) >= 300


def _find_equilibrium_oracle(sys, x_guess, newton_tol=nonlinear.NEWTON_TOL,
                             max_iter=100):
    """find_equilibrium as it was written before each iterate took its
    residual from the line search: the residual is evaluated again, with the
    Jacobians, at every iterate; both are composed from f, D and P, as they
    were before a family could evaluate its own."""
    def residual(x):
        return np.asarray(sys.f(x), dtype=float).ravel() \
            - sys.P @ np.asarray(sys.D(x), dtype=float).ravel()

    def g_and_jacobian(x):
        g = residual(x)
        Jf = np.asarray(sys.jacobian_f(x), dtype=float) if sys.jacobian_f is not None \
            else jacobian_fd(sys.f, x)
        JD = sys.jacobian_D(x) if sys.jacobian_D is not None else jacobian_fd(sys.D, x)
        return g, Jf - sys.P @ np.asarray(JD, dtype=float), Jf

    x = np.asarray(x_guess, dtype=float).ravel().copy()
    notes = []
    g, J, J_kin = g_and_jacobian(x)
    res = float(np.linalg.norm(g))
    best_x, best_res, best_J, best_J_kin = x.copy(), res, J, J_kin
    for _ in range(max_iter):
        if res <= newton_tol:
            break
        try:
            if np.linalg.cond(J) > 1e14:
                raise np.linalg.LinAlgError("ill-conditioned")
            step = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError:
            step = -np.linalg.pinv(J) @ g
            if "pseudo-inverse step" not in notes:
                notes.append("pseudo-inverse step")
        alpha = 1.0
        for _ in range(30):
            x_new = x + alpha * step
            g_new = residual(x_new)
            if np.all(np.isfinite(g_new)) and \
                    np.linalg.norm(g_new) <= (1.0 - 1e-4 * alpha) * res:
                break
            alpha *= 0.5
        else:
            x_new = x + alpha * step
        x = x_new
        g, J, J_kin = g_and_jacobian(x)
        res = float(np.linalg.norm(g))
        if res < best_res:
            best_x, best_res, best_J, best_J_kin = x.copy(), res, J, J_kin
    if best_res > newton_tol:
        raise NoConvergence(
            f"Newton stalled at residual {best_res:.3e} (tol {newton_tol:.1e})",
            best_x=best_x, best_residual=best_res,
        )
    if not np.isfinite(best_J).all():
        raise NonFiniteEvaluation(
            f"the Jacobian at the equilibrium {best_x.tolist()} is not finite")
    eigenvalues = np.linalg.eigvals(best_J)
    return types.SimpleNamespace(
        x_star=best_x, residual=best_res, jacobian_full=best_J,
        jacobian_kinetic=best_J_kin, eigenvalues_full=eigenvalues,
        stability=nonlinear._stability_label(eigenvalues), notes="; ".join(notes),
    )


def _equilibrium_bits(find, *args, **kwargs):
    """The report fields of one solve as bytes, or the error it raised."""
    try:
        r = find(*args, **kwargs)
    except NoConvergence as exc:
        return "NoConvergence", str(exc), exc.best_x.tobytes(), exc.best_residual.hex()
    except NonFiniteEvaluation as exc:
        return "NonFiniteEvaluation", str(exc)
    return (r.x_star.tobytes(), r.residual.hex(), r.jacobian_full.tobytes(),
            r.jacobian_kinetic.tobytes(), r.eigenvalues_full.tobytes(),
            r.stability, r.notes)


def _rd_fhn_cell(mu):
    """The FitzHugh-Nagumo cell of ``rd-cell``: finite-difference Jacobians."""
    base = fhn_system(mu, BETA, GAMMA, XI)
    return rd_single_cell(base.f, [0.0125], 1, 2)


class TestFindEquilibriumOracle:
    """find_equilibrium gives the oracle's reports and errors bit for bit."""

    def test_seeded_fhn_parameters(self):
        rng = np.random.default_rng(30)
        pinv_steps = 0
        for i in range(40):
            mu, beta, gamma = rng.uniform(-0.5, 1.0), rng.uniform(0.5, 2.0), \
                rng.uniform(-0.5, 0.5)
            xi = 0.0 if i % 4 == 0 else rng.uniform(0.01, 0.3)  # xi = 0: singular J
            sys = fhn_system(mu, beta, gamma, xi)
            for guess in [*fhn_equilibrium_guesses(mu, beta, gamma, xi),
                          rng.uniform(-2.0, 2.0, 2)]:
                got = _equilibrium_bits(find_equilibrium, sys, guess)
                assert got == _equilibrium_bits(_find_equilibrium_oracle, sys, guess)
                pinv_steps += "pseudo-inverse step" in got[-1]
        assert pinv_steps > 0

    @pytest.mark.parametrize("mu", [0.0, 0.05, 0.3])
    def test_rd_cell_with_finite_difference_jacobians(self, mu):
        cell = _rd_fhn_cell(mu)
        for guess in ([-1.0, -0.6], [0.0, 0.0], [1.5, 0.5]):
            assert _equilibrium_bits(find_equilibrium, cell, guess) == \
                _equilibrium_bits(_find_equilibrium_oracle, cell, guess)

    def test_exhausted_halvings(self, monkeypatch):
        # at x = 0 the pseudo-inverse step of x^2 + 1 is 0, so every
        # iteration runs all 30 halvings and takes the point it falls through to
        sys = nonlinear.NonlinearPortSystem(
            f=lambda x: np.array([x[0] ** 2 + 1.0]), D=lambda x: np.zeros(1),
            P=np.zeros((1, 1)), n=1)
        calls = []
        residual = nonlinear._residual
        monkeypatch.setattr(nonlinear, "_residual",
                            lambda s, x: calls.append(x) or residual(s, x))
        monkeypatch.setattr(nonlinear, "NEWTON_MAX_ITER", 5)
        got = _equilibrium_bits(find_equilibrium, sys, [0.0])
        assert len(calls) == 1 + 5 * 31
        assert got[0] == "NoConvergence"
        assert got == _equilibrium_bits(_find_equilibrium_oracle, sys, [0.0], max_iter=5)

    def test_non_finite_jacobian(self):
        sys = fhn_system(0.05, 1e308, GAMMA, 10.0)
        guess = fhn_equilibrium_guesses(0.05, 1e308, GAMMA, 10.0)[0]
        got = _equilibrium_bits(find_equilibrium, sys, guess)
        assert got[0] == "NonFiniteEvaluation"
        assert got == _equilibrium_bits(_find_equilibrium_oracle, sys, guess)


# states and parameters at every edge of the float range, with NaN payloads
# and signs as Hypothesis draws them
_FHN_STATE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1e103,
                     math.inf, -math.inf, math.nan]),
    st.floats())
_FHN_PARAM = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1e300, -1e300]),
                       st.floats(-10.0, 10.0))


def _composed_fhn_terms(sys, z):
    """``f - P D``, ``J_f - P J_D`` and ``J_f`` composed in numpy, as the
    systems without their own residual and Jacobians have them."""
    bare = nonlinear.NonlinearPortSystem(f=sys.f, D=sys.D, P=sys.P, n=2,
                                         jacobian_f=sys.jacobian_f,
                                         jacobian_D=sys.jacobian_D)
    return nonlinear._residual(bare, z), *nonlinear._jacobians(bare, z)


def _nan_blind_bytes(a):
    """The bytes of ``a`` with every NaN read as one value: which of two NaN
    operands a sum or product returns is not fixed, not even between two runs
    of the same line (CPython's specialized float ops, numpy's SIMD loops)."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


class TestFhnSystem:
    def test_rhs_at_origin(self):
        sys = fhn_system(0.05, BETA, GAMMA, XI)
        g = sys.f(np.zeros(2)) - sys.P @ sys.D(np.zeros(2))
        npt.assert_allclose(g, [0.0, XI * GAMMA], atol=1e-15)  # (0, 0.012)

    def test_mu_zero_removes_dissipation(self):
        sys = fhn_system(0.0, BETA, GAMMA, XI)
        z = np.array([0.7, -0.3])
        npt.assert_allclose(sys.P @ sys.D(z), np.zeros(2))

    @settings(max_examples=400, deadline=None)
    @given(x=_FHN_STATE, y=_FHN_STATE, mu=_FHN_PARAM, beta=_FHN_PARAM,
           gamma=_FHN_PARAM, xi=_FHN_PARAM)
    def test_own_terms_equal_the_composed_ones_bit_for_bit(self, x, y, mu, beta,
                                                           gamma, xi):
        sys = fhn_system(mu, beta, gamma, xi)
        z = np.array([x, y])
        with np.errstate(all="ignore"):
            want = _composed_fhn_terms(sys, z)
            got = (nonlinear._residual(sys, z), *nonlinear._jacobians(sys, z))
        assert [a.dtype for a in got] == [np.float64] * 3
        assert [a.shape for a in got] == [(2,), (2, 2), (2, 2)]
        assert [_nan_blind_bytes(a) for a in got] == [_nan_blind_bytes(a) for a in want]

    def test_own_terms_take_an_overflowing_cube(self):
        # x^3 of a Python float raises OverflowError where numpy's is ±inf
        sys = fhn_system(0.05, BETA, GAMMA, XI)
        for x in (1e103, -1e103, 1e200):
            z = np.array([x, 0.5])
            with np.errstate(all="ignore"):
                assert sys.residual(z).tobytes() == _composed_fhn_terms(sys, z)[0].tobytes()
                assert not np.isfinite(sys.residual(z)[0])

    def test_kinetics_take_any_two_sequence(self):
        sys = fhn_system(0.05, BETA, GAMMA, XI)
        for z in ([0.5, -0.25], (0.5, -0.25), np.array([0.5, -0.25])):
            npt.assert_array_equal(sys.f(z), sys.f(np.array([0.5, -0.25])))
            npt.assert_array_equal(sys.jacobian_f(z), [[0.75, -1.0], [XI, -XI * BETA]])

    def test_building_allocates_no_array(self):
        # the sweep builds one system per point: P is shared and J_D waits
        # for its first use
        eye = np.eye
        built = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "eye", lambda *a, **k: built.append(a) or eye(*a, **k))
            systems = [fhn_system(mu) for mu in (0.0, 0.05)]
            assert built == []
            systems[1].jacobian_D(None)
            assert len(built) == 1
        assert systems[0].P is systems[1].P
        assert not systems[0].P.flags.writeable
        npt.assert_array_equal(systems[0].P, np.diag([1.0, 0.0]))

    def test_default_parameters_stored(self):
        sys = fhn_system(0.05)
        assert sys.params == {"mu": 0.05, "beta": 1.28, "gamma": 0.12, "xi": 0.1}

    @pytest.mark.parametrize("mu, beta, gamma", [
        (1e308, BETA, GAMMA), (0.05, 1e-308, GAMMA), (0.05, BETA, 1e308)])
    def test_overflowing_cubic_gives_the_fallback_guesses(self, mu, beta, gamma):
        # np.roots raised numpy's LinAlgError on these coefficients
        guesses = fhn_equilibrium_guesses(mu, beta, gamma, XI)
        assert [g.tolist() for g in guesses] == [[-1.0, -0.6], [0.0, 0.0]]

    def test_complexity_function_of_an_overflowing_cubic_raises_locact_error(self):
        with pytest.raises(EquilibriumNotFound):
            nonlinear.fhn_complexity_function(1e308, BETA, GAMMA, XI)

    def test_cubic_guesses_hit_equilibrium(self):
        guesses = fhn_equilibrium_guesses(0.05, BETA, GAMMA, XI)
        assert len(guesses) == 1
        npt.assert_allclose(guesses[0], fhn_equilibrium_oracle(0.05), atol=1e-9)


class TestHopf:
    def test_fhn_hopf_location(self):
        res = hopf_locate(lambda m: fhn_system(m, BETA, GAMMA, XI),
                          0.0, 0.1, tol=1e-7, x_guess=[-1.0, -0.6])
        assert 0.045 <= res.mu_star <= 0.055
        assert res.is_hopf
        # at the crossing the trace vanishes: 1 - x_d^2 - mu = xi * beta
        xd = res.equilibrium[0]
        assert 1.0 - xd * xd - res.mu_star == pytest.approx(XI * BETA, abs=1e-5)
        # the paper's Example-8 equilibrium is the Hopf-point equilibrium
        npt.assert_allclose(res.equilibrium, [-0.9083, -0.6159], atol=1e-3)

    def test_no_sign_change_detected(self):
        with pytest.raises(NoSignChange):
            hopf_locate(lambda m: fhn_system(m, BETA, GAMMA, XI),
                        0.2, 0.3, tol=1e-6, x_guess=[-0.8, -0.5])

    def test_degenerate_interval_rejected(self):
        with pytest.raises(NoSignChange):
            hopf_locate(lambda m: fhn_system(m), 0.05, 0.05)


def _hopf_locate_oracle(builder, mu_lo, mu_hi, tol=1e-6, x_guess=None):
    """hopf_locate as it was written before its continuation became one loop:
    a direct solve, then a fallback of 2, 4, 8 and 16 steps whose last step
    is at mu itself.  Returns the fields of its HopfResult."""
    if not (mu_lo < mu_hi):
        raise NoSignChange("mu_lo must be strictly below mu_hi")

    state = {"x": None if x_guess is None else np.asarray(x_guess, dtype=float)}

    def eval_at(mu, guess):
        sys = builder(mu)
        if guess is None:
            if sys.family == "fhn":
                guess = fhn_equilibrium_guesses(**sys.params)[0]
            else:
                guess = np.zeros(sys.n)
        report = nonlinear.find_equilibrium(sys, guess)
        eigs = report.eigenvalues_full
        return report, float(eigs.real.max()), eigs

    def continued(mu):
        try:
            report, phi, eigs = eval_at(mu, state["x"])
        except NoConvergence:
            x = state["x"]
            mu_from = state.get("mu_from", mu_lo)
            for k in (2, 4, 8, 16):
                try:
                    x_tmp = x
                    for j in range(1, k + 1):
                        mu_j = mu if j == k else mu_from + (mu - mu_from) * j / k
                        report, phi, eigs = eval_at(mu_j, x_tmp)
                        x_tmp = report.x_star
                    break
                except NoConvergence:
                    continue
            else:
                raise BranchLost(f"equilibrium branch lost near mu = {mu}")
        state["x"] = report.x_star
        state["mu_from"] = mu
        return report, phi, eigs

    rep_lo, phi_lo, _ = continued(mu_lo)
    _, phi_hi, _ = continued(mu_hi)
    if phi_lo == 0.0 or phi_hi == 0.0:
        pass
    elif np.sign(phi_lo) == np.sign(phi_hi):
        raise NoSignChange(
            f"spectral abscissa has the same sign at both ends "
            f"({phi_lo:.3e}, {phi_hi:.3e})"
        )
    lo, hi = float(mu_lo), float(mu_hi)
    state["x"] = rep_lo.x_star
    state["mu_from"] = lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        _, phi_mid, _ = continued(mid)
        if np.sign(phi_mid) == np.sign(phi_lo):
            lo = mid
            phi_lo = phi_mid
        else:
            hi = mid
    mu_star = 0.5 * (lo + hi)
    report, _, eigs = continued(mu_star)
    crossing = eigs[int(np.argmax(eigs.real))]
    return mu_star, bool(abs(crossing.imag) > 1e-6), complex(crossing), report.x_star


def _hopf_bits(mu_star, is_hopf, crossing, equilibrium):
    return (mu_star.hex(), is_hopf, crossing.real.hex(), crossing.imag.hex(),
            [float(x).hex() for x in equilibrium])


def _hopf_run(locate, monkeypatch, fails, *args, **kwargs):
    """The result bits or the error of one run, and the number of Newton
    solves it made; the solves whose index is in ``fails`` raise
    NoConvergence."""
    calls = []
    find = nonlinear.find_equilibrium

    def failing(sys, guess, **kw):
        calls.append(sys.params["mu"])
        if fails(len(calls) - 1):
            raise NoConvergence("injected Newton failure")
        return find(sys, guess, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(nonlinear, "find_equilibrium", failing)
        try:
            res = locate(*args, **kwargs)
        except LocactError as exc:
            return f"{type(exc).__name__}: {exc}", calls
    if isinstance(res, nonlinear.HopfResult):
        res = (res.mu_star, res.is_hopf, res.crossing_eigenvalue, res.equilibrium)
    return _hopf_bits(*res), calls


class TestHopfOracle:
    """hopf_locate gives the oracle's results bit for bit, with the same
    Newton solves, also where the step-halving fallback and BranchLost are
    reached."""

    PATTERNS = {
        "none": lambda i: False,
        "every fourth": lambda i: i % 4 == 3,  # the 2-step fallback recovers
        "pairs": lambda i: i % 7 in (2, 3),  # a 2-step fallback fails as well
        "first": lambda i: i == 0,  # fallback before any point converged
        "four in a row": lambda i: i in range(4, 8),  # down to 16 steps
        "from the ninth": lambda i: i >= 8,  # BranchLost
    }

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_seeded_brackets(self, monkeypatch, pattern):
        rng = np.random.default_rng(43)
        fails = self.PATTERNS[pattern]
        outcomes = set()
        for _ in range(4):
            beta = float(rng.uniform(1.25, 1.31))  # the crossing lies in (0.02, 0.08)
            mu_lo, mu_hi = float(rng.uniform(-0.05, 0.0)), float(rng.uniform(0.1, 0.15))
            guess = None if rng.uniform() < 0.5 else [-1.0, -0.6]

            def builder(mu):
                return fhn_system(mu, beta, GAMMA, XI)

            args = (builder, mu_lo, mu_hi)
            kwargs = {"tol": float(10.0 ** rng.uniform(-8, -4)), "x_guess": guess}
            got = _hopf_run(hopf_locate, monkeypatch, fails, *args, **kwargs)
            assert got == _hopf_run(_hopf_locate_oracle, monkeypatch, fails, *args, **kwargs)
            outcomes.add(got[0].split(":")[0] if isinstance(got[0], str) else "HopfResult")
        assert outcomes == ({"BranchLost"} if pattern == "from the ninth" else {"HopfResult"})

    def test_fallback_ends_at_mu(self, monkeypatch):
        # -0.0123 + (0.1234 + 0.0123) * 2 / 2 rounds to 0.12339999999999998:
        # the fallback's last step used to solve one ulp away from mu_hi
        def builder(mu):
            return fhn_system(mu, BETA, GAMMA, XI)

        got, calls = _hopf_run(hopf_locate, monkeypatch, lambda i: i == 1, builder,
                               -0.0123, 0.1234)
        assert -0.0123 + (0.1234 + 0.0123) * 2 / 2 != 0.1234
        assert calls[:4] == [-0.0123, 0.1234, -0.0123 + (0.1234 + 0.0123) / 2, 0.1234]
        assert (got, calls) == _hopf_run(_hopf_locate_oracle, monkeypatch, lambda i: i == 1,
                                         builder, -0.0123, 0.1234)

    def test_same_sign_and_degenerate_brackets(self, monkeypatch):
        def builder(mu):
            return fhn_system(mu, BETA, GAMMA, XI)

        for args in ((builder, 0.2, 0.3), (builder, 0.05, 0.05), (builder, 0.0, 0.02)):
            got = _hopf_run(hopf_locate, monkeypatch, lambda i: i == 1, *args)
            assert got == _hopf_run(_hopf_locate_oracle, monkeypatch, lambda i: i == 1, *args)
            assert got[0].startswith("NoSignChange")


def _discrete_laplacian_oracle(N, boundary):
    """discrete_laplacian as a loop over the grid nodes and their neighbors."""
    M = np.zeros((N * N, N * N))
    for j in range(N):
        for k in range(N):
            row = j * N + k
            M[row, row] += -4.0
            for dj, dk in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                jj, kk = j + dj, k + dk
                if 0 <= jj < N and 0 <= kk < N:
                    M[row, jj * N + kk] += 1.0
                elif boundary == "neumann":
                    M[row, row] += 1.0
                elif boundary == "toroidal":
                    M[row, (jj % N) * N + kk % N] += 1.0
    return M


class TestDiscreteLaplacian:
    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann", "toroidal"])
    def test_matches_node_loop_oracle_bit_for_bit(self, boundary):
        # N = 1 and 2 toroidal: a node's wrapped neighbors coincide
        for N in range(1, 9):
            L = discrete_laplacian(N, boundary)
            oracle = _discrete_laplacian_oracle(N, boundary)
            assert L.tobytes() == oracle.tobytes()  # signed zeros included
            assert dumps_canonical(L.tolist()) == dumps_canonical(oracle.tolist())

    def test_single_cell_dirichlet(self):
        npt.assert_array_equal(discrete_laplacian(1, "dirichlet"), [[-4.0]])

    def test_toroidal_rows_sum_to_zero(self):
        for N in (1, 2, 3, 5):
            L = discrete_laplacian(N, "toroidal")
            npt.assert_allclose(L.sum(axis=1), 0.0, atol=1e-14)

    def test_two_by_two_dirichlet_row_sums(self):
        L = discrete_laplacian(2, "dirichlet")
        npt.assert_array_equal(np.diag(L), [-4.0] * 4)
        npt.assert_allclose(L.sum(axis=1), -2.0)  # each node has 2 neighbors

    def test_symmetric_for_all_boundaries(self):
        for boundary in ("dirichlet", "neumann", "toroidal"):
            L = discrete_laplacian(3, boundary)
            npt.assert_array_equal(L, L.T)

    def test_dirichlet_spectrum_in_gershgorin_band(self):
        for N in (1, 2, 4):
            vals = np.linalg.eigvalsh(discrete_laplacian(N, "dirichlet"))
            assert np.all(vals >= -8.0 - 1e-12)
            assert np.all(vals < 0.0)

    def test_neumann_rows_sum_to_zero(self):
        L = discrete_laplacian(3, "neumann")
        npt.assert_allclose(L.sum(axis=1), 0.0, atol=1e-14)


class TestRdSingleCell:
    def test_pure_decay_from_diffusion(self):
        # m = n = 1, no kinetics, D = mu / 4: x' = -mu x
        mu = 0.2
        cell = rd_single_cell(lambda x: np.zeros(1), [mu / 4.0], 1, 1)
        g = cell.f(np.array([2.0])) - cell.P @ cell.D(np.array([2.0]))
        assert g[0] == pytest.approx(-mu * 2.0)

    def test_fhn_kinetics_reduction_matches_fhn_system(self):
        mu = 0.05
        full = fhn_system(mu, BETA, GAMMA, XI)
        cell = rd_single_cell(full.f, [mu / 4.0], 1, 2)
        z = np.array([-0.9, -0.6])
        lhs = cell.f(z) - cell.P @ cell.D(z)
        rhs = full.f(z) - full.P @ full.D(z)
        npt.assert_allclose(lhs, rhs, atol=1e-14)

    def test_wrong_coefficient_count_rejected(self):
        with pytest.raises(DimensionMismatch):
            rd_single_cell(lambda x: np.zeros(2), [0.1], 2, 2)

    def test_kinetics_of_the_wrong_size_rejected(self):
        cell = rd_single_cell(lambda x: np.zeros(1), [0.1], 1, 2)
        with pytest.raises(DimensionMismatch):
            cell.f(np.zeros(2))

    def test_m_exceeding_n_rejected(self):
        with pytest.raises(DimensionMismatch):
            rd_single_cell(lambda x: np.zeros(3), [0.1, 0.1, 0.1], 3, 2)


class TestPipeline:
    def test_fhn_pipeline_at_mu_005(self):
        sys = fhn_system(0.05, BETA, GAMMA, XI)
        report = analyze_equilibrium_pipeline(sys, [-1.0, -0.6])
        npt.assert_allclose(report["equilibrium"]["x_star"],
                            fhn_equilibrium_oracle(0.05), atol=1e-8)
        assert report["activity"]["status"] == "Active"
        assert report["edge_of_chaos"]["edge_of_chaos"] is True
        assert report["genericity"] is not None

    def test_dissipation_induced_destabilization(self):
        # stable kinetics A, dissipative coupling -D, unstable full Jacobian
        A = np.array([[-1.0, 10.0], [0.0, -2.0]])
        D = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert linsys.max_sym_eigenvalue(-D) <= 1e-12  # -D is dissipative
        sys = nonlinear.NonlinearPortSystem(
            f=lambda x: A @ x, D=lambda x: D @ x, P=np.eye(2), n=2,
            jacobian_f=lambda x: A, jacobian_D=lambda x: D)
        report = analyze_equilibrium_pipeline(sys, [0.3, -0.2])
        npt.assert_allclose(report["equilibrium"]["x_star"], [0.0, 0.0], atol=1e-9)
        assert report["jacobians"]["max_re_eig_kinetic"] < 0.0
        assert report["jacobians"]["max_re_eig_full"] == pytest.approx(
            (-5.0 + math.sqrt(45.0)) / 2.0, abs=1e-9)
        assert report["equilibrium"]["stability"] == "Unstable"
        assert report["activity"]["status"] == "Active"

    def test_stage_label_propagates(self):
        sys = nonlinear.NonlinearPortSystem(
            f=lambda x: np.array([x[0] ** 2 + 1.0]), D=lambda x: np.zeros(1),
            P=np.zeros((1, 1)), n=1)
        with pytest.raises(StageError) as info:
            analyze_equilibrium_pipeline(sys, [0.0])
        assert info.value.stage == "find_equilibrium"

    def test_generic_membership_runs_once(self, monkeypatch):
        # the two-pulse route and the report share one in_generic_M call
        A = np.array([[0.5, 1.0], [-1.0, 0.2]])
        P = np.diag([1.0, 0.0])
        sys = nonlinear.NonlinearPortSystem(
            f=lambda x: A @ x, D=lambda x: np.zeros(2), P=P, n=2,
            jacobian_f=lambda x: A, jacobian_D=lambda x: np.zeros((2, 2)))
        lin = linsys.make_system(A, P)
        expected = (activity.classify_activity(lin).to_json(),
                    genericity.in_generic_M(lin).to_json())
        in_generic_M = genericity.in_generic_M
        calls = []
        monkeypatch.setattr(genericity, "in_generic_M",
                            lambda s, *a, **k: calls.append(s) or in_generic_M(s, *a, **k))
        report = analyze_equilibrium_pipeline(sys, [0.1, -0.1])
        assert len(calls) == 1
        assert "generic two-pulse" in report["activity"]["notes"]
        assert (report["activity"], report["genericity"]) == expected

    def test_pipeline_matches_direct_classification_for_linear_field(self, rng):
        A = rng.uniform(-2.0, 2.0, (2, 2))
        sys = nonlinear.NonlinearPortSystem(
            f=lambda x: A @ x, D=lambda x: np.zeros(2), P=np.eye(2), n=2,
            jacobian_f=lambda x: A)
        report = analyze_equilibrium_pipeline(sys, [0.1, 0.1])
        from locact.activity import classify_activity
        direct = classify_activity(linsys.make_system(A, np.eye(2)))
        assert report["activity"]["status"] == direct.status
