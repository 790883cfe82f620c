import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    FunctionSignal,
    Sampled,
    assert_same_spectrum,
    format_matrix_text,
    random_stack,
    spectrum_oracle,
)
from locact import linsys, signals
from locact.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonFiniteEntry,
    NotAProjection,
    OverflowRisk,
    SignalDomainError,
)
from locact.signals import (
    MollifiedTwoPulse,
    MollifierComplex,
    MollifierReal,
    TwoPulse,
    eval_signal,
    mollifier,
)


class TestMakeSystem:
    def test_paper_matrix_with_identity_projection(self):
        sys = linsys.make_system([[-1.0, 10.0], [0.0, -2.0]], np.eye(2))
        assert sys.n == 2
        npt.assert_allclose(sys.A, [[-1.0, 10.0], [0.0, -2.0]])

    def test_diagonal_idempotent_projection(self):
        sys = linsys.make_system(np.arange(4.0).reshape(2, 2), [[1.0, 0.0], [0.0, 0.0]])
        assert sys.n == 2

    def test_non_projection_rejected(self):
        P = [[1.0, 1.0], [0.0, 1.0]]  # P^2 = [[1,2],[0,1]] != P
        with pytest.raises(NotAProjection):
            linsys.make_system(np.eye(2), P)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linsys.make_system(np.eye(3), np.eye(2))

    def test_non_finite_rejected(self):
        A = np.eye(2)
        A[0, 1] = np.nan
        with pytest.raises(NonFiniteEntry):
            linsys.make_system(A, np.eye(2))

    def test_norm_near_float_range_rejected(self):
        # finite entries whose 2-norm overflows, or leaves no room for A + A^T
        for A in (np.full((2, 2), 1e308), [[0.0, 1e308], [1e308, 0.0]]):
            with pytest.raises(OverflowRisk, match="float range"):
                linsys.make_system(A, np.eye(2))
        # the norm 2e200 is far from the range, and so is 1e307 / 8
        for A in (np.full((2, 2), 1e200), [[1e307 / 8.0]]):
            assert linsys.make_system(A, np.eye(len(A))).n == len(A)

    def test_arrays_frozen(self):
        sys = linsys.make_system(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            sys.A[0, 0] = 5.0


class TestSpectrum:
    def test_identity_reports_repeated_eigenvalues(self):
        spec = linsys.spectrum(np.eye(2))
        npt.assert_allclose(spec.eigenvalues, [1.0, 1.0])
        assert not spec.diagonalizable  # gap test drives the flag

    def test_triangular_example(self):
        spec = linsys.spectrum([[-1.0, 10.0], [0.0, -2.0]])
        npt.assert_allclose(spec.eigenvalues, [-1.0, -2.0], atol=1e-12)
        assert spec.diagonalizable

    def test_destabilized_matrix_eigenvalues(self):
        # A - D from the dissipation-induced destabilization example;
        # characteristic polynomial x^2 + 5x - 5
        spec = linsys.spectrum([[-2.0, 11.0], [1.0, -3.0]])
        expected = [(-5.0 + math.sqrt(45.0)) / 2.0, (-5.0 - math.sqrt(45.0)) / 2.0]
        npt.assert_allclose(spec.eigenvalues.real, expected, atol=1e-12)
        npt.assert_allclose(spec.eigenvalues.imag, 0.0, atol=1e-12)

    def test_ordering_dominant_first_conjugates_adjacent(self, rng):
        for _ in range(20):
            A = rng.standard_normal((5, 5))
            spec = linsys.spectrum(A)
            lam = spec.eigenvalues
            assert np.all(np.diff(lam.real) <= 1e-12)
            for i in range(lam.size - 1):
                if abs(lam[i].real - lam[i + 1].real) < 1e-12 and lam[i].imag > 0:
                    assert lam[i + 1] == np.conj(lam[i])

    def test_reconstruction_invariant(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            A = rng.standard_normal((n, n))
            spec = linsys.spectrum(A)
            if spec.diagonalizable:
                recon = spec.G @ np.diag(spec.eigenvalues) @ spec.H
                assert np.linalg.norm(recon - A) <= 1e-8 * max(1.0, np.linalg.norm(A))
                npt.assert_allclose(spec.H @ spec.G, np.eye(n), atol=1e-8)

    def test_conjugate_closure(self, rng):
        for _ in range(25):
            A = rng.standard_normal((4, 4))
            lam = linsys.spectrum(A).eigenvalues
            npt.assert_allclose(np.sort_complex(lam), np.sort_complex(np.conj(lam)),
                                atol=1e-8)

    def test_conjugate_eigenvector_columns(self, rng):
        A = np.array([[0.0, -2.0], [2.0, 0.0]])
        spec = linsys.spectrum(A)
        npt.assert_allclose(spec.G[:, 1], np.conj(spec.G[:, 0]))


# the matrices behind the usual edge cases of the spectral kernel
SPECTRUM_FIXTURES = {
    "repeated": np.eye(2),
    "zero": np.diag([0.0, 1.0]),
    "jordan": np.array([[1.0, 1.0], [0.0, 1.0]]),  # the pinv path
    "rotation": np.array([[0.0, 1.0], [-1.0, 0.0]]),
    "scalar": np.array([[0.7]]),
    # eigenvalues more than spec_tol apart, but eig's eigenvector matrix is
    # exactly singular: the pinv path
    "singular_eigenvectors": np.array([[1.0, 1.0, 0.0, -1.0], [0.0, 1.0, 1.0, 1.0],
                                       [-1.0, 1.0, 0.0, 1.0], [1.0, -1.0, 0.0, -1.0]]),
}


def _slice_spectrum(groups, i):
    for group in groups:
        pos = np.flatnonzero(group.index == i)
        if pos.size:
            return group.at(int(pos[0]))
    raise AssertionError(f"slice {i} is in no group")


# a complex pair 0.5 +/- 1e-16i beside the real eigenpair (0.5, e3): the
# real eigenvalue sorts between the two members of the pair
NEAR_REAL_PAIR_BESIDE_REAL = np.array([[0.5, 1e-16, 0.0], [-1e-16, 0.5, 0.0],
                                       [0.0, 0.0, 0.5]])


@st.composite
def real_stacks(draw):
    """Stacks of real n x n matrices, n <= 5: Gaussian, small-integer, or
    block-diagonal rotations ``[[a, b], [-b, a]]`` beside a real eigenvalue
    ``a`` of the same real part, in permuted coordinates."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["gaussian", "integer", "rotation"]))
    if kind == "gaussian":
        return rng.standard_normal((k, n, n))
    if kind == "integer":
        return rng.integers(-3, 4, (k, n, n)).astype(float)
    stack = np.zeros((k, n, n))
    for M in stack:
        a = float(rng.integers(-2, 3)) if rng.random() < 0.5 else rng.standard_normal()
        np.fill_diagonal(M, a)
        for j in range(0, n - 1, 2):
            b = rng.standard_normal() * 10.0 ** rng.uniform(-17.0, 1.0)
            M[j, j + 1], M[j + 1, j] = b, -b
        p = rng.permutation(n)
        M[:] = M[p][:, p]
    return stack


class TestSpectra:
    @settings(max_examples=200, deadline=None)
    @given(real_stacks())
    @example(NEAR_REAL_PAIR_BESIDE_REAL[None])
    def test_eigenvalues_are_lapacks_in_order_with_exact_conjugates(self, A):
        for i, g, pos in ((i, g, pos) for g in linsys.spectra(A)
                          for pos, i in enumerate(g.index)):
            spec = g.at(pos)
            lam, G = spec.eigenvalues, spec.G
            want = np.linalg.eig(A[i]).eigenvalues
            assert lam.dtype == want.dtype
            assert sorted(lam[j:j + 1].tobytes() for j in range(lam.size)) == \
                sorted(want[j:j + 1].tobytes() for j in range(want.size))
            for x, y in zip(lam[:-1], lam[1:]):
                assert x.real > y.real or x.real == y.real and x.imag >= y.imag
            for j in np.flatnonzero(lam.imag):
                assert any(lam[m] == np.conj(lam[j])
                           and np.array_equal(G[:, m], np.conj(G[:, j]))
                           for m in range(lam.size)), (lam, j)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 300))
    def test_every_slice_equals_the_per_matrix_spectrum(self, seed, n, k):
        A = random_stack(np.random.default_rng(seed), k, n)
        groups = linsys.spectra(A)
        index = np.concatenate([g.index for g in groups])
        assert sorted(index.tolist()) == list(range(k))
        kinds = [g.eigenvalues.dtype.kind for g in groups]
        assert kinds in (["f"], ["c"], ["f", "c"])
        for g in groups:
            for pos, i in enumerate(g.index):
                assert_same_spectrum(g.at(pos), spectrum_oracle(A[i]))

    def test_singular_eigenvectors_do_not_fail_the_stack(self):
        M = SPECTRUM_FIXTURES["singular_eigenvectors"]
        groups = linsys.spectra(np.stack([M, np.diag([1.0, 2.0, 3.0, 4.0])]))
        singular, diagonal = (_slice_spectrum(groups, i) for i in (0, 1))
        assert not singular.diagonalizable and diagonal.diagonalizable
        assert_same_spectrum(singular, spectrum_oracle(M))

    @pytest.mark.parametrize("name", SPECTRUM_FIXTURES)
    def test_fixture_equals_the_per_matrix_spectrum(self, name):
        M = SPECTRUM_FIXTURES[name]
        assert_same_spectrum(linsys.spectrum(M), spectrum_oracle(M))

    @pytest.mark.parametrize("name", SPECTRUM_FIXTURES)
    @pytest.mark.parametrize("k", [1, 2, 300])
    def test_fixture_bits_do_not_depend_on_batch_position(self, name, k):
        M = SPECTRUM_FIXTURES[name]
        want = spectrum_oracle(M)
        for i in {0, k - 1}:
            A = random_stack(np.random.default_rng(k), k, M.shape[0])
            A[i] = M
            assert_same_spectrum(_slice_spectrum(linsys.spectra(A), i), want)

    def test_jordan_block_takes_the_pseudo_inverse(self):
        spec = linsys.spectrum(SPECTRUM_FIXTURES["jordan"])
        assert not spec.diagonalizable
        npt.assert_array_equal(spec.H, np.linalg.pinv(spec.G))

    def test_real_spectrum_keeps_float_dtype_in_a_complex_stack(self):
        A = np.stack([np.diag([2.0, 1.0]), SPECTRUM_FIXTURES["rotation"]])
        real, cplx = linsys.spectra(A)
        assert real.index.tolist() == [0] and cplx.index.tolist() == [1]
        assert real.G.dtype == real.H.dtype == real.eigenvalues.dtype == np.float64
        assert cplx.G.dtype == cplx.H.dtype == cplx.eigenvalues.dtype == np.complex128

    def test_spectrum_arrays_are_read_only(self):
        spec = linsys.spectrum(np.diag([2.0, 1.0]))
        for a in (spec.eigenvalues, spec.G, spec.H):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_non_finite_stack_raises_locact_error(self):
        with pytest.raises(ConvergenceFailure):
            linsys.spectra(np.full((2, 2, 2), np.nan))


class TestMatrixExponential:
    def test_t_zero_is_identity(self, rng):
        A = rng.standard_normal((4, 4))
        npt.assert_allclose(linsys.matrix_exponential(A, 0.0), np.eye(4), atol=1e-14)

    def test_diagonal_case(self):
        E = linsys.matrix_exponential(np.diag([1.0, -2.0]), 1.0)
        npt.assert_allclose(E, np.diag([math.e, math.exp(-2.0)]), rtol=1e-13)

    def test_rotation_against_power_series(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        t = math.pi / 2.0
        # independent oracle: truncated power series to 1e-12
        term = np.eye(2)
        series = np.eye(2)
        for k in range(1, 60):
            term = term @ (A * t) / k
            series = series + term
            if np.linalg.norm(term) < 1e-14:
                break
        E = linsys.matrix_exponential(A, t)
        npt.assert_allclose(E, series, atol=1e-12)
        npt.assert_allclose(E, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)

    def test_semigroup_property(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            A = rng.standard_normal((n, n))
            A *= 5.0 / max(1.0, np.linalg.norm(A))
            s, t = rng.uniform(0.0, 2.0, 2)
            whole = linsys.matrix_exponential(A, s + t)
            split = linsys.matrix_exponential(A, s) @ linsys.matrix_exponential(A, t)
            assert np.linalg.norm(whole - split) <= 10 * linsys.EXP_TOL * np.linalg.norm(whole)

    def test_overflow_guard(self):
        with pytest.raises(OverflowRisk):
            linsys.matrix_exponential(np.diag([1000.0, 0.0]), 1.0)


class TestMaxSymEigenvalue:
    def test_negative_identity(self):
        assert linsys.max_sym_eigenvalue(-np.eye(3)) == pytest.approx(-1.0)

    def test_nilpotent_block(self):
        assert linsys.max_sym_eigenvalue([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(1.0)

    def test_paper_matrix(self):
        # sym part [[-1, 5], [5, -2]]: max eigenvalue (-3 + sqrt(101)) / 2
        val = linsys.max_sym_eigenvalue([[-1.0, 10.0], [0.0, -2.0]])
        assert val == pytest.approx((-3.0 + math.sqrt(101.0)) / 2.0, abs=1e-12)


class TestSolveForced:
    def test_zero_input_zero_state(self):
        sys = linsys.make_system([[0.3, -0.1], [0.2, -0.4]], np.eye(2))
        u = FunctionSignal(lambda t: np.zeros((t.size, 2)), 1.0)
        traj = linsys.solve_forced(sys, u, 1.0, 64)
        npt.assert_allclose(traj.states, 0.0)
        assert traj.times[0] == 0.0

    def test_constant_input_integrates(self):
        sys = linsys.make_system([[0.0]], [[1.0]])
        u = FunctionSignal(lambda t: np.ones((t.size, 1)), 1.0)
        traj = linsys.solve_forced(sys, u, 1.0, 64)
        assert traj.states[-1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_scalar_mollifier_solution_identity(self):
        # u(t) = rho'(2t - 1) e^t on n = 1 with A = 1 has the closed-form
        # solution x(t) = (1/2) rho(2t - 1) e^t: zero at T, e^{-1/2}/2 at T/2
        sys = linsys.make_system([[1.0]], [[1.0]])
        sig = MollifierReal(lam=1.0, v=[1.0], T=1.0)
        traj = linsys.solve_forced(sys, sig, 1.0, 2000)
        mid = np.argmin(np.abs(traj.times - 0.5))
        assert traj.states[mid, 0] == pytest.approx(0.5 * math.exp(-0.5), abs=1e-9)
        assert abs(traj.states[-1, 0]) < 1e-10
        expected = 0.5 * mollifier(2.0 * traj.times - 1.0) * np.exp(traj.times)
        npt.assert_allclose(traj.states[:, 0], expected, atol=1e-9)

    def test_superposition(self, rng):
        n = 3
        sys = linsys.make_system(rng.standard_normal((n, n)), np.eye(n))
        f1 = lambda t: np.column_stack([np.sin(t), np.cos(t), t])
        f2 = lambda t: np.column_stack([t * t, np.ones_like(t), -t])
        alpha, beta = 0.7, -1.3
        u1, u2 = FunctionSignal(f1, 2.0), FunctionSignal(f2, 2.0)
        combo = FunctionSignal(lambda t: alpha * f1(t) + beta * f2(t), 2.0)
        xa = linsys.solve_forced(sys, u1, 2.0, 400).states
        xb = linsys.solve_forced(sys, u2, 2.0, 400).states
        xc = linsys.solve_forced(sys, combo, 2.0, 400).states
        npt.assert_allclose(xc, alpha * xa + beta * xb, atol=1e-10)

    def test_convergence_order(self, rng):
        # error against a Richardson reference drops by >= 12 when halving h
        sys = linsys.make_system(rng.standard_normal((3, 3)) * 0.8, np.eye(3))
        u = FunctionSignal(
            lambda t: np.column_stack([np.sin(3 * t), np.exp(0.2 * t), np.cos(t)]), 1.5)
        ends = {}
        for steps in (50, 100, 200, 400):
            ends[steps] = linsys.solve_forced(sys, u, 1.5, steps).states[-1]
        ref = ends[400] + (ends[400] - ends[200]) / 15.0
        e1 = np.linalg.norm(ends[50] - ref)
        e2 = np.linalg.norm(ends[100] - ref)
        assert e1 / e2 >= 12.0

    def test_two_pulse_grid_splits_at_jumps(self):
        sys = linsys.make_system([[0.0]], [[1.0]])
        sig = TwoPulse(a=1.0, b=-1.0, k=1.0, T=3.0, direction=[1.0])
        traj = linsys.solve_forced(sys, sig, 3.0, 300)
        # integral of the two-pulse is exactly zero at T
        assert traj.states[-1, 0] == pytest.approx(0.0, abs=1e-12)
        assert np.any(np.isclose(traj.times, 1.0))
        assert np.any(np.isclose(traj.times, 2.0))

    @pytest.mark.parametrize("T", [1e305, 1.7976931348623157e308])
    def test_grid_near_the_float_range(self, T):
        # steps * L overflowed for T beyond about 1.8e308 / steps; L and T
        # are now scaled by one power of two
        edges, counts = linsys._segment_grid(T, [0.25 * T, 0.5 * T], 400_000)
        assert edges == [0.0, 0.25 * T, 0.5 * T, T]
        assert counts == [100_000, 100_000, 200_000]
        assert linsys._segment_grid(T, [], 7) == ([0.0, T], [7])

    def test_signal_domain_checked(self):
        sys = linsys.make_system([[0.0]], [[1.0]])
        sig = MollifierReal(lam=0.0, v=[1.0], T=1.0)
        with pytest.raises(SignalDomainError):
            linsys.solve_forced(sys, sig, 2.0, 64)

    def test_plain_callable_rejected(self):
        # the integrator takes the signal families only
        sys = linsys.make_system([[0.0]], [[1.0]])
        u = lambda t: np.ones((np.size(t), 1))
        for integrate in (linsys.solve_forced, linsys.forced_energy):
            with pytest.raises(TypeError, match="signal family"):
                integrate(sys, u, 1.0, 64)
        assert linsys.forced_energy(sys, FunctionSignal(u, 1.0), 1.0, 64) == \
            pytest.approx(0.5, abs=1e-12)


def _rk4_loop_oracle(sys, u, T, steps):
    """The integrator as a plain per-step RK4 loop.

    Returns (times, states, W, mass), mass being the same quadrature of the
    absolute integrand ``|<x, P u>|``.
    """
    A, P, n = sys.A, sys.P, sys.n

    def evaluate(ts):
        return eval_signal(u, ts)

    piecewise_constant = u.piecewise_constant
    edges, counts = linsys._segment_grid(T, u.breakpoints(), steps)
    x = np.zeros(n)
    W = mass = 0.0
    all_times = [np.array([0.0])]
    all_states = [x[None, :].copy()]
    for (lo, hi), m in zip(zip(edges[:-1], edges[1:]), counts):
        h = (hi - lo) / m
        grid = lo + h * np.arange(m + 1)
        grid[-1] = hi
        if piecewise_constant:
            const = evaluate(np.array([0.5 * (lo + hi)]))[0]
            U1 = np.broadcast_to(const, (m, n))
            U2, U3 = U1, U1
        else:
            U1 = evaluate(grid[:-1])
            U2 = evaluate(grid[:-1] + 0.5 * h)
            U3 = evaluate(grid[1:])
        F1 = U1 @ P.T
        F2 = U2 @ P.T
        F3 = U3 @ P.T
        states = np.empty((m, n))
        for k in range(m):
            f1, f2, f3 = F1[k], F2[k], F3[k]
            k1 = A @ x + f1
            z1 = x @ f1
            y = x + (0.5 * h) * k1
            k2 = A @ y + f2
            z2 = y @ f2
            y = x + (0.5 * h) * k2
            k3 = A @ y + f2
            z3 = y @ f2
            y = x + h * k3
            k4 = A @ y + f3
            z4 = y @ f3
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            W += (h / 6.0) * (z1 + 2.0 * z2 + 2.0 * z3 + z4)
            mass += (h / 6.0) * (abs(z1) + 2.0 * abs(z2) + 2.0 * abs(z3) + abs(z4))
            states[k] = x
        all_times.append(grid[1:])
        all_states.append(states)
    return np.concatenate(all_times), np.concatenate(all_states), W, mass


SIGNAL_FAMILIES = ("two_pulse", "mollifier_real", "mollifier_complex",
                   "mollified_two_pulse", "sampled", "callable")


def _random_signal(rng, family, n):
    """A signal of the given family on R^n and its horizon."""
    if family in ("two_pulse", "mollified_two_pulse"):
        T = float(rng.uniform(2.2, 4.0))
        base = TwoPulse(a=float(rng.uniform(-2, 2)), b=float(rng.uniform(-2, 2)),
                        k=float(rng.uniform(2.0 / T + 0.05, 3.0)), T=T,
                        direction=rng.standard_normal(n))
        if family == "two_pulse":
            return base, T
        limit = min(0.5 / base.k, 0.5 * (T - 2.0 / base.k))
        return MollifiedTwoPulse(base=base, eps_s=float(rng.uniform(0.1, 0.9)) * limit), T
    if family == "mollifier_real":
        T = float(rng.uniform(0.5, 3.0))
        return MollifierReal(lam=float(rng.uniform(0, 2)), v=rng.standard_normal(n), T=T), T
    if family == "mollifier_complex":
        T = float(rng.uniform(1.0, 3.0))
        eps = float(rng.uniform(0.05, 0.45 * T))
        return MollifierComplex(alpha=float(rng.uniform(0, 1)), beta=float(rng.uniform(0.5, 6)),
                                v1=rng.standard_normal(n), v2=rng.standard_normal(n),
                                t0=float(rng.uniform(eps, T - eps)), eps=eps, T=T), T
    if family == "sampled":
        T = float(rng.uniform(0.5, 3.0))
        knots = int(rng.integers(2, 20))
        times = np.unique(np.concatenate(([0.0], rng.uniform(0, T, knots - 2), [T])))
        return Sampled(times=times, values=rng.standard_normal((times.size, n))), T
    T = float(rng.uniform(0.5, 3.0))
    omega, phase = rng.uniform(0.5, 5, n), rng.uniform(0, 2 * np.pi, n)
    return FunctionSignal(lambda t: np.sin(np.outer(t, omega) + phase), T), T


def _random_projection(rng, kind, n):
    if kind == "identity":
        return np.eye(n)
    if kind == "e1":
        P = np.zeros((n, n))
        P[0, 0] = 1.0
        return P
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    basis = Q[:, :int(rng.integers(1, n + 1))]
    return basis @ basis.T


class TestBlockedIntegrator:
    """The blocked affine scan against the per-step loop it replaces."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
           ports=st.sampled_from(("identity", "e1", "orthogonal")),
           family=st.sampled_from(SIGNAL_FAMILIES),
           steps=st.one_of(st.integers(2, 400),
                           st.integers(linsys._CHUNK_STEPS - 16, linsys._CHUNK_STEPS + 16)))
    def test_matches_loop_oracle(self, seed, n, ports, family, steps):
        rng = np.random.default_rng(seed)
        sys = linsys.make_system(rng.uniform(-2, 2, (n, n)), _random_projection(rng, ports, n))
        u, T = _random_signal(rng, family, n)
        times, states, W, mass = _rk4_loop_oracle(sys, u, T, steps)
        traj = linsys.solve_forced(sys, u, T, steps)
        assert np.array_equal(traj.times, times)
        assert np.abs(traj.states - states).max() <= 1e-9 * np.abs(states).max()
        # relative to |W|; where the integrand cancels to a W far below its
        # absolute mass, relative to 1% of that mass
        W_tol = 1e-9 * max(abs(W), 1e-2 * mass)
        assert abs(linsys.forced_energy(sys, u, T, steps) - W) <= W_tol


class TestInputSamples:
    """A chunk of m steps samples the input at its m + 1 grid points and its
    m midpoints, each once."""

    @pytest.mark.parametrize("steps", [2, 3, 100, linsys._CHUNK_STEPS,
                                       linsys._CHUNK_STEPS + 16])
    @pytest.mark.parametrize("want_states", [True, False])
    def test_sample_count(self, steps, want_states):
        sampled = []

        def u(t):
            sampled.append(np.array(t, dtype=float))
            return np.sin(np.outer(t, [1.0, 2.0]))

        sys = linsys.make_system([[-1.0, 2.0], [0.5, -0.3]], np.eye(2))
        u = FunctionSignal(u, 1.5)
        if want_states:
            linsys.solve_forced(sys, u, 1.5, steps)
        else:
            linsys.forced_energy(sys, u, 1.5, steps)
        chunks = [min(linsys._CHUNK_STEPS, steps - first)
                  for first in range(0, steps, linsys._CHUNK_STEPS)]
        assert sum(t.size for t in sampled) == sum(2 * m + 1 for m in chunks)
        assert np.unique(np.concatenate(sampled)).size == 2 * steps + 1


def _full_horizon_energy(sys, u, T, steps):
    """:func:`linsys.forced_energy` with every segment sampled, quiet or not."""
    return linsys._rk4_forced(sys.A, sys.P, u, T, steps, quiet=())[2]


def _quiet_signal(rng, family, n):
    """A signal with quiet spans: a windowed complex-pair input whose window
    lies inside (0, T), starts at 0 or ends at T, or a mollified two-pulse."""
    if family == "two_pulse":
        T = float(rng.uniform(2.2, 8.0))
        base = TwoPulse(a=float(rng.uniform(-2, 2)), b=float(rng.uniform(-2, 2)),
                        k=float(rng.uniform(2.0 / T + 0.05, 3.0)), T=T,
                        direction=rng.standard_normal(n))
        limit = min(0.5 / base.k, 0.5 * (T - 2.0 / base.k))
        return MollifiedTwoPulse(base=base, eps_s=float(rng.uniform(0.05, 0.95)) * limit), T
    eps = float(rng.uniform(0.02, 1.0))
    t0 = eps if family == "window_at_0" else eps + float(rng.uniform(0.01, 3.0))
    T = t0 + eps if family == "window_at_T" else t0 + eps + float(rng.uniform(0.01, 3.0))
    return MollifierComplex(alpha=float(rng.uniform(-1, 2)), beta=float(rng.uniform(0.5, 20)),
                            v1=rng.standard_normal(n), v2=rng.standard_normal(n),
                            t0=t0, eps=eps, T=T), T


class TestQuietSpans:
    """Inside a quiet span every sample of the integrator is exactly 0, so
    skipping the span leaves the energy unchanged bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           ports=st.sampled_from(("identity", "e1", "orthogonal")),
           family=st.sampled_from(("window", "window_at_0", "window_at_T", "two_pulse")),
           steps=st.one_of(st.integers(2, 400),
                           st.integers(linsys._CHUNK_STEPS - 16, linsys._CHUNK_STEPS + 16)))
    def test_quiet_samples_are_zero_and_energy_is_unchanged(self, seed, n, ports,
                                                            family, steps):
        rng = np.random.default_rng(seed)
        u, T = _quiet_signal(rng, family, n)
        spans = u.quiet_spans()
        assert spans
        edges, counts = linsys._segment_grid(T, u.breakpoints(), steps)
        for lo, hi, m in zip(edges[:-1], edges[1:], counts):
            if not any(a <= lo and hi <= b for a, b in spans):
                # the span ends are knots: a live segment meets no span
                assert all(hi <= a or b <= lo for a, b in spans)
                continue
            h = (hi - lo) / m
            grid = lo + h * np.arange(m + 1)
            grid[-1] = hi
            assert np.all(eval_signal(u, np.concatenate((grid, grid[:-1] + 0.5 * h))) == 0.0)
        for a, b in spans:
            ends = [a, b] + ([np.nextafter(a, b), np.nextafter(b, a)] if a < b else [])
            assert np.all(eval_signal(u, np.array(ends)) == 0.0)
        sys = linsys.make_system(rng.uniform(-2, 2, (n, n)), _random_projection(rng, ports, n))
        assert linsys.forced_energy(sys, u, T, steps) == _full_horizon_energy(sys, u, T, steps)

    def test_overflowing_growth_declares_no_quiet_span(self):
        # e^(alpha t) overflows before T, and 0 * inf is NaN outside the window
        u = MollifierComplex(alpha=1.0, beta=1.0, v1=[1.0], v2=[0.0], t0=1.0,
                             eps=0.5, T=720.0)
        assert u.quiet_spans() == ()
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(eval_signal(u, 720.0)).all()


def _sample_count(monkeypatch, run):
    """Input samples taken by ``run()``, counted at ``signals.eval_signal``."""
    sizes = []
    evaluate = signals.eval_signal

    def counting(sig, t):
        sizes.append(np.size(t))
        return evaluate(sig, t)

    with monkeypatch.context() as m:
        m.setattr(signals, "eval_signal", counting)
        run()
    return sum(sizes)


class TestQuietSpanSamples:
    """forced_energy samples only the segments outside the quiet spans;
    solve_forced samples every chunk of m steps 2m + 1 times."""

    # signal, steps, samples of forced_energy, samples of solve_forced
    CASES = {
        # segments of 250, 167 and 583 steps; the window's 167 are sampled
        "window": (MollifierComplex(alpha=0.3, beta=2.0, v1=[1.0, 0.0], v2=[0.0, 1.0],
                                    t0=1.0, eps=0.25, T=3.0), 1000, 335, 2003),
        # seven segments of 1350 steps; the 450 between the pulses are not sampled
        "two_pulse": (MollifiedTwoPulse(base=TwoPulse(a=1.0, b=-0.5, k=1.0, T=4.0,
                                                      direction=[1.0, 0.0]), eps_s=0.1),
                      1000, 1806, 2707),
        # six segments of 2048 steps; the 18900 between the pulses are
        # carried across in five chunks
        "long_gap": (MollifiedTwoPulse(base=TwoPulse(a=1.0, b=-0.5, k=1.0, T=40.0,
                                                     direction=[1.0, 0.0]), eps_s=0.1),
                     20000, 24582, 62387),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_sample_count(self, monkeypatch, name):
        u, steps, energy_samples, state_samples = self.CASES[name]
        sys = linsys.make_system([[-1.0, 2.0], [0.5, -0.3]], np.eye(2))
        edges, counts = linsys._segment_grid(u.T, u.breakpoints(), steps)
        live = [m for lo, hi, m in zip(edges[:-1], edges[1:], counts)
                if not any(a <= lo and hi <= b for a, b in u.quiet_spans())]
        chunks = [min(linsys._CHUNK_STEPS, m - first)
                  for m in counts for first in range(0, m, linsys._CHUNK_STEPS)]
        assert energy_samples == sum(2 * m + 1 for m in live)
        assert state_samples == sum(2 * m + 1 for m in chunks)
        assert _sample_count(
            monkeypatch, lambda: linsys.forced_energy(sys, u, u.T, steps)) == energy_samples
        assert _sample_count(
            monkeypatch, lambda: linsys.solve_forced(sys, u, u.T, steps)) == state_samples
        W = linsys.forced_energy(sys, u, u.T, steps)
        assert W == _full_horizon_energy(sys, u, u.T, steps)


class TestMatrixIO:
    def test_json_round_trip_bit_exact(self, rng):
        M = rng.standard_normal((3, 3)) * np.pi
        back = linsys.parse_matrix_json(linsys.format_matrix_json(M))
        assert np.array_equal(back, M)

    def test_text_round_trip_bit_exact(self, rng):
        M = rng.standard_normal((4, 4)) / 3.0
        back = linsys.parse_matrix_text(format_matrix_text(M))
        assert np.array_equal(back, M)

    def test_load_matrix_sniffs_format(self, tmp_path):
        M = np.array([[1.5, 2.0], [0.0, -1.0]])
        j = tmp_path / "m.json"
        t = tmp_path / "m.txt"
        j.write_text(linsys.format_matrix_json(M))
        t.write_text(format_matrix_text(M))
        npt.assert_array_equal(linsys.load_matrix(j), M)
        npt.assert_array_equal(linsys.load_matrix(t), M)

    @pytest.mark.parametrize("text", [
        '{"n": 1, "rows": 5}', '{"n": 1, "rows": [1]}', '{"n": null, "rows": [[1]]}',
        '{"n": 1, "rows": [[{"a": 1}]]}', '{"n": 1e400, "rows": [[1]]}',
        '{"n": -1, "rows": []}', '{"n": true, "rows": [[1]]}', '{"n": 1, "rows": [[true]]}',
        '{"n": 1, "rows": [[1' + "0" * 400 + ']]}',
    ], ids=["rows-number", "row-number", "n-null", "entry-object", "n-overflow",
            "n-negative", "n-bool", "entry-bool", "entry-overflow"])
    def test_malformed_json_raises_value_error(self, text):
        with pytest.raises(ValueError):
            linsys.parse_matrix_json(text)

    def test_integral_float_n_accepted(self):
        npt.assert_array_equal(
            linsys.parse_matrix_json('{"n": 2.0, "rows": [[1, 0], [0, 1]]}'), np.eye(2))

    def test_bad_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            linsys.parse_matrix_json('{"n": 2, "rows": [[1, 2]]}')

    @pytest.mark.parametrize("text,error", [
        ("2\n1 0\n0 1\n5 5\n", DimensionMismatch),
        ("2 7 junk\n1 0\n0 1\n", ValueError),
        ("2\n1 0\n", DimensionMismatch),
        ("2\n1 0\n0 1 2\n", DimensionMismatch),
    ], ids=["extra-row", "tokens-after-n", "missing-row", "long-row"])
    def test_text_rows_must_match_n(self, text, error):
        with pytest.raises(error):
            linsys.parse_matrix_text(text)

    def test_text_blank_lines_skipped(self):
        npt.assert_array_equal(linsys.parse_matrix_text("\n2\n\n1 0\n  \n0 1\n\n"), np.eye(2))
