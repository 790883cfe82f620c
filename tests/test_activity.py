import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    FunctionSignal,
    Sampled,
    random_member_of_M,
    two_pulse_energy_closed_form,
)
from locact import activity, genericity, linsys, signals
from locact.activity import (
    ACTIVE,
    INCONCLUSIVE,
    PASSIVE,
    WitnessSearchConfig,
    classify_activity,
    complex_eigen_signal,
    energy_integral,
    real_eigen_signal,
    witness_two_pulse_generic,
)
from locact.errors import (
    EigpairMismatch,
    EigvecNotInImP,
    NonPositiveEigenvalue,
    NoUnstableEigenvalue,
    OverflowRisk,
    ScanExhausted,
)
from locact.serialize import dumps_canonical
from locact.signals import MollifierReal, MollifierTrajectory, TwoPulse


def scalar_system(a=1.0):
    return linsys.make_system([[a]], [[1.0]])


class TestEnergyIntegral:
    def test_zero_input(self):
        sys = linsys.make_system([[0.5]], [[1.0]])
        u = FunctionSignal(lambda t: np.zeros((np.size(t), 1)), 1.0)
        W, err = energy_integral(sys, u, 1.0, 200)
        assert W == 0.0

    def test_scalar_mollifier_energy_matches_trapezoid_oracle(self):
        # W = -(1/4) int_0^1 e^{2t} rho(2t-1)^2 dt for lam = 1, T = 1
        sys = scalar_system(1.0)
        sig = MollifierReal(lam=1.0, v=[1.0], T=1.0)
        t = np.linspace(0.0, 1.0, 1_000_001)
        q = signals.mollifier(2.0 * t - 1.0) ** 2
        oracle = -0.25 * np.trapezoid(np.exp(2.0 * t) * q, t)
        W, err = energy_integral(sys, sig, 1.0, 2000)
        assert W == pytest.approx(oracle, rel=1e-6)
        assert W < 0.0
        assert abs(W - oracle) > 0.0  # distinct code paths

    def test_two_pulse_energy_closed_value(self):
        # n=1, lam=1, a=b=k=1, T=2: W = e^2 - 3
        sys = scalar_system(1.0)
        sig = TwoPulse(a=1.0, b=1.0, k=1.0, T=2.0, direction=[1.0])
        W, err = energy_integral(sys, sig, 2.0, 2000)
        assert W == pytest.approx(math.e**2 - 3.0, rel=1e-9)

    def test_error_estimate_scale(self):
        sys = scalar_system(1.0)
        sig = MollifierReal(lam=1.0, v=[1.0], T=1.0)
        W, err = energy_integral(sys, sig, 1.0, 400)
        assert err < 1e-8 * abs(W) + 1e-12


class TestClosedForm:
    def test_zero_amplitudes(self):
        spec = linsys.spectrum([[1.0]])
        W = two_pulse_energy_closed_form(spec, spec.G[0, :], spec.H[:, 0],
                                         0.0, 0.0, 1.0, 2.0)
        assert W == 0.0

    def test_scalar_reference_value(self):
        spec = linsys.spectrum([[1.0]])
        W = two_pulse_energy_closed_form(spec, spec.G[0, :], spec.H[:, 0],
                                         1.0, 1.0, 1.0, 2.0)
        assert W == pytest.approx(math.e**2 - 3.0, rel=1e-12)

    def test_matches_quadrature_on_random_member(self, rng):
        sys = random_member_of_M(rng, 3)
        spec = linsys.spectrum(sys.A)
        W_cf = two_pulse_energy_closed_form(spec, spec.G[0, :], spec.H[:, 0],
                                            1.0, -1.0, 1.0, 5.0)
        sig = TwoPulse(a=1.0, b=-1.0, k=1.0, T=5.0,
                       direction=np.eye(sys.n)[:, 0])
        W_q, _ = energy_integral(sys, sig, 5.0, 4000)
        assert W_cf == pytest.approx(W_q, rel=1e-6, abs=1e-9)


class TestWitnessRealEigen:
    def test_scalar_case_negative_energy(self):
        sys = scalar_system(1.0)
        sig = real_eigen_signal(sys, 1.0, [1.0], T=1.0)
        W, _ = energy_integral(sys, sig, 1.0)
        assert W < 0.0
        t = np.linspace(0.0, 1.0, 1_000_001)
        q = signals.mollifier(2.0 * t - 1.0) ** 2
        oracle = -0.25 * np.trapezoid(np.exp(2.0 * t) * q, t)
        assert W == pytest.approx(oracle, rel=1e-6)

    def test_decoupled_two_dimensional_case(self):
        sys = linsys.make_system(np.diag([2.0, -1.0]), np.eye(2))
        sig = real_eigen_signal(sys, 2.0, [1.0, 0.0], T=1.0)
        W, _ = energy_integral(sys, sig, 1.0)
        assert W < 0.0

    def test_eigvec_outside_image_rejected(self):
        sys = linsys.make_system(np.diag([2.0, -1.0]), np.diag([0.0, 1.0]))
        with pytest.raises(EigvecNotInImP):
            real_eigen_signal(sys, 2.0, [1.0, 0.0], T=1.0)

    def test_nonpositive_eigenvalue_rejected(self):
        with pytest.raises(NonPositiveEigenvalue):
            real_eigen_signal(scalar_system(-1.0), -1.0, [1.0], T=1.0)

    def test_overflowing_horizon_rejected(self):
        with pytest.raises(OverflowRisk):
            real_eigen_signal(scalar_system(400.0), 400.0, [1.0], T=1.0)

    def test_energy_decreasing_in_lambda(self):
        # -(lam T^2 / 4) int e^{2 lam t} q dt is strictly decreasing in lam
        energies = []
        for lam in (0.5, 1.0, 2.0):
            sys = scalar_system(lam)
            W, _ = energy_integral(sys, real_eigen_signal(sys, lam, [1.0], T=1.0), 1.0)
            energies.append(W)
        assert energies[0] > energies[1] > energies[2]


class TestWitnessComplexEigen:
    def test_rotation_block(self):
        A = np.array([[0.1, -1.0], [1.0, 0.1]])
        sys = linsys.make_system(A, np.eye(2))
        spec = linsys.spectrum(A)
        lam = spec.eigenvalues[0]
        sig = complex_eigen_signal(sys, lam.real, lam.imag,
                                   spec.G[:, 0].real, spec.G[:, 0].imag)
        W, _ = energy_integral(sys, sig, sig.T)
        assert W < 0.0
        assert sig.t0 - sig.eps >= 0.0 and sig.t0 + sig.eps <= sig.T

    def test_fast_rotation_t0_within_period(self):
        beta = 2.0 * math.pi
        A = np.array([[1.0, -beta], [beta, 1.0]])
        sys = linsys.make_system(A, np.eye(2))
        spec = linsys.spectrum(A)
        lam = spec.eigenvalues[0]
        sig = complex_eigen_signal(sys, lam.real, lam.imag,
                                   spec.G[:, 0].real, spec.G[:, 0].imag)
        W, _ = energy_integral(sys, sig, sig.T)
        assert W < 0.0
        assert sig.t0 <= 2.0 * math.pi / beta + 1e-12

    def test_positive_slope_window_verified_by_finite_differences(self):
        A = np.array([[0.1, -1.0], [1.0, 0.1]])
        sys = linsys.make_system(A, np.eye(2))
        spec = linsys.spectrum(A)
        lam = spec.eigenvalues[0]
        v1, v2 = spec.G[:, 0].real, spec.G[:, 0].imag
        sig = complex_eigen_signal(sys, lam.real, lam.imag, v1, v2)
        nv1, nv2 = sig.v1, sig.v2

        def g(t):
            vec = np.outer(np.sin(lam.imag * t), nv1) + np.outer(np.cos(lam.imag * t), nv2)
            return np.exp(2.0 * lam.real * t) * np.sum(vec * vec, axis=1)

        ts = np.linspace(sig.t0 - sig.eps + 1e-9, sig.t0 + sig.eps - 1e-9, 101)
        h = 1e-6
        slopes = (g(ts + h) - g(ts - h)) / (2.0 * h)
        assert np.all(slopes > 0.0)

    def test_beta_zero_rejected(self):
        sys = linsys.make_system(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            complex_eigen_signal(sys, 1.0, 0.0, [1.0, 0.0], [0.0, 1.0])

    def test_alpha_nonpositive_rejected(self):
        A = np.array([[-0.1, -1.0], [1.0, -0.1]])
        sys = linsys.make_system(A, np.eye(2))
        with pytest.raises(NonPositiveEigenvalue):
            complex_eigen_signal(sys, -0.1, 1.0, [1.0, 0.0], [0.0, -1.0])


class TestWitnessTwoPulseGeneric:
    def test_scalar_unstable(self):
        sys = linsys.make_system([[2.0]], [[1.0]])
        gw = witness_two_pulse_generic(sys)
        assert 2.0 <= gw.T
        assert gw.W < 0.0 and gw.closed_form_W < 0.0
        assert gw.signal.base.a in (-1.0, 1.0)

    def test_structured_two_dimensional(self, rng):
        # diag(1, -3) plus a small generic perturbation, port on x1
        A = np.diag([1.0, -3.0]) + 0.01 * rng.standard_normal((2, 2))
        sys = linsys.make_system(A, np.diag([1.0, 0.0]))
        gw = witness_two_pulse_generic(sys)
        assert gw.W < 0.0
        # mollified re-verification close to the closed-form value
        assert gw.W == pytest.approx(gw.closed_form_W, rel=0.05)

    def test_stable_matrix_rejected(self):
        sys = linsys.make_system([[-1.0]], [[1.0]])
        with pytest.raises(NoUnstableEigenvalue):
            witness_two_pulse_generic(sys)

    def test_scan_value_matches_exact_two_pulse_quadrature(self, rng):
        sys = random_member_of_M(rng, 3, min_abscissa=0.3)
        gw = witness_two_pulse_generic(sys)
        base = gw.signal.base
        W_q, _ = energy_integral(sys, base, gw.T,
                                 steps=max(4000, int(256 * gw.T)))
        assert gw.closed_form_W == pytest.approx(W_q, rel=1e-6, abs=1e-9)
        # and the mollified signal keeps the sign
        assert np.sign(gw.W) == np.sign(gw.closed_form_W) == -1.0

    @pytest.mark.parametrize("T_max, sizes", [(None, [256, 41]), (3.0, [256, 745])])
    def test_scan_evaluates_blocks_up_to_the_first_hit(self, monkeypatch, T_max, sizes):
        # of 39,961 horizons, the first hit is at T = 3.5: the first block of
        # 256 and the lookahead of 2 / 0.05 + 1 from that hit are evaluated;
        # with T_max = 3 on the step 0.001 the 1,001 horizons hold no hit, and
        # both blocks are walked
        sys = linsys.make_system([[0.1, 1.0], [-1.0, 0.1]], np.diag([1.0, 0.0]))
        cfg = WitnessSearchConfig(T_max=T_max, T_scan_step=0.05 if T_max is None else 0.001)
        got = []
        sums = activity._two_pulse_sums
        monkeypatch.setattr(activity, "_two_pulse_sums", lambda lam, gh, sq, k, Ts:
                            got.append(len(Ts)) or sums(lam, gh, sq, k, Ts))
        want = _search_oracle(sys, cfg)
        try:
            gw = witness_two_pulse_generic(sys, cfg)
        except ScanExhausted as exc:
            assert str(exc) == want == "no negative closed-form energy up to T_max = 3.0"
        else:
            assert (gw.signal.base.a, gw.T, gw.closed_form_W, gw.W) == want
        assert got == sizes

    def test_sign_verified_witness_is_the_fallback(self, monkeypatch):
        # a doubled quadrature value keeps the sign of W but never comes
        # within 4 % of the closed form, so every halving of the smoothing
        # width is tried and the last sign-verified signal is returned
        sys = linsys.make_system([[0.5, 0.01], [-0.01, 0.5]], np.diag([1.0, 0.0]))
        widths = []

        def doubled(sys, sig, T, steps=None):
            widths.append(sig.eps_s)
            W, err = energy_integral(sys, sig, T, steps)
            return 2.0 * W, err

        monkeypatch.setattr(activity, "energy_integral", doubled)
        gw = witness_two_pulse_generic(sys)
        assert widths == [0.1 / 2**k for k in range(7)]
        assert gw.signal.eps_s == widths[-1]
        assert gw.W < -gw.quadrature_error_estimate
        assert abs(gw.W - gw.closed_form_W) > 0.04 * (1.0 + abs(gw.closed_form_W))


def _scan_oracle(sys, cfg=WitnessSearchConfig()):
    """The horizon scan as the two-pulse search once wrote it inline: the
    energies ``W(a = -1, T)`` and ``W(a = +1, T)`` on the whole grid of
    ``cfg`` and the first-hit choice ``(a, T, W)``, or the message of the
    ``ScanExhausted`` raised when no horizon hits."""
    Q = genericity.in_generic_M(sys).Q
    spec = linsys.spectrum(Q @ sys.A @ Q.T)
    lam = spec.eigenvalues
    max_re = float(lam.real.max())
    T_max = min(200.0 / max(max_re, 0.1) if cfg.T_max is None else cfg.T_max,
                500.0 / max_re)
    Ts = np.arange(2.0, T_max + 0.5 * cfg.T_scan_step, cfg.T_scan_step)
    mollifiable = Ts >= 2.0 + 0.04
    gh = spec.G[0, :] * spec.H[:, 0]
    ramp = np.exp(lam) - 1.0
    sq_term = (2.0 / lam**2) * ramp - 2.0 / lam
    eta = complex(np.sum(gh * sq_term)).real
    coeff = gh / lam**2 * ramp**2
    osc = (np.exp(np.outer(Ts - 2.0, lam)) * coeff).sum(axis=1).real
    hit = None
    for i, T in enumerate(Ts):
        if not mollifiable[i]:
            continue
        for a in (-1.0, 1.0):
            W = eta + a * osc[i]
            if W < -1e-13 * (1.0 + abs(eta)):
                hit = i
                break
        if hit is not None:
            break
    if hit is None:
        why = ("no negative closed-form energy" if mollifiable.any()
               else "no mollifiable horizon T >= 2.04")
        return Ts, eta - osc, eta + osc, f"{why} up to T_max = {T_max}"
    window = slice(hit, min(hit + int(math.ceil(2.0 / cfg.T_scan_step)) + 1,
                            Ts.size))
    cands = np.stack([eta - osc[window], eta + osc[window]])
    flat = int(np.argmin(cands))
    a = (-1.0, 1.0)[flat // cands.shape[1]]
    idx = hit + flat % cands.shape[1]
    W_closed = float(cands[flat // cands.shape[1], flat % cands.shape[1]])
    return Ts, eta - osc, eta + osc, (a, float(Ts[idx]), W_closed)


def _search_oracle(sys, cfg):
    """``(a, T, closed_form_W, W)`` of the two-pulse search on the whole-grid
    scan of ``_scan_oracle`` and its mollification loop, or the message of
    the ``ScanExhausted`` it raises."""
    choice = _scan_oracle(sys, cfg)[-1]
    if isinstance(choice, str):
        return choice
    a, T, W_closed = choice
    base = TwoPulse(a=a, b=1.0, k=1.0, T=T,
                    direction=genericity.in_generic_M(sys).Q.T[:, 0])
    eps_s, fallback = min(0.1, (T - 2.0) / 4.0), None
    for _ in range(7):
        smooth = signals.MollifiedTwoPulse(base=base, eps_s=eps_s)
        W, err = energy_integral(sys, smooth, T, activity._resolved_steps(smooth, cfg))
        if W < -err:
            if abs(W - W_closed) <= 0.04 * (1.0 + abs(W_closed)):
                return a, T, W_closed, W
            fallback = a, T, W_closed, W
        eps_s *= 0.5
    return fallback or f"mollified signal lost the sign of W at T = {T}"


def _real_spectrum_member(rng, n):
    """Generic-set member with a real spectrum and P = e1 e1^T."""
    P = np.zeros((n, n))
    P[0, 0] = 1.0
    lam = np.sort(rng.uniform(-3.0, 2.0, n))
    lam[-1] = rng.uniform(0.3, 2.0)
    S = rng.standard_normal((n, n))
    return linsys.make_system(S @ np.diag(lam) @ np.linalg.inv(S), P)


def _scan_systems():
    rng = np.random.default_rng(2024)
    systems = [random_member_of_M(rng, int(rng.integers(1, 5)), min_abscissa=0.1)
               for _ in range(8)]
    systems += [_real_spectrum_member(rng, n) for n in (1, 2, 3, 4)]
    systems.append(linsys.make_system(
        200.0 * np.random.default_rng(8).uniform(-2.0, 2.0, (4, 4)),
        np.diag([1.0, 0.0, 0.0, 0.0])))
    return systems


SCAN_SYSTEMS = _scan_systems()


class TestSingleTwoPulseFormula:
    @pytest.mark.parametrize("sys", SCAN_SYSTEMS)
    def test_scan_matches_inline_oracle_bit_for_bit(self, sys):
        Ts, W_minus, W_plus, choice = _scan_oracle(sys)
        spec = genericity.in_generic_M(sys).spectrum
        const, osc = activity._two_pulse_sums(
            spec.eigenvalues, spec.G[0, :] * spec.H[:, 0], 2.0, 1.0, Ts)
        np.testing.assert_array_equal(const.real - osc.real, W_minus)
        np.testing.assert_array_equal(const.real + osc.real, W_plus)
        with np.errstate(over="raise"):
            gw = witness_two_pulse_generic(sys)
        assert (gw.signal.base.a, gw.T, gw.closed_form_W) == choice

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), real=st.booleans(),
           T_max=st.one_of(st.none(), st.floats(2.1, 8.0), st.floats(2.1, 2000.0)),
           T_scan_step=st.sampled_from([0.001, 0.01, 0.05, 0.25]))
    @example(seed=0, n=1, real=False, T_max=2.125, T_scan_step=0.25)  # grid is [2.0]
    def test_lazy_scan_finds_the_whole_grids_witness(self, seed, n, real, T_max,
                                                     T_scan_step):
        # the scan stops at the block of its first hit; the whole grid
        # gives the same witness, or the same ScanExhausted
        rng = np.random.default_rng(seed)
        sys = _real_spectrum_member(rng, n) if real \
            else random_member_of_M(rng, n, min_abscissa=0.1)
        cfg = WitnessSearchConfig(T_max=T_max, T_scan_step=T_scan_step)
        want = _search_oracle(sys, cfg)
        try:
            gw = witness_two_pulse_generic(sys, cfg)
        except ScanExhausted as exc:
            assert str(exc) == want
        else:
            assert (gw.signal.base.a, gw.T, gw.closed_form_W, gw.W) == want

    @settings(max_examples=300, deadline=None)
    @given(T_max=st.floats(1.0, 2000.0),
           T_scan_step=st.one_of(st.floats(0.01, 3.0), st.sampled_from(
               [0.001, 0.01, 0.05, 0.1, 0.25, 0.3])))
    @example(T_max=2.125, T_scan_step=0.25)
    def test_horizon_blocks_are_arange_element_for_element(self, T_max, T_scan_step):
        want = np.arange(2.0, T_max + 0.5 * T_scan_step, T_scan_step)
        count, horizons = activity._scan_horizons(T_max, T_scan_step)
        assert count == want.size
        assert horizons(0, count + 5).tobytes() == want.tobytes()
        for lo in range(0, count, 97):
            assert horizons(lo, lo + 97).tobytes() == want[lo:lo + 97].tobytes()

    @pytest.mark.parametrize("T_max", [1e308, 2.0**54 * 0.05])
    def test_grid_of_2_53_horizons_or_more_is_exhausted(self, T_max):
        with pytest.raises(ScanExhausted, match="2\\*\\*53 points or more"):
            activity._scan_horizons(T_max, 0.05)
        count, horizons = activity._scan_horizons(2.0**52 * 0.05, 0.05)
        assert count > 2**52 - 100 and horizons(count - 1, count + 1).size == 1

    @pytest.mark.parametrize("sys", SCAN_SYSTEMS)
    def test_capped_blocks_find_the_whole_grids_witness(self, sys, monkeypatch):
        # at most 64 horizon x eigenvalue terms per evaluation: the blocks
        # and the 201-horizon lookahead are split into many
        cfg = WitnessSearchConfig(T_scan_step=0.01)
        want = _search_oracle(sys, cfg)
        monkeypatch.setattr(activity, "_SCAN_ENTRIES", 64)
        gw = witness_two_pulse_generic(sys, cfg)
        assert (gw.signal.base.a, gw.T, gw.closed_form_W, gw.W) == want

    @pytest.mark.parametrize("entries", [2, 6, 1 << 18])
    def test_lookahead_keeps_argmins_a_then_T_rule(self, monkeypatch, entries):
        # energies -2 -/+ osc with osc = 0, -1, 0, +1, ... from T = 2: the
        # minimum -3 is first met at a = +1, T = 2.25 and at a = -1, T = 2.75;
        # np.argmin over (a, T) takes a = -1 however the lookahead is split
        sys = linsys.make_system([[0.1, 1.0], [-1.0, 0.1]], np.diag([1.0, 0.0]))

        def sums(lam, gh, sq, k, Ts):
            i = np.rint((np.asarray(Ts) - 2.0) / 0.25).astype(int)
            return np.float64(-2.0), np.array([0.0, -1.0, 0.0, 1.0])[i % 4]

        monkeypatch.setattr(activity, "_SCAN_ENTRIES", entries)
        monkeypatch.setattr(activity, "_two_pulse_sums", sums)
        monkeypatch.setattr(activity, "_verified_record", lambda sys, sig, steps:
                            activity.WitnessRecord(signal=sig, T=sig.T, W=-3.0,
                                                   quadrature_error_estimate=0.0))
        gw = witness_two_pulse_generic(sys, WitnessSearchConfig(T_max=10.0,
                                                                T_scan_step=0.25))
        assert (gw.signal.base.a, gw.T, gw.closed_form_W) == (-1.0, 2.75, -3.0)

    def test_real_spectra_are_covered(self):
        kinds = [genericity.in_generic_M(s).spectrum.eigenvalues.dtype.kind
                 for s in SCAN_SYSTEMS]
        assert kinds.count("f") >= 4 and kinds.count("c") >= 2

    @pytest.mark.parametrize("sys", SCAN_SYSTEMS)
    def test_public_closed_form_equals_scan_value(self, sys):
        Q = genericity.in_generic_M(sys).Q
        spec = linsys.spectrum(Q @ sys.A @ Q.T)
        gw = witness_two_pulse_generic(sys)
        W = two_pulse_energy_closed_form(spec, spec.G[0, :], spec.H[:, 0],
                                         gw.signal.base.a, 1, 1, gw.T)
        assert W == gw.closed_form_W

    def test_genericity_report_keeps_transformed_spectrum(self, rng):
        sys = random_member_of_M(rng, 3)
        report = genericity.in_generic_M(sys)
        Q = report.Q
        spec = linsys.spectrum(Q @ sys.A @ Q.T)
        np.testing.assert_array_equal(report.spectrum.eigenvalues, spec.eigenvalues)
        np.testing.assert_array_equal(report.spectrum.G, spec.G)
        np.testing.assert_array_equal(report.spectrum.H, spec.H)
        assert "spectrum" not in report.to_json()


def _longest_run_oracle(mask):
    """The run search as a loop over the grid: first longest run of True."""
    best_lo = best_hi = None
    run_lo = None
    for i in range(mask.size + 1):
        inside = i < mask.size and mask[i]
        if inside and run_lo is None:
            run_lo = i
        elif not inside and run_lo is not None:
            if best_lo is None or (i - 1 - run_lo) > (best_hi - best_lo):
                best_lo, best_hi = run_lo, i - 1
            run_lo = None
    return best_lo, best_hi


class TestLongestRun:
    def test_matches_loop_on_random_masks(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            size = int(rng.integers(1, 300))
            mask = rng.random(size) < rng.uniform(0.05, 0.95)
            if not mask.any():
                mask[int(rng.integers(0, size))] = True
            assert activity._longest_run(mask) == _longest_run_oracle(mask)

    @pytest.mark.parametrize("mask", [[True], [True, True, False],
                                      [False, True, True], [True, False, True],
                                      [True, True, False, True, True]])
    def test_edges_and_ties(self, mask):
        mask = np.array(mask)
        assert activity._longest_run(mask) == _longest_run_oracle(mask)

    def test_complex_witness_window_unchanged(self, monkeypatch):
        # oblique coordinates make the positive-slope set of a slowly growing
        # rotation split into several runs per period
        rng = np.random.default_rng(5)
        runs = []
        for alpha, beta in [(0.3, 2.0), (0.02, 7.0), (1.0, 0.5), (0.01, 1.0),
                            (0.05, 3.0), (0.002, 0.7)]:
            S = rng.standard_normal((2, 2))
            A = S @ np.array([[alpha, beta], [-beta, alpha]]) @ np.linalg.inv(S)
            sys = linsys.make_system(A, np.eye(2))
            spec = linsys.spectrum(A)
            lam, v = spec.eigenvalues[0], spec.G[:, 0]
            args = (sys, float(lam.real), float(lam.imag), v.real, v.imag)
            with monkeypatch.context() as m:
                m.setattr(activity, "_longest_run",
                          lambda mask: runs.append(mask.copy())
                          or _longest_run_oracle(mask))
                slow = activity.complex_eigen_signal(*args)
            fast = activity.complex_eigen_signal(*args)
            assert (fast.t0, fast.eps, fast.T) == (slow.t0, slow.eps, slow.T)
        starts = [int(np.count_nonzero(np.diff(r.astype(int)) == 1)) for r in runs]
        assert max(starts) >= 1


class TestClassifyActivity:
    def test_stable_but_nondissipative_is_active(self):
        sys = linsys.make_system([[-1.0, 10.0], [0.0, -2.0]], np.eye(2))
        verdict = classify_activity(sys)
        assert verdict.status == ACTIVE
        wit = verdict.witness
        assert wit is not None
        assert wit.W < -abs(wit.quadrature_error_estimate)

    def test_projected_passive_case(self):
        sys = linsys.make_system(-np.eye(2), np.diag([1.0, 0.0]))
        verdict = classify_activity(sys)
        assert verdict.status == PASSIVE
        assert verdict.certificate.kind == activity.SYM_PA_CERT

    def test_real_eigenpair_beside_a_near_real_pair_is_a_witness(self):
        # eig gives 0.5 + 1e-16i, 0.5 - 1e-16i and the real pair (0.5, e3),
        # which sorts between the two; no value may overwrite it
        A = [[0.5, 1e-16, 0.0], [-1e-16, 0.5, 0.0], [0.0, 0.0, 0.5]]
        verdict = classify_activity(linsys.make_system(A, np.diag([0.0, 0.0, 1.0])))
        assert verdict.status == ACTIVE
        assert verdict.notes == "witness: real eigenpair lam=0.5"
        assert dumps_canonical(verdict.witness.to_json()) == dumps_canonical({
            "signal": {"variant": "MollifierReal", "lam": 0.5, "v": [0, 0, 1], "T": 1},
            "T": 1, "W": -0.013911951370681314,
            "quadrature_error_estimate": 1.5724929106352134e-15})

    def test_projected_active_via_real_eigenpair(self):
        sys = linsys.make_system(np.diag([2.0, -1.0]), np.diag([1.0, 0.0]))
        verdict = classify_activity(sys)
        assert verdict.status == ACTIVE
        assert isinstance(verdict.witness.signal, MollifierReal)

    def test_active_and_passive_mutually_exclusive_fields(self):
        for A in (np.diag([2.0, -1.0]), -np.eye(2)):
            verdict = classify_activity(linsys.make_system(A, np.eye(2)))
            if verdict.status == ACTIVE:
                assert verdict.witness is not None and verdict.certificate is None
            else:
                assert verdict.certificate is not None and verdict.witness is None

    def test_inconclusive_for_oblique_projection_with_stable_A(self):
        # no certificate route (P not symmetric, sym(A) indefinite), no
        # unstable mode to witness
        P = np.array([[1.0, 0.7], [0.0, 0.0]])
        sys = linsys.make_system([[-1.0, 10.0], [0.0, -2.0]], P)
        verdict = classify_activity(sys)
        assert verdict.status == INCONCLUSIVE
        assert verdict.witness is None and verdict.certificate is None
        assert verdict.notes.startswith(
            "P is not symmetric: passivity certificate not applicable; ")

    @pytest.mark.parametrize("A, P, max_eig", [
        # oblique P, no sym(PA) certificate
        (-np.eye(2), [[1.0, 0.7], [0.0, 0.0]], -1.0),
        # orthogonal P with sym(PA) indefinite, lossless A
        ([[0.0, 1.0], [-1.0, 0.0]], np.diag([1.0, 0.0]), 0.0),
        # orthogonal P with sym(PA) indefinite, dissipative A
        ([[-1.0, 1.0], [-1.0, -1.0]], np.diag([1.0, 0.0]), -1.0),
        # oblique P, P^2 = P
        (-np.eye(2), [[1.0, 0.5], [0.0, 0.0]], -1.0),
    ])
    def test_dissipative_A_certifies_any_projection(self, A, P, max_eig):
        # W = |x(T)|^2 / 2 - int x^T sym(A) x dt >= 0 whatever P is
        verdict = classify_activity(linsys.make_system(A, P))
        assert verdict.status == PASSIVE and verdict.witness is None
        assert verdict.certificate == activity.Certificate(activity.SYM_A_CERT, max_eig)
        assert verdict.notes == \
            f"passivity certificate via dissipativity of A (max eig {max_eig:.6g})"

    def test_strongly_stable_mode_keeps_two_pulse_scan_finite(self):
        # eigenvalues -539.6, -0.8 +- 174i and 47.1; (1 - e^(-lam))^2
        # overflows at lam = -539.6, so the scan must not form it
        A = 200.0 * np.random.default_rng(8).uniform(-2.0, 2.0, (4, 4))
        P = np.diag([1.0, 0.0, 0.0, 0.0])
        with np.errstate(over="raise"):
            verdict = classify_activity(linsys.make_system(A, P))
        assert verdict.status == ACTIVE
        w = verdict.witness
        assert w.W < -w.quadrature_error_estimate

    def test_tiny_positive_eigenvalue_is_active(self):
        # max eig 5e-10 lies below cert_tol = 1e-9, yet x' = 5e-10 x is
        # unstable; the trajectory route verifies a witness at T = 1
        verdict = classify_activity(linsys.make_system([[5e-10]], [[1.0]]))
        assert verdict.status == ACTIVE and verdict.certificate is None
        w = verdict.witness
        assert w.T == 1.0 and w.W < -w.quadrature_error_estimate
        assert verdict.notes.startswith("max sym eigenvalue 5e-10 > 0")

    def test_band_certificate_without_witness_names_max_eig(self):
        # lossless, so passive (W = |x(T)|^2 / 2), though sym(PA) has the
        # eigenvalue 5e-10 > 0; no witness route applies
        A = 1e-9 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        verdict = classify_activity(linsys.make_system(A, np.diag([1.0, 0.0])))
        assert verdict.status == PASSIVE
        assert verdict.certificate.kind == activity.SYM_PA_CERT
        assert verdict.certificate.max_eig == pytest.approx(5e-10, rel=1e-12)
        assert verdict.notes.startswith(
            "passivity certificate via sym(PA) <= 0 (max eig 5e-10); ")
        assert "no witness verified" in verdict.notes

    def test_band_certificate_yields_to_a_bump_along_sym_PAP(self):
        # x1' = 1e-10 x1 + u1 is unstable; the bump rho'(2t - 1) e1 at T = 1
        # has W = -1e-10/8 int rho^2 to first order, beyond its error estimate
        A = np.diag([1e-10, -1.0])
        verdict = classify_activity(linsys.make_system(A, np.diag([1.0, 0.0])))
        assert verdict.status == ACTIVE and verdict.certificate is None
        w = verdict.witness
        assert isinstance(w.signal, MollifierReal)
        assert w.signal.lam == 0.0 and w.T == 1.0
        assert abs(w.signal.v[0]) == 1.0 and w.signal.v[1] == 0.0
        assert w.W < -w.quadrature_error_estimate
        assert abs(w.W + 1e-10 / 8.0 * RHO_SQUARED_MASS) <= 10.0 * w.quadrature_error_estimate
        assert verdict.notes.endswith(
            "witness: bump along the top eigenvector of sym(PAP) (eigenvalue 1e-10), T=1")

    NEAR_REAL = [[0.5, 0.01], [-0.01, 0.5]]
    E1 = np.diag([1.0, 0.0])

    @pytest.mark.parametrize("A, P, status, family, notes", [
        (np.diag([1.0, -1.0]), E1, ACTIVE, MollifierReal,
         "witness: real eigenpair lam=1"),
        ([[1.0, 3.0], [-3.0, 1.0]], np.eye(2), ACTIVE, signals.MollifierComplex,
         "witness: complex pair 1 +/- 3i"),
        # the near-real pair is skipped, and the trajectory bump verifies
        (NEAR_REAL, np.eye(2), ACTIVE, MollifierTrajectory,
         "max sym eigenvalue 0.5 > 0; witness: quadratic-form bump trajectory, T=1"),
        # W at T = 1 drowns in the error floor; T = 1/||A|| verifies
        ([[1e-14]], [[1.0]], ACTIVE, MollifierTrajectory,
         "max sym eigenvalue 1e-14 > 0; witness: quadratic-form bump trajectory, T=1e+14"),
        (NEAR_REAL, E1, ACTIVE, signals.MollifiedTwoPulse,
         "witness: generic two-pulse scan (a=-1, T=4.05)"),
        (np.diag([1e-10, -1.0]), E1, ACTIVE, MollifierReal,
         "two-pulse search: NotInGenericSet: port-transformed matrix fails the "
         "generic-set membership test: fails eigenvalue-side membership; "
         "witness: bump along the top eigenvector of sym(PAP) (eigenvalue 1e-10), T=1"),
        ([[-1.0, 10.0], [0.0, -2.0]], [[1.0, 1.0], [0.0, 0.0]], INCONCLUSIVE, None,
         "P is not symmetric: passivity certificate not applicable; "
         "two-pulse search: NoUnstableEigenvalue: spectral abscissa -1.000e+00 "
         "is not positive"),
    ])
    def test_each_witness_route(self, A, P, status, family, notes):
        verdict = classify_activity(linsys.make_system(A, P))
        assert verdict.status == status and verdict.certificate is None
        assert verdict.notes == notes
        if family is None:
            assert verdict.witness is None
        else:
            assert type(verdict.witness.signal) is family

    def test_no_route_runs_after_a_verified_one(self, monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("the two-pulse search ran after a verified witness")

        monkeypatch.setattr(activity, "witness_two_pulse_generic", fail)
        verdict = classify_activity(linsys.make_system(np.diag([1.0, -1.0]), self.E1))
        assert verdict.status == ACTIVE
        assert verdict.notes == "witness: real eigenpair lam=1"

    def test_rounding_level_certificate_is_accepted_outright(self):
        # Q K Q^T with K skew: sym(A) is pure rounding, here max eig 7e-17 > 0
        rng = np.random.default_rng(0)
        S = rng.standard_normal((3, 3))
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        sys = linsys.make_system(Q @ (S - S.T) @ Q.T, np.eye(3))
        m = linsys.max_sym_eigenvalue(sys.A)
        assert 0.0 < m < 1e-15
        verdict = classify_activity(sys)
        assert verdict.status == PASSIVE
        assert verdict.notes == \
            f"passivity certificate via dissipativity of A (max eig {m:.6g})"

    def test_negative_identity_is_certified_by_dissipativity(self):
        verdict = classify_activity(linsys.make_system(-np.eye(2), np.eye(2)))
        assert verdict.status == PASSIVE
        assert verdict.certificate == activity.Certificate(activity.SYM_A_CERT, -1.0)

    def test_active_matrix_has_no_certificate(self):
        sys = linsys.make_system([[-1.0, 10.0], [0.0, -2.0]], np.eye(2))
        verdict = classify_activity(sys)
        assert verdict.status == ACTIVE and verdict.certificate is None

    def test_skew_plus_negative_diagonal_is_certified(self):
        sys = linsys.make_system([[-1.0, 1.0], [-1.0, -1.0]], np.eye(2))
        cert = classify_activity(sys).certificate
        assert cert is not None and cert.max_eig == pytest.approx(-1.0)

    def test_non_orthogonal_projection_is_noted_not_raised(self):
        P = np.array([[1.0, 0.5], [0.0, 0.0]])  # oblique projection, P^2 = P
        verdict = classify_activity(linsys.make_system([[-1.0, 10.0], [0.0, -2.0]], P))
        assert verdict.certificate is None
        assert verdict.notes.startswith(
            "P is not symmetric: passivity certificate not applicable; ")

    def test_certificate_notes(self):
        cases = [
            (-np.eye(2), np.eye(2),
             "passivity certificate via dissipativity of A (max eig -1)"),
            (-np.eye(2), np.diag([1.0, 0.0]),
             "passivity certificate via sym(PA) <= 0 (max eig 0)"),
            (-np.eye(2), np.array([[1.0, 0.7], [0.0, 0.0]]),
             "passivity certificate via dissipativity of A (max eig -1)"),
        ]
        for A, P, notes in cases:
            assert classify_activity(linsys.make_system(A, P)).notes == notes
        oblique = linsys.make_system([[-1.0, 10.0], [0.0, -2.0]],
                                     np.array([[1.0, 0.7], [0.0, 0.0]]))
        assert classify_activity(oblique).notes.startswith(
            "P is not symmetric: passivity certificate not applicable; ")

    def test_theorem2_oracle_small_batch(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            A = rng.uniform(-2.0, 2.0, (n, n))
            sys = linsys.make_system(A, np.eye(n))
            verdict = classify_activity(sys)
            expected = ACTIVE if linsys.max_sym_eigenvalue(A) > 1e-9 else PASSIVE
            assert verdict.status == expected
            if verdict.status == ACTIVE:
                w = verdict.witness
                assert w.W < -abs(w.quadrature_error_estimate)

    def test_witness_soundness_double_resolution(self, rng):
        sys = linsys.make_system(rng.uniform(-2.0, 2.0, (3, 3)), np.eye(3))
        verdict = classify_activity(sys)
        if verdict.status == ACTIVE:
            w = verdict.witness
            steps = 4 * activity.default_quad_steps(w.T)
            W2, err2 = energy_integral(sys, w.signal, w.T, steps)
            assert W2 < 0.0

    def test_passivity_soundness_random_signals(self, rng):
        # certified passive system: every continuous input yields W >= -err
        sys = linsys.make_system([[-1.0, 1.0], [-1.0, -1.0]], np.eye(2))
        assert classify_activity(sys).status == PASSIVE
        for _ in range(100):
            T = float(rng.uniform(1.0, 5.0))
            knots = np.linspace(0.0, T, 64)
            vals = rng.standard_normal((64, 2))
            sig = Sampled(times=knots, values=vals)
            W, err = energy_integral(sys, sig, T, 600)
            assert W >= -err - 1e-9


# int_{-1}^{1} rho(s)^2 ds
RHO_SQUARED_MASS = float(mpmath.quad(lambda s: mpmath.exp(2 / (s * s - 1)), [-1, 0, 1]))

# active P = I systems with a stable spectrum that ended Inconclusive while
# the witness search was a bump scan plus a randomized search
README_MATRIX = np.array([[-0.45184873438155515, 1.3225116907613823],
                          [-1.1086065549707693, -0.02525791427414248]])
STABLE_ACTIVE_INPUTS = {
    "bench_readme": README_MATRIX,
    # criterion-01 draws 2962, 12779 and 19944 of default_rng(123)
    "draw_2962": np.array([[-1.5740160054968473, -1.7392476285951655],
                           [1.6559007881522612, 0.007846383814096303]]),
    "draw_12779": np.array([[-0.014902300158552872, -1.310871125007353],
                            [1.121149011034917, -0.5766322334261358]]),
    "draw_19944": np.array([[-0.9714712482134504, -1.833185036513818, 1.187189177799711],
                            [1.3794060641859462, -1.8639752214856569, -0.6907364099225202],
                            [-1.1626800831281492, -1.5797163610274016, -0.6992459423718485]]),
    "bench_readme_times_1e4": 1e4 * README_MATRIX,
}


class TestNoOverflowWarnings:
    """Norms that overflow to inf are the intended bounds: no RuntimeWarning
    leaves the library on entries near 1e300."""

    @pytest.mark.parametrize("A, P", [
        ([[1e300, 1e300], [0.0, -1e300]], np.eye(2)),
        ([[1e300, 1e300], [0.0, -1e300]], np.diag([1.0, 0.0])),
        (np.diag([1e300, 1e300]), np.eye(2)),
    ], ids=["upper-identity", "upper-port", "diagonal-identity"])
    def test_huge_entries_warn_nothing(self, A, P):
        sys = linsys.make_system(A, P)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            classify_activity(sys)
            genericity.in_generic_M(sys)

    @pytest.mark.parametrize("A, P, status, notes", [
        ([[1e300, 1e299], [1e299, 5e299]], np.diag([1.0, 0.0]), INCONCLUSIVE,
         "two-pulse search: ScanExhausted: no mollifiable horizon T >= 2.04 "
         "up to T_max = 1.9622112638501013e-298"),
        ([[1e300, 1e300], [-1e300, 1e300]], np.eye(2), ACTIVE,
         "witness: complex pair 1e+300 +/- 1e+300i"),
    ], ids=["real-eigenpair-port", "complex-pair-identity"])
    def test_eigenpair_defect_warns_nothing(self, A, P, status, notes):
        # the norm of the eigenpair defect A v - lam v overflows; the verdict
        # is the one reached with the warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            verdict = classify_activity(linsys.make_system(A, P))
        assert (verdict.status, verdict.notes) == (status, notes)

    def test_eigenpair_check_decides_when_the_norm_of_A_overflows(self):
        # ||A||_F is inf here: the check scales A and lambda by a power of two
        # first, so the wrong pair (1, e1) fails as it does on A / 1e300, and
        # the true pair (1e300, e1) of diag(1e300, -1e300) passes
        wrong = linsys.make_system([[1e300, 1e300], [-1e300, 1e300]], np.eye(2))
        right = linsys.make_system(np.diag([1e300, -1e300]), np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigpairMismatch):
                real_eigen_signal(wrong, 1.0, [1.0, 0.0], 1.0)
            sig = real_eigen_signal(right, 1e300, [1.0, 0.0], 1e-300)
        assert sig.lam == 1e300


class TestTrajectoryWitness:
    """For P = I the witness input drives x = rho(2t/T - 1) w along the top
    eigenvector (m, w) of sym(A), so W = -m (T/2) int rho^2 exactly."""

    @pytest.mark.parametrize("name", STABLE_ACTIVE_INPUTS)
    def test_stable_active_system_has_exact_witness(self, name):
        A = STABLE_ACTIVE_INPUTS[name]
        assert np.linalg.eigvals(A).real.max() < 0.0
        verdict = classify_activity(linsys.make_system(A, np.eye(A.shape[0])))
        assert verdict.status == ACTIVE
        w = verdict.witness
        assert isinstance(w.signal, MollifierTrajectory)
        assert "witness: quadratic-form bump trajectory" in verdict.notes
        assert w.W < -w.quadrature_error_estimate
        m = linsys.max_sym_eigenvalue(A)
        assert abs(w.W + m * w.T / 2.0 * RHO_SQUARED_MASS) \
            <= 10.0 * w.quadrature_error_estimate

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           log_c=st.floats(-3.0, 3.0))
    def test_status_invariant_under_time_rescaling(self, seed, n, log_c):
        A = np.random.default_rng(seed).uniform(-2.0, 2.0, (n, n))
        expected = ACTIVE if linsys.max_sym_eigenvalue(A) > 0.0 else PASSIVE
        for M in (A, 10.0 ** log_c * A):
            assert classify_activity(linsys.make_system(M, np.eye(n))).status == expected

    @pytest.mark.parametrize("A", [np.array([[1e-14]]), np.array([[1e-300]]),
                                   1e-16 * README_MATRIX],
                             ids=["1e-14", "1e-300", "bench_readme_times_1e-16"])
    def test_tiny_system_is_active_at_horizon_one_over_norm(self, A):
        # at T = 1, |W| = m/2 int rho^2 is below the error floor 1e-15; at
        # T = 1/||A|| it is the W of the rescaled system A/||A||
        verdict = classify_activity(linsys.make_system(A, np.eye(A.shape[0])))
        assert verdict.status == ACTIVE and verdict.certificate is None
        w = verdict.witness
        assert isinstance(w.signal, MollifierTrajectory)
        assert w.T == 1.0 / np.linalg.norm(A, 2)
        assert w.W < -w.quadrature_error_estimate
        m = linsys.max_sym_eigenvalue(A)
        assert abs(w.W + m * w.T / 2.0 * RHO_SQUARED_MASS) \
            <= 10.0 * w.quadrature_error_estimate
        assert verdict.notes.endswith(f"witness: quadratic-form bump trajectory, T={w.T:.6g}")

    @pytest.mark.parametrize("A", [np.array([[1e-303]]), np.array([[1e-307]]),
                                   np.array([[2.2250738585072014e-308]])],
                             ids=["1e-303", "1e-307", "smallest_normal"])
    def test_horizon_near_the_float_range(self, A):
        # T = 1/||A|| up to 4.5e307: these were Passive on the band note, or
        # raised OverflowError in the step grid
        verdict = classify_activity(linsys.make_system(A, np.eye(1)))
        assert verdict.status == ACTIVE
        w = verdict.witness
        assert w.T == 1.0 / np.linalg.norm(A, 2)
        assert w.W == pytest.approx(-0.0665430604210446, rel=1e-12)
        assert w.W < -w.quadrature_error_estimate

    def test_subnormal_system_stays_band_passive(self):
        # 1/||A|| overflows: no horizon is left to retry at
        verdict = classify_activity(linsys.make_system(np.array([[1e-310]]), np.eye(1)))
        assert verdict.status == PASSIVE and verdict.witness is None
        assert verdict.notes.endswith("it exceeds the rounding bound 0, but no witness verified")

    def test_quad_steps_cap_before_the_product_overflows(self):
        assert activity.default_quad_steps(1e307) == activity.MAX_QUAD_STEPS
        assert activity.default_quad_steps(1.7976931348623157e308) == activity.MAX_QUAD_STEPS
        assert activity.default_quad_steps(781.25) == 200_000
        assert activity.default_quad_steps(781.24) == 199_998
        assert activity.default_quad_steps(1e-300) == 800

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           log_c=st.floats(-305.0, -3.0))
    def test_status_invariant_under_tiny_time_rescaling(self, seed, n, log_c):
        # each active example integrates 6e5 steps at T = 1/||cA||, so few;
        # the horizon 1/||cA|| stays finite while ||cA|| >= 5.6e-309, which
        # c >= 1e-305 keeps unless ||A|| < 5.6e-4
        A = np.random.default_rng(seed).uniform(-2.0, 2.0, (n, n))
        expected = ACTIVE if linsys.max_sym_eigenvalue(A) > 0.0 else PASSIVE
        M = 10.0 ** log_c * A
        assert classify_activity(linsys.make_system(M, np.eye(n))).status == expected


class TestOrthogonalSimilarity:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3), data=st.data())
    def test_status_invariant_under_orthogonal_similarity(self, seed, n, data):
        # (QAQ^T, QPQ^T) is the same port system in rotated coordinates
        m = data.draw(st.integers(1, n - 1))
        rng = np.random.default_rng(seed)
        A = rng.uniform(-2.0, 2.0, (n, n))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        P = np.diag([1.0] * m + [0.0] * (n - m))
        original, rotated = (classify_activity(linsys.make_system(M, R)).status
                             for M, R in ((A, P), (Q @ A @ Q.T, Q @ P @ Q.T)))
        assert original == rotated


class TestVerdictSerialization:
    def test_json_shape(self):
        sys = linsys.make_system(np.diag([2.0, -1.0]), np.eye(2))
        verdict = classify_activity(sys)
        obj = verdict.to_json()
        assert obj["status"] == ACTIVE
        assert obj["witness"]["W"] < 0.0
        assert obj["certificate"] is None
        sig = signals.signal_from_json(obj["witness"]["signal"])
        assert isinstance(sig, signals._Family)
