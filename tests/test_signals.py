import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from conftest import Sampled
from locact import signals
from locact.errors import SignalDomainError, SmoothingTooWide
from locact.signals import (
    MollifiedTwoPulse,
    MollifierComplex,
    MollifierReal,
    MollifierTrajectory,
    TwoPulse,
    eval_signal,
    mollifier,
    mollifier_cdf,
    mollifier_derivative,
    signal_from_json,
)


class TestMollifier:
    def test_center_value(self):
        assert mollifier(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_zero_at_support_edge(self):
        assert mollifier(1.0) == 0.0
        assert mollifier(-1.0) == 0.0
        assert mollifier(1.5) == 0.0

    def test_half_value(self):
        # 1 / (0.25 - 1) = -4/3
        assert mollifier(0.5) == pytest.approx(math.exp(-4.0 / 3.0), rel=1e-15)

    def test_positive_inside_support(self):
        t = np.linspace(-0.999, 0.999, 1001)
        assert np.all(mollifier(t) > 0.0)

    def test_derivative_center_and_edges(self):
        assert mollifier_derivative(0.0) == 0.0
        assert mollifier_derivative(1.0) == 0.0
        assert mollifier_derivative(-1.0) == 0.0

    def test_derivative_half_value(self):
        expected = -2.0 * 0.5 / 0.5625 * math.exp(-4.0 / 3.0)
        assert mollifier_derivative(0.5) == pytest.approx(expected, rel=1e-13)

    def test_derivative_matches_central_difference(self):
        t = np.arange(-0.999, 0.999, 1e-3)
        h = 1e-6
        fd = (mollifier(t + h) - mollifier(t - h)) / (2.0 * h)
        assert np.max(np.abs(mollifier_derivative(t) - fd)) <= 1e-6

    def test_no_overflow_near_edges(self):
        t = np.array([-1.0 + 1e-13, 1.0 - 1e-13, 1.0 - 1e-8])
        assert np.all(np.isfinite(mollifier_derivative(t)))

    def test_cdf_endpoints_and_monotone(self):
        assert mollifier_cdf(-1.0) == 0.0
        assert mollifier_cdf(1.0) == pytest.approx(1.0, abs=1e-12)
        y = np.linspace(-1.0, 1.0, 201)
        c = mollifier_cdf(y)
        assert np.all(np.diff(c) >= -1e-14)  # monotone up to quadrature noise

    def test_cdf_against_trapezoid_oracle(self):
        s = np.linspace(-1.0, 1.0, 400001)
        r = mollifier(s)
        dense = np.concatenate([[0.0], np.cumsum(0.5 * (r[1:] + r[:-1]))]) * (s[1] - s[0])
        dense /= dense[-1]
        for y in (-0.8, -0.3, 0.0, 0.4, 0.9):
            i = np.argmin(np.abs(s - y))
            assert mollifier_cdf(y) == pytest.approx(dense[i], abs=1e-6)


def _cdf_all_points_oracle(y):
    """``mollifier_cdf`` as the quadrature of every sample: the exterior
    samples are integrated too (clipped to the support) and then overwritten."""
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y).astype(float)
    yc = np.clip(y, -1.0, 1.0)
    acc = np.zeros_like(yc)
    span = yc + 1.0
    offsets = np.linspace(0.0, 1.0, signals._N_PANELS + 1)
    for p in range(signals._N_PANELS):
        lo = -1.0 + span * offsets[p]
        hi = -1.0 + span * offsets[p + 1]
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        s = half[:, None] * signals._GL_NODES[None, :] + mid[:, None]
        acc += half * (mollifier(s.ravel()).reshape(s.shape) @ signals._GL_WEIGHTS)
    out = acc / signals.mollifier_mass()
    out[y <= -1.0] = 0.0
    out[y >= 1.0] = 1.0
    return float(out[0]) if scalar else out


CDF_EDGES = (1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0),
             np.inf, -np.inf, np.nan)
CDF_TOL = 1e-14  # tabulated CDF against the quadrature, absolute


def _assert_matches_oracle(y):
    """Inside the support within ``CDF_TOL`` of the quadrature, outside it
    exactly equal; every value in [0, 1]."""
    got, want = mollifier_cdf(y), _cdf_all_points_oracle(y)
    inside = np.abs(y) < 1.0
    assert np.array_equal(got[~inside], want[~inside], equal_nan=True)
    assert np.max(np.abs(got[inside] - want[inside]), initial=0.0) <= CDF_TOL
    finite = got[~np.isnan(y)]
    assert np.all((finite >= 0.0) & (finite <= 1.0))


class TestCdfOracle:
    """The tabulated ``mollifier_cdf`` against the all-points quadrature."""

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_uniform_inputs(self, seed):
        rng = np.random.default_rng(seed)
        for size in (1, 2, 3, 5, 31, 300, 4097):
            _assert_matches_oracle(rng.uniform(-1.5, 1.5, size))

    def test_dense_grid(self):
        _assert_matches_oracle(np.linspace(-1.0, 1.0, 20001))

    def test_near_support_ends(self):
        d = np.logspace(-12.0, -1.0, 1001)
        _assert_matches_oracle(np.concatenate([-1.0 + d, 1.0 - d]))

    def test_edge_inputs(self):
        edges = np.array(CDF_EDGES)
        assert np.array_equal(mollifier_cdf(edges), _cdf_all_points_oracle(edges),
                              equal_nan=True)
        mixed = np.concatenate([edges, np.linspace(-0.99, 0.99, 9), edges])
        _assert_matches_oracle(mixed)
        got = mollifier_cdf(mixed)
        assert np.array_equal(got[:7], got[-7:], equal_nan=True)
        assert np.array_equal(got[:7], _cdf_all_points_oracle(edges), equal_nan=True)

    @pytest.mark.parametrize("y", CDF_EDGES + (0.0, 0.37))
    def test_scalar_input(self, y):
        value = mollifier_cdf(y)
        assert isinstance(value, float)
        if y in (0.0, 0.37):
            assert abs(value - _cdf_all_points_oracle(y)) <= CDF_TOL
        else:
            assert np.array_equal(value, _cdf_all_points_oracle(y), equal_nan=True)

    def test_all_exterior_array(self):
        y = np.array([-3.0, -1.0, 1.0, 2.5, np.inf, -np.inf])
        assert np.array_equal(mollifier_cdf(y), _cdf_all_points_oracle(y))
        assert np.array_equal(mollifier_cdf(y), [0.0, 0.0, 1.0, 1.0, 1.0, 0.0])

    @pytest.mark.parametrize("y", [[-1.0, -3.0, -np.inf], [1.0, 2.5, np.inf],
                                   [-2.0, np.nan], [np.nan, 3.0], [np.nan], []])
    def test_one_sided_batches(self, y):
        # a batch wholly at or beyond one end returns at once; a NaN fails
        # both tests and takes the full path
        y = np.array(y)
        got = mollifier_cdf(y)
        assert got.dtype == np.float64 and got.shape == y.shape
        assert np.array_equal(got, _cdf_all_points_oracle(y), equal_nan=True)

    def test_symmetry(self):
        y = np.random.default_rng(7).uniform(-1.5, 1.5, 10000)
        assert np.max(np.abs(mollifier_cdf(y) + mollifier_cdf(-y) - 1.0)) <= CDF_TOL


class TestBatchPosition:
    """A value does not depend on where its sample sits in the batch or on
    the batch length."""

    @pytest.mark.parametrize("size", (1, 2, 3, 4, 5, 31, 300, 4097))
    def test_cdf_single_and_shifted(self, size):
        y = np.random.default_rng(size).uniform(-1.5, 1.5, size)
        batch = mollifier_cdf(y)
        single = np.array([mollifier_cdf(y[i:i + 1])[0] for i in range(size)])
        assert np.array_equal(batch, single)
        assert np.array_equal(batch, mollifier_cdf(np.concatenate([[0.5], y]))[1:])

    def test_mollified_two_pulse_time_alone_and_in_batch(self):
        base = TwoPulse(a=-1.0, b=1.0, k=1.0, T=4.05, direction=[1.0, 2.0])
        sig = MollifiedTwoPulse(base=base, eps_s=0.1)
        t = np.random.default_rng(5).uniform(0.0, sig.T, 1000)
        batch = eval_signal(sig, t)
        for i in range(t.size):
            assert np.array_equal(eval_signal(sig, t[i]), batch[i])


class TestEvalSignal:
    def test_two_pulse_on_first_pulse(self):
        sig = TwoPulse(a=1.0, b=1.0, k=1.0, T=2.0, direction=[1.0, 0.0, 0.0])
        npt.assert_allclose(eval_signal(sig, 0.5), [1.0, 0.0, 0.0])

    def test_two_pulse_gap_is_zero(self):
        sig = TwoPulse(a=1.0, b=1.0, k=1.0, T=3.0, direction=[1.0])
        npt.assert_allclose(eval_signal(sig, 1.5), [0.0])

    def test_two_pulse_left_continuous_at_jumps(self):
        sig = TwoPulse(a=2.0, b=-3.0, k=1.0, T=4.0, direction=[1.0])
        assert eval_signal(sig, 1.0)[0] == 2.0    # end of first pulse
        assert eval_signal(sig, 3.0)[0] == 0.0    # gap value persists
        assert eval_signal(sig, 3.0 + 1e-9)[0] == -3.0

    def test_two_pulse_requires_disjoint_pulses(self):
        with pytest.raises(ValueError):
            TwoPulse(a=1.0, b=1.0, k=0.4, T=2.0, direction=[1.0])

    def test_mollifier_real_zero_slope_at_center(self):
        sig = MollifierReal(lam=1.0, v=[1.0], T=1.0)
        npt.assert_allclose(eval_signal(sig, 0.5), [0.0], atol=1e-15)

    def test_mollifier_complex_window(self):
        sig = MollifierComplex(alpha=0.1, beta=1.0, v1=[1.0, 0.0], v2=[0.0, -1.0],
                               t0=2.0, eps=1.0, T=4.0)
        assert np.linalg.norm(eval_signal(sig, 0.5)) == 0.0  # outside window
        assert np.linalg.norm(eval_signal(sig, 2.5)) > 0.0

    def test_outside_domain_raises(self):
        sig = MollifierReal(lam=0.0, v=[1.0], T=1.0)
        with pytest.raises(SignalDomainError):
            eval_signal(sig, 1.5)
        with pytest.raises(SignalDomainError):
            eval_signal(sig, -0.5)

    def test_sampled_linear_interpolation(self):
        sig = Sampled(times=[0.0, 1.0, 2.0], values=[[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        npt.assert_allclose(eval_signal(sig, 0.5), [1.0, 2.0])
        assert sig.T == 2.0

    def test_vectorized_evaluation_shape(self):
        sig = TwoPulse(a=1.0, b=2.0, k=1.0, T=3.0, direction=[0.0, 1.0])
        out = eval_signal(sig, np.linspace(0.0, 3.0, 7))
        assert out.shape == (7, 2)


def l2_distance(sig_a, sig_b, T: float, samples: int = 20001) -> float:
    """L2([0,T]) distance between two signals by composite-trapezoid quadrature."""
    t = np.linspace(0.0, T, samples)
    diff = eval_signal(sig_a, t) - eval_signal(sig_b, t)
    return float(np.sqrt(np.trapezoid(np.sum(diff * diff, axis=1), t)))


class TestMollify:
    def test_plateau_preserved_at_pulse_center(self):
        base = TwoPulse(a=3.0, b=-1.0, k=1.0, T=4.0, direction=[1.0])
        smooth = MollifiedTwoPulse(base=base, eps_s=0.2)
        center = eval_signal(smooth, 0.5)[0]
        assert center == pytest.approx(3.0, abs=1e-12)

    def test_gap_is_zero(self):
        base = TwoPulse(a=1.0, b=1.0, k=1.0, T=4.0, direction=[1.0])
        smooth = MollifiedTwoPulse(base=base, eps_s=0.1)
        assert eval_signal(smooth, 2.0)[0] == pytest.approx(0.0, abs=1e-14)

    def test_l2_distance_decreases_and_bounded(self):
        base = TwoPulse(a=1.0, b=-1.0, k=1.0, T=4.0, direction=[1.0])
        dists = []
        for eps in (0.2, 0.1, 0.05):
            smooth = MollifiedTwoPulse(base=base, eps_s=eps)
            d = l2_distance(smooth, base, 4.0)
            assert d <= math.sqrt(2.0 * (1.0 + 1.0) * 2.0 * eps)
            dists.append(d)
        assert dists[0] > dists[1] > dists[2]

    def test_smoothing_too_wide_rejected(self):
        base = TwoPulse(a=1.0, b=1.0, k=1.0, T=4.0, direction=[1.0])
        with pytest.raises(SmoothingTooWide):
            MollifiedTwoPulse(base=base, eps_s=0.6)  # > 1/(2k)
        with pytest.raises(SmoothingTooWide):
            MollifiedTwoPulse(base=base, eps_s=1.2)  # > (T - 2/k)/2

    def test_continuity_at_transition_edges(self):
        base = TwoPulse(a=1.0, b=2.0, k=1.0, T=5.0, direction=[1.0])
        smooth = MollifiedTwoPulse(base=base, eps_s=0.25)
        t = np.linspace(0.0, 5.0, 4001)
        vals = eval_signal(smooth, t)[:, 0]
        assert np.max(np.abs(np.diff(vals))) < 0.02  # no jumps at grid scale


class TestSolutionIdentities:
    def test_rotating_window_signal_solution_identity(self):
        # on the rotation block [[a, -b], [b, a]] the windowed rotating input
        # u = h'(t) e^(at) (sin(bt) v1 + cos(bt) v2) has the closed-form
        # solution x(t) = h(t) e^(at) (cos(bt) v2 + sin(bt) v1)
        from locact import linsys

        alpha, beta = 0.3, 2.0
        A = np.array([[alpha, -beta], [beta, alpha]])
        sys = linsys.make_system(A, np.eye(2))
        v1 = np.array([1.0, 0.0])
        v2 = np.array([0.0, -1.0])
        sig = MollifierComplex(alpha=alpha, beta=beta, v1=v1, v2=v2,
                               t0=1.5, eps=1.0, T=3.0)
        traj = linsys.solve_forced(sys, sig, 3.0, 6000)
        t = traj.times
        h = mollifier((t - 1.5) / 1.0)
        expected = (h * np.exp(alpha * t))[:, None] * (
            np.outer(np.cos(beta * t), v2) + np.outer(np.sin(beta * t), v1))
        npt.assert_allclose(traj.states, expected, atol=1e-8)

    def test_trajectory_signal_solution_identity(self):
        # u = (2/T) rho'(s) v - rho(s) A v with s = 2t/T - 1 drives
        # x' = A x + u along x(t) = rho(s) v
        from locact import linsys

        A = np.array([[0.3, -2.0, 0.5], [1.0, -0.4, 0.0], [-0.7, 0.2, 0.1]])
        v = np.array([0.48, -0.6, 0.64])
        sig = MollifierTrajectory(v=v, Av=A @ v, T=1.5)
        traj = linsys.solve_forced(linsys.make_system(A, np.eye(3)), sig, 1.5, 3000)
        expected = np.outer(mollifier(2.0 * traj.times / 1.5 - 1.0), v)
        npt.assert_allclose(traj.states, expected, atol=1e-12)

    def test_trajectory_signal_rejects_mismatched_vectors(self):
        with pytest.raises(ValueError):
            MollifierTrajectory(v=[1.0, 0.0], Av=[1.0], T=1.0)


class TestSerialization:
    @pytest.mark.parametrize("sig", [
        TwoPulse(a=1.0, b=-1.0, k=2.0, T=3.0, direction=[0.6, 0.8]),
        MollifierReal(lam=0.7, v=[1.0, 2.0], T=2.0),
        MollifierComplex(alpha=0.1, beta=2.0, v1=[1.0, 0.0], v2=[0.0, 1.0],
                         t0=1.0, eps=0.5, T=3.0),
        MollifiedTwoPulse(base=TwoPulse(a=1.0, b=1.0, k=1.0, T=4.0,
                                        direction=[1.0]), eps_s=0.1),
        Sampled(times=[0.0, 0.5, 1.0], values=[[0.0], [1.0], [0.0]]),
        MollifierTrajectory(v=[0.6, 0.8], Av=[-1.0, 2.0], T=0.5),
    ])
    def test_round_trip(self, sig):
        back = signal_from_json(sig.to_json())
        assert type(back) is type(sig)
        t = np.linspace(0.0, sig.T, 50)
        npt.assert_allclose(eval_signal(back, t), eval_signal(sig, t), atol=1e-14)
        assert back.to_json() == sig.to_json()

    @pytest.mark.parametrize("sig, expected", [
        (TwoPulse(a=1.0, b=-1.0, k=2.0, T=3.0, direction=[3.0, 4.0]),
         {"variant": "TwoPulse", "a": 1.0, "b": -1.0, "k": 2.0, "T": 3.0,
          "direction": [0.6, 0.8]}),
        (MollifierReal(lam=0.7, v=[1.0, 2.0], T=2.0),
         {"variant": "MollifierReal", "lam": 0.7, "v": [1.0, 2.0], "T": 2.0}),
        (MollifierComplex(alpha=0.1, beta=2.0, v1=[1.0, 0.0], v2=[0.0, 1.0],
                          t0=1.0, eps=0.5, T=3.0),
         {"variant": "MollifierComplex", "alpha": 0.1, "beta": 2.0,
          "v1": [1.0, 0.0], "v2": [0.0, 1.0], "t0": 1.0, "eps": 0.5, "T": 3.0}),
        (MollifiedTwoPulse(base=TwoPulse(a=1.0, b=2.0, k=1.0, T=4.0,
                                         direction=[-2.0]), eps_s=0.1),
         {"variant": "MollifiedTwoPulse",
          "base": {"variant": "TwoPulse", "a": 1.0, "b": 2.0, "k": 1.0, "T": 4.0,
                   "direction": [-1.0]},
          "eps_s": 0.1}),
        (Sampled(times=[0.0, 0.5, 1.0], values=[[0.0, 1.0], [1.0, 2.0], [0.0, 3.0]]),
         {"variant": "Sampled", "times": [0.0, 0.5, 1.0],
          "values": [[0.0, 1.0], [1.0, 2.0], [0.0, 3.0]]}),
        (MollifierTrajectory(v=[0.6, 0.8], Av=[-1.0, 2.0], T=0.5),
         {"variant": "MollifierTrajectory", "v": [0.6, 0.8], "Av": [-1.0, 2.0],
          "T": 0.5}),
    ])
    def test_json_keys_and_values(self, sig, expected):
        # the key order is part of the report bytes, nested dicts included
        assert json.dumps(sig.to_json()) == json.dumps(expected)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            signal_from_json({"variant": "Nope"})

    def test_missing_field_rejected(self):
        with pytest.raises(KeyError):
            signal_from_json({"variant": "MollifierReal", "lam": 0.7, "T": 2.0})
        with pytest.raises(KeyError):
            signal_from_json({"variant": "MollifiedTwoPulse", "eps_s": 0.1,
                              "base": {"variant": "TwoPulse", "a": 1.0}})
