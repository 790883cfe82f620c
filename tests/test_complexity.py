import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from locact import complexity
from locact.complexity import (
    ClassifierTolerances,
    PoleSet,
    RationalFunction,
    edge_of_chaos_classify,
    make_rational,
    min_real_on_axis,
    one_port_rational,
    poles,
)
from locact.errors import (
    ConvergenceFailure,
    LocactError,
    NonFiniteEntry,
    NonFiniteEvaluation,
)
from locact.nonlinear import fhn_complexity_function, fhn_system
from locact.serialize import dumps_canonical

BETA, GAMMA, XI = 1.28, 0.12, 0.1


def _fhn_rational(x_d, beta, xi):
    """The FitzHugh-Nagumo complexity function at an equilibrium with first
    coordinate ``x_d``, from the model's kinetic Jacobian there; an array of
    ``x_d`` gives the stack, one entry per point."""
    jacobian = fhn_system(0.0, beta, 0.0, xi).jacobian_f
    x = np.asarray(x_d, dtype=float)
    J = np.array([jacobian([x_k, 0.0]) for x_k in x.ravel().tolist()])
    return one_port_rational(J.reshape(x.shape + (2, 2)))


def fhn_xd_oracle(mu):
    """Independent root of x^3 - 3(1 - mu - 1/beta) x + 3 gamma / beta = 0."""
    roots = np.roots([1.0, 0.0, -3.0 * (1.0 - mu - 1.0 / BETA), 3.0 * GAMMA / BETA])
    real = sorted(r.real for r in roots if abs(r.imag) < 1e-9)
    assert len(real) == 1
    return real[0]


class TestClassifierTolerances:
    @pytest.mark.parametrize("field", ["on_axis_tol", "resid_tol", "axis_val_tol",
                                       "cluster_tol"])
    @pytest.mark.parametrize("value", [-1.0, -1e-300, math.nan, math.inf])
    def test_meaningless_value_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ClassifierTolerances(**{field: value})

    def test_zero_is_accepted(self):
        assert ClassifierTolerances(resid_tol=0.0).resid_tol == 0.0


class TestFhnComplexityFunction:
    def test_coefficients_at_mu_005(self):
        xd = fhn_xd_oracle(0.05)
        rf = fhn_complexity_function(0.05, BETA, GAMMA, XI)
        d = xd * xd - 1.0
        npt.assert_allclose(rf.num, [XI * BETA * d + XI, XI * BETA + d, 1.0],
                            atol=1e-9)
        npt.assert_allclose(rf.den, [XI * BETA, 1.0], atol=1e-12)

    def test_unit_equilibrium_degenerate_numerator(self):
        rf = _fhn_rational(1.0, BETA, XI)
        npt.assert_allclose(rf.num, [XI, XI * BETA, 1.0], atol=1e-15)

    def test_xi_zero_reduces_the_origin_pole(self):
        # xi = 0 assembles num = [0, x_d^2 - 1, 1], den = [0, 1] = s, but the
        # numerator also vanishes at the origin: the common root cancels and
        # is recorded, leaving the polynomial s + (x_d^2 - 1)
        d = (-0.9) ** 2 - 1.0
        rf = _fhn_rational(-0.9, BETA, 0.0)
        assert rf.cancelled == (0.0 + 0.0j,)
        npt.assert_allclose(rf.den, [1.0], atol=1e-15)
        npt.assert_allclose(rf.num, [d, 1.0], atol=1e-12)
        assert poles(rf).poles == ()


_finite = st.floats(allow_nan=False, allow_infinity=False)


class TestOnePortRational:
    """Y(s) from a 2x2 Jacobian is FitzHugh-Nagumo's closed form bit for bit."""

    @staticmethod
    def _jacobian(x, beta, xi):
        return fhn_system(0.0, beta, 0.0, xi).jacobian_f([x, 0.0])

    @settings(max_examples=300, deadline=None)
    @given(xs=st.lists(st.one_of(st.sampled_from((1.0, -1.0, 0.0, -0.0, 1e154, -1e155)),
                                 _finite), min_size=1, max_size=6),
           beta=st.one_of(st.sampled_from((0.0, -0.0, BETA, 1e308)), _finite),
           xi=st.one_of(st.sampled_from((0.0, -0.0, XI, 1e-9, 10.0)), _finite))
    def test_fhn_jacobian_gives_the_closed_form(self, xs, beta, xi):
        # each matrix alone gives the closed form or raises its error; a
        # stack raises the error of a failing matrix, else is the matrices alone
        singles = _assert_stack_raises_a_failing_row(
            lambda Js: one_port_rational(np.array(Js).reshape(-1, 2, 2)), one_port_rational,
            [self._jacobian(x, beta, xi) for x in xs], _rational_bits)
        for x, rf in zip(xs, singles):
            try:
                want = _fhn_rational_oracle(x, beta, xi)
            except NonFiniteEntry as exc:
                want = exc
            assert _rational_bits(rf) == _rational_bits(want), (x, beta, xi)

    def test_signed_zeros(self):
        # x = +-1 makes the entry 1 - x^2 exactly +0, as x^2 - 1 is
        for x in (1.0, -1.0, 0.0):
            for beta in (0.0, -0.0, BETA):
                for xi in (0.0, -0.0, XI, -XI):
                    want = _rational_bits(_fhn_rational_oracle(x, beta, xi))
                    assert _rational_bits(one_port_rational(
                        self._jacobian(x, beta, xi))) == want, (x, beta, xi)

    def test_empty_stack(self):
        assert one_port_rational(np.empty((0, 2, 2))) == []

    def test_general_matrix(self):
        # J = [[1, 2], [3, 4]]: det(sI - J) = s^2 - 5s - 2 over s - 4
        rf = one_port_rational([[1.0, 2.0], [3.0, 4.0]])
        assert rf.num == (-2.0, -5.0, 1.0) and rf.den == (-4.0, 1.0)


class TestPoles:
    def test_single_right_half_plane_pole(self):
        rf = make_rational([1.0], [-1.0, 1.0])  # 1 / (s - 1)
        assert poles(rf).poles == ((1.0 + 0.0j, 1),)

    def test_double_pole_at_origin(self):
        rf = make_rational([1.0], [0.0, 0.0, 1.0])  # 1 / s^2
        assert poles(rf).poles == ((0.0 + 0.0j, 2),)

    def test_fhn_denominator_pole(self):
        rf = _fhn_rational(fhn_xd_oracle(0.05), BETA, XI)
        (loc, mult), = poles(rf).poles
        assert loc == pytest.approx(-XI * BETA, abs=1e-12)  # -0.128
        assert mult == 1


def residue_at_simple_pole(rf, p, cluster_tol=complexity.CLUSTER_TOL):
    """Residue ``num(p) / den'(p)`` at a simple pole p: the pole of ``rf``
    nearest p, within ``max(1e-6 (1 + |p|), cluster_tol)`` of it, must be
    simple.  The classifier reads residues through ``complexity._residue``
    at the poles in hand; this oracle looks the pole up first."""
    loc, mult = min(poles(rf, cluster_tol=cluster_tol).poles,
                    key=lambda pole: abs(pole[0] - p), default=(math.inf, 0))
    if not abs(loc - p) <= max(1e-6 * (1.0 + abs(p)), cluster_tol):
        raise LocactError(f"{p} is not a pole of the reduced function")
    if mult != 1:
        raise LocactError(f"pole at {loc} has multiplicity {mult}")
    return complexity._residue(rf, p)


class TestResidues:
    def test_simple_real_pole(self):
        rf = make_rational([1.0], [-2.0, 1.0])  # 1 / (s - 2)
        assert residue_at_simple_pole(rf, 2.0) == pytest.approx(1.0 + 0.0j)

    def test_imaginary_axis_pole(self):
        rf = make_rational([1.0, 1.0], [1.0, 0.0, 1.0])  # (s + 1) / (s^2 + 1)
        res = residue_at_simple_pole(rf, 1j)
        assert res == pytest.approx(0.5 - 0.5j, abs=1e-12)

    def test_multiple_pole_rejected(self):
        rf = make_rational([1.0], [0.0, 0.0, 1.0])
        with pytest.raises(LocactError, match="multiplicity 2"):
            residue_at_simple_pole(rf, 0.0)

    def test_non_pole_rejected(self):
        rf = make_rational([1.0], [-1.0, 1.0])
        with pytest.raises(LocactError, match="is not a pole"):
            residue_at_simple_pole(rf, 5.0)

    def test_nearest_pole_in_the_window(self):
        # s (s + 5e-7)^2: the double pole lies inside the lookup window of
        # the simple pole at 0, which used to be rejected as "multiplicity 2"
        rf = make_rational([1.0], npoly.polyfromroots([0.0, -5e-7, -5e-7]))
        assert residue_at_simple_pole(rf, 0j) == pytest.approx(4e12, rel=1e-12)  # 1 / delta^2
        with pytest.raises(LocactError, match="multiplicity 2"):
            residue_at_simple_pole(rf, -5e-7)
        ec = edge_of_chaos_classify(rf)
        assert ec.cond_iv and ec.edge_of_chaos and not ec.cond_iii
        assert ec.evidence["iv"]["re_Y"] < -1e17

    def test_classification_roots_each_polynomial_once(self, monkeypatch):
        # (2s^2 + 1)/(s^3 + s) = 1/s + s/(s^2 + 1): the poles take one _roots
        # call, the axis polynomials one; the residues at 0 and +-i come from
        # the poles in hand
        rf = make_rational([1.0, 0.0, 2.0], [0.0, 1.0, 0.0, 1.0])
        roots, calls = complexity._roots, []

        def counted(*args, **kwargs):
            calls.append(args)
            return roots(*args, **kwargs)

        monkeypatch.setattr(complexity, "_roots", counted)
        ec = edge_of_chaos_classify(rf)
        assert len(calls) == 2
        assert not (ec.cond_ii or ec.cond_iii)

    def test_residue_matches_numeric_limit(self, rng):
        # average of (s - p) Y(s) over 8 angles at radius 1e-6
        for _ in range(10):
            den_roots = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            den = np.real(np.polynomial.polynomial.polyfromroots(
                np.concatenate([den_roots, np.conj(den_roots)])))
            num = rng.standard_normal(3)
            rf = make_rational(num, den)
            p = complex(den_roots[0])
            try:
                res = residue_at_simple_pole(rf, p)
            except LocactError:
                continue
            angles = np.exp(1j * (np.arange(8) * math.pi / 4.0))
            samples = [(p + 1e-6 * a - p) * rf(p + 1e-6 * a) for a in angles]
            numeric = np.mean(samples)
            assert abs(res - numeric) <= 1e-4 * max(1.0, abs(res))

    @pytest.mark.parametrize("num, den, residue", [
        ([5e-324], [0.5283176292541396, 1e308, 1.0, -1e308], 0.0),
        ([-1e308, -1.0612408977110352],
         [0.0, -0.13628479100503227, 1.259288122334379, 0.8101177912610477], math.inf),
    ])
    def test_extreme_coefficients(self, num, den, residue):
        # den' of the first overflowed, and its residue at the axis pole 0
        # was nan+nanj, which condition (iii) read as passive; the second
        # overflowed to inf with a warning.  The scaled rows give 0 and +inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rf = make_rational(num, den)
            assert complexity._residue(rf, 0j).real == residue
            assert not edge_of_chaos_classify(rf).cond_iii

    def test_nan_residue_raises(self):
        # num(p) and den'(p) both overflow at p = 1e200, with no warning
        rf = make_rational([1.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0])
        with warnings.catch_warnings(), \
                pytest.raises(NonFiniteEvaluation, match="is not a number"):
            warnings.simplefilter("error")
            complexity._residue(rf, 1e200 + 0j)


class TestMinRealOnAxis:
    def test_positive_real_low_pass(self):
        # Re Y(i w) = 1 / (1 + w^2) > 0 has infimum 0, its limit at infinity
        rf = make_rational([1.0], [1.0, 1.0])  # 1 / (s + 1)
        assert min_real_on_axis(rf) == (math.inf, 0.0)
        assert not edge_of_chaos_classify(rf).cond_iv

    def test_pure_differentiator_is_zero(self):
        rf = make_rational([0.0, 1.0], [1.0])  # Y = s
        _, value = min_real_on_axis(rf)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_fhn_negative_real_part(self):
        xd = fhn_xd_oracle(0.05)
        rf = _fhn_rational(xd, BETA, XI)
        # dense-grid oracle over [0, 1000]
        w = np.linspace(1e-3, 1000.0, 200001)
        vals = np.real(rf(1j * w))
        w_star, value = min_real_on_axis(rf)
        assert value < 0.0
        assert value <= vals.min() + 1e-9
        # Re Y decreases towards its limit x_d^2 - 1 < 0 at infinity
        assert w_star == math.inf
        assert value == pytest.approx(xd * xd - 1.0, rel=1e-12)

    @pytest.mark.parametrize("zeta", [3e-5, 1e-5, 3e-6, 1e-6])
    @pytest.mark.parametrize("w0", [0.37, 7.0, 123.4])
    def test_narrow_dip_is_found(self, zeta, w0):
        # Y = 1 - 0.5 L(0.3, 1) - 2 L(zeta, w0) has Re Y(i w0) below -1 on a
        # window about 2 zeta w0 wide, far from any axis pole
        rf = _narrow_dip(zeta, w0)
        w_star, value = min_real_on_axis(rf)
        assert value < -1.0
        assert w_star == pytest.approx(w0, rel=1e-9)
        assert value == pytest.approx(float(np.real(rf(1j * w_star))), rel=1e-12)
        ec = edge_of_chaos_classify(rf)
        assert ec.cond_iv and ec.locally_active and ec.edge_of_chaos

    def test_limit_at_infinity_below_every_finite_omega(self):
        # FHN rationals decrease towards x_d^2 - 1 on the whole axis
        rf = _fhn_rational(0.3, BETA, XI)
        assert min_real_on_axis(rf) == (math.inf, 0.3 * 0.3 - 1.0)
        # Re Y = w^2 grows without bound: the infimum is at 0
        assert min_real_on_axis(make_rational([1.0, 0.0, -1.0], [1.0])) == (0.0, 1.0)
        # Re Y = -w^2: the limit is -inf
        assert min_real_on_axis(make_rational([0.0, 0.0, 1.0], [1.0])) == \
            (math.inf, -math.inf)

    def test_limit_keeps_leading_terms_of_a_far_pole(self):
        # den = s + 1e7 gives f = 1e14 + x, whose leading term is 1e-14 of
        # the largest; the limit must still come from it
        rf = make_rational([1e6, 0.0, 1e-3, -1.0], [1e7, 1.0])
        # e = 1e13 - 1e4 x + x^2 > 0: Re Y > 0 on the axis and grows without bound
        w_star, value = min_real_on_axis(rf)
        assert math.isfinite(w_star) and value > 0.0
        assert not edge_of_chaos_classify(rf).cond_iv
        # Re Y = (1e7 - x) / (1e14 + x) decreases towards -1
        assert min_real_on_axis(make_rational([1.0, -1.0], [1e7, 1.0])) == (math.inf, -1.0)

    def test_limit_ignores_rounding_in_a_cancelled_lead(self):
        # e's x^2 coefficient 0.1 * 2.1 - 0.7 * 0.3 is zero in exact
        # arithmetic but not in floats; Re Y = -0.63 x / (4.41 + 0.09 x)
        # decreases towards -7
        rf = make_rational([0.0, 0.0, 0.3, 0.7, 0.1], [2.1, 0.3])
        assert rf.num[4] * rf.den[0] - rf.num[3] * rf.den[1] != 0.0
        assert min_real_on_axis(rf) == (math.inf, pytest.approx(-7.0, rel=1e-14))

    @settings(max_examples=150, deadline=None)
    @given(rf=st.builds(
        lambda roots, pairs, num: make_rational(num, np.real(npoly.polyfromroots(
            roots + [z for re, im in pairs for z in (complex(re, im), complex(re, -im))]))),
        st.lists(st.floats(-3.0, -0.05), max_size=2),
        st.lists(st.tuples(st.floats(-1.0, -0.01), st.floats(0.1, 5.0)), max_size=2),
        st.lists(st.floats(-10.0, 10.0).map(lambda c: round(c, 3)), min_size=1, max_size=5)))
    def test_cond_iv_is_the_sign_of_E(self, rf):
        # a stable rational has |den(i w)|^2 > 0, so Re Y(i w) has the sign of
        # E; E keeps one sign between consecutive positive real roots, so its
        # values there and past the last root decide whether Re Y dips below 0
        E = np.real(npoly.polymul(np.asarray(rf.num) * 1j ** np.arange(len(rf.num)),
                                  np.conj(np.asarray(rf.den) * 1j ** np.arange(len(rf.den)))))
        roots = np.roots(E[::-1]) if np.count_nonzero(E) > 1 else np.array([])
        w = np.sort(roots.real[(np.abs(roots.imag) <= 1e-9 * np.abs(roots)) & (roots.real > 0)])
        w = np.concatenate([[0.0], w])
        probes = np.concatenate([w, (w[:-1] + w[1:]) / 2.0, 2.0 * w[-1:] + 1.0])
        lowest = float(np.min(np.real(rf(1j * probes))))
        limit = float(np.real(rf(1j * 1e12)))
        assume(lowest >= 0.0 or lowest < -1e-6)  # no dip within 1e-6 of zero
        assume(limit > 1e-6 or limit < -1e-6)
        ec = edge_of_chaos_classify(rf)
        assert ec.cond_iv == (lowest < 0.0 or limit < 0.0)

    def test_conjugate_symmetry(self, rng):
        num = rng.standard_normal(3)
        den = rng.standard_normal(4)
        den[-1] = 1.0
        rf = make_rational(num, den)
        w = np.linspace(0.1, 50.0, 101)
        npt.assert_allclose(np.real(rf(1j * w)), np.real(rf(-1j * w)), atol=1e-12)


def _re_axis_oracle(num, den, w):
    """Re Y(i w) as min_real_on_axis evaluated it before the float evaluator:
    numpy complex polyval and division (scalar or array ``w``)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = 1j * np.asarray(w, dtype=float)
        return np.real(npoly.polyval(s, np.asarray(num, dtype=float))
                       / npoly.polyval(s, np.asarray(den, dtype=float)))


def _use_numpy_evaluator(monkeypatch):
    """Take the values that min_real_on_axis probes from numpy's complex
    polyval, one row at a time; returns the list of the probed stacks, so a
    caller can check that the probes did go through the oracle."""
    probed = []
    shipped = complexity._re_and_step

    def rows_oracle(num, den, w):
        probed.append(len(w))
        values = np.array([_re_axis_oracle(n, d, x) for n, d, x in zip(num, den, w)])
        return values, shipped(num, den, w)[1]

    monkeypatch.setattr(complexity, "_re_and_step", rows_oracle)
    return probed


def _scalar_re_on_axis(num, den, w):
    """Re Y(i w) for one omega in Python floats: numpy's complex Horner steps
    and Smith division on (re, im)."""
    sr, si = 0.0 * w - 0.0, 0.0 + w
    nr = ni = dr = di = 0.0
    for a in reversed(num):
        nr, ni = a + (nr * sr - ni * si), 0.0 + (nr * si + ni * sr)
    for a in reversed(den):
        dr, di = a + (dr * sr - di * si), 0.0 + (dr * si + di * sr)
    if abs(dr) >= abs(di):
        if dr == 0.0 and di == 0.0:
            return math.nan if nr != nr or nr == 0.0 else math.copysign(math.inf, nr)
        rat = di / dr
        return (nr + ni * rat) * (1.0 / (dr + di * rat))
    rat = dr / di
    return (nr * rat + ni) * (1.0 / (di + dr * rat))


# -- the per-row arithmetic before the stacked arrays: byte oracles --------------


def _trim_oracle(coeffs, coeff_tol):
    c = np.asarray(coeffs, dtype=float).ravel()
    if c.size == 0:
        return np.array([0.0])
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return np.array([0.0])
    keep = c.size
    while keep > 1 and abs(c[keep - 1]) <= coeff_tol * scale:
        keep -= 1
    return c[:keep].copy()


def _make_rational_oracle(num, den, coeff_tol=complexity.COEFF_TOL,
                          cluster_tol=complexity.CLUSTER_TOL):
    """make_rational one rational at a time, roots by ``npoly.polyroots``."""
    rows = [[float(x) for x in c] for c in (num, den)]
    if not all(map(math.isfinite, rows[0] + rows[1])):
        width = max(map(len, rows))  # both padded, as in make_rational's stack
        num, den = (r + [0.0] * (width - len(r)) for r in rows)
        raise NonFiniteEntry(f"coefficients must be finite, got num={num}, den={den}")
    num = _trim_oracle(num, coeff_tol)
    den = _trim_oracle(den, coeff_tol)
    if den.size == 1 and den[0] == 0.0:
        raise ValueError("denominator is identically zero")
    if num.size == 1 and num[0] == 0.0:
        return RationalFunction(num=(0.0,), den=tuple(den.tolist()))
    nroots = list(npoly.polyroots(num)) if num.size > 1 else []
    droots = list(npoly.polyroots(den)) if den.size > 1 else []
    cancelled = []
    kept_d = []
    for dr in droots:
        hit = None
        for i, nr in enumerate(nroots):
            if abs(nr - dr) <= cluster_tol * max(1.0, abs(dr)):
                hit = i
                break
        if hit is None:
            kept_d.append(dr)
        else:
            cancelled.append(complex(dr))
            del nroots[hit]
    if cancelled:
        num = complexity._real_poly_from_roots(nroots, num[-1])
        den = complexity._real_poly_from_roots(kept_d, den[-1])
    return RationalFunction(num=tuple(num.tolist()), den=tuple(den.tolist()),
                            cancelled=tuple(cancelled))


def _fhn_rational_oracle(x_d, beta, xi):
    d = x_d * x_d - 1.0
    return _make_rational_oracle([xi * beta * d + xi, xi * beta + d, 1.0], [xi * beta, 1.0])


def _one_port_rational_oracle(J):
    """one_port_rational of one 2x2 matrix, by make_rational's per-row oracle."""
    (a, b), (c, d) = np.asarray(J, dtype=float).tolist()
    p, q = 0.0 - a, -d
    return _make_rational_oracle([p * q - b * c, p + q, 1.0], [q, 1.0])


def _poles_oracle(rf, cluster_tol=complexity.CLUSTER_TOL):
    den = np.asarray(rf.den, dtype=float)
    if den.size <= 1:
        return PoleSet(poles=())
    roots = np.sort_complex(npoly.polyroots(den))
    clusters = []  # list of [sum, count]
    for r in roots:
        for c in clusters:
            if abs(r - c[0] / c[1]) <= cluster_tol * max(1.0, abs(r)):
                c[0] += r
                c[1] += 1
                break
        else:
            clusters.append([r, 1])
    out = tuple((complex(s / m), int(m)) for s, m in clusters)
    return PoleSet(poles=out)


def _real_part_on_axis_poly_oracle(num, den):
    cn = np.asarray(num, dtype=complex) * 1j ** np.arange(len(num))
    cd = np.conj(np.asarray(den, dtype=complex) * 1j ** np.arange(len(den)))
    return np.real(npoly.polymul(cn, cd))


def _axis_polys_oracle(num, den):
    out = []
    for a, b in ((num, den), (den, den)):
        c = _real_part_on_axis_poly_oracle(a, b)[0::2]
        noise = (len(a) + len(b)) * np.finfo(float).eps * \
            np.convolve(np.abs(a), np.abs(b))[0::2]
        keep = c.size
        while keep > 1 and abs(c[keep - 1]) <= noise[keep - 1]:
            keep -= 1
        out.append(c[:keep])
    return out


def _positive_real_roots_oracle(coeffs):
    c = np.asarray(coeffs, dtype=float)
    with np.errstate(all="ignore"):
        while c.size > 1 and not np.isfinite(c / c[-1]).all():
            c = c[:-1]
    r = npoly.polyroots(c) if c.size > 1 else np.array([])
    return np.sort(r.real[(r.real > 0.0) & (np.abs(r.imag) <= 1e-6 * np.abs(r))])


def _axis_candidates_oracle(num, den, windows):
    """The candidates and limit of one row, with numpy's polynomial utilities."""
    e, f = _axis_polys_oracle(num, den)
    w_e = np.sqrt(_positive_real_roots_oracle(e))
    w_s = np.sqrt(_positive_real_roots_oracle(
        npoly.polysub(npoly.polymul(npoly.polyder(e), f), npoly.polymul(e, npoly.polyder(f)))))
    edges = [x for c, r in windows for x in (c - 1.5 * r, c + 1.5 * r)]
    w = np.concatenate([[0.0], w_e, (w_e[:-1] + w_e[1:]) / 2.0, 2.0 * w_e[-1:], w_s, edges])
    keep = np.isfinite(w) & (w >= 0.0)
    for c, r in windows:
        keep &= np.abs(w - c) > r
    if e.size == f.size:
        limit = e[-1] / f[-1]
    else:
        limit = math.copysign(math.inf, e[-1]) if e.size > f.size else 0.0
    return w[keep], limit


def _use_per_row_oracles(monkeypatch):
    """Root the poles and take the axis candidates of every rational one row
    at a time with the oracles above, in the stacked functions' formats."""
    def per_row_poles(rf, cluster_tol=complexity.CLUSTER_TOL):
        if isinstance(rf, RationalFunction):
            return _poles_oracle(rf, cluster_tol)
        return [_poles_oracle(r, cluster_tol) for r in rf]

    def per_row_candidates(windows, num, den, size):
        # the rows' own lengths, from the sizes len(num) + len(den) and 2 len(den)
        d_len = size[len(num):] // 2
        found = [_axis_candidates_oracle(n[:n_len], d[:d_l], wins) for n, d, n_len, d_l, wins
                 in zip(num, den, size[:len(num)] - d_len, d_len, windows)]
        row = np.repeat(np.arange(len(num)), [w.size for w, _ in found])
        return row, np.concatenate([w for w, _ in found]), \
            np.array([limit for _, limit in found])

    monkeypatch.setattr(complexity, "poles", per_row_poles)
    monkeypatch.setattr(complexity, "_axis_candidates", per_row_candidates)


def _min_real_on_axis_oracle(rf, on_axis_tol=1e-7, cluster_tol=complexity.CLUSTER_TOL):
    """The sampled minimum that min_real_on_axis computed before it decided
    from polynomial roots, one rational at a time: a 4096-point log+linear
    grid, then 80 golden-section steps and a tail chase in Python floats."""
    num = np.asarray(rf.num, dtype=float)
    den = np.asarray(rf.den, dtype=float)
    coeffs = np.abs(np.concatenate([num, den]))
    nz = coeffs[coeffs > 0]
    ratio = float(nz.max() / nz.min()) if nz.size else 1.0
    omega_max = 1e4 * max(1.0, min(ratio, 1e6))
    exclusions = []
    for loc, _ in _poles_oracle(rf, cluster_tol=cluster_tol).poles:
        if abs(loc.real) <= on_axis_tol:
            exclusions.append((abs(loc.imag), max(1e-8, 1e-6 * (1.0 + abs(loc.imag)))))
    lin = np.linspace(0.0, min(10.0, omega_max), 2048)
    log = np.geomspace(max(min(10.0, omega_max) * 1e-3, 1e-12), omega_max, 2048)
    ws = np.unique(np.concatenate([lin, log]))
    edge_pts = [x for c, r in exclusions for x in (c - 1.5 * r, c + 1.5 * r)]
    if edge_pts:
        ws = np.unique(np.concatenate([ws, np.array(edge_pts)]))
        ws = ws[ws >= 0.0]
    keep = np.ones(ws.size, dtype=bool)
    for center, radius in exclusions:
        keep &= np.abs(ws - center) > radius
    ws = ws[keep]
    vals = _re_axis_oracle(num, den, ws)
    finite = np.isfinite(vals)
    ws, vals = ws[finite], vals[finite]
    idx = int(np.argmin(vals))
    w_star, v_star = float(ws[idx]), float(vals[idx])
    lo = ws[idx - 1] if idx > 0 else max(0.0, w_star - 1.0)
    hi = ws[idx + 1] if idx + 1 < ws.size else w_star + 1.0
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a_, b_ = float(lo), float(hi)
    c_ = b_ - phi * (b_ - a_)
    d_ = a_ + phi * (b_ - a_)
    fc, fd = _scalar_re_on_axis(rf.num, rf.den, c_), _scalar_re_on_axis(rf.num, rf.den, d_)
    for _ in range(80):
        if fc < fd:
            b_, d_, fd = d_, c_, fc
            c_ = b_ - phi * (b_ - a_)
            fc = _scalar_re_on_axis(rf.num, rf.den, c_)
        else:
            a_, c_, fc = c_, d_, fd
            d_ = a_ + phi * (b_ - a_)
            fd = _scalar_re_on_axis(rf.num, rf.den, d_)
    w_ref = c_ if fc < fd else d_
    v_ref = min(fc, fd)
    if np.isfinite(v_ref) and v_ref < v_star and \
            all(abs(w_ref - c) > r for c, r in exclusions):
        w_star, v_star = float(w_ref), float(v_ref)
    # the sign of Re Y(i w) as w -> inf, from the leading coefficient of E
    E = _trim_oracle(_real_part_on_axis_poly_oracle(num, den), complexity.COEFF_TOL)
    if v_star >= 0.0 and E[-1] < 0.0:
        w_tail = omega_max
        for _ in range(12):
            w_tail *= 10.0
            v_tail = _scalar_re_on_axis(rf.num, rf.den, w_tail)
            if np.isfinite(v_tail) and v_tail < 0.0:
                w_star, v_star = w_tail, v_tail
                break
    return w_star, v_star


def _same_float(a, b):
    """Equal values with equal signs of zero; any NaN equals any NaN."""
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _random_coeffs(rng, degree):
    """Magnitudes 1e-3..1e3 with random signs; about one in five entries is
    replaced by 0.0, -0.0 or 1.0."""
    c = 10.0 ** rng.uniform(-3.0, 3.0, degree + 1) * rng.choice([-1.0, 1.0], degree + 1)
    swap = rng.random(degree + 1) < 0.2
    c[swap] = rng.choice([0.0, -0.0, 1.0], int(swap.sum()))
    return c.tolist()


# omega = 0, 1e-12, a 1e22 tail and beyond, where terms overflow to inf
_SPECIAL_OMEGAS = (0.0, 1e-12, 1.0, 10.0, 1e8, 1e22, 1e60, 1e160, 1e300, math.inf)

_coefficient = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0)),
    st.builds(lambda m, neg: -m if neg else m,
              st.floats(1e-3, 1e3), st.booleans()),
)
_omega = st.one_of(st.sampled_from(_SPECIAL_OMEGAS), st.floats(0.0, 1e22),
                   st.floats(-12.0, 22.0).map(lambda e: 10.0 ** e))


class TestReOnAxis:
    """The Horner evaluator's values against numpy's polyval, bit for bit."""

    def _assert_matches(self, num, den, omegas):
        array = _re_axis_oracle(num, den, np.array(omegas))
        for w, from_array in zip(omegas, array):
            got = complexity._re_and_step(num, den, w)[0]
            assert _same_float(got, _re_axis_oracle(num, den, w)), (num, den, w)
            assert _same_float(got, from_array), (num, den, w)

    def test_seeded_degrees_and_omegas(self):
        rng = np.random.default_rng(20)
        grid = np.unique(np.concatenate([np.linspace(0.0, 10.0, 64),
                                         np.geomspace(1e-2, 1e8, 64)])).tolist()
        for _ in range(300):
            num = _random_coeffs(rng, int(rng.integers(0, 7)))
            den = _random_coeffs(rng, int(rng.integers(0, 7)))
            tail = (10.0 ** rng.uniform(8.0, 22.0, 8)).tolist()
            self._assert_matches(num, den, grid + tail + list(_SPECIAL_OMEGAS))

    def test_denominator_zero_on_axis(self):
        # den = 1 + s^2 vanishes exactly at omega = 1, where numpy returns
        # nr / 0: inf, -inf, or NaN for a zero numerator
        den = [1.0, 0.0, 1.0]
        for num in ([1.0], [-2.0, 1.0], [0.0], [1.0, 0.0, 1.0], [0.5, 3.0, 0.0, 2.0]):
            self._assert_matches(num, den, [0.0, 1.0, 2.0])
        assert complexity._re_and_step([1.0], den, 1.0)[0] == math.inf
        assert complexity._re_and_step([-2.0, 1.0], den, 1.0)[0] == -math.inf
        assert math.isnan(complexity._re_and_step([1.0, 0.0, 1.0], den, 1.0)[0])

    @settings(max_examples=300, deadline=None)
    @given(num=st.lists(_coefficient, min_size=1, max_size=7),
           den=st.lists(_coefficient, min_size=1, max_size=7),
           omegas=st.lists(_omega, min_size=1, max_size=8))
    def test_matches_numpy(self, num, den, omegas):
        self._assert_matches(num, den, omegas)

    def test_min_real_on_axis_matches_old_closure(self, monkeypatch):
        rng = np.random.default_rng(21)
        rationals = [_fhn_rational(float(xd), BETA, XI)
                     for xd in np.linspace(-1.6, 1.6, 33)]
        rationals += [fhn_complexity_function(float(mu), BETA, GAMMA, XI)
                      for mu in np.linspace(-0.5, 1.5, 21)]
        while len(rationals) < 160:
            num = _random_coeffs(rng, int(rng.integers(0, 5)))
            den = _random_coeffs(rng, int(rng.integers(0, 5)))
            try:
                rationals.append(make_rational(num, den))
            except ValueError:
                continue
        shipped = [min_real_on_axis(rf) for rf in rationals]
        stacked = min_real_on_axis(rationals)
        probed = _use_numpy_evaluator(monkeypatch)
        expected = min_real_on_axis(rationals)
        # the oracle did the probing, each probe over the whole stack
        assert probed and min(probed) >= len(rationals)
        for rf, got, row, want in zip(rationals, shipped, stacked, expected):
            for pair in (got, row):
                assert _same_float(pair[0], want[0]) and _same_float(pair[1], want[1]), rf


def _use_per_rational_scan(monkeypatch):
    """Route the axis scans of edge_of_chaos_classify through
    min_real_on_axis one rational at a time."""
    alone = complexity.min_real_on_axis

    def per_rational(rfs, on_axis_tol=1e-7, cluster_tol=complexity.CLUSTER_TOL,
                     pole_sets=None):
        return [alone(rf, on_axis_tol, cluster_tol) for rf in rfs]

    monkeypatch.setattr(complexity, "min_real_on_axis", per_rational)


def _classified_alone(rf, tols):
    try:
        return edge_of_chaos_classify(rf, tols)
    except LocactError as exc:
        return exc


def _row_bytes(result):
    if isinstance(result, LocactError):
        return f"{type(result).__name__}: {result}"
    return dumps_canonical(result.to_json())


def _assert_rows_match_alone(orders, tols=None):
    """For each order of the same rationals, each row of the stacked
    classifier and of the stacked axis scan equals that rational on its own:
    classification bytes and (w*, v*) bit for bit."""
    tols = tols or ClassifierTolerances()
    expected = {}  # id of a rational -> its results alone
    for rfs in orders:
        stacked = edge_of_chaos_classify(rfs, tols)
        minima = min_real_on_axis(rfs, on_axis_tol=tols.on_axis_tol,
                                  cluster_tol=tols.cluster_tol)
        assert len(stacked) == len(minima) == len(rfs)
        for rf, row, minimum in zip(rfs, stacked, minima):
            if id(rf) not in expected:
                expected[id(rf)] = (_classified_alone(rf, tols), min_real_on_axis(
                    rf, tols.on_axis_tol, tols.cluster_tol))
            _assert_row_matches(rf, row, minimum, *expected[id(rf)])


def _flips_against_sampled_scan(rationals, tols):
    """Check that no v* lies above the old sampled scan's by more than
    rounding (32 eps), and return the rationals whose condition (iv)
    differs from the old scan's."""
    flips = []
    for rf, (_, v_new) in zip(rationals, min_real_on_axis(
            rationals, on_axis_tol=tols.on_axis_tol, cluster_tol=tols.cluster_tol)):
        _, v_old = _min_real_on_axis_oracle(rf, tols.on_axis_tol, tols.cluster_tol)
        assert v_new <= v_old + 32.0 * np.finfo(float).eps * max(1.0, abs(v_old)), rf
        if (v_new < -tols.axis_val_tol) != (v_old < -tols.axis_val_tol):
            flips.append(rf)
    return flips


def _assert_row_matches(rf, row, minimum, alone, minimum_alone):
    (w_row, v_row), (w_star, v_star) = minimum, minimum_alone
    assert _row_bytes(row) == _row_bytes(alone), rf
    assert _same_float(w_row, w_star) and _same_float(v_row, v_star), rf
    if not isinstance(row, LocactError):
        iv = row.evidence["iv"]
        assert _same_float(iv["omega"], alone.evidence["iv"]["omega"])
        assert _same_float(iv["re_Y"], alone.evidence["iv"]["re_Y"])
        assert _same_float(iv["omega"], w_star) and _same_float(iv["re_Y"], v_star)


def _narrow_dip(zeta, w0):
    """1 - 0.5 L(0.3, 1) - 2 L(zeta, w0), with the Lorentzian
    L(zeta, w0)(s) = 2 zeta w0 s / (s^2 + 2 zeta w0 s + w0^2)."""
    b, d = [1.0, 0.6, 1.0], [w0 * w0, 2.0 * zeta * w0, 1.0]
    den = npoly.polymul(b, d)
    num = npoly.polysub(npoly.polysub(den, npoly.polymul([0.0, 0.3], d)),
                        npoly.polymul([0.0, 4.0 * zeta * w0], b))
    return make_rational(num, den)


def _axis_pair(w0):
    return [w0 * w0, 0.0, 1.0]  # s^2 + w0^2: poles at +/- i w0


def _tail_chaser(b, c, eps):
    """(s^2 + (c - eps) s + b) / (s + c): Re Y(i w) = (b c - eps w^2) / (c^2 + w^2)
    decreases to its limit -eps, and turns negative only past w^2 = b c / eps."""
    return make_rational([b, c - eps, 1.0], [c, 1.0])


def _seeded_rationals(rng, count):
    rationals = []
    while len(rationals) < count:
        kind = len(rationals) % 5
        num = _random_coeffs(rng, int(rng.integers(0, 5)))
        den = _random_coeffs(rng, int(rng.integers(0, 4)))
        if kind == 1:  # simple axis poles, with exclusion windows
            den = npoly.polymul(den, _axis_pair(float(rng.uniform(0.1, 5.0))))
        elif kind == 2:  # multiple poles: at the origin, on the axis, or off it
            factor = ([0.0, 0.0, 1.0], npoly.polymul(_axis_pair(1.5), _axis_pair(1.5)),
                      [1.0, 2.0, 1.0])[int(rng.integers(0, 3))]
            den = npoly.polymul(den, factor)
        elif kind == 3:
            rationals.append(_tail_chaser(float(rng.uniform(0.5, 2.0)),
                                          float(rng.uniform(0.5, 2.0)),
                                          10.0 ** float(rng.uniform(-10.0, -8.5))))
            continue
        elif kind == 4:
            rationals.append(_fhn_rational(float(rng.uniform(-2.0, 2.0)),
                                           float(rng.uniform(-1.0, 2.0)),
                                           float(rng.uniform(-0.5, 0.5))))
            continue
        try:
            rationals.append(make_rational(num, den))
        except ValueError:
            continue
    return rationals


@st.composite
def _rational(draw):
    num = draw(st.lists(_coefficient, min_size=1, max_size=5))
    den = draw(st.lists(_coefficient, min_size=1, max_size=4))
    for factor in draw(st.lists(st.sampled_from(("axis", "origin", "repeat")), max_size=2)):
        if factor == "axis":
            den = npoly.polymul(den, _axis_pair(draw(st.floats(0.1, 5.0))))
        elif factor == "origin":
            den = npoly.polymul(den, [0.0, 1.0])
        else:
            den = npoly.polymul(den, den)
    try:
        return make_rational(num, den)
    except ValueError:
        assume(False)


class TestStackedClassifier:
    """A stack of rationals classifies each row exactly as the row alone."""

    def test_seeded_stack_in_three_orders(self):
        rng = np.random.default_rng(31)
        rationals = _seeded_rationals(rng, 100)
        # the mix reaches every case: exclusion windows, multiple poles, the
        # limit at infinity and finite minimizers
        minima = min_real_on_axis(rationals)
        assert any(complexity._axis_exclusions(poles(rf), 1e-7) for rf in rationals)
        assert any(m >= 2 for rf in rationals for _, m in poles(rf).poles)
        assert any(w == math.inf for w, _ in minima)
        assert any(0.0 < w < math.inf for w, _ in minima)
        _assert_rows_match_alone([rationals, rationals[::-1],
                                  [rationals[i] for i in rng.permutation(len(rationals))]])
        flips = _flips_against_sampled_scan(rationals, ClassifierTolerances())
        # two tail chasers whose limit -eps lies below -axis_val_tol, where the
        # old scan's chase stopped above it: the exact infimum decides them
        assert len(flips) == 2
        for rf in flips:
            eps = rf.den[0] - rf.num[1]  # c - (c - eps)
            assert len(rf.num) == 3 and len(rf.den) == 2 and 1e-9 < eps < 3e-9
            w_star, v_star = min_real_on_axis(rf)
            assert w_star == math.inf and v_star == pytest.approx(-eps, rel=1e-6)
            assert edge_of_chaos_classify(rf).cond_iv

    def test_seeded_stack_at_wide_tolerances(self):
        rng = np.random.default_rng(32)
        tols = ClassifierTolerances(on_axis_tol=1e-3, cluster_tol=1e-4, resid_tol=0.0)
        rationals = _seeded_rationals(rng, 40)
        _assert_rows_match_alone([rationals], tols)
        assert _flips_against_sampled_scan(rationals, tols) == []

    @settings(max_examples=40, deadline=None)
    @given(rfs=st.lists(_rational(), min_size=1, max_size=6), data=st.data())
    def test_rows_match_alone(self, rfs, data):
        _assert_rows_match_alone([rfs, data.draw(st.permutations(rfs))])

    def test_stack_of_one_is_the_scalar_call(self):
        rf = _fhn_rational(fhn_xd_oracle(0.05), BETA, XI)
        (row,) = edge_of_chaos_classify([rf])
        assert _row_bytes(row) == _row_bytes(edge_of_chaos_classify(rf))
        assert min_real_on_axis([rf]) == [min_real_on_axis(rf)]

    def test_empty_stack(self):
        assert edge_of_chaos_classify([]) == []
        assert min_real_on_axis([]) == []

    def test_failing_row_does_not_fail_the_others(self, monkeypatch):
        # two simple axis poles reach the residue test; one row's fails.  A
        # stack holding it raises its error; the others, stacked without
        # it, classify as they do alone
        good = make_rational([1.0, 1.0], [1.0, 0.0, 1.0])
        bad = make_rational([2.0, 1.0], [4.0, 0.0, 1.0])
        low_pass = make_rational([1.0], [1.0, 1.0])
        residue = complexity._residue

        def failing(rf, p):
            if rf is bad:
                raise LocactError("injected residue failure")
            return residue(rf, p)

        monkeypatch.setattr(complexity, "_residue", failing)
        for rfs in ([good, bad, low_pass], [bad, good, bad, low_pass], [bad, bad]):
            _assert_stack_raises_a_failing_row(
                edge_of_chaos_classify, edge_of_chaos_classify, rfs, _row_bytes)
        rows = edge_of_chaos_classify([good, low_pass])
        assert rows[0].cond_iii and not rows[1].locally_active
        _assert_rows_match_alone([[low_pass, good, low_pass]])

        # conditions (i)-(iii) come before the axis scan, alone and stacked
        def failing_scan(rfs, *args, **kwargs):
            if rfs:
                raise LocactError("injected scan failure")
            return []

        monkeypatch.setattr(complexity, "min_real_on_axis", failing_scan)
        for rf in (bad, [good, bad]):
            with pytest.raises(LocactError, match="^injected residue failure$"):
                edge_of_chaos_classify(rf)


class TestReduction:
    def test_common_root_cancelled(self, rng):
        # (s - 1)(s + 2) / (s - 1)(s + 3) reduces to (s + 2) / (s + 3)
        num = np.polynomial.polynomial.polyfromroots([1.0, -2.0])
        den = np.polynomial.polynomial.polyfromroots([1.0, -3.0])
        rf = make_rational(num, den)
        assert len(rf.cancelled) == 1
        assert rf.cancelled[0] == pytest.approx(1.0 + 0.0j, abs=1e-9)
        for _ in range(100):
            s = complex(rng.standard_normal(), rng.standard_normal())
            if abs(s - 1.0) < 1e-3 or abs(s + 3.0) < 1e-3:
                continue
            direct = (s - 1.0) * (s + 2.0) / ((s - 1.0) * (s + 3.0))
            assert rf(s) == pytest.approx(direct, rel=1e-10)

    def test_trailing_zero_coefficients_trimmed(self):
        rf = make_rational([1.0, 0.0, 0.0], [2.0, 1.0, 0.0])
        assert rf.num == (1.0,)
        assert rf.den == (2.0, 1.0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            make_rational([1.0], [0.0])


class TestEdgeOfChaosClassifier:
    def test_unstable_pole_active_not_edge(self):
        ec = edge_of_chaos_classify(make_rational([1.0], [-1.0, 1.0]))
        assert ec.cond_i and ec.locally_active and not ec.edge_of_chaos

    def test_double_axis_pole(self):
        ec = edge_of_chaos_classify(make_rational([1.0], [0.0, 0.0, 1.0]))
        assert ec.cond_ii

    def test_low_pass_not_active(self):
        ec = edge_of_chaos_classify(make_rational([1.0], [1.0, 1.0]))
        assert not (ec.cond_i or ec.cond_ii or ec.cond_iii or ec.cond_iv)
        assert not ec.locally_active and not ec.edge_of_chaos

    def test_fhn_at_mu_005_is_edge_of_chaos(self):
        rf = fhn_complexity_function(0.05, BETA, GAMMA, XI)
        ec = edge_of_chaos_classify(rf)
        assert not ec.cond_i and not ec.cond_ii and not ec.cond_iii
        assert ec.cond_iv
        assert ec.edge_of_chaos and ec.locally_active

    def test_simple_axis_pole_with_complex_residue(self):
        # (s + 1) / (s^2 + 1): residue at i is (1 - i)/2, not a nonnegative real
        ec = edge_of_chaos_classify(make_rational([1.0, 1.0], [1.0, 0.0, 1.0]))
        assert ec.cond_iii

    def test_positive_real_axis_residue_does_not_trigger_iii(self):
        # 1 / s has residue 1 at the origin: the passive single-capacitor case
        ec = edge_of_chaos_classify(make_rational([1.0], [0.0, 1.0]))
        assert not ec.cond_iii

    def test_boolean_algebra(self):
        for rf in (make_rational([1.0], [-1.0, 1.0]),
                   make_rational([1.0], [0.0, 0.0, 1.0]),
                   make_rational([1.0], [1.0, 1.0]),
                   _fhn_rational(fhn_xd_oracle(0.05), BETA, XI)):
            ec = edge_of_chaos_classify(rf)
            assert ec.locally_active == (ec.cond_i or ec.cond_ii or ec.cond_iii
                                         or ec.cond_iv)
            assert ec.edge_of_chaos == (ec.cond_iv and not (ec.cond_i or ec.cond_ii
                                                            or ec.cond_iii))
            if ec.edge_of_chaos:
                assert ec.locally_active

    def test_classifier_monotone_in_axis_tolerance(self):
        rf = make_rational([1.0], [-1e-3, 1.0])  # pole at 1e-3
        wide = edge_of_chaos_classify(rf, ClassifierTolerances(on_axis_tol=1e-7))
        assert wide.cond_i
        narrow = edge_of_chaos_classify(rf, ClassifierTolerances(on_axis_tol=1e-9))
        assert narrow.cond_i  # shrinking the band never un-detects a genuine pole


def _bits(values, dtype=float):
    """The bytes of a float or complex sequence: equal only bit for bit."""
    return np.asarray(values, dtype=dtype).tobytes()


def _rational_bits(rf):
    if isinstance(rf, Exception):
        return f"{type(rf).__name__}: {rf}"
    return _bits(rf.num), _bits(rf.den), _bits(rf.cancelled, complex)


def _pole_bits(ps):
    return [(_bits([loc], complex), m) for loc, m in ps.poles]


def _assert_stack_raises_a_failing_row(stacked, alone, rows, bits):
    """Each row alone gives its result or raises; a stack holding a
    failing row raises the error of such a row, with the type and message
    that row raises alone, and the other rows, stacked without the failing
    ones, are bit for bit (by ``bits``) their single calls.  Returns the
    single calls' results and errors, one per row."""
    singles = []
    for row in rows:
        try:
            singles.append(alone(row))
        except (LocactError, ValueError) as exc:
            singles.append(exc)
    failing = [(type(r), str(r)) for r in singles if isinstance(r, Exception)]
    if failing:
        with pytest.raises((LocactError, ValueError)) as info:
            stacked(rows)
        assert (type(info.value), str(info.value)) in failing
    passing = [(row, r) for row, r in zip(rows, singles) if not isinstance(r, Exception)]
    if passing:
        got = stacked([row for row, _ in passing])
        assert [bits(r) for r in got] == [bits(r) for _, r in passing]
    return singles


def _fhn_grid():
    """Seeded FitzHugh-Nagumo points: x_d in [-2, 2], beta in [-1, 2], xi in
    [-0.5, 0.5], with the degenerate x_d = +-1, 0 and xi = 0, beta = 0."""
    rng = np.random.default_rng(41)
    pairs = [(float(b), float(x)) for b, x in zip(rng.uniform(-1.0, 2.0, 24),
                                                   rng.uniform(-0.5, 0.5, 24))]
    pairs += [(BETA, XI), (BETA, 0.0), (0.0, XI), (-1.0, 0.5), (2.0, -0.5)]
    x_d = np.concatenate([rng.uniform(-2.0, 2.0, 36), [-1.0, 0.0, 1.0, -2.0, 2.0]])
    return pairs, x_d


class TestByteOracles:
    """FitzHugh-Nagumo rows of the stacked arrays against the per-row numpy
    polynomial arithmetic they replace, bit for bit: each product sums at
    most two nonzero terms, so any summation order gives numpy's bits."""

    def test_fhn_rationals_poles_and_candidates(self):
        pairs, x_d = _fhn_grid()
        rationals = []
        for beta, xi in pairs:
            stack = _fhn_rational(x_d, beta, xi)
            for x, rf in zip(x_d.tolist(), stack):
                want = _rational_bits(_fhn_rational_oracle(x, beta, xi))
                assert _rational_bits(rf) == want == _rational_bits(_fhn_rational(x, beta, xi))
                rationals.append(rf)
        assert any(rf.cancelled for rf in rationals)
        for rf, ps in zip(rationals, poles(rationals)):
            assert _pole_bits(ps) == _pole_bits(_poles_oracle(rf)), rf
        windows = [complexity._axis_exclusions(_poles_oracle(rf), 1e-7) for rf in rationals]
        assert any(windows)
        num, n_exp = complexity._normalized(
            complexity._coefficient_rows([rf.num for rf in rationals]))
        den, d_exp = complexity._normalized(
            complexity._coefficient_rows([rf.den for rf in rationals]))
        d_len = np.array([len(rf.den) for rf in rationals])
        size = np.concatenate([np.array([len(rf.num) for rf in rationals]) + d_len, 2 * d_len])
        row, w, limits = complexity._axis_candidates(windows, num, den, size)
        # in the units of the rows as built: the scaling moves no bit here
        limits = np.ldexp(limits, n_exp - d_exp)
        for i, (rf, wins) in enumerate(zip(rationals, windows)):
            want_w, want_limit = _axis_candidates_oracle(rf.num, rf.den, wins)
            assert _bits(w[row == i]) == _bits(want_w), rf
            assert _bits([limits[i]]) == _bits([want_limit]), rf

    def test_fhn_classification_matches_per_row_oracles(self, monkeypatch):
        pairs, x_d = _fhn_grid()
        rationals = [rf for beta, xi in pairs[::4] for rf in _fhn_rational(x_d, beta, xi)]
        stacked = [_row_bytes(row) for row in edge_of_chaos_classify(rationals)]
        _use_per_row_oracles(monkeypatch)
        _use_per_rational_scan(monkeypatch)
        assert stacked == [_row_bytes(_classified_alone(rf, ClassifierTolerances()))
                           for rf in rationals]

    def test_other_rationals_within_rounding_of_the_oracles(self, monkeypatch):
        # products of more than two nonzero terms sum in a fixed order, where
        # numpy's BLAS dot may use another: flags stay, v* moves by rounding
        rationals = _seeded_rationals(np.random.default_rng(31), 100)
        stacked = edge_of_chaos_classify(rationals)
        _use_per_row_oracles(monkeypatch)
        _use_per_rational_scan(monkeypatch)
        for rf, row in zip(rationals, stacked):
            want = _classified_alone(rf, ClassifierTolerances())
            flags = [(ec.cond_i, ec.cond_ii, ec.cond_iii, ec.cond_iv) for ec in (row, want)]
            assert flags[0] == flags[1], rf
            v, v_want = row.evidence["iv"]["re_Y"], want.evidence["iv"]["re_Y"]
            assert abs(v - v_want) <= 64.0 * np.finfo(float).eps * max(1.0, abs(v_want)), rf

    def test_make_rational_rows_match_the_oracle(self):
        # any rows: make_rational and poles need no products, only roots
        rng = np.random.default_rng(42)
        nums, dens = [], []
        for i in range(300):
            num = _random_coeffs(rng, int(rng.integers(0, 6)))
            den = _random_coeffs(rng, int(rng.integers(0, 5)))
            if i % 3 == 0:  # common roots to cancel
                common = npoly.polyfromroots(rng.standard_normal(int(rng.integers(1, 3))))
                num, den = npoly.polymul(num, common).tolist(), npoly.polymul(den, common).tolist()
            nums.append(num)
            dens.append(den)
        # some zero denominators: the whole stack raises their ValueError
        singles = _assert_stack_raises_a_failing_row(
            lambda rows: make_rational(*zip(*rows)), lambda row: make_rational(*row),
            list(zip(nums, dens)), _rational_bits)
        alone = []
        for num, den, rf in zip(nums, dens, singles):
            try:
                want = _make_rational_oracle(num, den)
            except ValueError as exc:
                want = exc
            assert _rational_bits(rf) == _rational_bits(want)
            if not isinstance(rf, Exception):
                alone.append(rf)
        assert len(alone) < len(singles)
        assert sum(bool(rf.cancelled) for rf in alone) >= 50
        for rf, ps in zip(alone, poles(alone)):
            assert _pole_bits(ps) == _pole_bits(_poles_oracle(rf))


_root_coefficient = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0)),
    st.floats(-1e3, 1e3, allow_nan=False),
)


class TestRoots:
    """The stacked root finder: every row is npoly.polyroots of that row
    alone, in values, order and dtype."""

    @staticmethod
    def _assert_rows(rows):
        """Each row alone is numpy's polyroots of it, or raises where numpy
        raises; a stack raises the error of a failing row, and otherwise
        (or without the failing rows) is the rows alone."""
        def roots(rows):
            return complexity._roots(complexity._coefficient_rows(rows))

        singles = _assert_stack_raises_a_failing_row(
            roots, lambda row: roots([row])[0], rows, lambda r: (r.dtype.str, r.tobytes()))
        for row, got in zip(rows, singles):
            try:
                with np.errstate(over="ignore"):  # an empty row is the zero polynomial
                    want = npoly.polyroots(row or [0.0])
            except np.linalg.LinAlgError:
                assert isinstance(got, LocactError), row
                continue
            assert not isinstance(got, Exception), row
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), row

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.lists(_root_coefficient, max_size=7),
                                   st.integers(0, 2)), min_size=1, max_size=8))
    def test_mixed_length_stack(self, rows):
        # trailing zeros, and one group of length 4 that holds an all-real
        # row (roots 1, 2, 3) and a complex one (roots 2, +-i); these two and
        # every row that does not fail alone are compared as a stack
        rows = [coeffs + [0.0] * zeros for coeffs, zeros in rows]
        rows += [[-6.0, 11.0, -6.0, 1.0], [-2.0, 1.0, -2.0, 1.0, 0.0]]
        self._assert_rows(rows)
        self._assert_rows(rows[::-1])

    def test_a_failing_row_fails_alone(self):
        # a subnormal lead overflows the companion matrix: the row raises
        # alone, and so does a stack holding it
        rows = [[1.0, 2.0, 5e-324], [2.0, -3.0, 1.0], [-1.0, 0.0, 1.0]]
        message = r"^polynomial \[1.0, 2.0, 5e-324\] has a non-finite companion matrix$"
        for stack in (rows[:1], rows, rows[::-1]):
            with pytest.raises(NonFiniteEntry, match=message):
                complexity._roots(complexity._coefficient_rows(stack))
        with pytest.raises(np.linalg.LinAlgError), np.errstate(over="ignore"):
            npoly.polyroots(rows[0])
        self._assert_rows(rows)
        found = complexity._roots(complexity._coefficient_rows(rows[1:]))
        assert [r.tolist() for r in found] == [[1.0, 2.0], [-1.0, 1.0]]

    def test_no_convergence_fails_only_that_row(self, monkeypatch):
        # eigvals fails on any stack holding the companion row of x^2 - 7x + 1
        eigvals = np.linalg.eigvals

        def failing(a):
            if (np.asarray(a)[..., :, -1] == 7.0).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(a)

        rows = [[2.0, -3.0, 1.0], [1.0, -7.0, 1.0], [-1.0, 0.0, 1.0]]
        monkeypatch.setattr(np.linalg, "eigvals", failing)
        message = "^companion matrix eigenvalues: Eigenvalues did not converge$"
        for stack in (rows[1:2], rows):
            with pytest.raises(ConvergenceFailure, match=message):
                complexity._roots(complexity._coefficient_rows(stack))
        self._assert_rows(rows)  # numpy's polyroots fails on the same row
        found = complexity._roots(complexity._coefficient_rows(rows[::2]))
        assert [r.tolist() for r in found] == [[1.0, 2.0], [-1.0, 1.0]]


class TestNonFiniteCoefficients:
    @pytest.mark.parametrize("num, den", [
        ([1.0, math.inf], [1.0, 1.0]), ([1.0], [math.nan, 1.0]),
        ([-math.inf, 0.0, 1.0], [0.128, 1.0]),
    ])
    def test_make_rational_rejects_them(self, num, den):
        # [1, inf] / [1, 1] used to drop the infinite lead and give 1/(s + 1)
        with pytest.raises(NonFiniteEntry, match="must be finite"):
            make_rational(num, den)

    @pytest.mark.parametrize("x_d", [math.nan, 1e200, -math.inf])
    def test_fhn_rational_rejects_an_overflowing_point(self, x_d):
        # nan raised numpy's LinAlgError; 1e200 gave num = (inf,) and a
        # classification with cond_iv False
        with pytest.raises(NonFiniteEntry):
            _fhn_rational(x_d, BETA, XI)

    def test_finite_matrix_whose_determinant_overflows(self):
        J = np.array([[1e200, -1.0], [0.1, -1e200]])
        message = r"^coefficients must be finite, got num=\[-inf, 0.0, 1.0\], " \
            r"den=\[1e\+200, 1.0, 0.0\]$"
        other = [[0.0, -1.0], [1.0, -1.0]]
        for stack in (J, [J, other], [other, J]):
            with pytest.raises(NonFiniteEntry, match=message):
                one_port_rational(stack)
        (rf,) = one_port_rational(np.stack([other]))
        assert (rf.num, rf.den) == ((1.0, 1.0, 1.0), (1.0, 1.0))

    def test_only_that_row_fails_in_a_stack(self):
        # a stack raises the error of a failing row, the row's own message;
        # the other rows, stacked without it, are the rows alone
        x_d = [0.3, math.nan, 1e200, -1.5]
        singles = _assert_stack_raises_a_failing_row(
            lambda xs: _fhn_rational(np.array(xs), BETA, XI),
            lambda x: _fhn_rational(x, BETA, XI), x_d, _rational_bits)
        assert [type(r).__name__ for r in singles] == \
            ["RationalFunction", "NonFiniteEntry", "NonFiniteEntry", "RationalFunction"]
        with pytest.raises(NonFiniteEntry, match=r"num=\[nan, nan, 1.0\]"):
            _fhn_rational(np.array(x_d), BETA, XI)
        # the error of a zero denominator, and of a row narrower than its
        # stack, which names the coefficients padded only as far as alone
        for nums, dens in (([[1.0, math.inf], [0.0, 1.0]], [[1.0, 1.0], [0.0]]),
                           ([[0.0, 1.0], [1.0, 2.0, 3.0]], [[0.0], [1.0, 1.0]]),
                           ([[1.0, math.inf], [1.0, 2.0, 3.0]], [[1.0], [1.0, 1.0]])):
            _assert_stack_raises_a_failing_row(
                lambda rows: make_rational(*zip(*rows)), lambda row: make_rational(*row),
                list(zip(nums, dens)), _rational_bits)
        with pytest.raises(NonFiniteEntry, match=r"num=\[1.0, inf\], den=\[1.0, 0.0\]$"):
            make_rational([[1.0, math.inf], [1.0, 2.0, 3.0]], [[1.0], [1.0, 1.0]])

    def test_a_row_whose_roots_fail_is_an_error_row(self):
        # built directly, bypassing make_rational: its denominator has no
        # finite companion matrix, so its poles, its axis scan and its
        # classification raise, alone and in a stack
        bad = RationalFunction(num=(1.0,), den=(1.0, math.inf, 1.0))
        good = make_rational([1.0], [1.0, 1.0])
        message = r"^polynomial \[1.0, inf, 1.0\] has a non-finite companion matrix$"
        for call in (poles, min_real_on_axis, edge_of_chaos_classify):
            for rf in (bad, [good, bad, good]):
                with pytest.raises(NonFiniteEntry, match=message):
                    call(rf)
        _assert_stack_raises_a_failing_row(
            edge_of_chaos_classify, edge_of_chaos_classify, [good, bad, good], _row_bytes)


def _normal(x):
    """A finite float with the full precision: nonzero and not subnormal."""
    return 2.0 ** -1022 <= abs(x) < math.inf


class TestCommonScale:
    """Y does not change when num and den are scaled by one factor, and
    min_real_on_axis follows a power-of-two scale of either exactly."""

    @pytest.mark.parametrize("k", [-600, -270, -269, 0, 255, 256])
    def test_scaled_quadratic(self, k):
        # the axis products of k = 256 overflowed, those of k <= -270
        # underflowed: (inf, 1.0) and (0.0, 2.0) before the rows were scaled
        rf = make_rational(np.ldexp([2.0, 1.0, 1.0], k), np.ldexp([1.0, 3.0, 1.0], k))
        assert min_real_on_axis(rf) == (1.2507069070310484, 0.30888330538072)

    def test_limit_compared_in_scaled_units(self):
        # the limit at infinity lies 2.5 % below every candidate in the
        # units of the scaled rows; scaled back it underflows to -0.0, which
        # lost to the candidate at omega = 276541.99...
        rf = make_rational([-9.856757483692054e-109, -4.3585244568796933e-206,
                            -5.1496980017009315e-118],
                           [-1.4247969369113033e+34, 415131645268587.25,
                            3.2593248731169694e+225])
        w_star, v_star = min_real_on_axis(rf)
        assert w_star == math.inf and _same_float(v_star, -0.0)
        assert not edge_of_chaos_classify(rf).cond_iv

    def test_scaled_square(self):
        # s^2 written with coefficients 1e160: Re Y(i w) = -w^2 is unbounded
        # below, which the overflowing products reported as (0.0, 0.0)
        rf = make_rational([0.0, 0.0, 1e160], [1e160])
        assert min_real_on_axis(rf) == (math.inf, -math.inf)
        ec = edge_of_chaos_classify(rf)
        assert ec.cond_iv and ec.edge_of_chaos

    @settings(max_examples=60, deadline=None)
    @given(rf=_rational(), a=st.integers(-1000, 1000), b=st.integers(-1000, 1000))
    def test_power_of_two_scales(self, rf, a, b):
        with np.errstate(over="ignore", under="ignore"):
            num, den = np.ldexp(rf.num, a), np.ldexp(rf.den, b)
        # the scaled coefficients are exact: every nonzero one stays normal
        assume(all(x == 0.0 or _normal(y) for x, y in zip(rf.num + rf.den, [*num, *den])))
        try:
            w_star, v_star = min_real_on_axis(rf)
        except LocactError:
            assume(False)
        with np.errstate(over="ignore", under="ignore"):
            want = float(np.ldexp(v_star, a - b))
        # and so is the scaled value: a subnormal keeps fewer bits
        assume(v_star == 0.0 or math.isinf(v_star) or (_normal(v_star) and _normal(want)))
        got = min_real_on_axis(RationalFunction(num=tuple(num.tolist()), den=tuple(den.tolist())))
        assert _same_float(got[0], w_star) and _same_float(got[1], want)
