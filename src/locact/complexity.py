"""Rational complexity functions Y(s): pole and residue analysis and the
four-condition edge-of-chaos classifier.

A linearized port system is locally active when at least one of the four
conditions holds: (i) a pole in the open right half plane, (ii) a multiple
pole on the imaginary axis, (iii) a simple axis pole whose residue is not a
nonnegative real number, (iv) negative real part of Y(i omega) somewhere on
the axis.  It sits at the edge of chaos when (iv) holds and (i)-(iii) fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import EquilibriumNotFound, LocactError, NotASimplePole

COEFF_TOL = 1e-12
CLUSTER_TOL = 1e-7
# Rows per block of the axis scan's grid stage: a block's log and linear
# grids take about 1 MB however many rows a stack has.
_GRID_ROWS = 32


@dataclass(frozen=True)
class ClassifierTolerances:
    on_axis_tol: float = 1e-7
    resid_tol: float = 1e-9
    axis_val_tol: float = 1e-9
    cluster_tol: float = CLUSTER_TOL

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{f.name} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class RationalFunction:
    """Real-coefficient rational function, coefficients in ascending degree.

    Build through :func:`make_rational`, which trims negligible leading
    coefficients and cancels common root pairs; cancelled roots are recorded.
    """

    num: tuple
    den: tuple
    cancelled: tuple = ()

    def __call__(self, s):
        return npoly.polyval(s, np.asarray(self.num)) / \
            npoly.polyval(s, np.asarray(self.den))


@dataclass(frozen=True)
class PoleSet:
    poles: tuple  # of (location: complex, multiplicity: int)
    on_axis_tol: float


@dataclass(frozen=True)
class EdgeClassification:
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    cond_iv: bool
    locally_active: bool
    edge_of_chaos: bool
    evidence: dict = field(default_factory=dict)


def _trim(coeffs, coeff_tol):
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


def _real_poly_from_roots(roots, lead):
    if len(roots) == 0:
        return np.array([float(lead)])
    c = npoly.polyfromroots(np.asarray(roots, dtype=complex))
    return np.real(c) * float(lead)


def make_rational(num, den, coeff_tol: float = COEFF_TOL,
                  cluster_tol: float = CLUSTER_TOL) -> RationalFunction:
    """Construct a reduced rational function from ascending coefficients.

    Common numerator/denominator roots within ``cluster_tol`` of each other
    are cancelled pairwise and recorded in ``cancelled``.
    """
    num = _trim(num, coeff_tol)
    den = _trim(den, coeff_tol)
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
        num = _real_poly_from_roots(nroots, num[-1])
        den = _real_poly_from_roots(kept_d, den[-1])
    return RationalFunction(num=tuple(num.tolist()), den=tuple(den.tolist()),
                            cancelled=tuple(cancelled))


def poles(rf: RationalFunction, cluster_tol: float = CLUSTER_TOL,
          on_axis_tol: float = 1e-7) -> PoleSet:
    """Denominator roots (companion-matrix eigenvalues) clustered into
    multiplicities at pairwise distance ``cluster_tol``."""
    den = np.asarray(rf.den, dtype=float)
    if den.size <= 1:
        return PoleSet(poles=(), on_axis_tol=on_axis_tol)
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
    return PoleSet(poles=out, on_axis_tol=on_axis_tol)


def residue_at_simple_pole(rf: RationalFunction, p: complex,
                           cluster_tol: float = CLUSTER_TOL) -> complex:
    """Residue ``num(p) / den'(p)`` at a simple pole p."""
    ps = poles(rf, cluster_tol=cluster_tol)
    match = None
    for loc, mult in ps.poles:
        if abs(loc - p) <= max(1e-6 * (1.0 + abs(p)), cluster_tol):
            match = (loc, mult)
            break
    if match is None:
        raise NotASimplePole(f"{p} is not a pole of the reduced function")
    if match[1] != 1:
        raise NotASimplePole(f"pole at {match[0]} has multiplicity {match[1]}")
    num = np.asarray(rf.num, dtype=float)
    dden = npoly.polyder(np.asarray(rf.den, dtype=float))
    return complex(npoly.polyval(p, num) / npoly.polyval(p, dden))


def _real_part_on_axis_poly(rf: RationalFunction):
    """E(w) with Re Y(i w) = E(w) / |den(i w)|^2, as ascending coefficients."""
    i_pow = 1j ** np.arange(len(rf.num))
    cn = np.asarray(rf.num, dtype=complex) * i_pow
    i_pow_d = 1j ** np.arange(len(rf.den))
    cd = np.conj(np.asarray(rf.den, dtype=complex) * i_pow_d)
    prod = npoly.polymul(cn, cd)
    return np.real(prod)


def asymptotic_axis_sign(rf: RationalFunction, coeff_tol: float = COEFF_TOL) -> int:
    """Sign of Re Y(i omega) as omega -> +inf, from leading coefficients."""
    E = _trim(_real_part_on_axis_poly(rf), coeff_tol)
    lead = E[-1]
    if E.size == 1 and lead == 0.0:
        return 0
    return 1 if lead > 0 else (-1 if lead < 0 else 0)


def _axis_exclusions(ps: PoleSet, on_axis_tol):
    wins = []
    for loc, _ in ps.poles:
        if abs(loc.real) <= on_axis_tol:
            radius = max(1e-8, 1e-6 * (1.0 + abs(loc.imag)))
            wins.append((abs(loc.imag), radius))
    return wins


def _coefficient_rows(polys):
    """Ascending coefficient tuples as the rows of one array, zero-padded at
    the high-degree end; a padded Horner step keeps :func:`_re_on_axis` at its
    exact ``(0, 0)`` start for finite omega, so padding moves no bit."""
    rows = np.zeros((len(polys), max(len(p) for p in polys)))
    for row, p in zip(rows, polys):
        row[:len(p)] = p
    return rows


def _re_on_axis(num, den, w):
    """``np.real(polyval(1j*w, num) / polyval(1j*w, den))`` bit for bit, one
    value per row, for finite coefficients; see :func:`min_real_on_axis`.

    ``num`` and ``den`` hold ascending coefficients along their last axis and
    ``w`` one omega per row.  The steps are numpy's complex Horner product and
    real-plus-complex sum on (re, im), then Smith's division (times
    ``1/(dr + di*rat)``), each on float arrays; a zero denominator gives numpy's
    ``nr/0``.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    with np.errstate(all="ignore"):
        sr, si = 0.0 * w - 0.0, 0.0 + w  # 1j * w: (0, 1) times (w, 0)
        nr = ni = dr = di = 0.0
        for a in num.T[::-1]:  # coefficient columns, highest degree first
            nr, ni = a + (nr * sr - ni * si), 0.0 + (nr * si + ni * sr)
        for a in den.T[::-1]:
            dr, di = a + (dr * sr - di * si), 0.0 + (dr * si + di * sr)
        big = np.abs(dr) >= np.abs(di)
        rat = np.where(big, di / dr, dr / di)
        val = np.where(big, (nr + ni * rat) * (1.0 / (dr + di * rat)),
                       (nr * rat + ni) * (1.0 / (di + dr * rat)))
        pole = (dr == 0.0) & (di == 0.0)
        if pole.any():
            at_pole = np.where((nr != nr) | (nr == 0.0), np.nan, np.copysign(np.inf, nr))
            val = np.where(pole, at_pole, val)
    return val


def _default_omega_max(rf):
    coeffs = np.abs(np.array(rf.num + rf.den, dtype=float))
    nz = coeffs[coeffs > 0]
    ratio = float(nz.max() / nz.min()) if nz.size else 1.0
    return 1e4 * max(1.0, min(ratio, 1e6))


def _grid_minima(rfs, exclusions, omega_max, grid):
    """The grid stage of :func:`min_real_on_axis`, row by row: arrays of each
    row's grid minimizer and value, its bracketing neighbors and its
    ``omega_max``.

    The linear and log grids of up to ``_GRID_ROWS`` rows come from one
    ``linspace`` and one ``geomspace`` call, whose rows equal the per-row
    calls element for element; each row is then merged, sampled and
    evaluated on its own.
    """
    w_max = np.array([_default_omega_max(rf) if omega_max is None else omega_max
                      for rf in rfs], dtype=float)
    half = max(grid // 2, 16)
    found = []
    for first in range(0, len(rfs), _GRID_ROWS):
        block = slice(first, first + _GRID_ROWS)
        top = w_max[block]
        stop = np.where(top < 10.0, top, 10.0)  # min(10.0, omega_max)
        start = stop * 1e-3
        start = np.where(1e-12 > start, 1e-12, start)  # max(start, 1e-12)
        lins = np.linspace(0.0, stop, half, axis=-1)
        logs = np.geomspace(start, top, half, axis=-1)
        for rf, excl, lin, log in zip(rfs[block], exclusions[block], lins, logs):
            found.append(_row_minimum(rf, excl, lin, log))
    w_star, v_star, lo, hi = (np.array(column) for column in zip(*found))
    return w_star, v_star, lo, hi, w_max


def _row_minimum(rf, exclusions, lin, log):
    num = np.asarray(rf.num, dtype=float)
    den = np.asarray(rf.den, dtype=float)
    ws = np.unique(np.concatenate([lin, log]))
    edge_pts = []
    for center, radius in exclusions:
        edge_pts.extend([center - 1.5 * radius, center + 1.5 * radius])
    if edge_pts:
        ws = np.unique(np.concatenate([ws, np.array(edge_pts)]))
        ws = ws[ws >= 0.0]
    keep = np.ones(ws.size, dtype=bool)
    for center, radius in exclusions:
        keep &= np.abs(ws - center) > radius
    ws = ws[keep]
    s = 1j * ws
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.real(npoly.polyval(s, num) / npoly.polyval(s, den))
    finite = np.isfinite(vals)
    ws, vals = ws[finite], vals[finite]
    idx = int(np.argmin(vals))
    w_star = float(ws[idx])
    lo = ws[idx - 1] if idx > 0 else max(0.0, w_star - 1.0)
    hi = ws[idx + 1] if idx + 1 < ws.size else w_star + 1.0
    return w_star, float(vals[idx]), lo, hi


def min_real_on_axis(rf, omega_max: Optional[float] = None, grid: int = 4096,
                     on_axis_tol: float = 1e-7, cluster_tol: float = CLUSTER_TOL,
                     pole_sets=None):
    """Minimize Re Y(i omega) over the axis.

    Combines a symmetric log+linear grid (conjugate symmetry lets the scan
    cover omega >= 0 only), golden-section refinement around the grid
    minimizer, and the exact omega -> inf sign from leading coefficients so
    unbounded behavior is decided analytically.  Samples inside small windows
    around imaginary-axis poles are excluded, with extra samples placed just
    outside the windows.

    ``rf`` is one :class:`RationalFunction`, which gives ``(w*, v*)``, or a
    sequence of them, which gives a list of such pairs: one stack, the scalar
    call being the stack of one.  Each row's grid is one vectorised
    ``polyval``; the 80 golden-section steps and the tail chase run in
    lockstep over the rows, probing through :func:`_re_on_axis`, which repeats
    numpy's complex arithmetic on float arrays.  Each row's result is bit for
    bit that of the row alone, wherever it sits in the stack.  ``pole_sets``
    (the poles of each row at ``cluster_tol``) spares a caller that has them
    a second root finding.
    """
    single = isinstance(rf, RationalFunction)
    rfs = [rf] if single else list(rf)
    if not rfs:
        return []
    if pole_sets is None:
        pole_sets = [poles(r, cluster_tol=cluster_tol) for r in rfs]
    exclusions = [_axis_exclusions(ps, on_axis_tol) for ps in pole_sets]
    w_star, v_star, lo, hi, w_max = _grid_minima(rfs, exclusions, omega_max, grid)
    num = _coefficient_rows([r.num for r in rfs])
    den = _coefficient_rows([r.den for r in rfs])

    # golden-section refinement in the bracketing neighbors, all rows at once
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a_, b_ = lo, hi
    c_ = b_ - phi * (b_ - a_)
    d_ = a_ + phi * (b_ - a_)
    fc, fd = _re_on_axis(num, den, c_), _re_on_axis(num, den, d_)
    for _ in range(80):
        left = fc < fd  # keep [a, d]; otherwise keep [c, b]
        a_, b_ = np.where(left, a_, c_), np.where(left, d_, b_)
        step = phi * (b_ - a_)
        probe = np.where(left, b_ - step, a_ + step)
        f_probe = _re_on_axis(num, den, probe)
        c_, d_ = np.where(left, probe, d_), np.where(left, c_, probe)
        fc, fd = np.where(left, f_probe, fd), np.where(left, fc, f_probe)
    w_ref = np.where(fc < fd, c_, d_)
    v_ref = np.where(fd < fc, fd, fc)  # min(fc, fd)
    for i in np.flatnonzero(np.isfinite(v_ref) & (v_ref < v_star)):
        if all(abs(w_ref[i] - c) > r for c, r in exclusions[i]):
            w_star[i], v_star[i] = w_ref[i], v_ref[i]

    # analytic tail: if Re Y is eventually negative, chase it past the grid
    rows = np.array([i for i in range(len(rfs))
                     if v_star[i] >= 0.0 and asymptotic_axis_sign(rfs[i]) < 0], dtype=int)
    w_tail = w_max[rows]
    for _ in range(12):
        if not rows.size:
            break
        w_tail = w_tail * 10.0
        v_tail = _re_on_axis(num[rows], den[rows], w_tail)
        hit = np.isfinite(v_tail) & (v_tail < 0.0)
        w_star[rows[hit]], v_star[rows[hit]] = w_tail[hit], v_tail[hit]
        rows, w_tail = rows[~hit], w_tail[~hit]
    pairs = [(float(w), float(v)) for w, v in zip(w_star, v_star)]
    return pairs[0] if single else pairs


def _pole_conditions(rf, tols):
    """Conditions (i)-(iii) from the poles of ``rf``: the pole set, the three
    flags and their evidence."""
    ps = poles(rf, cluster_tol=tols.cluster_tol, on_axis_tol=tols.on_axis_tol)
    evidence = {}

    right = [(loc, m) for loc, m in ps.poles if loc.real > tols.on_axis_tol]
    cond_i = bool(right)
    if right:
        evidence["i"] = {"pole": right[0][0], "multiplicity": right[0][1]}

    axis = [(loc, m) for loc, m in ps.poles if abs(loc.real) <= tols.on_axis_tol]
    multi = [(loc, m) for loc, m in axis if m >= 2]
    cond_ii = bool(multi)
    if multi:
        evidence["ii"] = {"pole": multi[0][0], "multiplicity": multi[0][1]}

    cond_iii = False
    for loc, m in axis:
        if m != 1:
            continue
        res = residue_at_simple_pole(rf, loc, cluster_tol=tols.cluster_tol)
        bad = abs(res.imag) > tols.resid_tol or res.real < -tols.resid_tol
        if bad:
            cond_iii = True
            evidence["iii"] = {"pole": loc, "residue": res}
            break
    return ps, cond_i, cond_ii, cond_iii, evidence


def edge_of_chaos_classify(rf, tols: Optional[ClassifierTolerances] = None):
    """Evaluate the four local-activity conditions and the edge-of-chaos flag.

    ``rf`` is one :class:`RationalFunction`, which gives its
    :class:`EdgeClassification`, or a sequence of them, classified as one
    stack with one :func:`min_real_on_axis` call.  A stack gives a list with
    one entry per row: the classification, or the ``LocactError`` that row
    raised, so one row's failure does not fail the others.  The stack of one
    raises its row's error.
    """
    tols = tols or ClassifierTolerances()
    single = isinstance(rf, RationalFunction)
    rfs = [rf] if single else list(rf)
    results = []
    for r in rfs:
        try:
            results.append(_pole_conditions(r, tols))
        except LocactError as exc:
            results.append(exc)
    rows = [i for i, res in enumerate(results) if not isinstance(res, LocactError)]
    minima = min_real_on_axis([rfs[i] for i in rows], on_axis_tol=tols.on_axis_tol,
                              cluster_tol=tols.cluster_tol,
                              pole_sets=[results[i][0] for i in rows])
    for i, (w_star, v_star) in zip(rows, minima):
        _, cond_i, cond_ii, cond_iii, evidence = results[i]
        cond_iv = v_star < -tols.axis_val_tol
        evidence["iv"] = {"omega": w_star, "re_Y": v_star}
        results[i] = EdgeClassification(
            cond_i=cond_i, cond_ii=cond_ii, cond_iii=cond_iii, cond_iv=cond_iv,
            locally_active=cond_i or cond_ii or cond_iii or cond_iv,
            edge_of_chaos=cond_iv and not (cond_i or cond_ii or cond_iii),
            evidence=evidence,
        )
    if not single:
        return results
    if isinstance(results[0], LocactError):
        raise results[0]
    return results[0]


# -- the FitzHugh-Nagumo instance ----------------------------------------------


def fhn_rational(x_d: float, beta: float, xi: float) -> RationalFunction:
    """Complexity function of the linearized FitzHugh-Nagumo port system at an
    equilibrium with first coordinate ``x_d``:

    ``Y(s) = (s^2 + (xi beta + x_d^2 - 1) s + xi beta (x_d^2 - 1) + xi) / (s + xi beta)``
    """
    d = x_d * x_d - 1.0
    num = [xi * beta * d + xi, xi * beta + d, 1.0]
    den = [xi * beta, 1.0]
    return make_rational(num, den)


def fhn_complexity_function(mu: float, beta: float, gamma: float, xi: float,
                            x_guess=None) -> RationalFunction:
    """FitzHugh-Nagumo complexity function at the equilibrium for the given
    parameters; the equilibrium is located by the nonlinear module."""
    from . import nonlinear
    from .errors import NoConvergence

    sys = nonlinear.fhn_system(mu, beta, gamma, xi)
    guesses = []
    if x_guess is not None:
        guesses.append(np.asarray(x_guess, dtype=float))
    else:
        guesses.extend(nonlinear.fhn_equilibrium_guesses(mu, beta, gamma, xi))
    for guess in guesses:
        try:
            report = nonlinear.find_equilibrium(sys, guess)
        except NoConvergence:
            continue
        return fhn_rational(float(report.x_star[0]), beta, xi)
    raise EquilibriumNotFound(
        f"no equilibrium found for mu={mu}, beta={beta}, gamma={gamma}, xi={xi}"
    )


def rational_to_json(rf: RationalFunction) -> dict:
    return {"num": list(rf.num), "den": list(rf.den)}


def classification_to_json(ec: EdgeClassification) -> dict:
    def _plain(value):
        if isinstance(value, complex):
            return {"re": value.real, "im": value.imag}
        return value

    evidence = {
        key: {k: _plain(v) for k, v in info.items()}
        for key, info in ec.evidence.items()
    }
    return {
        "cond_i": ec.cond_i, "cond_ii": ec.cond_ii, "cond_iii": ec.cond_iii,
        "cond_iv": ec.cond_iv, "locally_active": ec.locally_active,
        "edge_of_chaos": ec.edge_of_chaos, "evidence": evidence,
    }
