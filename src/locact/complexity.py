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


def _real_part_on_axis_poly(num, den):
    """E(w) = Re(num(i w) conj(den(i w))) as ascending coefficients, so that
    Re Y(i w) = E(w) / |den(i w)|^2, and ``num = den`` gives |den(i w)|^2."""
    cn = np.asarray(num, dtype=complex) * 1j ** np.arange(len(num))
    cd = np.conj(np.asarray(den, dtype=complex) * 1j ** np.arange(len(den)))
    return np.real(npoly.polymul(cn, cd))


def _axis_exclusions(ps: PoleSet, on_axis_tol):
    wins = []
    for loc, _ in ps.poles:
        if abs(loc.real) <= on_axis_tol:
            radius = max(1e-8, 1e-6 * (1.0 + abs(loc.imag)))
            wins.append((abs(loc.imag), radius))
    return wins


def _coefficient_rows(polys):
    """Ascending coefficient tuples as the rows of one array, zero-padded at
    the high-degree end; a padded Horner step keeps :func:`_re_and_step` at
    its exact zero start for finite omega, so padding moves no bit."""
    rows = np.zeros((len(polys), max(len(p) for p in polys)))
    for row, p in zip(rows, polys):
        row[:len(p)] = p
    return rows


def _re_and_step(num, den, w):
    """Re Y(i w) and the Newton step of ``d/dw Re Y(i w) = -Im Y'(i w)``, one
    per row, from the values and first two derivatives of ``num`` and ``den``
    at ``i w`` by Horner.

    ``num`` and ``den`` hold ascending coefficients along their last axis and
    ``w`` one omega per row.  The value is numpy's ``polyval(1j*w, num) /
    polyval(1j*w, den)`` bit for bit, so each row's value and step are those
    of the row alone, wherever it sits in the array.
    """
    def taylor(coeffs):  # Horner with the first two derivatives
        p = dp = ddp = np.zeros_like(s)
        for a in np.asarray(coeffs, dtype=float).T[::-1]:  # highest degree first
            p, dp, ddp = p * s + a, dp * s + p, ddp * s + 2.0 * dp
        return p, dp, ddp

    with np.errstate(all="ignore"):
        s = 1j * np.asarray(w, dtype=float)
        (n0, n1, n2), (d0, d1, d2) = taylor(num), taylor(den)
        y0 = n0 / d0
        y1 = (n1 - y0 * d1) / d0  # num' = Y' den + Y den'
        y2 = (n2 - 2.0 * y1 * d1 - y0 * d2) / d0
        return y0.real, y1.imag / y2.real  # (-Im Y') / (-Re Y'')


def _axis_polys(num, den):
    """e and f with ``Re Y(i w) = e(w^2) / f(w^2)``, less any leading
    coefficient within the rounding of the products it sums, so that their
    degrees and leading coefficients give the exact limit at infinity."""
    out = []
    for a, b in ((num, den), (den, den)):
        c = _real_part_on_axis_poly(a, b)[0::2]
        noise = (len(a) + len(b)) * np.finfo(float).eps * \
            np.convolve(np.abs(a), np.abs(b))[0::2]
        keep = c.size
        while keep > 1 and abs(c[keep - 1]) <= noise[keep - 1]:
            keep -= 1
        out.append(c[:keep])
    return out


def _positive_real_roots(coeffs):
    """Real parts of the roots with positive real part, counting a root as
    real when its imaginary part is below 1e-6 of its modulus."""
    c = np.asarray(coeffs, dtype=float)
    with np.errstate(all="ignore"):
        while c.size > 1 and not np.isfinite(c / c[-1]).all():
            c = c[:-1]  # a zero or tiny lead: its roots lie past the float range
    r = npoly.polyroots(c) if c.size > 1 else np.array([])
    return np.sort(r.real[(r.real > 0.0) & (np.abs(r.imag) <= 1e-6 * np.abs(r))])


def _axis_candidates(rf, windows):
    """The candidate omegas of one row and the limit of Re Y(i w) at infinity.

    With ``x = w^2``, ``Re Y(i w) = e(x) / f(x)``.  The candidates are 0, the
    roots of e with the midpoints between them and a point past the last
    (together they sample every sign interval of e), the stationary points
    (the roots of ``e' f - e f'``) and the window edges, less any omega
    inside a window.
    """
    e, f = _axis_polys(rf.num, rf.den)
    w_e = np.sqrt(_positive_real_roots(e))
    w_s = np.sqrt(_positive_real_roots(
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


def min_real_on_axis(rf, on_axis_tol: float = 1e-7, cluster_tol: float = CLUSTER_TOL,
                     pole_sets=None):
    """Infimum of Re Y(i omega) over omega >= 0 outside the axis-pole windows
    (conjugate symmetry covers omega < 0), as ``(w*, v*)``.

    Re Y(i omega) is ``e(x)/f(x)`` in ``x = omega^2``, so its infimum is the
    least value over a finite candidate set (see :func:`_axis_candidates`)
    or its limit at infinity.  Each candidate is polished by four Newton steps
    on the slope, each kept only where Re Y does not increase and the step
    stays outside the windows.  When the exact limit at infinity, from the
    leading coefficients of e and f, lies below every candidate, the result
    is ``(inf, limit)``.  The windows (``|omega - c| <= r`` around each pole
    within ``on_axis_tol`` of the axis) are those of conditions (ii)-(iii).

    ``rf`` is one :class:`RationalFunction`, which gives ``(w*, v*)``, or a
    sequence of them, which gives a list of such pairs: one stack, the scalar
    call being the stack of one.  The candidates of all rows are polished in
    one flat array through :func:`_re_and_step`, whose values are numpy's
    complex evaluation element by element, so each row's result is bit for
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
    found = [_axis_candidates(r, excl) for r, excl in zip(rfs, exclusions)]
    row = np.repeat(np.arange(len(rfs)), [w.size for w, _ in found])
    w = np.concatenate([w for w, _ in found])
    num = _coefficient_rows([r.num for r in rfs])[row]
    den = _coefficient_rows([r.den for r in rfs])[row]
    windows = [(i, c, r) for i, excl in enumerate(exclusions) for c, r in excl]
    v, step = _re_and_step(num, den, w)
    with np.errstate(all="ignore"):
        for _ in range(4):
            trial = w - step
            v_trial, step_trial = _re_and_step(num, den, trial)
            ok = np.isfinite(v_trial) & (v_trial <= v) & (trial >= 0.0)
            for i, c, r in windows:
                ok &= (row != i) | (np.abs(trial - c) > r)
            if not ok.any():
                break  # a rejected step repeats itself
            w, v = np.where(ok, trial, w), np.where(ok, v_trial, v)
            step = np.where(ok, step_trial, step)
    v = np.where(np.isfinite(v), v, np.inf)
    order = np.lexsort((v, row))  # by row, then value; ties keep candidate order
    # every row has a candidate: 0, or the upper edge of its highest window
    best = order[np.searchsorted(row[order], np.arange(len(rfs)))]
    pairs = [(math.inf, float(limit)) if limit < v[k] else (float(w[k]), float(v[k]))
             for k, (_, limit) in zip(best, found)]
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
