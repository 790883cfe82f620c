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

from .errors import ConvergenceFailure, NonFiniteEntry, NonFiniteEvaluation
from .serialize import Record

COEFF_TOL = 1e-12
CLUSTER_TOL = 1e-7
_EPS = np.finfo(float).eps


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
class RationalFunction(Record):
    """Real-coefficient rational function, coefficients in ascending degree.

    Build through :func:`make_rational`, which trims negligible leading
    coefficients and cancels common root pairs; cancelled roots are recorded,
    outside the JSON.
    """

    num: tuple
    den: tuple
    cancelled: tuple = field(default=(), metadata={"json": False})

    def __call__(self, s):
        return npoly.polyval(s, np.asarray(self.num)) / \
            npoly.polyval(s, np.asarray(self.den))


@dataclass(frozen=True)
class PoleSet:
    poles: tuple  # of (location: complex, multiplicity: int)


@dataclass(frozen=True)
class EdgeClassification(Record):
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    cond_iv: bool
    locally_active: bool
    edge_of_chaos: bool
    evidence: dict = field(default_factory=dict)


def _coefficient_rows(polys):
    """Ascending coefficient sequences as the rows of one array, zero-padded
    at the high-degree end.  Padding moves no bit: a polynomial's roots and
    products ignore trailing zeros, and a padded Horner step keeps
    :func:`_re_and_step` at its exact zero start for finite omega."""
    rows = np.zeros((len(polys), max([1] + [len(p) for p in polys])))
    for row, p in zip(rows, polys):
        row[:len(p)] = p
    return rows


def _companion_roots(q):
    """Eigenvalues of the companion matrices of the rows of ``q``, the
    finite ratios ``c[:-1] / c[-1]`` of polynomials of one degree, each row
    sorted as ``npoly.polyroots`` sorts it.  Raises ``ConvergenceFailure``
    when the stacked ``eigvals`` fails."""
    k, d = q.shape
    mat = np.zeros((k, d, d))
    mat.reshape(k, d * d)[:, d::d + 1] = 1.0  # the subdiagonal
    mat[:, :, -1] -= q
    try:
        w = np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"companion matrix eigenvalues: {exc}") from exc
    # the stack comes back real only when every row is; a row alone is real
    # when its own roots are
    real = (~w.imag.any(axis=1)).tolist()
    return [r if ok else c for r, c, ok in
            zip(np.sort(w.real, axis=1), np.sort(w, axis=1), real)]


def _roots(c, length=None):
    """The roots of each row of ``c`` (ascending coefficients, zero-padded),
    each bit for bit ``npoly.polyroots`` of that row alone, in its order and
    dtype.

    The rows are grouped by their length less trailing zeros, or by
    ``length`` when the caller gives it (a row's entries past its length are
    then ignored).  A row of length 2 gives ``-c0/c1``; the
    companion matrices of a longer group form one ``(k, d, d)`` array with
    one ``np.linalg.eigvals`` call.  Returns a list with one entry per row.
    A row whose companion matrix is not finite raises ``NonFiniteEntry``,
    and a group whose ``eigvals`` fails ``ConvergenceFailure``; the groups
    are taken in the order of their first rows.
    """
    if length is None:
        length = _lengths(c != 0.0)
    groups = {}
    for i, n in enumerate(length.tolist()):
        groups.setdefault(n, []).append(i)
    out = [None] * len(c)
    with np.errstate(all="ignore"):
        for n, rows in groups.items():
            block = c[rows]
            if n < 2:
                found = [np.empty(0) for _ in rows]
            elif n == 2:
                found = list((-block[:, 0] / block[:, 1])[:, None])
            else:
                q = block[:, :n - 1] / block[:, n - 1:n]
                bad = np.flatnonzero(~np.isfinite(q).all(axis=1))
                if bad.size:
                    raise NonFiniteEntry(f"polynomial {block[bad[0], :n].tolist()} "
                                         "has a non-finite companion matrix")
                found = _companion_roots(q)
            for i, r in zip(rows, found):
                out[i] = r
    return out


def _lengths(keep):
    """Per row, one past the last True of ``keep``, and at least 1.  The
    first column of ``keep`` is set in place."""
    keep[:, 0] = True
    return keep.shape[1] - keep[:, ::-1].argmax(axis=1)


def _real_poly_from_roots(roots, lead):
    c = npoly.polyfromroots(np.asarray(roots, dtype=complex))
    return np.real(c) * float(lead)


def _reduced(num, den, nroots, droots):
    """``num / den`` (lists) less the common root pairs within
    ``CLUSTER_TOL``."""
    cancelled = []
    kept_d = []
    for dr in droots:
        hit = next((i for i, nr in enumerate(nroots)
                    if abs(nr - dr) <= CLUSTER_TOL * max(1.0, abs(dr))), None)
        if hit is None:
            kept_d.append(dr)
        else:
            cancelled.append(complex(dr))
            del nroots[hit]
    if cancelled:
        num = _real_poly_from_roots(nroots, num[-1]).tolist()
        den = _real_poly_from_roots(kept_d, den[-1]).tolist()
    return RationalFunction(num=tuple(num), den=tuple(den), cancelled=tuple(cancelled))


def make_rational(num, den):
    """Construct a reduced rational function from ascending coefficients.

    Trailing coefficients within ``COEFF_TOL`` of the largest are dropped,
    and common numerator/denominator roots within ``CLUSTER_TOL`` of each
    other are cancelled pairwise and recorded in ``cancelled``.  A
    non-finite coefficient raises ``NonFiniteEntry``, an identically zero
    denominator ``ValueError``.

    ``num`` and ``den`` are one coefficient sequence each, which gives a
    :class:`RationalFunction`, or rows of them (2-D arrays, or sequences of
    sequences), which gives a list with one entry per row, bit for bit the
    row alone.  A stack raises the error of a failing row: a non-finite
    row first, then a zero denominator, then a root failure.  Only the rows
    with a root above and below are rooted, all by one :func:`_roots` call.
    """
    single = np.ndim(num) < 2 if isinstance(num, np.ndarray) else \
        not (len(num) and np.ndim(num[0]))
    if single:
        num, den = [np.ravel(num)], [np.ravel(den)]
    k = len(num)
    c = _coefficient_rows([*num, *den])  # the numerators, then the denominators
    a = np.abs(c)
    scale = a.max(axis=1, keepdims=True)  # not finite where the row is not
    finite = np.isfinite(scale[:, 0])
    if not finite.all():
        i = np.flatnonzero(~(finite[:k] & finite[k:]))[0]
        w = max(np.size(num[i]), np.size(den[i]))  # padded as the row alone
        raise NonFiniteEntry(f"coefficients must be finite, got num={c[i, :w].tolist()}, "
                             f"den={c[k + i, :w].tolist()}")
    length = _lengths(~(a <= COEFF_TOL * scale))
    rows = [r[:n] for r, n in zip(c.tolist(), length.tolist())]
    if [0.0] in rows[k:]:
        raise ValueError("denominator is identically zero")
    both = [i for i in range(k) if len(rows[i]) > 1 and len(rows[k + i]) > 1]
    pick = both + [k + i for i in both]
    roots = [[] for _ in rows]
    for i, r in zip(pick, _roots(c[pick], length[pick])):
        roots[i] = r.tolist()
    # a zero numerator is +0, whatever its sign
    out = [_reduced([0.0] if n == [0.0] else n, d, roots[i], roots[k + i])
           for i, (n, d) in enumerate(zip(rows[:k], rows[k:]))]
    return out[0] if single else out


def poles(rf, cluster_tol: float = CLUSTER_TOL):
    """Denominator roots (companion-matrix eigenvalues) clustered into
    multiplicities at pairwise distance ``cluster_tol``.

    ``rf`` is one :class:`RationalFunction`, which gives its
    :class:`PoleSet`, or a sequence of them, which gives a list with one
    entry per row.  The denominators of all rows are rooted by one
    :func:`_roots` call, each row bit for bit the row alone; a stack raises
    the root-finding error of a failing row.
    """
    single = isinstance(rf, RationalFunction)
    rfs = [rf] if single else list(rf)
    out = []
    for roots in _roots(_coefficient_rows([r.den for r in rfs])):
        clusters = []  # list of [sum, count]
        for r in np.sort_complex(roots):
            for c in clusters:
                if abs(r - c[0] / c[1]) <= cluster_tol * max(1.0, abs(r)):
                    c[0] += r
                    c[1] += 1
                    break
            else:
                clusters.append([r, 1])
        out.append(PoleSet(poles=tuple((complex(s / m), int(m)) for s, m in clusters)))
    return out[0] if single else out


def _residue(rf, p):
    """``num(p) / den'(p)``, the residue of ``rf`` at a simple pole p.

    It is taken on the rows scaled by ``_normalized`` and scaled back, which
    is the unscaled quotient bit for bit wherever that neither overflows nor
    underflows.  An infinite residue keeps its sign; a NaN one raises
    ``NonFiniteEvaluation``.
    """
    (num,), (n_exp,) = _normalized(np.asarray(rf.num, dtype=float)[None])
    (den,), (d_exp,) = _normalized(np.asarray(rf.den, dtype=float)[None])
    dden = np.arange(1, den.size) * den[1:]
    with np.errstate(over="ignore", invalid="ignore"):  # NaN raises below
        q = npoly.polyval(p, num) / npoly.polyval(p, dden)
        res = complex(*np.ldexp([q.real, q.imag], n_exp - d_exp))
    if math.isnan(res.real) or math.isnan(res.imag):
        raise NonFiniteEvaluation(f"the residue at the pole {p} is not a number")
    return res


def _axis_exclusions(ps: PoleSet, on_axis_tol):
    wins = []
    for loc, _ in ps.poles:
        if abs(loc.real) <= on_axis_tol:
            radius = max(1e-8, 1e-6 * (1.0 + abs(loc.imag)))
            wins.append((abs(loc.imag), radius))
    return wins


def _outside_windows(row, w, windows):
    """Where ``|w - c| > r`` for every window ``(c, r)`` of ``windows[row]``."""
    keep = np.ones(w.shape, dtype=bool)
    for i, wins in enumerate(windows):
        for c, r in wins:
            keep &= (row != i) | (np.abs(w - c) > r)
    return keep


def _normalized(rows):
    """The rows scaled by powers of two to a largest ``|entry|`` in [0.5, 1),
    and each row's exponent.  Exact where nothing over- or underflows, so
    the products of two rows change by a power of two and cannot overflow."""
    exponent = np.frexp(np.abs(rows).max(axis=1))[1]
    return np.ldexp(rows, -exponent[:, None]), exponent


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


def _convolve_rows(a, b, sign=1.0):
    """Products of the polynomials in the rows of ``a`` and ``b``, each term
    ``a_j b_l`` times ``sign[j, l]``, each coefficient summed in ascending
    order of j.  The zero padding of a row adds only exact zeros, so a
    row's product does not depend on the stack around it."""
    j, l = np.arange(a.shape[1])[:, None], np.arange(b.shape[1])
    terms = np.zeros((len(a), a.shape[1], a.shape[1] + b.shape[1] - 1))
    terms[:, j, j + l] = a[:, :, None] * b[:, None, :] * sign
    return terms.sum(axis=1)  # row by row over j


def _axis_polys(num, den, size):
    """e and f of each row, with ``Re Y(i w) = e(w^2) / f(w^2)``, stacked as
    the rows of one array (e, then f), and their lengths.

    ``num`` and ``den`` hold the rows' coefficients, and ``size`` the
    ``len(a) + len(b)`` of each product: ``len(num) + len(den)`` for e, then
    ``2 len(den)`` for f.  e and f are the even coefficients of
    ``Re(num(i w) conj(den(i w)))`` and of ``|den(i w)|^2``.  Each drops a
    leading coefficient within the rounding of the products it sums
    (``(len(a) + len(b)) eps sum |a_j||b_l|``), so that their lengths and
    leading coefficients give the exact limit at infinity; entries past a
    row's length are zero.  The terms are signed by ``Re(i^j conj(i^l)) =
    cos(pi (j - l) / 2)``.
    """
    k = len(num)
    a = np.zeros((2 * k, max(num.shape[1], den.shape[1])))
    a[:k, :num.shape[1]] = num
    a[k:, :den.shape[1]] = den
    b = np.concatenate([den, den])
    sign = np.array([1.0, 0.0, -1.0, 0.0])[
        (np.arange(a.shape[1])[:, None] - np.arange(b.shape[1])) % 4]
    c = _convolve_rows(a, b, sign)[:, 0::2]
    noise = (size * _EPS)[:, None] * _convolve_rows(np.abs(a), np.abs(b))[:, 0::2]
    length = _lengths(~(np.abs(c) <= noise))
    c[np.arange(c.shape[1]) >= length[:, None]] = 0.0
    return c, length


def _positive_real_roots(c):
    """The roots with positive real part of each row of ``c``, counting a
    root as real when its imaginary part is below 1e-6 of its modulus, as
    flat arrays ``(row, x)`` sorted by row and then by the real part ``x``.

    A row first drops leading coefficients while its ratios to the lead are
    not all finite: the roots of a zero or tiny lead lie past the float
    range.  The ratios to ``c[n - 1]`` are all finite exactly when the
    largest ``|c[:n]|`` over ``|c[n - 1]|`` is.
    """
    a = np.abs(c)
    with np.errstate(all="ignore"):
        length = _lengths(np.isfinite(np.maximum.accumulate(a, axis=1) / a))
    found = _roots(c, length)
    row = np.repeat(np.arange(len(c)), [r.size for r in found])
    r = np.concatenate(found + [np.empty(0, dtype=complex)])
    keep = (r.real > 0.0) & (np.abs(r.imag) <= 1e-6 * np.abs(r))
    row, x = row[keep], r.real[keep]
    order = np.lexsort((x, row))
    return row[order], x[order]


def _axis_candidates(windows, num, den, size):
    """The candidate omegas of each row and the limit of Re Y(i w) at
    infinity, for a stack of rationals given by their axis windows, their
    coefficient rows ``num`` and ``den`` scaled by :func:`_normalized`, and
    the sizes of their axis products (see :func:`_axis_polys`).

    With ``x = w^2``, ``Re Y(i w) = e(x) / f(x)``.  The candidates of a row
    are 0, the roots of e with the midpoints between them and a point past
    the last (together they sample every sign interval of e), the stationary
    points (the roots of ``e' f - e f'``) and the window edges, in that
    order, less any omega inside a window.  The polynomials of all rows are
    stacked arrays, and e and the stationary polynomial of every row are
    rooted by one :func:`_roots` call.

    Returns the flat arrays ``(row, w)``, which keep the candidates of each
    row in that order, and the limit of each row in the units of the scaled
    rows.
    """
    k = len(num)
    with np.errstate(all="ignore"):
        ef, length = _axis_polys(num, den, size)
        slope = np.zeros_like(ef)
        slope[:, :-1] = np.arange(1, ef.shape[1]) * ef[:, 1:]
        # e' f and e f', as one stack
        products = _convolve_rows(np.concatenate([slope[:k], ef[:k]]),
                                  np.concatenate([ef[k:], slope[k:]]))
        lead = ef[np.arange(2 * k), length - 1]
        e_len, f_len = length[:k], length[k:]
        limit = np.where(e_len == f_len, lead[:k] / lead[k:],
                         np.where(e_len > f_len, np.copysign(np.inf, lead[:k]), 0.0))
    polys = np.zeros((2 * k, products.shape[1]))
    polys[:k, :ef.shape[1]] = ef[:k]
    polys[k:] = products[:k] - products[k:]
    row, x = _positive_real_roots(polys)
    w = np.sqrt(x)
    of_e = row < k
    row_e, w_e = row[of_e], w[of_e]
    last = np.ones(row_e.size, dtype=bool)  # the last root of e in its row
    last[:-1] = row_e[1:] != row_e[:-1]
    inner = ~last[:-1]
    edges = [(i, x) for i, wins in enumerate(windows) for c, r in wins
             for x in (c - 1.5 * r, c + 1.5 * r)]
    row = np.concatenate([np.arange(k), row_e, row_e[:-1][inner], row_e[last],
                          row[~of_e] - k, np.array([i for i, _ in edges], dtype=int)])
    w = np.concatenate([np.zeros(k), w_e, (w_e[:-1] + w_e[1:])[inner] / 2.0,
                        2.0 * w_e[last], w[~of_e], np.array([x for _, x in edges])])
    keep = np.isfinite(w) & (w >= 0.0) & _outside_windows(row, w, windows)
    return row[keep], w[keep], limit


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
    Each row is evaluated on its ``num`` and ``den`` scaled by powers of two
    (:func:`_normalized`), and ``v*`` is scaled back.

    ``rf`` is one :class:`RationalFunction`, which gives ``(w*, v*)``, or a
    sequence of them, which gives a list with one pair per row; a stack
    raises the root-finding error of a failing row.  The candidates of all
    rows are polished in one flat array through :func:`_re_and_step`, whose
    values are numpy's complex evaluation element by element, so each row's
    result is bit for bit that of the row alone, wherever it sits in the
    stack.  ``pole_sets`` (the poles of each row at ``cluster_tol``) spares
    a caller that has them a second root finding.
    """
    single = isinstance(rf, RationalFunction)
    rfs = [rf] if single else list(rf)
    if not rfs:
        return []
    if pole_sets is None:
        pole_sets = poles(rfs, cluster_tol=cluster_tol)
    exclusions = [_axis_exclusions(ps, on_axis_tol) for ps in pole_sets]
    num, n_exp = _normalized(_coefficient_rows([r.num for r in rfs]))
    den, d_exp = _normalized(_coefficient_rows([r.den for r in rfs]))
    d_len = np.array([len(r.den) for r in rfs])
    size = np.concatenate([np.array([len(r.num) for r in rfs]) + d_len, 2 * d_len])
    row, w, limits = _axis_candidates(exclusions, num, den, size)
    num, den = num[row], den[row]
    v, step = _re_and_step(num, den, w)
    with np.errstate(all="ignore"):
        for _ in range(4):
            trial = w - step
            v_trial, step_trial = _re_and_step(num, den, trial)
            ok = np.isfinite(v_trial) & (v_trial <= v) & (trial >= 0.0) & \
                _outside_windows(row, trial, exclusions)
            if not ok.any():
                break  # a rejected step repeats itself
            w, v = np.where(ok, trial, w), np.where(ok, v_trial, v)
            step = np.where(ok, step_trial, step)
        v = np.where(np.isfinite(v), v, np.inf)
        order = np.lexsort((v, row))  # by row, then value; ties keep candidate order
        # every row has a candidate: 0, or the upper edge of its highest window
        best = order[np.searchsorted(row[order], np.arange(len(rfs)))]
        below = limits < v[best]  # both in the units of the scaled rows
        w_best = np.where(below, np.inf, w[best])
        v_best = np.ldexp(np.where(below, limits, v[best]), n_exp - d_exp)
    pairs = list(zip(w_best.tolist(), v_best.tolist()))
    return pairs[0] if single else pairs


def _pole_conditions(rf, ps, tols):
    """Conditions (i)-(iii) from the pole set ``ps`` of ``rf``: the three
    flags and their evidence."""
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
        res = _residue(rf, loc)
        bad = abs(res.imag) > tols.resid_tol or res.real < -tols.resid_tol
        if bad:
            cond_iii = True
            evidence["iii"] = {"pole": loc, "residue": res}
            break
    return cond_i, cond_ii, cond_iii, evidence


def edge_of_chaos_classify(rf, tols: Optional[ClassifierTolerances] = None):
    """Evaluate the four local-activity conditions and the edge-of-chaos flag.

    ``rf`` is one :class:`RationalFunction`, which gives its
    :class:`EdgeClassification`, or a sequence of them, classified as one
    stack: one :func:`poles` and one :func:`min_real_on_axis` call, which
    gives a list with one entry per row, each bit for bit the row alone.  A
    stack raises the error of a failing row: conditions (i)-(iii) are taken
    for every row before the axis scan.
    """
    tols = tols or ClassifierTolerances()
    single = isinstance(rf, RationalFunction)
    rfs = [rf] if single else list(rf)
    pole_sets = poles(rfs, cluster_tol=tols.cluster_tol)
    conditions = [_pole_conditions(r, ps, tols) for r, ps in zip(rfs, pole_sets)]
    minima = min_real_on_axis(rfs, on_axis_tol=tols.on_axis_tol,
                              cluster_tol=tols.cluster_tol, pole_sets=pole_sets)
    results = []
    for (cond_i, cond_ii, cond_iii, evidence), (w_star, v_star) in zip(conditions, minima):
        cond_iv = v_star < -tols.axis_val_tol
        evidence["iv"] = {"omega": w_star, "re_Y": v_star}
        results.append(EdgeClassification(
            cond_i=cond_i, cond_ii=cond_ii, cond_iii=cond_iii, cond_iv=cond_iv,
            locally_active=cond_i or cond_ii or cond_iii or cond_iv,
            edge_of_chaos=cond_iv and not (cond_i or cond_ii or cond_iii),
            evidence=evidence,
        ))
    return results[0] if single else results


def one_port_rational(J):
    """Complexity function ``Y(s) = det(sI - J) / det(sI - J_22) = (s^2 -
    tr J s + det J) / (s - J_22)`` of the 2x2 matrix ``J`` whose port is the
    first state: one :class:`RationalFunction`, or for a ``(k, 2, 2)`` stack
    the stack of :func:`make_rational`, one entry per matrix.  A matrix
    whose coefficients overflow raises ``NonFiniteEntry``."""
    J = np.asarray(J, dtype=float)
    num, den = np.ones(J.shape[:-2] + (3,)), np.ones(J.shape[:-2] + (2,))
    # p = -J_11 written 0 - J_11, so that a zero entry gives +0, the sign of
    # the zero of a difference x - x; q = -J_22 keeps the sign of a zero
    p, q = 0.0 - J[..., 0, 0], -J[..., 1, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        num[..., 0] = p * q - J[..., 0, 1] * J[..., 1, 0]
        num[..., 1] = p + q
    den[..., 0] = q
    return make_rational(num, den)
