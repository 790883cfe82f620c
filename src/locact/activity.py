"""Energy functionals, witness-signal construction and the activity decision.

The energy of an input u over a horizon T is ``W = int_0^T <x(t), P u(t)> dt``
for the zero-initial-state trajectory.  A system is locally active when some
continuous input makes W negative; a verified witness is such an input
together with quadrature evidence.  Passivity is certified through negative
semidefiniteness of the symmetric part of ``P A``, or of ``A`` for any P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import genericity, linsys, signals
from .errors import (
    EigpairMismatch,
    EigvecNotInImP,
    NonPositiveEigenvalue,
    NoPositiveSlopeFound,
    NotInGenericSet,
    NoUnstableEigenvalue,
    OverflowRisk,
    ScanExhausted,
)
from .serialize import Record

ACTIVE = "Active"
PASSIVE = "Passive"
INCONCLUSIVE = "Inconclusive"

SYM_A_CERT = "SymANegSemidef"
SYM_PA_CERT = "SymPANegSemidef"

MAX_QUAD_STEPS = 200_000
_SCAN_ENTRIES = 1 << 18  # horizon x eigenvalue terms per block of the two-pulse scan, at most


@dataclass(frozen=True)
class WitnessSearchConfig:
    """Knobs for the witness search; ``T_max = None`` means the scan horizon
    is derived from the spectral abscissa (200 / max(Re lambda, 0.1))."""

    T_max: Optional[float] = None
    T_scan_step: float = 0.05
    quad_steps_per_unit_time: int = 256
    cert_tol: float = 1e-9
    eigvec_in_imP_tol: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{f.name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class WitnessRecord(Record):
    signal: object
    T: float
    W: float
    quadrature_error_estimate: float


@dataclass(frozen=True)
class Certificate(Record):
    kind: str
    max_eig: float


@dataclass(frozen=True)
class ActivityVerdict(Record):
    status: str
    witness: Optional[WitnessRecord]
    certificate: Optional[Certificate]
    notes: str


@dataclass(frozen=True)
class GenericTwoPulseWitness(WitnessRecord):
    """Verified witness of the constructive instability-implies-activity
    search: the closed-form energy of the unsmoothed pulses rides along,
    outside the JSON."""

    closed_form_W: float = field(metadata={"json": False})


def default_quad_steps(T: float, cfg: Optional[WitnessSearchConfig] = None) -> int:
    per_unit = (cfg or WitnessSearchConfig()).quad_steps_per_unit_time
    if T * per_unit >= MAX_QUAD_STEPS:  # also where the product overflows
        return MAX_QUAD_STEPS
    return max(800, int(math.ceil(T * per_unit)))


def _resolved_steps(sig, cfg) -> int:
    """Step budget for a witness integration over the signal's horizon.

    Narrow windows are resolved by the integrator's split grid (the window
    edges are signal breakpoints with a per-segment floor), so the budget
    only needs to taper on very long horizons where the input is dead most
    of the time; each family tapers its own (``step_budget``).
    """
    steps = sig.step_budget(default_quad_steps(sig.T, cfg), cfg.quad_steps_per_unit_time)
    return min(MAX_QUAD_STEPS, max(800, steps))


def energy_integral(sys: linsys.LinearPortSystem, u, T: float,
                    steps: Optional[int] = None):
    """Energy ``W = int_0^T <x, P u> dt`` with a step-halving error estimate.

    The scalar integrand is integrated jointly with the state by the same
    RK4 scheme as ``solve_forced``; the estimate is the difference between
    the full- and half-step results (the half-step value is returned).
    """
    if steps is None:
        steps = default_quad_steps(T)
    W_coarse = linsys.forced_energy(sys, u, T, steps)
    W_fine = linsys.forced_energy(sys, u, T, 2 * steps)
    err = abs(W_fine - W_coarse) + 1e-15 * (1.0 + abs(W_fine))
    return W_fine, err


def _two_pulse_sums(lam, gh, sq, k, Ts):
    """Sums of the two-pulse energy of ``u = (a X_[0,1/k] + b X_[T-1/k,T]) e1``
    in port coordinates, for a diagonalizable spectrum without a zero
    eigenvalue and ``k >= 2/T``:

    ``W = sum_l gh_l [ sq/l^2 (e^{l/k}-1) + ab/l^2 e^{l(T-2/k)} (e^{l/k}-1)^2
          - sq/(k l) ] = const + a b osc``

    with ``gh_l = g_1l h_l1``, ``sq = a^2 + b^2`` and ``osc`` at each horizon
    of ``Ts``, in the dtype of the spectrum.  ``e^{lT} (1-e^{-l/k})^2``
    would overflow for a strongly stable mode, so ``osc`` uses
    ``e^{l(T-2/k)} (e^{l/k}-1)^2``."""
    ramp = np.exp(lam / k) - 1.0
    const = np.sum(gh * ((sq / lam**2) * ramp - sq / (k * lam)))
    coeff = gh / lam**2 * ramp**2
    osc = (np.exp(np.outer(np.asarray(Ts) - 2.0 / k, lam)) * coeff).sum(axis=1)
    return const, osc


def _check_eigenpair(sys, lam, v, scale, parts, tol):
    """Raise ``EigpairMismatch`` unless ``||A v - lam v|| <= SPEC_TOL (1 +
    ||A||) scale``, then ``EigvecNotInImP`` unless each vector of ``parts``
    lies in im P to within ``tol`` relative to its norm.

    ``A``, ``lam`` and the 1 are scaled down by one power of two, to
    ``max |A_ij| < 1``, so that ``||A||`` stays finite; the comparison is
    the unscaled one bit for bit wherever nothing over- or underflows."""
    f = math.ldexp(1.0, -max(0, math.frexp(float(np.abs(sys.A).max()))[1]))
    A = f * sys.A
    with np.errstate(over="ignore"):  # only a huge v overflows; inf rejects
        defect = np.linalg.norm(A @ v - (f * lam) * v)
    if defect > linsys.SPEC_TOL * (f + np.linalg.norm(A)) * scale:
        raise EigpairMismatch(f"||A v - lambda v|| = {float(defect) / f:.3e} too large")
    for part in parts:
        defect = np.linalg.norm(part - sys.P @ part)
        if defect > tol * np.linalg.norm(part):
            raise EigvecNotInImP(
                f"||(I-P)v|| = {defect:.3e} exceeds {tol:.1e} * ||v||"
            )


def real_eigen_signal(sys: linsys.LinearPortSystem, lam: float, v, T: float,
                      eigvec_in_imP_tol: float = 1e-8) -> signals.MollifierReal:
    """Witness signal ``u(t) = rho'(2t/T - 1) e^(lam t) v`` of a positive real
    eigenpair with eigenvector in im P; its energy is negative for every
    horizon T.  Raises ``OverflowRisk`` when ``lam * T > 300``."""
    if lam <= 0:
        raise NonPositiveEigenvalue(f"need lam > 0, got {lam}")
    if T <= 0:
        raise ValueError("T must be positive")
    if lam * T > 300.0:
        raise OverflowRisk("lam * T too large: e^(lam t) would overflow; shrink T")
    v = np.asarray(v, dtype=float).ravel()
    nv = np.linalg.norm(v)
    _check_eigenpair(sys, lam, v, nv, [v], eigvec_in_imP_tol)
    return signals.MollifierReal(lam=float(lam), v=v / nv, T=float(T))


def _rotation_slope_factor(v1, v2, alpha, beta, t):
    """q = 2 alpha w + w' with w(t) = |sin(beta t) v1 + cos(beta t) v2|^2.

    q has the sign of g' but carries no exponential, so the slope search is
    overflow-free.
    """
    n1 = float(v1 @ v1)
    n2 = float(v2 @ v2)
    cross = float(v1 @ v2)
    s = np.sin(2.0 * beta * t)
    c = np.cos(2.0 * beta * t)
    w = 0.5 * (n1 + n2) - 0.5 * (n1 - n2) * c + cross * s
    wp = beta * ((n1 - n2) * s + 2.0 * cross * c)
    return 2.0 * alpha * w + wp


def _longest_run(mask):
    """Inclusive bounds of the first longest run of True (one must exist)."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    starts, stops = edges[0::2], edges[1::2]
    j = int(np.argmax(stops - starts))
    return int(starts[j]), int(stops[j]) - 1


def complex_eigen_signal(sys: linsys.LinearPortSystem, alpha: float, beta: float,
                         v1, v2, eigvec_in_imP_tol: float = 1e-8,
                         ) -> signals.MollifierComplex:
    """Windowed witness signal of an unstable complex pair ``alpha + i beta``
    with both eigenvector parts in im P; its horizon is at least 1.

    Locates a time t0 where ``g(t) = e^(2 alpha t)|sin(beta t) v1 +
    cos(beta t) v2|^2`` has positive slope, picks a window half-width eps with
    g' > 0 throughout, and drives ``u(t) = h'(t) e^(alpha t)(sin(beta t) v1 +
    cos(beta t) v2)`` with ``h = rho((t - t0)/eps)``.
    """
    if alpha <= 0:
        raise NonPositiveEigenvalue(f"need alpha > 0, got {alpha}")
    if beta == 0:
        raise ValueError("beta must be nonzero (use real_eigen_signal)")
    v1 = np.asarray(v1, dtype=float).ravel()
    v2 = np.asarray(v2, dtype=float).ravel()
    scale = math.sqrt(float(v1 @ v1 + v2 @ v2))
    if scale == 0:
        raise EigpairMismatch("eigenvector is zero")
    v1 = v1 / scale
    v2 = v2 / scale
    # v1 + i v2 has unit norm
    _check_eigenpair(sys, alpha + 1j * beta, v1 + 1j * v2, 1.0, [v1, v2],
                     eigvec_in_imP_tol)

    # g(t + period) = e^(2 alpha period) g(t), so every period contains a
    # point of positive slope; the slope sign equals the sign of the
    # exponential-free factor q = 2 alpha w + w'
    period = 2.0 * math.pi / abs(beta)
    grid = np.linspace(0.0, period, 8193)
    q = _rotation_slope_factor(v1, v2, alpha, beta, grid)
    if float(q.max()) <= 0.0:
        raise NoPositiveSlopeFound(
            "no positive slope of g found; this indicates numerical degeneracy"
        )
    # center the window on the longest run of positive slope so the witness
    # energy is well separated from quadrature noise
    best_lo, best_hi = _longest_run(q > 0.0)
    t0 = float(grid[max(1, (best_lo + best_hi) // 2)])
    eps = 0.9 * min(t0 - grid[best_lo] if best_lo > 0 else t0,
                    grid[best_hi] - t0)
    if eps <= 0.0:
        eps = 0.5 * t0
    eps = min(eps, t0)
    # shrink until the slope is positive on a fine check grid in the window
    for _ in range(60):
        chk = np.linspace(t0 - eps, t0 + eps, 513)
        qc = _rotation_slope_factor(v1, v2, alpha, beta, chk)
        if np.all(qc > 0.0) and t0 - eps >= 0.0:
            break
        eps *= 0.8
    else:
        raise NoPositiveSlopeFound("could not isolate a positive-slope window")

    T = max(1.0, t0 + 2.0 * eps)
    if alpha * T > 300.0:
        T = t0 + 1.05 * eps  # minimum viable horizon before e^(alpha t) overflows
    return signals.MollifierComplex(alpha=float(alpha), beta=float(beta),
                                    v1=v1, v2=v2, t0=t0, eps=float(eps), T=T)


def _identity_ports(sys) -> bool:
    """Whether P is the identity, to within 1e-12 in each entry."""
    return bool(np.allclose(sys.P, np.eye(sys.n), atol=1e-12))


def _certificate(sys, identity, cert_tol, notes) -> Optional[Certificate]:
    """The passivity certificate of the system, or None: ``sym(PA) <= 0``
    for a symmetric P (dissipativity of A when P = I), otherwise, when P !=
    I, ``sym(A) <= 0``, which certifies any P.  A P that is not symmetric
    gets a note in ``notes``."""
    P = sys.P
    if np.linalg.norm(P - P.T) <= linsys.SYM_TOL * max(1.0, np.linalg.norm(P)):
        m = linsys.max_sym_eigenvalue(P @ sys.A)
        if m <= cert_tol:
            return Certificate(kind=SYM_A_CERT if identity else SYM_PA_CERT, max_eig=m)
    else:
        notes.append("P is not symmetric: passivity certificate not applicable")
    if not identity:  # for P = I, sym(PA) was sym(A) already
        m = linsys.max_sym_eigenvalue(sys.A)
        if m <= cert_tol:
            return Certificate(kind=SYM_A_CERT, max_eig=m)
    return None


def _scan_horizons(T_max, step):
    """The length of ``np.arange(2.0, T_max + step / 2, step)``, below 2**53
    (else ``ScanExhausted``), and a function that gives its horizons lo to
    hi - 1 bit for bit, ``2 + i d`` with arange's increment d."""
    span = (T_max + 0.5 * step - 2.0) / step
    if not span < 2.0**53:
        raise ScanExhausted(f"the horizon grid up to T_max = {T_max} has 2**53 points or more")
    count, d = math.ceil(span) if span > 0.0 else 0, (2.0 + step) - 2.0

    def horizons(lo, hi):
        return 2.0 + np.arange(lo, min(hi, count)) * d

    return count, horizons


def witness_two_pulse_generic(sys: linsys.LinearPortSystem,
                              cfg: Optional[WitnessSearchConfig] = None,
                              generic: Optional[genericity.GenericityReport] = None,
                              ) -> GenericTwoPulseWitness:
    """Constructive search: port transform, closed-form two-pulse energies
    for ``u = (a X_[0,1] + X_[T-1,T], 0, ..., 0)`` with a in {-1, +1}, horizon
    scan from 2 upward, then mollification and quadrature re-verification.

    Preconditions: P != 0, the port-transformed matrix lies in the generic
    set, and the spectral abscissa is positive.  ``generic`` is
    ``genericity.in_generic_M(sys)`` when the caller has it already.
    """
    cfg = cfg or WitnessSearchConfig()
    report = generic if generic is not None else genericity.in_generic_M(sys)
    if not report.in_M:
        raise NotInGenericSet(
            "port-transformed matrix fails the generic-set membership test: "
            + report.notes
        )
    spec = report.spectrum  # of the port-transformed matrix Q A Q^T
    lam = spec.eigenvalues
    max_re = float(lam.real.max())
    if max_re <= 0.0:
        raise NoUnstableEigenvalue(f"spectral abscissa {max_re:.3e} is not positive")

    # keep Re(lam) * T below the overflow threshold of exp; the scan always
    # terminates far earlier when it is going to terminate at all
    T_max = min(200.0 / max(max_re, 0.1) if cfg.T_max is None else cfg.T_max,
                500.0 / max_re)
    count, horizons = _scan_horizons(T_max, cfg.T_scan_step)
    # mollification needs strictly separated smoothed pulses, so candidates
    # keep a small gap between the pulse ends (k = 1: T > 2)
    if count == 0 or horizons(count - 1, count)[0] < 2.0 + 0.04:
        raise ScanExhausted(
            f"no mollifiable horizon T >= 2.04 up to T_max = {T_max}"
        )
    gh = spec.G[0, :] * spec.H[:, 0]
    cap = max(1, _SCAN_ENTRIES // lam.size)  # horizons per block

    def energies(ts):  # rows: a = -1, +1; no energy depends on another horizon
        const, osc = _two_pulse_sums(lam, gh, 2.0, 1.0, ts)
        return const.real, np.stack([const.real - osc.real, const.real + osc.real])

    # blocks of 256 horizons, each next 4 times the last (at most cap), up to the first hit
    lo, size = 0, min(256, cap)
    while lo < count:
        ts = horizons(lo, lo + size)
        eta, cands = energies(ts)
        hits = (cands < -1e-13 * (1.0 + abs(eta))).any(axis=0) & (ts >= 2.0 + 0.04)
        if hits.any():
            break
        lo, size = lo + size, min(4 * size, cap)
    else:
        raise ScanExhausted(f"no negative closed-form energy up to T_max = {T_max}")
    # the first hit can be barely negative (the start of a negativity well);
    # a short lookahead picks the bottom of that well, which keeps the sign
    # robust under mollification
    hit = lo + int(np.argmax(hits))
    end = min(hit + int(math.ceil(2.0 / cfg.T_scan_step)) + 1, count)
    values, cols = [], []  # each block's first minimum per a, and its horizon index
    for start in range(hit, end, cap):
        _, window = energies(horizons(start, min(start + cap, end)))
        cols.append(start + np.argmin(window, axis=1))
        values.append(window[(0, 1), cols[-1] - start])
    # the first of these in (a, T) order is np.argmin's over the whole lookahead
    row, block = divmod(int(np.argmin(np.transpose(values))), len(values))
    a, idx, W_closed = (-1.0, 1.0)[row], int(cols[block][row]), float(values[block][row])
    T = float(horizons(idx, idx + 1)[0])

    direction = report.Q.T[:, 0]
    base = signals.TwoPulse(a=a, b=1.0, k=1.0, T=T, direction=direction)
    eps_s = min(0.1, (T - 2.0) / 4.0)
    sign_valid = None
    for _ in range(7):
        smooth = signals.MollifiedTwoPulse(base=base, eps_s=eps_s)
        rec = _verified_record(sys, smooth, _resolved_steps(smooth, cfg))
        if rec is not None:
            witness = GenericTwoPulseWitness(**vars(rec), closed_form_W=W_closed)
            # halving continues until the smoothing bias is small against the
            # closed form; the verified sign alone is acceptable as fallback
            if abs(rec.W - W_closed) <= 0.04 * (1.0 + abs(W_closed)):
                return witness
            sign_valid = witness
        eps_s *= 0.5
    if sign_valid is not None:
        return sign_valid
    raise ScanExhausted(f"mollified signal lost the sign of W at T = {T}")


def _verified_record(sys, sig, steps) -> Optional[WitnessRecord]:
    """Integrate a candidate witness over its horizon on ``steps``; accept
    it only if W is negative beyond the quadrature error estimate.  This is
    the one place where a witness is accepted."""
    W, err = energy_integral(sys, sig, sig.T, steps)
    if W < -err:
        return WitnessRecord(signal=sig, T=sig.T, W=W, quadrature_error_estimate=err)
    return None


def _candidates(sys, spec, cfg, identity, cert, generic, notes):
    """Yield ``(candidate, note)`` for each witness route, in the order they
    are tried: a signal to verify, or a verified ``WitnessRecord``.  Routes
    that run append their informational notes to ``notes``.

    The routes are the eigenpair witnesses of every sufficiently unstable
    mode whose eigenvector sits in im P; then, for P = I, the trajectory bump
    at ``T = min(1, 1/||A||_2)`` and at ``T = 1/||A||_2``; otherwise the
    two-pulse search and, under a band certificate, the bump
    ``rho'(2t - 1) w`` on T = 1, w the top eigenvector of ``sym(PAP)``.
    """
    lam = spec.eigenvalues
    for i in range(lam.size):
        l, v = lam[i], spec.G[:, i]
        if l.real <= 1e-8:
            continue
        try:
            if abs(l.imag) <= 1e-10:
                vr = v.real if np.linalg.norm(v.real) > np.linalg.norm(v.imag) else v.imag
                # keep lam * T at most 100, far below the overflow guard
                sig = real_eigen_signal(sys, float(l.real), vr,
                                        min(1.0, 100.0 / float(l.real)),
                                        cfg.eigvec_in_imP_tol)
                note = f"witness: real eigenpair lam={l.real:.6g}"
            elif l.imag > 0 and 2.0 * math.pi / l.imag <= 120.0:
                # a near-real pair is skipped: its rotation period makes the
                # windowed witness unaffordable; later routes cover it
                sig = complex_eigen_signal(sys, float(l.real), float(l.imag),
                                           v.real, v.imag, cfg.eigvec_in_imP_tol)
                note = f"witness: complex pair {l.real:.6g} +/- {l.imag:.6g}i"
            else:
                continue
        except (EigpairMismatch, EigvecNotInImP, NonPositiveEigenvalue,
                NoPositiveSlopeFound):
            continue
        yield sig, note

    if identity:
        # A + A^T has a positive eigenvalue m here (the certificate failed), so
        # the system is active: the input that moves the state along
        # x = rho(2t/T - 1) w, w the top eigenvector, has W = -m (T/2) int rho^2
        # exactly; with T = 1/||A||, W is unchanged when A is scaled
        m, w = linsys.top_sym_eigenpair(sys.A)
        notes.append(f"max sym eigenvalue {m:.6g} > 0")
        horizon = 1.0 / float(np.linalg.norm(sys.A, 2))
        # T = 1 first; where |W| at T = 1 drowns in the error floor of a tiny
        # A, T = 1/||A|| gives the W of the rescaled system, wherever it is
        # finite
        retry = (horizon,) if 1.0 < horizon < math.inf else ()
        for T in (min(1.0, horizon),) + retry:
            yield (signals.MollifierTrajectory(v=w, Av=sys.A @ w, T=T),
                   f"witness: quadratic-form bump trajectory, T={T:.6g}")
        return

    try:
        gw = witness_two_pulse_generic(sys, cfg, generic)
    except (NotInGenericSet, NoUnstableEigenvalue, ScanExhausted) as exc:
        notes.append(f"two-pulse search: {type(exc).__name__}: {exc}")
    else:
        yield gw, (f"witness: generic two-pulse scan (a={gw.signal.base.a:+.0f}, "
                   f"T={gw.T:.4g})")

    if cert is not None:
        # a band certificate: before accepting it, drive the bump
        # rho'(2t - 1) w along the top eigenvector w of sym(PAP); an oblique
        # P can be large enough for PAP to overflow
        PAP = sys.P @ sys.A @ sys.P
        if np.isfinite(PAP).all():
            m, w = linsys.top_sym_eigenpair(PAP)
            yield (signals.MollifierReal(lam=0.0, v=w, T=1.0),
                   f"witness: bump along the top eigenvector of sym(PAP) "
                   f"(eigenvalue {m:.6g}), T=1")


def classify_activity(sys: linsys.LinearPortSystem,
                      cfg: Optional[WitnessSearchConfig] = None,
                      generic: Optional[genericity.GenericityReport] = None,
                      ) -> ActivityVerdict:
    """Decide Active / Passive / Inconclusive and attach evidence.

    For P = I the decision is exact: active iff the symmetric part of A has a
    positive eigenvalue.  For P != I the semidefinite certificates are
    sufficient for passivity only, and the witness routes of ``_candidates``
    are sufficient for activity only; when neither fires the honest verdict
    is Inconclusive.  Where the ``sym(PA)`` certificate is absent (P oblique,
    or ``sym(PA)`` indefinite), ``sym(A) <= 0`` certifies any P, since ``W =
    |x(T)|^2 / 2 - int x^T sym(A) x dt``.  A certificate whose max eigenvalue
    is positive beyond rounding (``8 n eps ||P|| ||A||``, without ``||P||``
    for ``sym(A)``) but within ``cert_tol`` is returned only when no witness
    route verifies.  ``generic`` is ``genericity.in_generic_M(sys)`` when the
    caller has it already; the two-pulse route then reuses it.
    """
    cfg = cfg or WitnessSearchConfig()
    notes = []
    identity = _identity_ports(sys)
    cert = _certificate(sys, identity, cfg.cert_tol, notes)
    if cert is not None:
        sym_a = cert.kind == SYM_A_CERT
        label = "dissipativity of A" if sym_a else "sym(PA) <= 0"
        cert_note = f"passivity certificate via {label} (max eig {cert.max_eig:.6g})"
        # beyond rounding, only a failed witness search makes it a certificate
        rounding = 8.0 * sys.n * np.finfo(float).eps \
            * (1.0 if sym_a else np.linalg.norm(sys.P, 2)) * np.linalg.norm(sys.A, 2)
        if cert.max_eig <= rounding:
            return ActivityVerdict(status=PASSIVE, witness=None,
                                   certificate=cert, notes=cert_note)

    spec = linsys.spectrum(sys.A)
    for cand, note in _candidates(sys, spec, cfg, identity, cert, generic, notes):
        rec = cand if isinstance(cand, WitnessRecord) else _verified_record(
            sys, cand, min(MAX_QUAD_STEPS, 2 * _resolved_steps(cand, cfg)))
        if rec is not None:
            notes.append(note)
            return ActivityVerdict(status=ACTIVE, witness=rec, certificate=None,
                                   notes="; ".join(notes))
    if cert is not None:
        return ActivityVerdict(
            status=PASSIVE, witness=None, certificate=cert,
            notes=f"{cert_note}; it exceeds the rounding bound "
                  f"{rounding:.3g}, but no witness verified",
        )
    return ActivityVerdict(
        status=INCONCLUSIVE, witness=None, certificate=None,
        notes="; ".join(notes) if notes else
        "no certificate applies and no witness was found",
    )
