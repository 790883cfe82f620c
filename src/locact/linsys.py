"""Core linear-algebra services for port systems ``x'(t) = A x(t) + P u(t)``.

Construction and validation of (A, P) pairs, dense eigendecomposition with a
deterministic eigenvalue ordering, matrix exponentials, and forced-trajectory
integration on [0, T] with the initial state pinned at the origin.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonFiniteEntry,
    NotAProjection,
    OverflowRisk,
    SignalDomainError,
)
from . import signals as _sig
from .signals import _DOMAIN_SLACK, _frozen

# Tolerances; only make_system's proj_tol overrides one (PROJ_TOL).
PROJ_TOL = 1e-10
SPEC_TOL = 1e-8
SYM_TOL = 1e-12
EXP_TOL = 1e-12  # relative accuracy expected of matrix_exponential


def _as_square_matrix(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NonFiniteEntry(f"{name} contains non-finite entries")
    return M


@dataclass(frozen=True)
class LinearPortSystem:
    """A pair (A, P) of a system matrix and a projection onto the ports."""

    A: np.ndarray
    P: np.ndarray
    n: int


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a real matrix.

    ``eigenvalues`` are LAPACK's, sorted by descending real part, ties by
    descending imaginary part; each non-real one has its exact conjugate,
    with the conjugate eigenvector column, though an eigenvalue of the same
    real part can sort between the two.  ``G`` holds eigenvectors as
    columns and ``H = G^{-1}``; both are populated even in the
    repeated-eigenvalue case (via a pseudo-inverse fallback) but
    ``diagonalizable`` is only set when the minimum eigenvalue gap exceeds
    the tolerance and the reconstruction ``G diag(lambda) H`` matches the
    input.
    """

    eigenvalues: np.ndarray
    G: np.ndarray
    H: np.ndarray
    diagonalizable: bool
    min_gap: float


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    T: float


def make_system(A, P, proj_tol: float = PROJ_TOL) -> LinearPortSystem:
    """Validate and build a port system from a system matrix and a projection.

    Raises ``DimensionMismatch``, ``NonFiniteEntry``, ``OverflowRisk`` when
    ``8 ||A||_2`` exceeds the float range, or ``NotAProjection`` when ``P @ P``
    differs from ``P`` by more than ``proj_tol`` relative to ``max(1, ||P||_F)``.
    """
    if proj_tol <= 0:
        raise ValueError("proj_tol must be positive")
    A = _as_square_matrix(A, "A")
    P = _as_square_matrix(P, "P")
    if A.shape != P.shape:
        raise DimensionMismatch(f"A has shape {A.shape} but P has shape {P.shape}")
    # sums such as A + A^T need headroom, so 8 ||A||_2 must be finite; the
    # norm is computed only when its bound n max|a_ij| leaves too little
    if not math.isfinite(8.0 * A.shape[0] * float(np.abs(A).max(initial=0.0))) and \
            not math.isfinite(8.0 * float(np.linalg.norm(A, 2))):
        raise OverflowRisk("||A||_2 is within a factor 8 of the float range")
    defect = np.linalg.norm(P @ P - P)
    if defect > proj_tol * max(1.0, np.linalg.norm(P)):
        raise NotAProjection(f"||P@P - P||_F = {defect:.3e} exceeds tolerance")
    return LinearPortSystem(A=_frozen(A), P=_frozen(P), n=A.shape[0])


def spectrum(A) -> Spectrum:
    """Eigendecomposition with deterministic ordering and a gap-based
    diagonalizability flag.

    Never fails on repeated eigenvalues: when the minimum pairwise gap is at
    most ``SPEC_TOL`` the flag is False and G, H come from a pseudo-inverse
    fallback.  This is :func:`spectra` on the stack of one.
    """
    A = _as_square_matrix(A, "A")
    return spectra(A[None])[0].at(0)


class SpectrumStack(NamedTuple):
    """Eigendecompositions of the slices ``index`` of a stack of matrices.

    The other fields are those of :class:`Spectrum` with a leading axis over
    the slices.  All slices share the dtype that :func:`spectrum` gives each
    matrix alone: float64 when its spectrum is real, complex128 otherwise.
    """

    index: np.ndarray
    eigenvalues: np.ndarray
    G: np.ndarray
    H: np.ndarray
    diagonalizable: np.ndarray
    min_gap: np.ndarray

    def at(self, i: int) -> Spectrum:
        """The :class:`Spectrum` of the i-th slice of this group (read-only
        views)."""
        return Spectrum(
            eigenvalues=self.eigenvalues[i],
            G=self.G[i],
            H=self.H[i],
            diagonalizable=bool(self.diagonalizable[i]),
            min_gap=float(self.min_gap[i]),
        )


def spectra(A) -> list:
    """:func:`spectrum` of every slice of a (k, n, n) stack of finite real
    matrices, as at most two :class:`SpectrumStack` groups: the slices with a
    real spectrum, then those with a complex one.

    One LAPACK call decomposes the stack.  It returns complex eigenvectors
    for every slice once one spectrum is complex, and inverting a real slice
    in complex arithmetic moves last bits; so every later step runs on each
    group in the dtype the per-matrix call has, and each slice equals
    ``spectrum`` of its matrix alone, bit for bit.
    """
    A = np.asarray(A, dtype=float)
    try:
        lam, G = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    whole = np.arange(len(A))
    complex_ = lam.imag.any(axis=1) if lam.dtype.kind == "c" else None
    count = 0 if complex_ is None else np.count_nonzero(complex_)
    if count == len(A):
        return [_decompose(whole, A, lam, G)]
    if count == 0:
        return [_decompose(whole, A, lam.real, G.real)]
    r, c = np.flatnonzero(~complex_), np.flatnonzero(complex_)
    return [_decompose(r, A[r], lam[r].real, G[r].real),
            _decompose(c, A[c], lam[c], G[c])]


def _row_norms(X):
    """``np.linalg.norm`` of each row of a 2-D array, bit for bit: the same
    BLAS dot product with the same stride.  Rows must be contiguous."""
    if np.iscomplexobj(X):
        return np.sqrt(np.vecdot(X.real, X.real) + np.vecdot(X.imag, X.imag))
    return np.sqrt(np.vecdot(X, X))


def _decompose(index, A, lam, G):
    """The steps of :func:`spectra` after ``eig``, vectorised over a group of
    slices that share one dtype."""
    k, n = lam.shape
    rows = np.arange(k)[:, None]
    # descending real part, then descending imaginary part; LAPACK already
    # gives each complex pair as exact conjugates with conjugate columns
    order = np.lexsort((-lam.imag, -lam.real))
    lam = lam[rows, order]
    G = np.ascontiguousarray(G.transpose(0, 2, 1)[rows, order].transpose(0, 2, 1))
    # the off-diagonal pairs: drop every (n+1)-th entry of the flat n x n
    gaps = np.abs(lam[:, :, None] - lam[:, None, :]).reshape(k, n * n)
    min_gap = gaps[:, :-1].reshape(k, n - 1, n + 1)[:, :, 1:].min(
        axis=(1, 2), initial=np.inf)

    diagonalizable = min_gap > SPEC_TOL
    H = np.empty_like(G)
    count = np.count_nonzero(diagonalizable)
    if count:
        d = slice(None) if count == k else diagonalizable.nonzero()[0]
        Gd = G[d]
        try:
            Hd = np.linalg.inv(Gd)
        except np.linalg.LinAlgError:
            # some G is exactly singular: its NaN inverse fails the
            # reconstruction test below, so it takes the pinv path
            Hd = np.full_like(Gd, np.nan)
            for j, g in enumerate(Gd):
                with contextlib.suppress(np.linalg.LinAlgError):
                    Hd[j] = np.linalg.inv(g)
        H[d] = Hd
        D = np.zeros(Gd.shape, Gd.dtype)
        D.reshape(-1, n * n)[:, ::n + 1] = lam[d]
        Ad = A[d].reshape(-1, n * n)
        with np.errstate(over="ignore"):  # an infinite norm is the value meant
            recon = _row_norms((Gd @ D @ Hd).reshape(-1, n * n) - Ad)
            scale = np.maximum(1.0, _row_norms(Ad))
        diagonalizable[d] = recon <= SPEC_TOL * scale
        count = np.count_nonzero(diagonalizable)
    if count < k:
        for i in (~diagonalizable).nonzero()[0]:
            H[i] = np.linalg.pinv(G[i])
    for a in (lam, G, H):
        a.setflags(write=False)
    return SpectrumStack(index=index, eigenvalues=lam, G=G, H=H,
                         diagonalizable=diagonalizable, min_gap=min_gap)


def matrix_exponential(A, t: float) -> np.ndarray:
    """Matrix exponential ``exp(A t)`` via scaling-and-squaring Pade.

    Raises ``OverflowRisk`` when the result is not representable in double
    precision.
    """
    A = _as_square_matrix(A, "A")
    if not np.isfinite(t):
        raise NonFiniteEntry("t must be finite")
    # cheap pre-check: a Gershgorin bound on the real spectral abscissa
    M = A * t
    row_bound = np.max(np.diag(M) + np.sum(np.abs(M - np.diag(np.diag(M))), axis=1))
    if row_bound > 700.0:
        raise OverflowRisk(f"exp(At) would overflow (growth bound {row_bound:.1f})")
    E = scipy.linalg.expm(M)
    if not np.all(np.isfinite(E)):
        raise OverflowRisk("exp(At) overflowed double precision")
    return E


def max_sym_eigenvalue(M) -> float:
    """Largest eigenvalue of the symmetric part ``(M + M^T) / 2``."""
    M = _as_square_matrix(M, "M")
    try:
        vals = np.linalg.eigvalsh(0.5 * (M + M.T))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"symmetric eigensolve failed: {exc}") from exc
    return float(vals[-1])


def top_sym_eigenpair(M):
    """Largest eigenvalue of the symmetric part and its unit eigenvector."""
    M = _as_square_matrix(M, "M")
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    return float(vals[-1]), vecs[:, -1].copy()


# -- forced integration -------------------------------------------------------


def _segment_grid(T, knots, steps):
    """Split [0, T] at the interior knots and spread the step budget.

    Steps go proportionally to segment length, but narrow segments (signal
    windows, pulse edges) keep a floor so their features stay resolved when
    the horizon dwarfs them.
    """
    interior = sorted(k for k in knots if 1e-12 * max(1.0, T) < k < T * (1.0 - 1e-12))
    edges = [0.0] + interior + [T]
    # L and T scaled by one power of two: steps * L / T is unchanged wherever
    # it was finite, and no longer overflows for T near the float range
    scale = -math.frexp(T)[1]
    lengths = np.ldexp(np.diff(edges), scale)
    unit = math.ldexp(T, scale)
    floor = 2 if len(lengths) == 1 else max(2, min(2048, steps // 8))
    counts = [max(floor, int(round(steps * L / unit))) for L in lengths]
    return edges, counts


# Steps per chunk of an integration: the per-step arrays (input samples, step
# offsets, energy weights, states) exist for one chunk at a time, so the
# working memory of an integration does not grow with its step count.
_CHUNK_STEPS = 4096

# The energy integrand <x, P u> is sampled at the four RK4 stage states.
# Stage j pairs with input sample _STAGE_INPUT[j] (t, t + h/2, t + h/2, t + h)
# and carries the weight _STAGE_WEIGHT[j] / 6.
_STAGE_INPUT = (0, 1, 1, 2)
_STAGE_WEIGHT = (1.0, 2.0, 2.0, 1.0)


def _rk4_step(A, h, x, f1, f2, f3):
    """One classical RK4 step of ``x' = A x + f`` on row-stacked states with
    input samples f1, f2, f3 at the start, middle and end of the step.

    Returns the next states and the four stage states (x, y1, y2, y3) at
    which the energy integrand is sampled.
    """
    k1 = x @ A.T + f1
    y1 = x + (0.5 * h) * k1
    k2 = y1 @ A.T + f2
    y2 = x + (0.5 * h) * k2
    k3 = y2 @ A.T + f2
    y3 = x + h * k3
    k4 = y3 @ A.T + f3
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (x, y1, y2, y3)


def _step_maps(A, h):
    """The state part of one RK4 step, from the step applied to the basis.

    Returns ``RT`` with ``x_{k+1} = x_k @ RT + c_k`` (``RT`` is the transpose
    of ``R = I + hA + ... + (hA)^4/24``) and the energy weights ``E`` with
    ``<x_k, F1_k @ E[0] + F2_k @ E[1] + F3_k @ E[2]>`` the part of the step's
    energy increment that depends on ``x_k``.
    """
    n = A.shape[0]
    RT, stages = _rk4_step(A, h, np.eye(n), 0.0, 0.0, 0.0)
    E = np.zeros((3, n, n))
    for S, slot, w in zip(stages, _STAGE_INPUT, _STAGE_WEIGHT):
        E[slot] += (w * h / 6.0) * S.T
    return RT, E


def _input_terms(A, h, F):
    """The input part of a chunk of RK4 steps with input samples F = (F1, F2,
    F3): the offsets ``c_k`` of the step maps and the sum over the chunk of
    the energy increments ``q_k`` that do not depend on the state."""
    c, stages = _rk4_step(A, h, np.zeros((1, A.shape[0])), *F)
    # stage 0 is the zero state and adds nothing
    q = sum(w * float(np.einsum("ij,ij->", s, F[slot]))
            for s, slot, w in zip(stages[1:], _STAGE_INPUT[1:], _STAGE_WEIGHT[1:]))
    return c, (h / 6.0) * q


def _powers(RT, B):
    """``RT^0 .. RT^B`` stacked along the first axis."""
    pows = np.empty((B + 1,) + RT.shape)
    pows[0] = np.eye(RT.shape[0])
    for j in range(1, B + 1):
        pows[j] = pows[j - 1] @ RT
    return pows


def _affine_scan(pows, x0, c):
    """States x_1..x_m of ``x_{k+1} = x_k @ RT + c_k`` from x_0, in blocks.

    With B = len(pows) - 1 steps per block: B vectorised updates give every
    block's states from a zero carry-in, one pass over the blocks carries the
    state across block boundaries with ``RT^B``, and ``RT^1..RT^B`` add each
    block's carry-in to its states.
    """
    m, n = c.shape
    B = min(pows.shape[0] - 1, m)
    nb = -(-m // B)
    part = np.zeros((nb * B, n))
    part[:m] = c
    part = part.reshape(nb, B, n)
    RT = pows[1]
    for j in range(1, B):
        part[:, j] += part[:, j - 1] @ RT
    carry = np.empty((nb, n))
    carry[0] = x0
    for b in range(1, nb):
        carry[b] = carry[b - 1] @ pows[B] + part[b - 1, B - 1]
    states = np.tensordot(carry, pows[1:B + 1], axes=(1, 1)) + part
    return states.reshape(nb * B, n)[:m]


def _rk4_forced(A, P, sig, T, steps, quiet=None):
    """Classical RK4 for ``x' = A x + P u``, x(0) = 0, jointly integrating the
    energy integrand ``z' = <x, P u>``, with ``u`` the signal family ``sig``.

    The grid is split at the signal's discontinuities so no step straddles a
    jump; on piecewise-constant signals each segment uses its midpoint value,
    which realizes the one-sided limits at the jump points.

    On a segment of step h one RK4 step is the affine map
    ``x_{k+1} = R x_k + c_k`` and adds ``<x_k, g_k> + q_k`` to the energy,
    where ``c_k``, ``g_k`` and ``q_k`` depend only on the input samples.
    They are computed for all steps at once, the recurrence is solved by a
    blocked scan with about sqrt(m) steps per block, and the energy is a
    reduction over the states.  Segments are processed in chunks of
    ``_CHUNK_STEPS`` steps, carrying the state from chunk to chunk.  A chunk
    of m steps samples the input 2m + 1 times: each grid point once (the end
    of one step is the start of the next) and each step midpoint once.

    With ``quiet=None`` the states are kept.  Otherwise only the energy is
    integrated, and ``quiet`` lists spans where the input is exactly zero.
    A segment inside one adds only zeros to the offsets ``c_k`` and to the
    energy, so it is not sampled: it is skipped while the state is still
    zero, ends the integration when no later segment carries input, and
    otherwise carries the state across by the same scan on a zero offset.
    ``W`` is unchanged bit for bit.

    Returns (times, states, W); times and states are None unless
    ``quiet`` is None.
    """
    n = A.shape[0]
    edges, counts = _segment_grid(T, sig.breakpoints(), steps)
    piecewise_constant = sig.piecewise_constant
    want_states = quiet is None
    live = [not any(a <= lo and hi <= b for a, b in quiet or ())
            for lo, hi in zip(edges[:-1], edges[1:])]
    # segments after the last live one add nothing to W
    end = max((i + 1 for i, flag in enumerate(live) if flag), default=0)
    x = np.zeros(n)
    W = 0.0
    all_times = [np.array([0.0])]
    all_states = [x[None, :].copy()]
    for lo, hi, m, flag in zip(edges[:end], edges[1:end + 1], counts, live):
        if not (flag or x.any()):
            continue
        h = (hi - lo) / m
        RT, E = _step_maps(A, h)
        pows = _powers(RT, math.isqrt(min(m, _CHUNK_STEPS) - 1) + 1)
        if piecewise_constant and flag:
            const = _sig.eval_signal(sig, np.array([0.5 * (lo + hi)]))[0] @ P.T
        for first in range(0, m, _CHUNK_STEPS):
            last = min(first + _CHUNK_STEPS, m)
            if not flag:
                x = _affine_scan(pows, x, np.zeros((last - first, n)))[-1]
                continue
            grid = lo + h * np.arange(first, last + 1)
            if last == m:
                grid[-1] = hi
            if piecewise_constant:
                F = (np.broadcast_to(const, (last - first, n)),) * 3
            else:
                ends = _sig.eval_signal(sig, grid)
                mids = _sig.eval_signal(sig, grid[:-1] + 0.5 * h)
                F = (ends[:-1] @ P.T, mids @ P.T, ends[1:] @ P.T)
            c, W_input = _input_terms(A, h, F)
            states = _affine_scan(pows, x, c)
            g = F[0] @ E[0]
            g += F[1] @ E[1]
            g += F[2] @ E[2]
            W += W_input + float(x @ g[0] + np.einsum("ij,ij->", states[:-1], g[1:]))
            x = states[-1]
            if want_states:
                all_times.append(grid[1:])
                all_states.append(states)
    if not want_states:
        return None, None, W
    return np.concatenate(all_times), np.concatenate(all_states), W


def solve_forced(sys: LinearPortSystem, u, T: float, steps: int) -> Trajectory:
    """Integrate ``x' = A x + P u(t)`` with x(0) = 0 on [0, T].

    Fixed-step classical RK4 on a uniform grid, split at the discontinuity
    points of two-pulse signals.  The steps are written as affine maps and
    solved by a blocked scan, in chunks of a fixed number of steps (see
    ``_rk4_forced``).  ``u`` is a signal family of :mod:`locact.signals`.
    """
    times, states, _ = _forced(sys, u, T, steps, keep_states=True)
    return Trajectory(times=_frozen(times), states=_frozen(states), T=float(T))


def forced_energy(sys: LinearPortSystem, u, T: float, steps: int) -> float:
    """Single-resolution energy integral ``int_0^T <x, P u> dt`` by the RK4
    scheme of :func:`solve_forced` (affine step maps, blocked scan, fixed-size
    chunks), keeping no states; see :func:`locact.activity.energy_integral`
    for the error-estimating wrapper.

    The segments inside the signal's ``quiet_spans`` are not sampled: the
    integration skips them while the state is zero, stops after the last
    segment that carries input, and carries the state across the others.
    The result equals the full-horizon integration bit for bit."""
    return _forced(sys, u, T, steps, keep_states=False)[2]


def _forced(sys, u, T, steps, keep_states):
    """The entry checks of :func:`solve_forced` and :func:`forced_energy`,
    then :func:`_rk4_forced`, skipping the quiet spans unless the states
    are kept."""
    if T <= 0:
        raise ValueError("T must be positive")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if not isinstance(u, _sig._Family):
        raise TypeError(f"the input must be a signal family, got {type(u)!r}")
    if u.T < T * (1.0 - _DOMAIN_SLACK):
        raise SignalDomainError(f"signal horizon {float(u.T)} is shorter than T={T}")
    quiet = None if keep_states else u.quiet_spans()
    # a huge A overflows the states; W is then inf or NaN, and no caller
    # accepts it (``W < -err`` is False)
    with np.errstate(over="ignore", invalid="ignore"):
        return _rk4_forced(sys.A, sys.P, u, T, steps, quiet)


# -- matrix file ingestion ----------------------------------------------------


def parse_matrix_json(text: str) -> np.ndarray:
    """Parse ``{"n": int, "rows": [[...], ...]}``."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid matrix JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "rows" not in obj:
        raise ValueError("matrix JSON must be an object with 'n' and 'rows'")
    n, rows = obj["n"], obj["rows"]
    if not (type(n) is int or type(n) is float and n.is_integer()) or n < 0:
        raise ValueError(f"'n' must be a non-negative integer, got {n!r}")
    if not isinstance(rows, list) or not all(
            isinstance(r, list) and all(type(v) in (int, float) for v in r) for r in rows):
        raise ValueError("'rows' must be a list of lists of numbers")
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatch(f"expected {n} rows of {n} entries")
    try:
        return np.array(rows, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"matrix entry out of range: {exc}") from exc


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse whitespace-separated text: a first line holding only ``n``, then
    exactly n rows of n numbers; blank lines are skipped."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    if len(lines[0]) != 1:
        raise ValueError("the first line must hold only n")
    n = int(lines[0][0])
    if len(lines) - 1 != n:
        raise DimensionMismatch(f"expected {n} data rows, found {len(lines) - 1}")
    rows = [[float(v) for v in ln] for ln in lines[1:]]
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("row length differs from declared n")
    return np.array(rows, dtype=float)


def format_matrix_json(M) -> str:
    M = np.asarray(M, dtype=float)
    rows = ",\n    ".join(
        "[" + ", ".join(format(v, ".17g") for v in row) + "]" for row in M
    )
    return '{"n": %d, "rows": [\n    %s\n]}\n' % (M.shape[0], rows)


def load_matrix(path) -> np.ndarray:
    """Load a matrix from a JSON or whitespace-text file (sniffed)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return parse_matrix_json(text)
    return parse_matrix_text(text)
