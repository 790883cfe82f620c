"""Membership tests for the generic matrix sets behind the constructive
instability-implies-activity result, the orthogonal port transform, and a
statistical density probe.

The first set collects invertible matrices with n distinct eigenvalues and a
strictly dominating real part (the conjugate partner of the dominant
eigenvalue excepted).  The second set additionally requires, after the port
transform, a nonzero product of the (1,1) entries of the eigenvector matrix
and its inverse.  Both are open and dense; numerically each strict condition
gets a single margin ``tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linsys
from .errors import ZeroProjection
from .linsys import _row_norms
from .serialize import Record

# the default margin of every strict membership condition
GENERICITY_TOL = 1e-8


@dataclass(frozen=True)
class GenericityReport(Record):
    """Evidence record for the membership tests.

    ``g11h11`` is the raw port product for the dominant eigenvalue;
    ``port_product_margin`` is the same quantity normalized by the norms of
    the dominant right eigenvector and left eigenvector row, which makes the
    threshold insensitive to eigenvector scaling.  ``spectrum`` keeps the
    decomposition of ``Q A Q^T`` for reuse; it and ``Q`` are not serialized.
    """

    in_N: bool
    in_M: bool
    min_eig_gap: float
    min_abs_eig: float
    dominance_gap: float
    g11h11: complex
    port_product_margin: float
    Q: np.ndarray = field(metadata={"json": False})
    tol: float
    notes: str
    spectrum: linsys.Spectrum = field(metadata={"json": False})


# Matrix entries per block of sample_density_M: the blocks' working memory
# stays about 2 MB whatever ``samples`` and ``n`` are.
_CHUNK_ENTRIES = 16384


def _check_tol(tol):
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


def _port_reflector(P):
    """The orthogonal Q of :func:`port_transform`."""
    norms = np.sqrt((P * P).sum(axis=0))  # np.linalg.norm(P, axis=0)
    j = int(norms.argmax())
    if norms[j] <= 1e-14 * max(1.0, float(np.abs(P).max(initial=0.0))):
        raise ZeroProjection("P = 0 admits no port variable")
    w = P[:, j] / norms[j]  # the port column, less e1
    w[0] -= 1.0
    nw2 = float(w @ w)
    if nw2 <= 1e-28:
        return np.eye(len(P))
    return np.eye(len(P)) - (2.0 / nw2) * np.outer(w, w)


def port_transform(sys: linsys.LinearPortSystem):
    """Orthogonal change of coordinates making the first state a port variable.

    Picks the largest-norm column of P (normalized, a fixed point of P) and
    maps it to the first basis vector with a Householder reflector Q; returns
    ``(Q, (Q A Q^T, Q P Q^T))``.
    """
    Q = _port_reflector(sys.P)
    return Q, linsys.make_system(Q @ sys.A @ Q.T, Q @ sys.P @ Q.T)


class _Membership(NamedTuple):
    """The membership tests of one :class:`linsys.SpectrumStack` group, one
    entry per slice."""

    spectra: linsys.SpectrumStack
    in_N: np.ndarray
    min_abs: np.ndarray
    dominance: np.ndarray
    g11h11: np.ndarray
    margin: np.ndarray
    in_M: np.ndarray


def _membership(B, tol):
    """Both membership tests on a (k, n, n) stack of port-transformed
    matrices, one :class:`_Membership` per dtype group of ``spectra(B)``.

    Each slice's values equal those of the test on its matrix alone, bit for
    bit: the complex port product is formed as numpy's scalar product forms
    it (each term rounded, no fused multiply-add), and its modulus as
    Python's ``abs`` of a complex number (``hypot``).
    """
    out = []
    for S in linsys.spectra(B):
        lam, g, h = S.eigenvalues, S.G[:, 0, 0], S.H[:, 0, 0]
        lam1, rest = lam[:, 0], lam[:, 1:].real
        if lam.dtype.kind == "c":
            # drop exactly one conjugate partner of lam1 from the remainder
            # (np.isclose with rtol 0, on finite values)
            partner = (lam1.imag != 0.0)[:, None] \
                & (np.abs(lam[:, 1:] - np.conj(lam1)[:, None]) <= 1e-14)
            rest = np.where(partner & (partner.cumsum(axis=1) == 1), -np.inf, rest)
            g11h11 = np.empty_like(g)
            g11h11.real = g.real * h.real - g.imag * h.imag
            g11h11.imag = g.real * h.imag + g.imag * h.real
            modulus = np.hypot(g11h11.real, g11h11.imag)
        else:
            g11h11 = g * h
            modulus = np.abs(g11h11)
        min_abs = np.abs(lam).min(axis=1)
        # max over an empty remainder is -inf, so dominance is +inf
        dominance = lam1.real - rest.max(axis=1, initial=-np.inf)
        in_N = np.minimum(np.minimum(min_abs, S.min_gap), dominance) > tol
        # norms of the dominant right eigenvector and left eigenvector row
        k = len(lam)
        with np.errstate(over="ignore"):  # an infinite norm gives margin 0 or NaN
            norms = _row_norms(np.concatenate((S.G[:, :, 0], S.H[:, 0, :])))
        denom = norms[:k] * norms[k:]
        margin = modulus / np.where(denom > 0, denom, np.inf)  # 0 where denom is 0
        in_M = in_N & S.diagonalizable & (margin > tol)
        out.append(_Membership(S, in_N, min_abs, dominance, g11h11, margin, in_M))
    return out


def in_generic_M(sys: linsys.LinearPortSystem,
                 tol: float = GENERICITY_TOL) -> GenericityReport:
    """Full membership: the port-transformed matrix passes the eigenvalue-side
    test (nonzero spectrum, distinct eigenvalues, strictly dominating real
    part) and the dominant port product g11 * h11 is nonzero at margin
    ``tol`` (after scale normalization); the test on a stack of one."""
    _check_tol(tol)
    Q = _port_reflector(sys.P)
    (m,) = _membership((Q @ sys.A @ Q.T)[None], tol)
    S = m.spectra.at(0)
    in_N = bool(m.in_N[0])
    dominance = float(m.dominance[0])
    margin = float(m.margin[0])
    notes = []
    if not in_N:
        notes.append("fails eigenvalue-side membership")
    if not S.diagonalizable:
        notes.append("not numerically diagonalizable")
    if margin <= tol:
        notes.append(f"port product margin {margin:.3e} <= tol")
    if not math.isfinite(dominance):
        notes.append("dominance over empty remainder (max of empty set = -inf)")
    return GenericityReport(
        in_N=in_N, in_M=bool(m.in_M[0]), min_eig_gap=S.min_gap,
        min_abs_eig=float(m.min_abs[0]), dominance_gap=dominance,
        g11h11=complex(m.g11h11[0]), port_product_margin=margin, Q=Q, tol=tol,
        notes="; ".join(notes), spectrum=S,
    )


def sample_density_M(n: int, samples: int, seed: int,
                     tol: float = GENERICITY_TOL) -> float:
    """Fraction of standard-Gaussian matrices (port = first coordinate) that
    pass the full membership test; deterministic in the seed.

    The matrices are drawn in blocks of ``_CHUNK_ENTRIES // n**2`` (at least
    one), and each block is tested in one stacked pass, so memory does not
    grow with ``samples``.  The draws and every decision are those of
    ``in_generic_M`` on one matrix at a time: the reflector of the first
    coordinate is exactly ``I``, so the port transform is left out.
    """
    _check_tol(tol)
    if n < 1:
        raise ValueError("n must be at least 1")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    block = max(1, _CHUNK_ENTRIES // (n * n))
    hits = 0
    for first in range(0, samples, block):
        A = rng.standard_normal((min(block, samples - first), n, n))
        hits += sum(int(m.in_M.sum()) for m in _membership(A, tol))
    return hits / samples
