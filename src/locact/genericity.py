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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linsys
from .errors import ZeroProjection


@dataclass(frozen=True)
class GenericityReport:
    """Evidence record for the membership tests.

    ``in_M`` is None when only the eigenvalue-side test ran.  ``g11h11`` is
    the raw port product for the dominant eigenvalue; ``port_product_margin``
    is the same quantity normalized by the norms of the dominant right
    eigenvector and left eigenvector row, which makes the threshold
    insensitive to eigenvector scaling.  The full test keeps the decomposition
    of ``Q A Q^T`` in ``spectrum`` for reuse; it is not serialized.
    """

    in_N: bool
    in_M: Optional[bool]
    min_eig_gap: float
    min_abs_eig: float
    dominance_gap: float
    g11h11: Optional[complex]
    port_product_margin: Optional[float]
    Q: Optional[np.ndarray]
    tol: float
    notes: str = ""
    spectrum: Optional[linsys.Spectrum] = None


def port_transform(sys: linsys.LinearPortSystem):
    """Orthogonal change of coordinates making the first state a port variable.

    Picks the largest-norm column of P (normalized, a fixed point of P) and
    maps it to the first basis vector with a Householder reflector Q; returns
    ``(Q, (Q A Q^T, Q P Q^T))``.
    """
    P = sys.P
    norms = np.linalg.norm(P, axis=0)
    j = int(np.argmax(norms))
    if norms[j] <= 1e-14 * max(1.0, float(np.abs(P).max(initial=0.0))):
        raise ZeroProjection("P = 0 admits no port variable")
    v = P[:, j] / norms[j]
    n = sys.n
    e1 = np.zeros(n)
    e1[0] = 1.0
    w = v - e1
    nw2 = float(w @ w)
    if nw2 <= 1e-28:
        Q = np.eye(n)
    else:
        Q = np.eye(n) - (2.0 / nw2) * np.outer(w, w)
    transformed = linsys.make_system(Q @ sys.A @ Q.T, Q @ P @ Q.T)
    return Q, transformed


def _eig_side_report(A, tol):
    spect = linsys.spectrum(A)
    lam = spect.eigenvalues
    min_abs = float(np.min(np.abs(lam)))
    lam1 = lam[0]
    rest = list(lam[1:])
    if lam1.imag != 0.0:
        # drop exactly one conjugate partner from the remainder multiset
        for i, l in enumerate(rest):
            if np.isclose(l, np.conj(lam1), rtol=0, atol=1e-14):
                del rest[i]
                break
    if rest:
        dominance = float(lam1.real - max(l.real for l in rest))
    else:
        dominance = np.inf  # max over the empty set is -inf
    in_N = (min_abs > tol) and (spect.min_gap > tol) and (dominance > tol)
    return spect, in_N, min_abs, dominance


def in_generic_N(A, tol: float = 1e-8) -> GenericityReport:
    """Eigenvalue-side membership: nonzero spectrum, distinct eigenvalues,
    strictly dominating real part; every strict inequality uses margin
    ``tol``."""
    spect, in_N, min_abs, dominance = _eig_side_report(A, tol)
    notes = ""
    if not np.isfinite(dominance):
        notes = "dominance over empty remainder (max of empty set = -inf)"
    return GenericityReport(
        in_N=in_N, in_M=None, min_eig_gap=spect.min_gap, min_abs_eig=min_abs,
        dominance_gap=dominance, g11h11=None, port_product_margin=None,
        Q=None, tol=tol, notes=notes,
    )


def in_generic_M(sys: linsys.LinearPortSystem, tol: float = 1e-8) -> GenericityReport:
    """Full membership: the port-transformed matrix passes the eigenvalue-side
    test and the dominant port product g11 * h11 is nonzero at margin ``tol``
    (after scale normalization)."""
    Q, transformed = port_transform(sys)
    spect, in_N, min_abs, dominance = _eig_side_report(transformed.A, tol)
    g11h11 = complex(spect.G[0, 0] * spect.H[0, 0])
    denom = float(np.linalg.norm(spect.G[:, 0]) * np.linalg.norm(spect.H[0, :]))
    margin = abs(g11h11) / denom if denom > 0 else 0.0
    in_M = bool(in_N and spect.diagonalizable and margin > tol)
    notes = []
    if not in_N:
        notes.append("fails eigenvalue-side membership")
    if not spect.diagonalizable:
        notes.append("not numerically diagonalizable")
    if margin <= tol:
        notes.append(f"port product margin {margin:.3e} <= tol")
    if not np.isfinite(dominance):
        notes.append("dominance over empty remainder (max of empty set = -inf)")
    return GenericityReport(
        in_N=in_N, in_M=in_M, min_eig_gap=spect.min_gap, min_abs_eig=min_abs,
        dominance_gap=dominance, g11h11=g11h11, port_product_margin=margin,
        Q=Q, tol=tol, notes="; ".join(notes), spectrum=spect,
    )


def sample_density_M(n: int, samples: int, seed: int, tol: float = 1e-8) -> float:
    """Fraction of standard-Gaussian matrices (port = first coordinate) that
    pass the full membership test; deterministic in the seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    P = np.zeros((n, n))
    P[0, 0] = 1.0
    hits = 0
    for _ in range(samples):
        A = rng.standard_normal((n, n))
        sys = linsys.make_system(A, P)
        if in_generic_M(sys, tol=tol).in_M:
            hits += 1
    return hits / samples


def report_to_json(report: GenericityReport) -> dict:
    g = report.g11h11
    return {
        "in_N": report.in_N,
        "in_M": report.in_M,
        "min_eig_gap": report.min_eig_gap,
        "min_abs_eig": report.min_abs_eig,
        "dominance_gap": report.dominance_gap,
        "g11h11": None if g is None else {"re": g.real, "im": g.imag},
        "port_product_margin": report.port_product_margin,
        "tol": report.tol,
        "notes": report.notes,
    }
