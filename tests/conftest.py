import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from locact import activity  # noqa: E402
from locact.signals import _Family, _frozen  # noqa: E402


@dataclass(frozen=True)
class Sampled(_Family):
    """Knot-value pairs with linear interpolation between knots."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).ravel()
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] != times.size:
            raise ValueError("values must have shape (len(times), n)")
        if times.size < 2 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing with >= 2 knots")
        if abs(times[0]) > 1e-12:
            raise ValueError("sampled signals must start at t = 0")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("non-finite sample data")
        object.__setattr__(self, "times", _frozen(times))
        object.__setattr__(self, "values", _frozen(values))

    @property
    def T(self):
        return float(self.times[-1])

    def breakpoints(self):
        return tuple(self.times[1:-1]) if self.times.size <= 257 else ()

    def evaluate(self, t):
        return np.stack(
            [np.interp(t, self.times, self.values[:, j]) for j in range(self.values.shape[1])],
            axis=1,
        )


@dataclass(frozen=True)
class FunctionSignal(_Family):
    """The input ``fn`` on [0, T], with no knots: ``fn`` maps an array of m
    times to an (m, n) array of values."""

    fn: Callable
    T: float

    def evaluate(self, t):
        return np.asarray(self.fn(t), dtype=float)


def random_system(rng, n, unit_ports=True):
    """Random (A, P) with entries U[-2, 2] and P = I by default."""
    import locact

    A = rng.uniform(-2.0, 2.0, (n, n))
    P = np.eye(n) if unit_ports else np.diag([1.0] * 1 + [0.0] * (n - 1))
    return locact.make_system(A, P)


def random_member_of_M(rng, n, min_abscissa=None, max_tries=200):
    """Random Gaussian system with P = e1 e1^T that lies in the generic set;
    optionally shifted so the spectral abscissa is at least ``min_abscissa``."""
    import locact
    from locact import genericity

    P = np.zeros((n, n))
    P[0, 0] = 1.0
    for _ in range(max_tries):
        A = rng.standard_normal((n, n))
        if min_abscissa is not None:
            shift = min_abscissa - np.linalg.eigvals(A).real.max()
            if shift > 0:
                A = A + (shift + rng.uniform(0.0, 0.3)) * np.eye(n)
        sys = locact.make_system(A, P)
        if genericity.in_generic_M(sys).in_M:
            if min_abscissa is None or \
                    np.linalg.eigvals(A).real.max() >= min_abscissa:
                return sys
    raise AssertionError("could not sample a generic-set member")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def two_pulse_energy_closed_form(spec, port_row_G, port_col_H, a, b, k, T) -> float:
    """Exact energy of the two-pulse ``(a X_[0,1/k] + b X_[T-1/k,T]) e1`` in
    port coordinates, the eigenvalue sum of ``activity._two_pulse_sums`` at
    the one horizon T: valid for a diagonalizable spectrum without a zero
    eigenvalue and non-overlapping pulses (``k >= 2/T``).  The imaginary
    residue of a conjugate-symmetric sum vanishes; its real part is
    returned."""
    lam = np.asarray(spec.eigenvalues)
    g = np.asarray(port_row_G).ravel()
    h = np.asarray(port_col_H).ravel()
    const, osc = activity._two_pulse_sums(lam, g * h, a * a + b * b, k, [T])
    W = complex(const + a * b * osc[0])
    assert abs(W.imag) <= 1e-8 * (1.0 + abs(W.real)), W
    return W.real


def format_matrix_text(M) -> str:
    """The whitespace-text matrix file of M: a line ``n``, then n rows of
    17-significant-digit entries."""
    M = np.asarray(M, dtype=float)
    lines = [str(M.shape[0])]
    lines += [" ".join(format(v, ".17g") for v in row) for row in M]
    return "\n".join(lines) + "\n"


def spectrum_oracle(A, spec_tol=1e-8):
    """Per-matrix eigendecomposition, as ``linsys.spectrum`` computed it
    before the stacked kernel: the reference every slice of
    ``linsys.spectra`` must equal bit for bit."""
    from locact import linsys

    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    eigenvalues, G = np.linalg.eig(A)
    order = np.lexsort((-eigenvalues.imag, -eigenvalues.real))
    eigenvalues = eigenvalues[order]
    G = G[:, order]
    if n > 1:
        diffs = np.abs(eigenvalues[:, None] - eigenvalues[None, :])
        min_gap = float(diffs[~np.eye(n, dtype=bool)].min())
    else:
        min_gap = np.inf
    scale = max(1.0, float(np.linalg.norm(A)))
    diagonalizable = min_gap > spec_tol
    if diagonalizable:
        try:
            H = np.linalg.inv(G)
        except np.linalg.LinAlgError:  # exactly singular eigenvectors
            diagonalizable = False
        else:
            recon = np.linalg.norm(G @ np.diag(eigenvalues) @ H - A)
            diagonalizable = recon <= spec_tol * scale
    if not diagonalizable:
        H = np.linalg.pinv(G)
    return linsys.Spectrum(eigenvalues=eigenvalues, G=G, H=H,
                           diagonalizable=bool(diagonalizable), min_gap=min_gap)


def same_bits(a, b):
    """Equal type and bytes: arrays by dtype, shape and bytes; floats and
    complex numbers by their IEEE bits (signed zeros and NaN payloads too)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    if isinstance(a, complex):
        return np.complex128(a).tobytes() == np.complex128(b).tobytes()
    return a == b


def assert_same_spectrum(got, want):
    for field in ("eigenvalues", "G", "H", "diagonalizable", "min_gap"):
        assert same_bits(getattr(got, field), getattr(want, field)), field


def random_stack(rng, k, n):
    """k matrices of size n that mix real and complex spectra with repeated
    and zero eigenvalues, Jordan blocks and a wide range of scales."""
    kinds = rng.integers(0, 5, k)
    stack = rng.standard_normal((k, n, n))
    for s in range(k):
        M = stack[s]
        if kinds[s] == 1:  # symmetric: real spectrum
            stack[s] = M + M.T
        elif kinds[s] == 2:  # entries in {-1, 0, 1}: repeats, zeros, Jordan blocks
            stack[s] = rng.integers(-1, 2, (n, n))
        elif kinds[s] == 3:  # skew: pure rotations (and 0 for odd n)
            stack[s] = M - M.T
        elif kinds[s] == 4:
            stack[s] = M * 10.0 ** rng.uniform(-6.0, 6.0)
    return stack
