"""Input-signal families: Friedrichs mollifier signals, discontinuous
two-pulse signals and their mollified continuous approximations.

Each family carries its own evaluation, integration knots and JSON.  All
signals live on a finite horizon [0, T]; evaluation outside the horizon
raises ``SignalDomainError`` rather than zero-extending.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import SignalDomainError, SmoothingTooWide
from .serialize import Record

_DOMAIN_SLACK = 1e-9


def mollifier(t):
    """The Friedrichs bump ``exp(1/(t^2 - 1))`` on (-1, 1), exactly 0 outside."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    inv = 1.0 / (t[inside] ** 2 - 1.0)
    out[inside] = np.exp(inv)
    return float(out[0]) if scalar else out


def mollifier_derivative(t):
    """Derivative of the bump: ``-2t/(t^2-1)^2 * mollifier(t)``, 0 outside (-1, 1)."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    # evaluate as -2t * inv^2 * exp(inv); exp underflows to 0 before inv^2
    # can overflow, so the product stays finite
    inv = 1.0 / (t[inside] ** 2 - 1.0)
    out[inside] = -2.0 * t[inside] * inv * inv * np.exp(inv)
    return float(out[0]) if scalar else out


@lru_cache(maxsize=1)
def mollifier_mass() -> float:
    """Integral of the bump over its support, via composite Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(48)
    total = 0.0
    panels = np.linspace(-1.0, 1.0, 9)
    for lo, hi in zip(panels[:-1], panels[1:]):
        s = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        total += 0.5 * (hi - lo) * float(np.dot(weights, mollifier(s)))
    return total


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_N_PANELS = 12
# panel ends of the composite rule on [-1, y], as fractions of y + 1
_PANEL_OFFSETS = np.linspace(0.0, 1.0, _N_PANELS + 1)
_TABLE_PANELS = 256  # uniform panels of the CDF table on (-1, 1)
_TABLE_DEGREE = 7  # degree of the polynomial on each panel


def _cdf_quadrature(y):
    """The normalized antiderivative at interior points ``-1 < y < 1`` by a
    composite 12-panel, 32-node Gauss-Legendre rule on [-1, y]; the
    reference that ``_cdf_table`` is fitted to."""
    span = y + 1.0
    acc = np.zeros_like(span)
    for p in range(_N_PANELS):
        lo = -1.0 + span * _PANEL_OFFSETS[p]
        hi = -1.0 + span * _PANEL_OFFSETS[p + 1]
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        s = half[:, None] * _GL_NODES + mid[:, None]
        acc += half * (mollifier(s.ravel()).reshape(s.shape) * _GL_WEIGHTS).sum(axis=1)
    return acc / mollifier_mass()


@lru_cache(maxsize=1)
def _cdf_table():
    """Monomial coefficients, shape ``(degree + 1, panels)``, of the
    interpolant of ``_cdf_quadrature`` at the Chebyshev points of each
    panel, in the panel's local variable ``u`` in [-1, 1]; read-only."""
    cheb = np.cos((2 * np.arange(_TABLE_DEGREE + 1) + 1) * np.pi / (2 * _TABLE_DEGREE + 2))
    left = -1.0 + (2.0 / _TABLE_PANELS) * np.arange(_TABLE_PANELS)
    # one quadrature batch per Chebyshev point, so the build's temporaries
    # stay small
    values = np.stack([_cdf_quadrature(left + (c + 1.0) / _TABLE_PANELS) for c in cheb])
    table = np.linalg.solve(np.vander(cheb, increasing=True), values)
    table.setflags(write=False)
    return table


def mollifier_cdf(y):
    """Normalized antiderivative ``int_{-1}^{y} rho / int rho``, clamped to [0, 1].

    There is no closed-form antiderivative.  Samples outside the support
    are exact: 0 for ``y <= -1``, 1 for ``y >= 1``, and NaN stays NaN.
    Inside, the value comes from a table built once, on first use, from
    the composite Gauss-Legendre quadrature ``_cdf_quadrature``: a
    degree-7 interpolant at the Chebyshev points of each of 256 uniform
    panels, evaluated by Horner's rule.  It agrees with the quadrature to
    within about 1e-15 absolute (tested to 1e-14).  Each value is computed
    by elementwise operations on its own sample alone, so it does not
    depend on the sample's position in the batch, the batch length or the
    BLAS thread count.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    out = (y >= 1.0).astype(float)
    # a batch wholly at or beyond one end is exact already; a NaN fails both
    if y.max(initial=-1.0) <= -1.0 or y.min(initial=1.0) >= 1.0:
        return float(out[0]) if scalar else out
    out[np.isnan(y)] = np.nan
    inside = np.abs(y) < 1.0
    if inside.any():
        table = _cdf_table()
        x = (y[inside] + 1.0) * (0.5 * _TABLE_PANELS)
        j = np.minimum(x.astype(np.intp), _TABLE_PANELS - 1)
        u = 2.0 * (x - j) - 1.0
        acc = table[-1, j]
        for coeff in table[-2::-1]:
            acc = acc * u + coeff[j]
        out[inside] = np.clip(acc, 0.0, 1.0)
    return float(out[0]) if scalar else out


def _unit(v, name):
    v = np.asarray(v, dtype=float).ravel()
    nv = np.linalg.norm(v)
    if not np.all(np.isfinite(v)) or nv == 0.0:
        raise ValueError(f"{name} must be a finite nonzero vector")
    return v / nv


def _finite_vec(v, name):
    v = np.asarray(v, dtype=float).ravel()
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def _frozen(a):
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


class _Family(Record):
    """Base of the signal families: frozen dataclasses with a horizon ``T``
    that evaluate themselves on [0, T] and name their knots; subclassing
    registers a family for ``signal_from_json``."""

    piecewise_constant = False
    _registry = {}  # class name -> family, for signal_from_json

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _Family._registry[cls.__name__] = cls

    def breakpoints(self):
        """Interior times where the signal is not smooth, or where its
        support starts and ends (integration grid knots)."""
        return ()

    def quiet_spans(self):
        """Closed spans ``(lo, hi)`` of [0, T] on which ``evaluate`` returns
        exactly 0; their ends are knots, so an integration can skip them."""
        return ()

    def step_budget(self, steps, per_unit):
        """The steps of a witness integration, from the default ``steps``."""
        return steps

    def to_json(self) -> dict:
        """Tagged-union dict representation, ``{"variant": ..., fields...}``."""
        return {"variant": type(self).__name__, **super().to_json()}


@dataclass(frozen=True)
class TwoPulse(_Family):
    """Scalar two-pulse profile ``a X_[0,1/k] + b X_[T-1/k,T]`` along a unit
    direction; left-continuous at the interior jumps."""

    a: float
    b: float
    k: float
    T: float
    direction: np.ndarray

    piecewise_constant = True

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.k < 2.0 / self.T * (1.0 - 1e-12):
            raise ValueError(f"k must be at least 2/T = {2.0 / self.T}; pulses overlap")
        object.__setattr__(self, "direction", _frozen(_unit(self.direction, "direction")))

    def breakpoints(self):
        return (1.0 / self.k, self.T - 1.0 / self.k)

    def evaluate(self, t):
        first = t <= 1.0 / self.k
        second = t > self.T - 1.0 / self.k
        return np.outer(self.a * first + self.b * second, self.direction)


@dataclass(frozen=True)
class MollifierReal(_Family):
    """``u(t) = rho'(2t/T - 1) e^(lam t) v`` driving a real eigendirection."""

    lam: float
    v: np.ndarray
    T: float

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        object.__setattr__(self, "v", _frozen(_finite_vec(self.v, "v")))

    def evaluate(self, t):
        return np.outer(mollifier_derivative(2.0 * t / self.T - 1.0) * np.exp(self.lam * t), self.v)


@dataclass(frozen=True)
class MollifierTrajectory(_Family):
    """``u(t) = (2/T) rho'(s) v - rho(s) Av`` with ``s = 2t/T - 1``: the input
    that moves ``x' = A x + u`` from 0 along ``x = rho(s) v`` back to 0."""

    v: np.ndarray
    Av: np.ndarray
    T: float

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        v = _finite_vec(self.v, "v")
        Av = _finite_vec(self.Av, "Av")
        if v.shape != Av.shape:
            raise ValueError("v and Av must have the same dimension")
        object.__setattr__(self, "v", _frozen(v))
        object.__setattr__(self, "Av", _frozen(Av))

    def evaluate(self, t):
        s = 2.0 * t / self.T - 1.0
        return np.outer((2.0 / self.T) * mollifier_derivative(s), self.v) \
            - np.outer(mollifier(s), self.Av)


@dataclass(frozen=True)
class MollifierComplex(_Family):
    """``u(t) = h'(t) e^(alpha t) (sin(beta t) v1 + cos(beta t) v2)`` with the
    window ``h(t) = rho((t - t0)/eps)``."""

    alpha: float
    beta: float
    v1: np.ndarray
    v2: np.ndarray
    t0: float
    eps: float
    T: float

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.t0 - self.eps < -1e-12 or self.t0 + self.eps > self.T * (1 + 1e-12):
            raise ValueError("window [t0-eps, t0+eps] must lie inside [0, T]")
        v1 = _finite_vec(self.v1, "v1")
        v2 = _finite_vec(self.v2, "v2")
        if v1.shape != v2.shape:
            raise ValueError("v1 and v2 must have the same dimension")
        object.__setattr__(self, "v1", _frozen(v1))
        object.__setattr__(self, "v2", _frozen(v2))

    def breakpoints(self):
        return (self.t0 - self.eps, self.t0 + self.eps)

    def quiet_spans(self):
        # outside the window h' is exactly 0, and so is u while e^(alpha t)
        # stays finite (0 * inf would be NaN)
        if self.alpha * self.T >= 700.0:
            return ()
        lo, hi = self.breakpoints()
        return ((0.0, lo), (hi, self.T))

    def step_budget(self, steps, per_unit):
        return min(steps, 40_000)

    def evaluate(self, t):
        hprime = mollifier_derivative((t - self.t0) / self.eps) / self.eps
        amp = hprime * np.exp(self.alpha * t)
        return (amp * np.sin(self.beta * t))[:, None] * self.v1 + \
               (amp * np.cos(self.beta * t))[:, None] * self.v2


@dataclass(frozen=True)
class MollifiedTwoPulse(_Family):
    """Continuous approximation of a two-pulse: convolution with the
    normalized mollifier of width ``eps_s``, which must satisfy
    ``0 < eps_s < 1/(2k)`` and ``eps_s < (T - 2/k)/2`` (else
    ``SmoothingTooWide``)."""

    base: TwoPulse
    eps_s: float

    def __post_init__(self):
        k, T = self.base.k, self.base.T
        if not (0.0 < self.eps_s < 0.5 / k) or self.eps_s >= 0.5 * (T - 2.0 / k):
            if T - 2.0 / k <= 0 and abs(self.eps_s) > 0:
                raise SmoothingTooWide("pulses are adjacent; no room to mollify")
            raise SmoothingTooWide(
                f"eps_s = {self.eps_s} must satisfy 0 < eps_s < 1/(2k) and "
                f"eps_s < (T - 2/k)/2"
            )

    @property
    def T(self):
        return self.base.T

    def breakpoints(self):
        b = self.base
        e = self.eps_s
        return (e, 1.0 / b.k - e, 1.0 / b.k + e,
                b.T - 1.0 / b.k - e, b.T - 1.0 / b.k + e, b.T - e)

    def quiet_spans(self):
        # between the smoothed pulses both windows are exactly 1 - 1 or 0 - 0
        knots = self.breakpoints()
        return ((knots[2], knots[3]),)

    def step_budget(self, steps, per_unit):
        # past T = 60 the input is mostly dead: 96 steps per unit there
        return steps if self.T <= 60.0 else int(np.ceil(60.0 * per_unit + 96.0 * (self.T - 60.0)))

    def evaluate(self, t):
        b, e = self.base, self.eps_s
        def window(lo, hi):
            return mollifier_cdf((t - lo) / e) - mollifier_cdf((t - hi) / e)
        profile = b.a * window(0.0, 1.0 / b.k) + b.b * window(b.T - 1.0 / b.k, b.T)
        return np.outer(profile, b.direction)


def breakpoints(sig):
    return sig.breakpoints()


def eval_signal(sig, t):
    """Evaluate a signal at scalar or array times; returns shape (n,) or (m, n)."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    T = float(sig.T)
    slack = _DOMAIN_SLACK * max(1.0, T)
    if np.any(t < -slack) or np.any(t > T + slack):
        raise SignalDomainError(
            f"evaluation time outside [0, {T}] (got range "
            f"[{float(np.min(t))}, {float(np.max(t))}])"
        )
    out = sig.evaluate(np.atleast_1d(np.clip(t, 0.0, T)))
    return out[0] if scalar else out


# -- serialization -------------------------------------------------------------


def signal_from_json(obj: dict):
    cls = _Family._registry.get(obj.get("variant"))
    if cls is None:
        raise ValueError(f"unknown signal variant: {obj.get('variant')!r}")
    kwargs = {f.name: obj[f.name] for f in fields(cls)}
    return cls(**{name: signal_from_json(v) if isinstance(v, dict) else v
                  for name, v in kwargs.items()})
