"""Nonlinear port systems and the equilibrium linearization pipeline.

A nonlinear port system is ``x'(t) = f(x) - P D(x)`` with kinetic part f,
dissipation map D, and a projection P selecting the port variables.  The
pipeline finds an equilibrium, linearizes the kinetic part there (not the
full right-hand side: the dissipation enters only through the input channel),
and hands the resulting linear port system to the activity and genericity
analyses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import activity, complexity, genericity, linsys
from .errors import (
    BranchLost,
    DimensionMismatch,
    EquilibriumNotFound,
    NoConvergence,
    NonFiniteEvaluation,
    NoSignChange,
    StageError,
    ZeroProjection,
)
from .signals import _frozen

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100
STAB_TOL = 1e-9
FD_STEP = 1e-6


@dataclass(frozen=True)
class NonlinearPortSystem:
    f: Callable
    D: Callable
    P: np.ndarray
    n: int
    jacobian_f: Optional[Callable] = None
    jacobian_D: Optional[Callable] = None
    family: Optional[str] = None
    params: dict = field(default_factory=dict)
    # ``f - P D`` and ``(J_f - P J_D, J_f)`` of a family that evaluates them
    residual: Optional[Callable] = None
    jacobians: Optional[Callable] = None


@dataclass(frozen=True)
class EquilibriumReport:
    x_star: np.ndarray
    residual: float
    jacobian_full: np.ndarray
    jacobian_kinetic: np.ndarray
    notes: str = ""

    @functools.cached_property
    def eigenvalues_full(self) -> np.ndarray:
        """The spectrum of ``jacobian_full``, computed when first read."""
        return np.linalg.eigvals(self.jacobian_full)

    @functools.cached_property
    def stability(self) -> str:
        """Stable | Unstable | Marginal, from ``eigenvalues_full``."""
        return _stability_label(self.eigenvalues_full)


def jacobian_fd(f: Callable, x) -> np.ndarray:
    """Central-difference Jacobian, column i = (f(x + h e_i) - f(x - h e_i)) / (2h)
    with ``h = FD_STEP``."""
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = FD_STEP
        fp = np.asarray(f(x + e), dtype=float).ravel()
        fm = np.asarray(f(x - e), dtype=float).ravel()
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise NonFiniteEvaluation(f"f is non-finite near coordinate {i}")
        cols.append((fp - fm) / (2.0 * FD_STEP))
    return np.column_stack(cols)


def _residual(sys: NonlinearPortSystem, x):
    """The right-hand side ``f(x) - P D(x)``, zero at an equilibrium."""
    if sys.residual is not None:
        return sys.residual(x)
    return np.asarray(sys.f(x), dtype=float).ravel() \
        - sys.P @ np.asarray(sys.D(x), dtype=float).ravel()


def _jacobians(sys: NonlinearPortSystem, x):
    """Full Jacobian and kinetic Jacobian at x."""
    if sys.jacobians is not None:
        return sys.jacobians(x)
    Jf = np.asarray(sys.jacobian_f(x), dtype=float) if sys.jacobian_f is not None \
        else jacobian_fd(sys.f, x)
    JD = sys.jacobian_D(x) if sys.jacobian_D is not None else jacobian_fd(sys.D, x)
    return Jf - sys.P @ np.asarray(JD, dtype=float), Jf


def _stability_label(eigenvalues):
    m = float(eigenvalues.real.max())
    if m > STAB_TOL:
        return "Unstable"
    if m < -STAB_TOL:
        return "Stable"
    return "Marginal"


def _norm(v) -> float:
    """``np.linalg.norm`` of a real vector, bit for bit: numpy's own formula."""
    return math.sqrt(v.dot(v))


def _ill_conditioned(J) -> bool:
    """``np.linalg.cond(J) > 1e14``, without the SVD for a 2 x 2 J that is
    clearly well conditioned: there ``s / |det J| = κ + 1/κ`` for
    ``s = ‖J‖_F²``, so ``s < 1e13 |det J|`` bounds κ far below 1e14; the
    range test on s keeps ``det J`` clear of overflow and underflow."""
    if J.shape == (2, 2):
        (a, b), (c, d) = J.tolist()
        s = a * a + b * b + c * c + d * d
        if 1e-150 < s < 1e150 and s < 1e13 * abs(a * d - b * c):
            return False
    return np.linalg.cond(J) > 1e14


def find_equilibrium(sys: NonlinearPortSystem, x_guess) -> EquilibriumReport:
    """Damped Newton for ``f(x) - P D(x) = 0``, at most ``NEWTON_MAX_ITER`` steps.

    Armijo backtracking with halving (up to 30 halvings per step); a singular
    Jacobian switches to a pseudo-inverse step and is flagged in the report
    notes.  Raises ``NoConvergence`` (carrying the best iterate) when the
    residual never reaches ``NEWTON_TOL``, and ``NonFiniteEvaluation`` when
    the Jacobian at the returned point is not finite.
    """
    x = np.asarray(x_guess, dtype=float).ravel().copy()
    if x.size != sys.n:
        raise DimensionMismatch(f"guess has dimension {x.size}, system has {sys.n}")
    notes = []
    residual, jacobians = _residual, _jacobians
    # an overflowing residual or Jacobian is no warning: the line search
    # rejects a non-finite residual, and the checks below raise
    with np.errstate(over="ignore", invalid="ignore"):
        g = residual(sys, x)
        J, J_kin = jacobians(sys, x)
        res = _norm(g)
        best_x, best_res, best_J, best_J_kin = x, res, J, J_kin
        for _ in range(NEWTON_MAX_ITER):
            if res <= NEWTON_TOL:
                break
            try:
                if _ill_conditioned(J):
                    raise np.linalg.LinAlgError("ill-conditioned")
                step = np.linalg.solve(J, -g)
            except np.linalg.LinAlgError:
                step = -np.linalg.pinv(J) @ g
                if "pseudo-inverse step" not in notes:
                    notes.append("pseudo-inverse step")
            # up to 30 halvings; the point after the last is taken as it is
            alpha = 1.0
            for halvings in range(31):
                x_new = x + step if alpha == 1.0 else x + alpha * step
                g_new = residual(sys, x_new)
                res_new = _norm(g_new)
                if halvings == 30 or np.isfinite(g_new).all() and \
                        res_new <= (1.0 - 1e-4 * alpha) * res:
                    break
                alpha *= 0.5
            x, g, res = x_new, g_new, res_new
            J, J_kin = jacobians(sys, x)
            if res < best_res:
                best_x, best_res, best_J, best_J_kin = x, res, J, J_kin
    if best_res > NEWTON_TOL:
        raise NoConvergence(
            f"Newton stalled at residual {best_res:.3e} (tol {NEWTON_TOL:.1e})",
            best_x=best_x, best_residual=best_res,
        )
    if not np.isfinite(best_J).all():
        raise NonFiniteEvaluation(
            f"the Jacobian at the equilibrium {best_x.tolist()} is not finite")
    return EquilibriumReport(
        x_star=best_x, residual=best_res, jacobian_full=best_J,
        jacobian_kinetic=best_J_kin, notes="; ".join(notes),
    )


# -- model builders -------------------------------------------------------------


# the FitzHugh-Nagumo parameters of the front ends when none is given
FHN_DEFAULTS = {"mu": 0.05, "beta": 1.28, "gamma": 0.12, "xi": 0.1}


_FHN_P = _frozen(np.diag([1.0, 0.0]))


def _fhn_pd(u, v):  # P (u, v) on floats, summed from +0 as numpy's product sums it
    return 0.0 + u + 0.0 * v, 0.0 + 0.0 * u + 0.0 * v


def fhn_system(mu: float, beta: float = FHN_DEFAULTS["beta"],
               gamma: float = FHN_DEFAULTS["gamma"],
               xi: float = FHN_DEFAULTS["xi"]) -> NonlinearPortSystem:
    """FitzHugh-Nagumo with a dissipation term on the first (port) variable:

    ``x' = -y - (x^3/3 - x) - mu x``, ``y' = xi (x - beta y + gamma)``.

    Kinetics f(x, y) = (-y - (x^3/3 - x), xi (x - beta y + gamma)), dissipation
    D(x, y) = mu (x, y), projection P = diag(1, 0), so -P D contributes
    exactly -mu x to the first equation.  Its residual and Jacobians, on
    Python floats, equal ``f - P D`` and ``J_f - P J_D`` composed in numpy bit
    for bit, but for the sign and payload of a NaN, which neither fixes.
    """
    mu, beta, gamma, xi = float(mu), float(beta), float(gamma), float(xi)

    def kinetics(x, y):
        try:
            cube = x ** 3
        except OverflowError:  # a Python float raises where numpy's cube is ±inf
            cube = np.float64(x) ** 3
        return -y - (cube / 3.0 - x), xi * (x - beta * y + gamma)

    def kinetic_jacobian(x):
        return [[1.0 - x * x, -1.0], [xi, -xi * beta]]

    def f(z):
        x, y = z
        return np.array(kinetics(x, y))

    def D(z):
        return mu * np.asarray(z, dtype=float)

    def jac_f(z):
        x, _ = z
        return np.array(kinetic_jacobian(x))

    JD = functools.cache(lambda: _frozen(mu * np.eye(2)))  # built on first use

    def residual(z):
        x, y = z.tolist()
        (f0, f1), (pd0, pd1) = kinetics(x, y), _fhn_pd(mu * x, mu * y)
        return np.array([f0 - pd0, f1 - pd1])

    # P J_D, column by column, with J_D = mu I as numpy forms it
    (p00, p10), (p01, p11) = _fhn_pd(mu, mu * 0.0), _fhn_pd(mu * 0.0, mu)

    def jacobians(z):
        (a, b), (c, d) = J_kin = kinetic_jacobian(z.item(0))
        return np.array([[a - p00, b - p01], [c - p10, d - p11]]), np.array(J_kin)

    return NonlinearPortSystem(
        f=f, D=D, P=_FHN_P, n=2, jacobian_f=jac_f, jacobian_D=lambda _: JD(),
        family="fhn", params={"mu": mu, "beta": beta, "gamma": gamma, "xi": xi},
        residual=residual, jacobians=jacobians,
    )


def fhn_equilibrium_guesses(mu: float, beta: float, gamma: float, xi: float):
    """Starting points for the FitzHugh-Nagumo equilibrium search.

    For xi != 0 the equilibrium condition reduces to the cubic
    ``x^3 - 3 (1 - mu - 1/beta) x + 3 gamma / beta = 0`` with y = (x+gamma)/beta;
    its real roots give exact-to-roundoff guesses.  Where a coefficient of
    the cubic overflows, the fixed fallback guesses are returned.
    """
    if xi != 0.0 and beta != 0.0:
        coeffs = [1.0, 0.0, -3.0 * (1.0 - mu - 1.0 / beta), 3.0 * gamma / beta]
        roots = np.roots(coeffs) if all(map(math.isfinite, coeffs)) else []
        guesses = [np.array([x, (x + gamma) / beta])
                   for x in (float(r.real) for r in roots if abs(r.imag) < 1e-9)]
        if guesses:
            return guesses
    return [np.array([-1.0, -0.6]), np.zeros(2)]


def fhn_complexity_function(mu: float, beta: float, gamma: float,
                            xi: float) -> complexity.RationalFunction:
    """FitzHugh-Nagumo complexity function: :func:`complexity.one_port_rational`
    of the kinetic Jacobian at the equilibrium for the given parameters,
    found from the first of ``fhn_equilibrium_guesses`` that converges."""
    sys = fhn_system(mu, beta, gamma, xi)
    for guess in fhn_equilibrium_guesses(mu, beta, gamma, xi):
        try:
            report = find_equilibrium(sys, guess)
        except NoConvergence:
            continue
        return complexity.one_port_rational(report.jacobian_kinetic)
    raise EquilibriumNotFound(
        f"no equilibrium found for mu={mu}, beta={beta}, gamma={gamma}, xi={xi}"
    )


def hopf_locate(builder: Callable, mu_lo: float, mu_hi: float, tol: float = 1e-6,
                x_guess=None):
    """Bisection in the parameter of the real spectral abscissa of the full
    equilibrium Jacobian, following the equilibrium branch by continuation.

    Returns a :class:`HopfResult`; ``is_hopf`` records whether the crossing
    eigenvalue pair is genuinely complex at the located parameter (a real
    crossing is a fold/steady bifurcation instead).
    """
    if not (mu_lo < mu_hi):
        raise NoSignChange("mu_lo must be strictly below mu_hi")

    x = None if x_guess is None else np.asarray(x_guess, dtype=float)
    mu_from = mu_lo  # the parameter of the last converged point x

    def solve(mu, guess):
        sys = builder(mu)
        if guess is None:
            guess = fhn_equilibrium_guesses(**sys.params)[0] if sys.family == "fhn" \
                else np.zeros(sys.n)
        return find_equilibrium(sys, guess)

    def continued(mu):
        """The equilibrium at mu and its spectral abscissa, reached from the
        last converged point in one step or, failing that, in 2, 4, 8 or 16."""
        nonlocal x, mu_from
        for k in (1, 2, 4, 8, 16):
            guess = x
            try:
                for j in range(1, k + 1):
                    report = solve(mu if j == k else mu_from + (mu - mu_from) * j / k, guess)
                    guess = report.x_star
                break
            except NoConvergence:
                continue
        else:
            raise BranchLost(f"equilibrium branch lost near mu = {mu}")
        x, mu_from = report.x_star, mu
        return report, float(report.eigenvalues_full.real.max())

    rep_lo, phi_lo = continued(mu_lo)
    _, phi_hi = continued(mu_hi)
    # an endpoint exactly on the crossing still brackets it
    if np.sign(phi_lo) == np.sign(phi_hi) != 0.0:
        raise NoSignChange(
            f"spectral abscissa has the same sign at both ends "
            f"({phi_lo:.3e}, {phi_hi:.3e})"
        )
    lo, hi = float(mu_lo), float(mu_hi)
    x, mu_from = rep_lo.x_star, lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        _, phi_mid = continued(mid)
        if np.sign(phi_mid) == np.sign(phi_lo):
            lo, phi_lo = mid, phi_mid
        else:
            hi = mid
    mu_star = 0.5 * (lo + hi)
    report, _ = continued(mu_star)
    eigs = report.eigenvalues_full
    crossing = eigs[int(np.argmax(eigs.real))]
    return HopfResult(
        mu_star=mu_star, is_hopf=bool(abs(crossing.imag) > 1e-6),
        crossing_eigenvalue=complex(crossing), equilibrium=report.x_star,
    )


@dataclass(frozen=True)
class HopfResult:
    mu_star: float
    is_hopf: bool
    crossing_eigenvalue: complex
    equilibrium: np.ndarray


def discrete_laplacian(N: int, boundary: str = "dirichlet") -> np.ndarray:
    """Five-point-stencil Laplacian on the N x N grid as an N^2 x N^2 matrix.

    Boundary closures: Dirichlet drops missing neighbors (ghost value 0),
    Neumann mirrors them (ghost equals the boundary node), Toroidal wraps.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    kind = boundary.lower()
    if kind not in ("dirichlet", "neumann", "toroidal"):
        raise ValueError(f"unknown boundary type: {boundary!r}")
    rows = np.arange(N * N)  # node (j, k) is row j N + k
    j, k = np.divmod(rows, N)
    M = np.diag(np.full(N * N, -4.0))
    for dj, dk in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        jj, kk = j + dj, k + dk
        inside = (0 <= jj) & (jj < N) & (0 <= kk) & (kk < N)
        if kind == "toroidal":
            cols = (jj % N) * N + kk % N
        else:  # a Neumann ghost adds to the node itself, a Dirichlet one adds 0
            cols = np.where(inside, jj * N + kk, rows)
        take = inside | (kind != "dirichlet")
        # each row appears once per direction, so coinciding neighbors add up
        M[rows[take], cols[take]] += 1.0
    return M


def rd_single_cell(f: Callable, D_coeffs, m: int, n: int) -> NonlinearPortSystem:
    """Single reaction cell with kinetics f under Dirichlet closure: the
    diffusion of the m port variables reduces to ``-4 D_i x_i``, expressed as
    the dissipation map ``D(x) = (4 D_1 x_1, ..., 4 D_m x_m, 0, ...)`` with P
    projecting onto the first m coordinates."""
    if not (1 <= m <= n):
        raise DimensionMismatch(f"need 1 <= m <= n, got m={m}, n={n}")
    D_coeffs = np.asarray(D_coeffs, dtype=float).ravel()
    if D_coeffs.size != m:
        raise DimensionMismatch(f"expected {m} diffusion coefficients, got {D_coeffs.size}")
    if np.any(D_coeffs <= 0):
        raise ValueError("diffusion coefficients must be positive")

    def kinetics(x):
        out = np.asarray(f(np.asarray(x, dtype=float).ravel()), dtype=float).ravel()
        if out.size != n:
            raise DimensionMismatch(f"kinetics returned {out.size} values, expected {n}")
        return out

    def D(x):
        x = np.asarray(x, dtype=float).ravel()
        out = np.zeros(n)
        out[:m] = 4.0 * D_coeffs * x[:m]
        return out

    P = np.diag([1.0] * m + [0.0] * (n - m))
    return NonlinearPortSystem(f=kinetics, D=D, P=P, n=n, family="rd_cell",
                               params={"m": m, "n": n, "D": D_coeffs.tolist()})


# -- the full pipeline -----------------------------------------------------------


def analyze_equilibrium_pipeline(sys: NonlinearPortSystem, x_guess,
                                 cfg: Optional[activity.WitnessSearchConfig] = None,
                                 tols=None) -> dict:
    """Equilibrium -> kinetic linearization -> activity verdict -> genericity
    membership, plus the edge-of-chaos classification under ``tols`` for the
    FitzHugh-Nagumo family; stage failures raise ``StageError`` by stage."""
    def run(stage, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise StageError(stage, exc) from exc

    eq = run("find_equilibrium", find_equilibrium, sys, x_guess)
    # the kinetic part linearized at the equilibrium, with P kept; error
    # reports name this stage "linearize_at"
    lin = run("linearize_at", linsys.make_system, eq.jacobian_kinetic, sys.P)
    try:
        gen = genericity.in_generic_M(lin)
    except ZeroProjection:
        gen = None
    verdict = run("classify_activity", activity.classify_activity, lin, cfg, gen)
    edge_json = None
    if sys.family == "fhn":
        rf = complexity.one_port_rational(eq.jacobian_kinetic)
        edge = run("edge_of_chaos_classify", complexity.edge_of_chaos_classify, rf, tols)
        edge_json = {**edge.to_json(), "Y": rf.to_json()}
    return {
        "equilibrium": {
            "x_star": eq.x_star.tolist(),
            "residual": eq.residual,
            "stability": eq.stability,
            "notes": eq.notes,
        },
        "jacobians": {
            "kinetic": eq.jacobian_kinetic.tolist(),
            "full": eq.jacobian_full.tolist(),
            "max_re_eig_full": float(eq.eigenvalues_full.real.max()),
            "max_re_eig_kinetic": float(np.linalg.eigvals(eq.jacobian_kinetic).real.max()),
        },
        "activity": verdict.to_json(),
        "genericity": None if gen is None else gen.to_json(),
        "edge_of_chaos": edge_json,
    }
