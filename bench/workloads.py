"""The four workloads of the locact benchmark.

A workload turns a seed into a stream of requests, runs one request (the
timed part) and checks its output (untimed, outside any trace).  The inputs
come from this benchmark's own copies of the acceptance-criterion generators
(criteria 01, 05 and 09), so an edit to the test suite cannot move them.

Request costs are heavy-tailed: on criterion-01 inputs most verdicts take
about 0.2 s, but the witness horizon of an unstable complex pair grows with
its rotation period, and the longest periods in a pool take a hundred times
that.  Independent draws would make a run's throughput depend more on the
seed than on the code.  So a workload draws a seeded pool from its criterion
distribution, sorts it by a spectral key that tracks the work and serves the
entries at fixed quantiles of that order (see QuantileStream).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

from locact import activity, cli, genericity, linsys, nonlinear, signals

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
RECHECK_POINTS = 401  # grid points per smooth segment of the independent re-check
ORACLE_TOL = 1e-9  # criterion 01: active iff the top eigenvalue of sym(A) exceeds this


class QuantileStream:
    """``count`` requests from a pool: the entries at the mid-band quantiles
    ``(j + 1/2) / count`` of the pool sorted by key, one per band.

    Only the pool depends on the seed, so every seed serves the same mix of
    keys; the pool's top ``1 / (2 count)`` by key is never served.  The bands
    are served in the order of ``frac(j * 0.618...)`` (a Kronecker sequence),
    so that every prefix of the stream spreads over the whole key range.
    """

    def __init__(self, pool, keys, count):
        order = sorted(range(len(pool)), key=lambda i: keys[i])
        bands = sorted(range(count), key=lambda j: (j * GOLDEN) % 1.0)
        self.requests = [pool[order[int((j + 0.5) / count * len(pool))]] for j in bands]

    def __getitem__(self, k):
        return self.requests[k]


# -- input generators (own copies of the acceptance-criterion shapes) ---------


def criterion01_matrix(rng):
    """Criterion 01: n uniform in 1..5, A ~ U[-2, 2]^{n x n}; used with P = I."""
    n = int(rng.integers(1, 6))
    return rng.uniform(-2.0, 2.0, (n, n))


def criterion05_system(rng, min_abscissa=0.1, max_tries=200):
    """Criterion 05: n uniform in 1..4, Gaussian A in the generic set with
    P = e1 e1^T, shifted so the spectral abscissa is at least 0.1."""
    n = int(rng.integers(1, 5))
    P = np.zeros((n, n))
    P[0, 0] = 1.0
    for _ in range(max_tries):
        A = rng.standard_normal((n, n))
        shift = min_abscissa - np.linalg.eigvals(A).real.max()
        if shift > 0:
            A = A + (shift + rng.uniform(0.0, 0.3)) * np.eye(n)
        if genericity.in_generic_M(linsys.make_system(A, P)).in_M and \
                np.linalg.eigvals(A).real.max() >= min_abscissa:
            return A, P
    raise RuntimeError("could not sample a generic-set member")


def generic_ports_key(A):
    """Dimension, then spectral abscissa: the two-pulse work tends to grow
    with both."""
    return (A.shape[0], float(np.linalg.eigvals(A).real.max()))


def top_sym_eigenvalue(A):
    return float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1])


def identity_ports_key(A):
    """Stratum of ``(A, I)``, in increasing order of the work its verdict
    takes: passive, unstable dominant mode real, active without an unstable
    mode, or unstable dominant pair complex, ordered by the horizon of its
    witness window."""
    if top_sym_eigenvalue(A) <= ORACLE_TOL:
        return (0, 0.0)
    lam, V = np.linalg.eig(A)
    top = np.lexsort((-lam.imag, -lam.real))[0]
    if lam[top].real <= 1e-8:
        return (2, 0.0)
    if abs(lam[top].imag) <= 1e-10:
        return (1, 0.0)
    return (3, complex_window_end(lam[top], V[:, top]))


def complex_window_end(lam, v):
    """Where the window of a complex-pair witness ends, an estimate of the
    witness horizon and so of the verdict's integration work.

    For an unstable pair ``alpha + i beta`` with eigenvector ``v1 + i v2``,
    ``g(t) = e^(2 alpha t) |sin(beta t) v1 + cos(beta t) v2|^2`` grows on part
    of each rotation period.  The witness drives the system in a window
    around the middle of the longest such run, reaching about 0.9 of the
    run's half-length to either side, and its horizon ends at the middle
    plus twice that reach.  The rotation period alone predicts the work
    less well: for the same period it varies twofold with the eigenvector.
    Should the library's witness change, this key still orders the pool the
    same way, so every commit is served the same requests.
    """
    alpha, beta = lam.real, abs(lam.imag)
    t = np.linspace(0.0, 2.0 * math.pi / beta, 1025)
    w = (np.outer(np.sin(beta * t), v.real) + np.outer(np.cos(beta * t), v.imag)) ** 2
    grows = np.diff(np.log(w.sum(axis=1)) + 2.0 * alpha * t) > 0.0
    edges = np.flatnonzero(np.diff(np.concatenate(([0], grows.astype(int), [0]))))
    starts, lengths = edges[::2], edges[1::2] - edges[::2]
    if starts.size == 0:
        return 0.0
    longest = np.lexsort((starts, lengths))[-1]  # the last of the longest runs
    return float(t[starts[longest]] + 1.4 * t[lengths[longest]])


# -- output checks --------------------------------------------------------------


def recheck_energy(A, P, sig, T):
    """Witness energy by exact first-order-hold propagation on a uniform grid
    per smooth segment of the signal, with Simpson's rule for ``<x, P u>``.

    Independent of the library's RK4 integrator and of its step budget.
    """
    A = np.asarray(A, dtype=float)
    P = np.asarray(P, dtype=float)
    n = A.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    edges = [0.0] + sorted(b for b in signals.breakpoints(sig) if 0.0 < b < T) + [T]
    x = np.zeros(n)
    W = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        t = np.linspace(lo, hi, RECHECK_POINTS)
        h = t[1] - t[0]
        f = np.reshape(signals.eval_signal(sig, t), (t.size, n)) @ P.T
        # with f linear on a step, [x; f(s); f'] evolves by the constant
        # generator [[A, I, 0], [0, 0, I], [0, 0, 0]]: one exponential gives
        # the exact step map
        E = scipy.linalg.expm(h * np.block([[A, eye, zero], [zero, zero, eye],
                                            [zero, zero, zero]]))
        Phi, E12, E13 = E[:n, :n], E[:n, n:2 * n], E[:n, 2 * n:] / h
        drive = f[:-1] @ (E12 - E13).T + f[1:] @ E13.T
        xs = np.empty((t.size, n))
        xs[0] = x
        for k in range(t.size - 1):
            xs[k + 1] = Phi @ xs[k] + drive[k]
        g = np.einsum("ij,ij->i", xs, f)
        W += h / 3.0 * (g[0] + 4.0 * g[1:-1:2].sum() + 2.0 * g[2:-1:2].sum() + g[-1])
        x = xs[-1]
    return W


def witness_problems(A, P, sig, T, W, err):
    """Problems with an Active verdict's witness; empty when it holds."""
    problems = []
    if not W < -abs(err):
        problems.append(f"witness W={W:.6g} not below its error estimate {err:.3g}")
    W_check = recheck_energy(A, P, sig, T)
    if not W_check < 0.0:
        problems.append(f"independent re-check gives W={W_check:.6g} >= 0")
    return problems


def margin_log10(W, err):
    return math.log10(abs(W) / err) if err > 0 else math.inf


class Outcome:
    """Result of checking one request: problems found, witness margins
    (log10 |W| / error estimate) of its Active verdicts, bytes written."""

    def __init__(self, problems=(), margins=(), output_bytes=0):
        self.problems = list(problems)
        self.margins = list(margins)
        self.output_bytes = output_bytes


def verdict_outcome(A, P, verdict, expected=activity.ACTIVE):
    if verdict.status != expected:
        return Outcome([f"status {verdict.status}, expected {expected}"])
    if verdict.status != activity.ACTIVE:
        return Outcome()
    w = verdict.witness
    return Outcome(witness_problems(A, P, w.signal, w.T, w.W, w.quadrature_error_estimate),
                   [margin_log10(w.W, w.quadrature_error_estimate)])


# -- workloads --------------------------------------------------------------------


class Workload:
    """One request type over a seeded input stream.

    ``rate`` is the number of requests a run serves per second of
    ``--seconds``: the seed code's throughput at reference speed, so that a
    run's requests take about ``--seconds`` there.  The count is fixed, so
    every run of a seed serves the same requests, however fast the host or
    the code.
    """

    name: str
    rate: float

    def __init__(self, seed, workdir: Path, count):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.count = count  # requests in the stream

    @classmethod
    def requests(cls, seconds):
        return max(4, round(seconds * cls.rate))

    def prepare(self):
        """Generate the inputs."""

    def warm_up(self):
        """Run one fixed request, the same for every seed."""

    def request(self, k):
        raise NotImplementedError

    def run(self, req):
        raise NotImplementedError

    def check(self, req, result) -> Outcome:
        raise NotImplementedError


class IdentityPorts(Workload):
    name = "identity-ports"
    rate = 3.3

    def prepare(self):
        pool = [criterion01_matrix(self.rng) for _ in range(4096)]
        self.stream = QuantileStream(pool, [identity_ports_key(A) for A in pool], self.count)

    def warm_up(self):
        self.run(np.array([[1.0]]))

    def request(self, k):
        return self.stream[k]

    def run(self, A):
        return activity.classify_activity(linsys.make_system(A, np.eye(A.shape[0])))

    def check(self, A, verdict):
        expected = activity.ACTIVE if top_sym_eigenvalue(A) > ORACLE_TOL else activity.PASSIVE
        return verdict_outcome(A, np.eye(A.shape[0]), verdict, expected)


class GenericPorts(Workload):
    name = "generic-ports"
    rate = 1.5

    WARM_UP = np.array([[0.5, 1.0], [-1.0, 0.2]])

    def prepare(self):
        pool = [criterion05_system(self.rng) for _ in range(256)]
        self.stream = QuantileStream(pool, [generic_ports_key(A) for A, _ in pool], self.count)

    def warm_up(self):
        self.run((self.WARM_UP, np.diag([1.0, 0.0])))

    def request(self, k):
        return self.stream[k]

    def run(self, system):
        return activity.classify_activity(linsys.make_system(*system))

    def check(self, system, verdict):
        return verdict_outcome(*system, verdict)


class GenericityProbe(Workload):
    name = "genericity-probe"
    rate = 31.6

    SAMPLES = 100
    MIN_DENSITY = 0.99  # criterion 09

    def prepare(self):
        self.base_seed = int(self.rng.integers(2**31))

    def warm_up(self):
        self.run((4, 0))

    def request(self, k):
        return 1 + k % 4, self.base_seed + k

    def run(self, req):
        n, seed = req
        return genericity.sample_density_M(n, self.SAMPLES, seed)

    def check(self, req, fraction):
        if fraction >= self.MIN_DENSITY:
            return Outcome()
        return Outcome([f"density {fraction} below {self.MIN_DENSITY} at n={req[0]}"])


class CliReports(Workload):
    """Alternates ``fhn --mu MU --sweep 0:0.1:401`` with ``witness A P --csv``
    on matrix files written during preparation (P = I and P = e1 e1^T in turn,
    one file pair per witness request), through the in-process ``cli.main``."""

    name = "cli-reports"
    rate = 1.27

    SWEEP_POINTS = 401
    HOPF_RANGE = (0.045, 0.055)  # criterion 06

    def prepare(self):
        self.mu_offset = float(self.rng.uniform())
        witnesses = self.count // 2
        ports = QuantileStream(*self._active_identity_pool(), (witnesses + 1) // 2)
        pool = [criterion05_system(self.rng) for _ in range(64)]
        generic = QuantileStream(pool, [generic_ports_key(A) for A, _ in pool],
                                 witnesses // 2)
        self.witness_inputs = []
        for j in range(witnesses):
            if j % 2 == 0:
                A = ports[j // 2]
                P = np.eye(A.shape[0])
            else:
                A, P = generic[j // 2]
            self.witness_inputs.append((self._write(f"A{j}.json", A),
                                        self._write(f"P{j}.json", P), A, P))
        self.sweep_csv = str(self.workdir / "sweep.csv")
        self.witness_csv = str(self.workdir / "witness.csv")

    def _active_identity_pool(self):
        pool = []
        while len(pool) < 512:
            A = criterion01_matrix(self.rng)
            if top_sym_eigenvalue(A) > ORACLE_TOL:
                pool.append(A)
        return pool, [identity_ports_key(A) for A in pool]

    def _write(self, name, M):
        path = self.workdir / name
        path.write_text(linsys.format_matrix_json(M), encoding="utf-8")
        return str(path)

    def warm_up(self):
        A = self._write("warm_A.json", np.array([[1.0]]))
        self.run(("witness", ["witness", A, A, "--csv", self.witness_csv], None))

    def request(self, k):
        if k % 2 == 0:
            mu = 0.1 * ((self.mu_offset + (k // 2) * GOLDEN) % 1.0)
            return ("fhn", ["fhn", "--mu", repr(mu), "--sweep",
                            f"0:0.1:{self.SWEEP_POINTS}", "--sweep-csv",
                            self.sweep_csv], mu)
        A_path, P_path, A, P = self.witness_inputs[k // 2]
        return ("witness", ["witness", A_path, P_path, "--csv", self.witness_csv], (A, P))

    def run(self, req):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(req[1])
        return code, out.getvalue()

    def check(self, req, result):
        kind, argv, data = req
        code, stdout = result
        if code != 0:
            return Outcome([f"{kind} exited with {code}"], output_bytes=len(stdout.encode()))
        # the CSV goes once read, so a request that fails to write it cannot
        # pass on its predecessor's file
        csv_path = Path(argv[-1])
        csv_text = csv_path.read_text(encoding="utf-8")
        csv_path.unlink()
        output_bytes = len(stdout.encode()) + len(csv_text.encode())
        report = json.loads(stdout)
        if kind == "fhn":
            outcome = self._check_fhn(report, csv_text, data)
        else:
            outcome = self._check_witness(report, csv_text, *data)
        outcome.output_bytes = output_bytes
        return outcome

    def _check_fhn(self, report, csv_text, mu):
        problems = []
        rows = csv_text.splitlines()[1:]
        if len(rows) != self.SWEEP_POINTS or report["sweep"]["points"] != self.SWEEP_POINTS:
            problems.append(f"sweep has {len(rows)} CSV rows, expected {self.SWEEP_POINTS}")
        hopf = report["sweep"]["hopf"] or {}
        lo, hi = self.HOPF_RANGE
        if not lo <= hopf.get("mu", math.nan) <= hi:
            problems.append(f"Hopf point {hopf} outside [{lo}, {hi}]")
        verdict = report["pipeline"]["activity"]
        if verdict["status"] != activity.ACTIVE:
            return Outcome(problems)
        A = np.array(report["pipeline"]["jacobians"]["kinetic"])
        P = nonlinear.fhn_system(mu).P
        return Outcome(problems + _json_witness_problems(A, P, verdict["witness"]),
                       [_json_margin(verdict["witness"])])

    def _check_witness(self, report, csv_text, A, P):
        n = A.shape[0]
        header = ",".join(["t"] + [f"x{i + 1}" for i in range(n)]
                          + [f"u{i + 1}" for i in range(n)] + ["integrand"])
        problems = []
        if csv_text.split("\n", 1)[0] != header:
            problems.append(f"witness CSV header is not {header!r}")
        if report["status"] != activity.ACTIVE:
            return Outcome(problems + [f"status {report['status']}, expected Active"])
        return Outcome(problems + _json_witness_problems(A, P, report["witness"]),
                       [_json_margin(report["witness"])])


def _json_witness_problems(A, P, witness):
    sig = signals.signal_from_json(witness["signal"])
    return witness_problems(A, P, sig, witness["T"], witness["W"],
                            witness["quadrature_error_estimate"])


def _json_margin(witness):
    return margin_log10(witness["W"], witness["quadrature_error_estimate"])


WORKLOADS = {w.name: w for w in (IdentityPorts, GenericPorts, GenericityProbe, CliReports)}
