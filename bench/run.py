"""Benchmark of locact: verdict throughput and latency on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` serves the first ``round(S * rate)`` requests of the
workload's request stream in a closed loop (one client, next request after
the previous one completes), ``rate`` being fixed per workload, and reports
the end-to-end metrics with request times scaled to reference speed (see
calibration_loop).  Each request's output is checked between requests,
outside the timed window.  ``--trace 1`` serves the first third of those
requests three times, traced, untraced and traced again, and reports the
per-layer metrics derived from the spans of the last pass.

The metrics reported are those BENCHMARK.json lists.  The last line of
standard output is the JSON result; the full record (environment, counters,
checks, seed cross-check) and the spans go to .bench_out/.  See
bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3  # set-ups per run: this process plus fresh child processes
SETUP_PROBE_TIMEOUT_S = 40
CALIBRATION_STEPS = 120
CALIBRATION_REF_S = 3e-3  # calibration loop time at reference speed
CALIBRATION_REPEATS = 5  # loops per speed sample; the sample is their median
CALIBRATION_INTERVAL_S = 0.25  # least request time between two speed samples
TRACE_PASSES = 3  # traced, untraced, traced
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(name, seed, seconds, workdir):
    """Imports, input generation and one warm-up request; returns the
    workload and the seconds this took."""
    start = perf_counter()
    import workloads  # numpy, scipy and locact

    kind = workloads.WORKLOADS[name]
    workload = kind(seed, workdir, kind.requests(seconds))
    workload.prepare()
    workload.warm_up()
    return workload, perf_counter() - start


def setup_in_child(name, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def calibration_loop():
    """Seconds taken by a fixed classical RK4 loop on a 3-state system, the
    instruction mix of the library's integrators: small numpy products
    driven from Python.

    The loop belongs to the benchmark, so no change to the library moves it.
    Its time over CALIBRATION_REF_S is the machine's speed factor at that
    moment: on a shared host the same request runs up to twice as slow when
    the neighbours are busy, and the calibration loop slows with it.
    """
    import numpy as np

    A = np.array([[-0.5, 1.0, 0.2], [-1.0, -0.3, 0.1], [0.0, 0.4, -0.2]])
    f = np.array([0.1, -0.2, 0.05])
    h = 1e-3
    x = np.zeros(3)
    W = 0.0
    start = perf_counter()
    for _ in range(CALIBRATION_STEPS):
        k1 = A @ x + f
        y = x + (0.5 * h) * k1
        k2 = A @ y + f
        y = x + (0.5 * h) * k2
        k3 = A @ y + f
        y = x + h * k3
        k4 = A @ y + f
        W += (h / 6.0) * (x @ f + 2.0 * (y @ f) + k4 @ f)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return perf_counter() - start


def speed_sample():
    """The speed factor now: the median of a few calibration loops.

    It is taken straight after a request, with no idle time between: after
    a pause of a few milliseconds the shared host ran the short loop up to
    1.6 times faster than the library under sustained load."""
    return statistics.median(calibration_loop() for _ in range(CALIBRATION_REPEATS)) \
        / CALIBRATION_REF_S


class Tally:
    """Serves requests one at a time and keeps what the metrics need.

    Speed samples are taken before the first request, after the last, and
    between requests once CALIBRATION_INTERVAL_S of request time has passed
    since the previous sample.  A request's wall time divided by the mean of
    the two samples around it is its latency at reference speed.
    """

    def __init__(self, workload):
        self.workload = workload
        self.wall = []
        self.latencies = []
        self.speeds = []
        self.failed = 0
        self.margins = []
        self.output_bytes = 0
        self.problems = []
        self._speed = None  # the last speed sample
        self._unscaled = []  # wall times of the requests served since it

    def serve(self, k, scope=contextlib.nullcontext):
        from workloads import Outcome

        if self._speed is None:
            self._speed = speed_sample()
        req = self.workload.request(k)
        start = perf_counter()
        try:
            with scope(k):
                result = self.workload.run(req)
        except Exception as exc:  # a raising request is a failed request
            outcome = Outcome([f"raised {exc!r}"])
        else:
            outcome = None
        self._unscaled.append(perf_counter() - start)
        if sum(self._unscaled) >= CALIBRATION_INTERVAL_S:
            self.settle()
        if outcome is None:
            try:
                outcome = self.workload.check(req, result)
            except Exception as exc:  # so is one whose output cannot be checked
                outcome = Outcome([f"check raised {exc!r}"])
        self._count(k, outcome)

    def settle(self):
        """Take a speed sample and scale the requests served since the last."""
        if not self._unscaled:
            return
        after = speed_sample()
        speed = 0.5 * (self._speed + after)
        self.wall += self._unscaled
        self.speeds += [speed] * len(self._unscaled)
        self.latencies += [wall / speed for wall in self._unscaled]
        self._speed, self._unscaled = after, []

    def _count(self, k, outcome):
        self.failed += bool(outcome.problems)
        self.margins += outcome.margins
        self.output_bytes += outcome.output_bytes
        self.problems += [f"request {k}: {p}" for p in outcome.problems]

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def busy_s(self):
        return sum(self.latencies)

    @property
    def wall_s(self):
        return sum(self.wall)

    def margin_p50(self):
        return statistics.median(self.margins) if self.margins else 0.0


def percentile(times, pct):
    """Harrell-Davis estimate of the pct-th percentile: a mean of all order
    statistics weighted by a Beta distribution centred on the percentile.
    Where few requests lie in a heavy tail it is steadier than interpolating
    between the two nearest order statistics."""
    import numpy as np
    import scipy.special

    x = np.sort(times)
    n = x.size
    p = pct / 100.0
    weights = np.diff(scipy.special.betainc(p * (n + 1), (1.0 - p) * (n + 1),
                                            np.arange(n + 1) / n))
    return float(weights @ x)


def tail_percentile(count):
    """The highest whole percentile with more than ten of ``count`` requests
    beyond it, and at least the median."""
    return max(50, math.floor(100.0 * (1.0 - 11.0 / count)))


def timed_run(workload, setup_samples):
    tally = Tally(workload)
    for k in range(workload.count):
        tally.serve(k)
    tally.settle()
    lat = tally.latencies
    pct = tail_percentile(len(lat))
    lat_tail = percentile(lat, pct)
    values = {
        "setup_s": statistics.median(setup_samples),
        "throughput_per_s": tally.attempted / tally.busy_s,
        "latency_p50_ms": 1e3 * percentile(lat, 50),
        "latency_tail_ms": 1e3 * lat_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "setup_samples_s": setup_samples,
        "failed_frac": tally.failed / tally.attempted,
        "witness_margin_log10_p50": tally.margin_p50() if tally.margins else None,
        "latency_tail_percentile": pct,
        "latency_tail_beyond": sum(x > lat_tail for x in lat),
        "speed_factor_p50": statistics.median(tally.speeds),
        "wall_throughput_per_s": tally.attempted / tally.wall_s,
        "wall_latency_p50_ms": 1e3 * percentile(tally.wall, 50),
        "wall_latency_tail_ms": 1e3 * percentile(tally.wall, pct),
        "output_bytes": tally.output_bytes,
    }
    return tally, values, extra


def traced_run(workload, name, seed):
    """Serves the same request prefix traced, untraced and traced again.

    The per-layer metrics come from the last pass; the work counters of the
    two traced passes must be equal."""
    import tracing

    prefix = max(1, workload.count // TRACE_PASSES)
    tally = Tally(workload)
    busy, output_bytes, tracers = [], [], []
    for traced in (True, False, True):
        busy_before, bytes_before = tally.busy_s, tally.output_bytes
        scope = contextlib.nullcontext
        if traced:
            tracers.append(tracing.Tracer())
            scope = tracers[-1].recording
        for k in range(prefix):
            tally.serve(k, scope)
        tally.settle()
        busy.append(tally.busy_s - busy_before)
        output_bytes.append(tally.output_bytes - bytes_before)
    first, values = (tracing.layer_metrics(tracer.spans) for tracer in tracers)
    first["cli.output_bytes"], values["cli.output_bytes"] = output_bytes[0], output_bytes[2]
    values["trace.overhead_frac"] = 0.5 * (busy[0] + busy[2]) / busy[1] - 1.0
    # every pass serves the same requests, so the margins repeat pass by pass
    values["activity.witness_margin_log10_p50"] = tally.margin_p50()

    counters = {k: v for k, v in values.items() if isinstance(v, int)}
    spans_path = OUT / f"spans-{name}-seed{seed}.json"
    spans_path.write_text(json.dumps({"fields": tracing.SPAN_FIELDS, "spans": tracers[-1].spans}))
    extra = {
        "requests_per_pass": prefix,
        "busy_s_per_pass": busy,
        "counters_repeat": counters_repeat(name, seed, prefix, counters, first),
        "seed_cross_check": seed_cross_check(name, values),
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return tally, values, extra


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def counters_repeat(name, seed, prefix, counters, first_pass):
    """Work counters must repeat exactly: between the two traced passes of
    this run, and across runs on the same seed, request prefix and sources
    (the first traced run stores them, every later one compares)."""
    differ = sorted(k for k in counters if first_pass.get(k) != counters[k])
    if differ:
        return {"holds": False, "detail": f"differ between the traced passes: {differ}"}
    path = OUT / "counters" / f"{name}-seed{seed}-n{prefix}-{source_digest()}.json"
    where = path.relative_to(ROOT)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counters, indent=1, sort_keys=True))
        return {"holds": True, "detail": f"equal in both traced passes; stored in {where}"}
    stored = json.loads(path.read_text())
    differ = sorted(k for k in stored.keys() | counters.keys() if stored.get(k) != counters.get(k))
    return {"holds": not differ, "detail": f"differ from {where}: {differ}" if differ
            else f"equal in both traced passes and to {where}"}


def seed_cross_check(name, m):
    """The traced profile against the one measured on the seed code; a
    disagreement is reported, not corrected."""
    if name == "identity-ports":
        share = m["linsys.forced_energy.self_s"] / max(m["activity.classify_activity.busy_s"], 1e-12)
        return {"holds": share >= 0.9,
                "detail": f"forced_energy self time is {share:.3f} of classify_activity busy time (>= 0.9)"}
    if name == "generic-ports":
        shares = {key[:-len(".self_s")]: v for key, v in m.items() if key.endswith(".self_s")}
        top = max(shares, key=shares.get)
        return {"holds": top == "signals.mollifier_cdf",
                "detail": f"largest self time: {top} ({shares[top]:.3f} s; expected signals.mollifier_cdf)"}
    if name == "genericity-probe":
        calls = m["linsys.forced_energy.calls"]
        return {"holds": calls == 0, "detail": f"linsys.forced_energy.calls = {calls} (expected 0)"}
    return {"holds": True, "detail": "no seed profile to compare against"}


def blas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(loadavg_start):
    import numpy
    import scipy

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_start": loadavg_start,
        "loadavg_end": os.getloadavg(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "locact" / "__init__.py").is_file():
        print(f"error: no locact sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            _, setup_s = set_up(args.workload, args.seed, args.seconds, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, workdir):
    loadavg_start = os.getloadavg()
    if args.trace:
        workload, _ = set_up(args.workload, args.seed, args.seconds, workdir)
        tally, values, extra = traced_run(workload, args.workload, args.seed)
        wanted = spec["per_layer"]
        correct = tally.failed == 0 and extra["counters_repeat"]["holds"]
    else:
        # child set-ups first, while this process has imported only the stdlib
        setups = [setup_in_child(args.workload, args.seed, args.seconds)
                  for _ in range(SETUP_SAMPLES - 1)]
        workload, setup_s = set_up(args.workload, args.seed, args.seconds, workdir)
        tally, values, extra = timed_run(workload, setups + [setup_s])
        wanted = spec["end_to_end"]
        correct = tally.failed == 0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed, "metrics": metrics, "extra": extra,
        "problems": tally.problems[:50], "wall_s": tally.wall, "speed_factors": tally.speeds,
        "environment": environment(loadavg_start),
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {tally.attempted} requests, "
          f"{tally.failed} failed, failed_frac {tally.failed / tally.attempted:.4g}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    for key, value in extra.items():
        print(f"  {key}: {value}")
    for problem in tally.problems[:10]:
        print(f"  FAILED {problem}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
