"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the locact modules at the names their
callers look up, from outside the library.  Each call records one span:
name, start, end, parent span, request id, a work count taken from the
arguments, whether it raised, and (for verdicts) the route that produced the
verdict.  Spans stay in memory; every per-layer metric is derived from them.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from locact import activity, cli, complexity, genericity, linsys, nonlinear, serialize, signals

SPAN_FIELDS = ("name", "start", "end", "parent", "request", "work", "failed", "route")
NAME, START, END, PARENT, REQUEST, WORK, FAILED, ROUTE = range(len(SPAN_FIELDS))


def _steps(args, kwargs):
    return int(kwargs["steps"] if "steps" in kwargs else args[3])


def _size_of_arg(i):
    def count(args, kwargs):
        return int(np.size(args[i]))
    return count


# (module, attribute the callers look up, span name, work count).  cli imports
# format_csv_row and dumps_canonical by name, so its bindings are wrapped too;
# dumps_canonical recurses through serialize's binding, which stays unwrapped
# so that only outermost calls are timed.
TARGETS = (
    (linsys, "forced_energy", "linsys.forced_energy", _steps),
    (linsys, "solve_forced", "linsys.solve_forced", _steps),
    (linsys, "spectrum", "linsys.spectrum", None),
    (linsys, "matrix_exponential", "linsys.matrix_exponential", None),
    (signals, "eval_signal", "signals.eval_signal", _size_of_arg(1)),
    (signals, "mollifier_cdf", "signals.mollifier_cdf", _size_of_arg(0)),
    (genericity, "in_generic_M", "genericity.in_generic_M", None),
    (genericity, "sample_density_M", "genericity.sample_density_M", None),
    (activity, "classify_activity", "activity.classify_activity", None),
    (activity, "energy_integral", "activity.energy_integral", None),
    (activity, "witness_two_pulse_generic", "activity.witness_two_pulse_generic", None),
    (complexity, "edge_of_chaos_classify", "complexity.edge_of_chaos_classify", None),
    (complexity, "min_real_on_axis", "complexity.min_real_on_axis", None),
    (nonlinear, "find_equilibrium", "nonlinear.find_equilibrium", None),
    (nonlinear, "hopf_locate", "nonlinear.hopf_locate", None),
    (nonlinear, "analyze_equilibrium_pipeline", "nonlinear.analyze_equilibrium_pipeline", None),
    (cli, "cmd_fhn", "cli.cmd_fhn", None),
    (cli, "cmd_witness", "cli.cmd_witness", None),
    (cli, "format_csv_row", "serialize.format_csv_row", None),
    (serialize, "format_csv_row", "serialize.format_csv_row", None),
    (cli, "dumps_canonical", "serialize.dumps_canonical", None),
)

# verdict notes marker -> route name, in the order classify_activity tries them
ROUTES = (
    ("passivity certificate", "certificate"),
    ("witness: real eigenpair", "real_eigenpair"),
    ("witness: complex pair", "complex_pair"),
    ("quadratic-form bump", "bump"),
    ("randomized bump", "randomized"),
    ("generic two-pulse", "two_pulse"),
)
INCONCLUSIVE_ROUTE = "inconclusive"
INTEGRATORS = ("linsys.forced_energy", "linsys.solve_forced")
CLASSIFY = "activity.classify_activity"


def route_of(verdict):
    for marker, route in ROUTES:
        if marker in verdict.notes:
            return route
    return INCONCLUSIVE_ROUTE


class Tracer:
    """Records spans while installed; ``recording(k)`` scopes one request."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = -1
        self._wrapped = [(module, attr, self._wrap(name, getattr(module, attr), work))
                         for module, attr, name, work in TARGETS]

    @contextlib.contextmanager
    def recording(self, request):
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in self._wrapped]
        self._request = request
        for module, attr, traced in self._wrapped:
            setattr(module, attr, traced)
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack
        tag = route_of if name == CLASSIFY else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._request,
                    work(args, kwargs) if work else 0, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if tag is not None:
                span[ROUTE] = tag(result)
            return result

        return traced


def layer_metrics(spans):
    """Per-layer metrics: ``<layer>.calls``, ``busy_s`` (time inside its
    calls; no wrapped function reaches itself, so calls never nest),
    ``self_s`` (busy time minus the time its direct child spans cover), work
    counts, failures, route counts and the integrator ratios."""
    names = sorted({name for _, _, name, _ in TARGETS})
    calls, work, failed = Counter(), Counter(), Counter()
    busy, child_time = defaultdict(float), defaultdict(float)
    routes = Counter()
    under_classify = []
    executed = executed_in_verdicts = integrations_in_verdicts = 0
    for span in spans:
        name, parent = span[NAME], span[PARENT]
        duration = span[END] - span[START]
        parent_name = spans[parent][NAME] if parent >= 0 else None
        in_verdict = name == CLASSIFY or (parent >= 0 and under_classify[parent])
        under_classify.append(in_verdict)
        calls[name] += 1
        work[name] += span[WORK]
        failed[name] += span[FAILED]
        busy[name] += duration
        if parent_name is not None:
            child_time[parent_name] += duration
        if span[ROUTE] is not None:
            routes[span[ROUTE]] += 1
        if name == "signals.eval_signal" and parent_name in INTEGRATORS:
            # RK4 evaluates the input at three points per executed step
            executed += span[WORK] // 3
            executed_in_verdicts += span[WORK] // 3 if in_verdict else 0
        if name in INTEGRATORS and in_verdict:
            integrations_in_verdicts += 1

    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.busy_s"] = busy[name]
        metrics[f"{name}.self_s"] = busy[name] - child_time[name]
    requested = work["linsys.forced_energy"] + work["linsys.solve_forced"]
    verdicts = calls[CLASSIFY]
    metrics.update({
        "linsys.forced_energy.steps_requested": work["linsys.forced_energy"],
        "linsys.solve_forced.steps_requested": work["linsys.solve_forced"],
        "linsys.steps_executed": executed,
        "linsys.step_inflation": executed / requested if requested else 0.0,
        "signals.eval_signal.samples": work["signals.eval_signal"],
        "signals.mollifier_cdf.points": work["signals.mollifier_cdf"],
        "activity.witness_two_pulse_generic.failed": failed["activity.witness_two_pulse_generic"],
        "nonlinear.find_equilibrium.failed": failed["nonlinear.find_equilibrium"],
        "activity.integrations_per_verdict": integrations_in_verdicts / verdicts if verdicts else 0.0,
        "activity.steps_per_verdict": executed_in_verdicts / verdicts if verdicts else 0.0,
    })
    for route in [r for _, r in ROUTES] + [INCONCLUSIVE_ROUTE]:
        metrics[f"activity.route.{route}.count"] = routes[route]
    return metrics
