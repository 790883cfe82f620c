"""The benchmark's span tracer still finds every function it wraps, and it
records one two-pulse verdict with the spans and the route the per-layer
metrics read."""

import importlib.util
from pathlib import Path

import numpy as np

from locact import activity, linsys

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_a_two_pulse_verdict():
    tracing = _load_tracing()
    tracer = tracing.Tracer()  # looks up every wrapped name: fails if one is gone
    sys = linsys.make_system([[0.5, 0.01], [-0.01, 0.5]], np.diag([1.0, 0.0]))
    with tracer.recording(0):
        verdict = activity.classify_activity(sys)
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"activity.classify_activity", "activity.witness_two_pulse_generic",
            "genericity.in_generic_M", "activity.energy_integral",
            "linsys.forced_energy"} <= names
    assert tracing.route_of(verdict) == "two_pulse"
    (classify,) = [s for s in tracer.spans if s[tracing.NAME] == tracing.CLASSIFY]
    assert classify[tracing.ROUTE] == "two_pulse"
    # the wrappers are removed when the recording ends
    assert not hasattr(activity.classify_activity, "__wrapped__")
