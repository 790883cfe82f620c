"""The report-record contract: each ``serialize.Record`` writes the JSON keys
of its fields in declaration order, less the fields declared not-JSON."""

import json
from dataclasses import fields, is_dataclass

import numpy as np

from locact import activity, complexity, genericity, linsys, signals
from locact.serialize import Record

KEYS = {  # record class -> its JSON keys, in order
    "ActivityVerdict": ["status", "witness", "certificate", "notes"],
    "WitnessRecord": ["signal", "T", "W", "quadrature_error_estimate"],
    "GenericTwoPulseWitness": ["signal", "T", "W", "quadrature_error_estimate"],
    "Certificate": ["kind", "max_eig"],
    "GenericityReport": ["in_N", "in_M", "min_eig_gap", "min_abs_eig",
                         "dominance_gap", "g11h11", "port_product_margin", "tol",
                         "notes"],
    "EdgeClassification": ["cond_i", "cond_ii", "cond_iii", "cond_iv",
                           "locally_active", "edge_of_chaos", "evidence"],
    "RationalFunction": ["num", "den"],
    "TwoPulse": ["variant", "a", "b", "k", "T", "direction"],
    "MollifiedTwoPulse": ["variant", "base", "eps_s"],
    "MollifierReal": ["variant", "lam", "v", "T"],
    "MollifierTrajectory": ["variant", "v", "Av", "T"],
    "MollifierComplex": ["variant", "alpha", "beta", "v1", "v2", "t0", "eps", "T"],
}
NOT_JSON = {  # record class -> its fields that stay out of the JSON
    "GenericTwoPulseWitness": {"closed_form_W"},
    "GenericityReport": {"Q", "spectrum"},
    "RationalFunction": {"cancelled"},
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _records():
    """One instance of each record class of the package."""
    port = np.diag([1.0, 0.0])
    two_pulse = linsys.make_system([[0.5, 0.01], [-0.01, 0.5]], port)
    active = activity.classify_activity(two_pulse)
    passive = activity.classify_activity(linsys.make_system(-np.eye(2), np.eye(2)))
    # (s + 1)(s + 2) / ((s + 1)(s - 0.5)): the root -1 cancels, 0.5 is a pole
    rf = complexity.make_rational([2.0, 3.0, 1.0], [-0.5, 0.5, 1.0])
    base = signals.TwoPulse(a=-1.0, b=1.0, k=1.0, T=3.0, direction=[1.0, 0.0])
    return [
        active, active.witness, passive, passive.certificate,
        activity.WitnessRecord(signal=base, T=3.0, W=-1.0, quadrature_error_estimate=0.0),
        genericity.in_generic_M(two_pulse),
        complexity.edge_of_chaos_classify(rf), rf,
        base, signals.MollifiedTwoPulse(base=base, eps_s=0.1),
        signals.MollifierReal(lam=0.5, v=[1.0, 0.0], T=1.0),
        signals.MollifierTrajectory(v=[0.6, 0.8], Av=[-1.0, 2.0], T=0.5),
        signals.MollifierComplex(alpha=0.1, beta=2.0, v1=[1.0, 0.0], v2=[0.0, 1.0],
                                 t0=1.0, eps=0.5, T=3.0),
    ]


def test_record_json_keys_in_field_order_without_the_not_json_fields():
    classes = {cls.__name__ for cls in _subclasses(Record)
               if is_dataclass(cls) and cls.__module__.startswith("locact.")}
    assert classes == set(KEYS)
    records = _records()
    assert {type(r).__name__ for r in records} == set(KEYS)
    for record in records:
        name = type(record).__name__
        obj = record.to_json()
        assert list(obj) == KEYS[name], name
        hidden = {f.name for f in fields(record) if not f.metadata.get("json", True)}
        assert hidden == NOT_JSON.get(name, set()), name
        assert not hidden & set(obj), name
        # plain JSON all the way down: a complex, array or record left raises
        json.dumps(obj)
