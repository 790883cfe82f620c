"""Deterministic JSON emission: floats carry 17 significant digits (decimal
round-trip exact for doubles), keys keep insertion order, so identical inputs
produce byte-identical output.  Report records turn themselves into that JSON
through one field walk, :class:`Record`."""

from __future__ import annotations

import json
import math
from dataclasses import fields

import numpy as np


def _plain(value):
    """``value`` with arrays and tuples as lists, complex numbers as ``{"re",
    "im"}`` and records and dicts as their JSON."""
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


class Record:
    """Base of the report records, frozen dataclasses whose JSON is their
    fields in declaration order; a field declared with
    ``field(metadata={"json": False})`` is left out."""

    def to_json(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)
                if f.metadata.get("json", True)}


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps_canonical(obj, indent: int = 0) -> str:
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, complex):
        return dumps_canonical(_plain(obj), indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps_canonical(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        inner = ", ".join(dumps_canonical(v, indent) for v in obj)
        return f"[{inner}]"
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {dumps_canonical(v, indent + 2)}'
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def format_csv_row(values) -> str:
    if all(type(v) is float for v in values):  # the common row, in one format
        return ",".join(["%.17g"] * len(values)) % tuple(values)
    cells = []
    for v in values:
        if type(v) is float:  # the common cell, ahead of the isinstance ladder
            cells.append(format(v, ".17g"))
        elif isinstance(v, (float, np.floating)):
            cells.append(format(float(v), ".17g"))
        elif isinstance(v, (bool, np.bool_)):
            cells.append("1" if v else "0")
        else:
            cells.append(str(v))
    return ",".join(cells)
