"""Correctness check behind ``success_rate``: field digests and invariants.

Every timed repetition's output is reduced to a flat map of field path to
leaf digest and compared with the map of the serial reference path run in
the same process with the same seed. The program guarantees bit-identical
results across jobs, channels and engines, so any difference is a defect;
:func:`first_difference` names the first field that differs. No golden
digest is stored anywhere: a change that legitimately moves results moves
the reference with them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import pickle

import numpy as np


def _leaf(value) -> str:
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        digest = hashlib.sha256(
            f"{data.dtype.str}{data.shape}".encode())
        if data.dtype.hasobject:
            digest.update(pickle.dumps(data.tolist(), protocol=5))
        else:
            digest.update(data.tobytes())
        return "array:" + digest.hexdigest()[:24]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, (bool, int, float, complex, str, bytes, type(None))):
        return repr(value)
    return "pickle:" + hashlib.sha256(
        pickle.dumps(value, protocol=5)).hexdigest()[:24]


def _fields(value) -> dict | None:
    """Named attributes of a plain object, or ``None`` for a leaf."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name)
                for f in dataclasses.fields(value)}
    state = getattr(value, "__dict__", None)
    if isinstance(state, dict):
        return state
    slots = [name for cls in type(value).__mro__
             for name in getattr(cls, "__slots__", ())]
    if slots:
        return {name: getattr(value, name) for name in slots
                if hasattr(value, name)}
    return None


def flatten(value, path: str = "$", out: dict | None = None,
            _open: set | None = None) -> dict[str, str]:
    """Flat ``{field path: leaf digest}`` map of a result object graph.

    Leaves are digested one at a time, so object-graph aliasing (which a
    process round trip legitimately breaks) never shows; only values do.
    """
    out = {} if out is None else out
    _open = set() if _open is None else _open
    if isinstance(value, (np.ndarray, np.generic, bool, int, float,
                          complex, str, bytes, type(None))):
        out[path] = _leaf(value)
        return out
    if id(value) in _open:
        out[path] = "cycle"
        return out
    _open.add(id(value))
    if isinstance(value, dict):
        for key in sorted(value, key=repr):
            flatten(value[key], f"{path}[{key!r}]", out, _open)
    elif isinstance(value, (list, tuple)):
        out[f"{path}.len"] = repr(len(value))
        for index, item in enumerate(value):
            flatten(item, f"{path}[{index}]", out, _open)
    else:
        fields = _fields(value)
        if fields is None:
            out[path] = _leaf(value)
        else:
            out[f"{path}.type"] = type(value).__qualname__
            for name in sorted(fields):
                flatten(fields[name], f"{path}.{name}", out, _open)
    _open.discard(id(value))
    return out


def first_difference(reference: dict[str, str],
                     candidate: dict[str, str]) -> str | None:
    """The first field path (in sorted order) whose digests differ."""
    for key in sorted(set(reference) | set(candidate)):
        if reference.get(key) != candidate.get(key):
            return key
    return None


def nan_fields(summary: dict, where: str) -> list[str]:
    """Names of the float fields in ``summary`` that are NaN."""
    return [f"{where}.{key}" for key, value in summary.items()
            if isinstance(value, float) and math.isnan(value)]
