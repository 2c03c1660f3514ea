"""Reading and writing problem instances as JSON documents.

Schema::

    {
      "field": "real" | "complex",
      "vectors": [[s, ...], ...],   # n rows of dim scalars
      "x": [s, ...],
      "gammas": [s, ...],           # optional, with Gammas
      "Gammas": [s, ...]
    }

A scalar ``s`` is a plain number in the real case and a two-element
``[re, im]`` array in the complex case. Floats are written with
shortest-round-trip precision, so save -> load reproduces every value
exactly. Files are written by the JSON writer of :mod:`spandist.reports`,
byte for byte ``json.dumps(obj, indent=2) + "\n"``.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from .bounds import IntervalData
from .errors import InstanceFormatError
from .generator import Instance
from .gram import SystemStack, VectorSystem
from .reports import _json
from .space import DEFAULT_TOL, Field, ToleranceConfig, Vector, field_array

__all__ = ["load_instance", "save_instance", "instance_to_obj", "instance_from_obj"]

_KNOWN_KEYS = {"field", "vectors", "x", "gammas", "Gammas"}
_NUMBERS = {float, int}


def _encode(values: np.ndarray, field: Field) -> list:
    """``values`` as nested lists of floats, a complex scalar as its [re, im] pair."""
    return (values.real if field is Field.REAL else np.stack((values.real, values.imag), axis=-1)).tolist()


def _check_scalar(raw: Any, field: Field, where: str) -> None:
    if field is Field.REAL:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise InstanceFormatError(f"{where}: expected a real number, got {raw!r}")
        return
    if not isinstance(raw, list) or len(raw) != 2:
        raise InstanceFormatError(f"{where}: complex scalars are [re, im] pairs, got {raw!r}")
    for part in raw:
        if isinstance(part, bool) or not isinstance(part, (int, float)):
            raise InstanceFormatError(f"{where}: complex parts must be numbers, got {part!r}")


def _check_vector(raw: Any, field: Field, where: str, length: int | None = None, expected: str = "") -> None:
    """Raise unless ``raw`` is a nonempty array of the field's scalars, of
    ``length`` entries when that is given (named ``expected`` + length).

    The entry types are screened at C speed; only when the screen fails are
    the entries walked one by one, to name the first bad one.
    """
    if not isinstance(raw, list) or not raw:
        raise InstanceFormatError(f"{where}: expected a nonempty array of scalars")
    if field is Field.REAL:
        screened = set(map(type, raw)) <= _NUMBERS
    else:
        screened = (set(map(type, raw)) == {list} and set(map(len, raw)) == {2}
                    and set(map(type, chain.from_iterable(raw))) <= _NUMBERS)
    if not screened:
        for i, entry in enumerate(raw):
            _check_scalar(entry, field, f"{where}[{i}]")
    if length is not None and len(raw) != length:
        raise InstanceFormatError(f"{where} has length {len(raw)}, expected {expected}{length}")


def _to_array(raw: list, field: Field, what: str) -> np.ndarray:
    """Screened scalars (or rows of them) as one checked array of the field's
    dtype; a complex [re, im] pair becomes re + im*j bit for bit."""
    arr = field_array(raw, Field.REAL, what)
    return arr if field is Field.REAL else arr.view(np.complex128)[..., 0]


def instance_to_obj(instance: Instance) -> dict[str, Any]:
    system, field = instance.system, instance.system.field
    obj: dict[str, Any] = {
        "field": field.value,
        "vectors": _encode(system.rows, field),
        "x": _encode(instance.x.coords, field),
    }
    if instance.intervals is not None:
        lo, hi = instance.intervals.arrays(field, system.n)
        obj["gammas"], obj["Gammas"] = _encode(lo, field), _encode(hi, field)
    return obj


def instance_from_obj(obj: Any, tol: ToleranceConfig = DEFAULT_TOL) -> Instance:
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"instance document must be an object, got {type(obj).__name__}")
    unknown = set(obj) - _KNOWN_KEYS
    if unknown:
        raise InstanceFormatError(f"unknown keys in instance document: {sorted(unknown)}")
    for key in ("field", "vectors", "x"):
        if key not in obj:
            raise InstanceFormatError(f"missing required key {key!r}")
    try:
        field = Field(obj["field"])
    except ValueError:
        raise InstanceFormatError(
            f"field must be 'real' or 'complex', got {obj['field']!r}"
        ) from None
    raw_vectors = obj["vectors"]
    if not isinstance(raw_vectors, list) or not raw_vectors:
        raise InstanceFormatError("vectors: expected a nonempty array of rows")
    dim = None  # the length of the first row, once it is checked
    for i, raw in enumerate(raw_vectors):
        _check_vector(raw, field, f"vectors[{i}]", dim)
        dim = len(raw)
    _check_vector(obj["x"], field, "x", dim)
    if ("gammas" in obj) != ("Gammas" in obj):
        raise InstanceFormatError("gammas and Gammas must be given together")
    if "gammas" in obj:
        for name in ("gammas", "Gammas"):
            _check_vector(obj[name], field, name, len(raw_vectors), "n=")
    try:
        intervals = None
        if "gammas" in obj:
            intervals = IntervalData._of(
                _to_array(obj["gammas"], field, "interval scalars"),
                _to_array(obj["Gammas"], field, "interval scalars"),
            )
        # the checks above established the nonempty (n, dim) shape, and each
        # array is checked once, here
        rows = _to_array(raw_vectors, field, "system coordinates")
        system = VectorSystem._of(SystemStack(rows[np.newaxis], field, tol))
        x = Vector._of(_to_array(obj["x"], field, "vector coordinates"))
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    return Instance(system=system, x=x, intervals=intervals)


def save_instance(path: str | Path, instance: Instance) -> None:
    Path(path).write_text(_json(instance_to_obj(instance), sort_keys=False), encoding="utf-8")


def load_instance(path: str | Path, tol: ToleranceConfig = DEFAULT_TOL) -> Instance:
    """The instance in the UTF-8 JSON file at ``path``; InstanceFormatError
    naming the path for a file that cannot be read, is not UTF-8, is not
    JSON or nests too deeply to decode."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InstanceFormatError(f"{path} nests too deeply to decode: {exc}") from exc
    return instance_from_obj(obj, tol)
