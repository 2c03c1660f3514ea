"""Scalar fields, finite-dimensional vectors, and the ambient inner product.

Everything downstream reduces to the Hermitian inner product implemented
here: ``<u, v> = sum_k u_k * conj(v_k)``, linear in the first slot and
conjugate-linear in the second. Over the reals the conjugation is a no-op
and all scalars returned are plain floats.

The rule for caller-supplied numbers lives here too, and only here:
:func:`field_array` checks every coordinate, coefficient and interval
array, :func:`checked_int` and :func:`checked_real` every scalar argument.
Each raises ValueError (FieldMismatchError for an imaginary part in a real
field) naming what it checked; shapes are checked by the callers.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, FieldMismatchError

Scalar = Union[float, complex]
_FLOAT_MAX = sys.float_info.max

__all__ = [
    "Field",
    "Scalar",
    "ToleranceConfig",
    "DEFAULT_TOL",
    "Vector",
    "vector",
    "field_array",
    "inner_product",
    "norm",
    "norm_sq",
    "linear_combination",
    "conjugate_exponent",
    "holder_pair",
]


class cached_property(functools.cached_property):
    """``functools.cached_property`` without the lock Python 3.11 takes on each first read."""

    def __get__(self, instance, owner=None):
        return self if instance is None else instance.__dict__.setdefault(self.attrname, self.func(instance))


class Field(enum.Enum):
    """Scalar field of the ambient space."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64 if self is Field.REAL else np.complex128)

    @staticmethod
    def of(array: np.ndarray) -> "Field":
        """The field of a float64 or complex128 array."""
        return Field.COMPLEX if array.dtype.kind == "c" else Field.REAL


def checked_int(name: str, value: object) -> int:
    """``value`` as a Python int; ValueError naming ``name`` unless it is an
    integer (``numbers.Integral``, numpy integers included, but not bool)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def checked_real(name: str, value: object) -> int | float:
    """``value`` as a Python int (a ``numbers.Integral``) or float (any other
    real: a numpy float32, a long double or a ``Fraction`` as the float nearest
    it), so arithmetic on it runs in float64 and a report renders it.
    ValueError naming ``name`` unless it is a finite real number
    (``numbers.Real``, numpy numbers included, not bool) within the float
    range, compared uncast, so NaN, inf, 10**400, ``np.longdouble('1e400')``
    and ``Fraction(10**400)`` are not."""
    number = value.item() if isinstance(value, np.generic) else value  # a long double stays one
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not -_FLOAT_MAX <= number <= _FLOAT_MAX:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return int(number) if isinstance(value, numbers.Integral) else float(number)


def field_array(values: object, field: Field | None, what: str) -> np.ndarray:
    """``values`` as a read-only float64 (real) or complex128 (complex) array
    of the same shape. ValueError naming ``what`` unless every entry is a
    number (of a numeric dtype, or a ``numbers.Number``) and finite (an
    integer beyond the float range is not); FieldMismatchError for a nonzero
    imaginary part in a real field. ``field=None`` infers it: complex exactly
    when some imaginary part is nonzero (:meth:`Field.of` reads it back);
    any other ``field`` but a :class:`Field` is a ValueError."""
    if field is not None and not isinstance(field, Field):
        raise ValueError(f"field must be a Field, got {field!r}")
    arr = np.asarray(values)
    if arr.dtype.kind == "O":
        if not all(isinstance(v, numbers.Number) for v in arr.flat):
            raise ValueError(f"{what} must be numbers")
        try:
            arr = arr.astype(np.float64 if all(isinstance(v, numbers.Real) for v in arr.flat) else np.complex128)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"{what} must be finite") from None
    elif arr.dtype.kind not in "biufc":
        raise ValueError(f"{what} must be numbers")
    if arr.dtype.kind == "c" and np.any(arr.imag != 0.0):
        if field is Field.REAL:
            raise FieldMismatchError(f"{what} have a nonzero imaginary part in a real field")
        field = Field.COMPLEX
    elif field is None:
        field = Field.REAL
    out = (arr.real if arr.dtype.kind == "c" and field is Field.REAL else arr).astype(field.dtype, order="C")
    if not np.isfinite(out).all():
        raise ValueError(f"{what} must be finite")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative tolerances used by rank, orthogonality, and comparison tests.

    rank_rel_tol:
        pivot ratio below which a Gram factorization is declared rank
        deficient (and the determinant reported as exactly zero).
    orth_rel_tol:
        relative size of ``<x, x_i>`` below which x counts as orthogonal
        to the system.
    compare_rel_tol:
        slack allowed when comparing two quantities that are equal or
        ordered in exact arithmetic: the ``rel`` every library verdict
        passes to :func:`leq_margin` or :func:`near_margin`.

    Each is stored as :func:`checked_real` returns it, a Python int or float.
    """

    rank_rel_tol: float = 1e-12
    orth_rel_tol: float = 1e-10
    compare_rel_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_rel_tol", "orth_rel_tol", "compare_rel_tol"):
            value = checked_real(name, getattr(self, name))
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)


DEFAULT_TOL = ToleranceConfig()


def leq_margin(lower: float | np.ndarray, upper: float | np.ndarray, rel: float, scale=None) -> float | np.ndarray:
    """Margin of 'lower <= upper' at relative tolerance ``rel``: (upper - lower)
    / (1 + |scale|) + rel, ``scale`` defaulting to ``lower``; >= 0 when it holds,
    NaN (a failure) for equal infinities or an infinite default scale. Floats,
    and a ``rel`` read from a :class:`ToleranceConfig`, stay floats, with no
    numpy scalar and no warning."""
    return (upper - lower) / (1.0 + abs(lower if scale is None else scale)) + rel


def near_margin(value: float | np.ndarray, expected: float | np.ndarray, rel: float) -> float | np.ndarray:
    """Margin of 'value = expected' at relative tolerance ``rel``, rel - |value - expected|
    / (1 + |expected|): >= 0 when they agree, NaN for an infinite ``expected``."""
    return rel - abs(value - expected) / (1.0 + abs(expected))


@dataclass(frozen=True, eq=False)
class Vector:
    """Immutable dense vector over a fixed scalar field.

    The coordinates are checked by :func:`field_array`, normalized to
    float64/complex128 and frozen (``writeable=False``) at construction;
    share freely across threads. ``field=None`` infers the field.
    """

    coords: np.ndarray
    field: Field | None = Field.REAL

    def __post_init__(self) -> None:
        coords = field_array(self.coords, self.field, "vector coordinates")
        if coords.ndim != 1:
            raise ValueError(f"vector coordinates must be one-dimensional, got shape {coords.shape}")
        if coords.size == 0:
            raise ValueError("vectors must have at least one coordinate")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "field", Field.of(coords))

    @classmethod
    def _of(cls, coords: np.ndarray) -> "Vector":
        """The vector of a nonempty one-dimensional array that
        :func:`field_array` has checked."""
        v = cls.__new__(cls)
        object.__setattr__(v, "coords", coords)
        object.__setattr__(v, "field", Field.of(coords))
        return v

    @property
    def dim(self) -> int:
        return int(self.coords.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vector({self.coords.tolist()!r}, field={self.field.value})"


def vector(values: Iterable[Scalar], field: Field | None = None) -> Vector:
    """Build a :class:`Vector`, inferring the field when not given.

    Inference (:func:`field_array`): any nonzero imaginary part means
    complex, otherwise real. Passing ``field`` explicitly is the way to
    build a complex-field vector with all-real coordinates.
    """
    return Vector(values, field)


def check_member(v: Vector, field: Field, dim: int) -> None:
    """FieldMismatchError or DimensionMismatchError unless ``v`` is a vector
    of this field and dimension."""
    if v.field is not field:
        raise FieldMismatchError(f"mixed scalar fields: {field.value} vs {v.field.value}")
    if v.dim != dim:
        raise DimensionMismatchError(f"dimension mismatch: {dim} vs {v.dim}")


def inner_product(u: Vector, v: Vector) -> Scalar:
    """Hermitian inner product ``<u, v>``, conjugating the second argument.

    Returns a plain float over the reals and a complex over the complexes,
    so ``inner_product(v, u) == conj(inner_product(u, v))`` holds exactly.
    """
    check_member(v, u.field, u.dim)
    value = np.vdot(v.coords, u.coords)  # vdot conjugates its first argument
    return float(value.real) if u.field is Field.REAL else complex(value)


def re_inner_rows(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Re <w, u> = Re sum_k conj(u_k) w_k over the last axis of two arrays
    of coordinates, one value per leading index (a scalar for vectors)."""
    if u.dtype.kind == "c" or w.dtype.kind == "c":
        return np.add.reduce((np.conj(u) * w).real, axis=-1)
    return np.add.reduce(u * w, axis=-1)


def sq_norms(u: np.ndarray) -> np.ndarray:
    """||u||^2 over the last axis, one value per leading index."""
    return re_inner_rows(u, u)


def norm_sq(v: Vector) -> float:
    """``<v, v>`` as a nonnegative float."""
    return float(sq_norms(v.coords))


def norm(v: Vector) -> float:
    return math.sqrt(norm_sq(v))


def _coeff_array(coeffs: Sequence[Scalar] | np.ndarray, field: Field, n: int) -> np.ndarray:
    """One checked scalar of ``field`` per vector, read-only."""
    out = field_array(coeffs, field, "coefficients")
    if out.shape != (n,):
        raise DimensionMismatchError(f"expected {n} coefficients, got array of shape {out.shape}")
    return out


def linear_combination(coeffs: Sequence[Scalar], vectors: Sequence[Vector]) -> Vector:
    """``sum_i coeffs[i] * vectors[i]`` with field/dimension validation."""
    if len(vectors) == 0:
        raise ValueError("need at least one vector")
    head = vectors[0]
    for v in vectors[1:]:
        check_member(v, head.field, head.dim)
    alphas = _coeff_array(coeffs, head.field, len(vectors))
    rows = np.stack([v.coords for v in vectors])
    return Vector(alphas @ rows, head.field)


def holder_pair(p: float) -> tuple[int | float, float]:
    """The Hölder pair (p, q), 1/p + 1/q = 1: ``p`` as :func:`checked_real`
    returns it, and q = p / (p - 1.0). The public operations accept one
    exponent only and derive its partner here, once, so the pair cannot
    drift out of conjugacy. ValueError unless ``p`` is finite and > 1."""
    value = checked_real("Hölder exponent", p)
    if not value > 1.0:
        raise ValueError(f"Hölder exponent must be finite and > 1, got {p!r}")
    return value, value / (value - 1.0)


def conjugate_exponent(p: float) -> float:
    """Return q with 1/p + 1/q = 1, ``holder_pair(p)[1]``; requires p > 1."""
    return holder_pair(p)[1]
