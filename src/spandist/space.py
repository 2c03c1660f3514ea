"""Scalar fields, finite-dimensional vectors, and the ambient inner product.

Everything downstream reduces to the Hermitian inner product implemented
here: ``<u, v> = sum_k u_k * conj(v_k)``, linear in the first slot and
conjugate-linear in the second. Over the reals the conjugation is a no-op
and all scalars returned are plain floats.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, FieldMismatchError

Scalar = Union[float, complex]

__all__ = [
    "Field",
    "Scalar",
    "ToleranceConfig",
    "DEFAULT_TOL",
    "Vector",
    "vector",
    "inner_product",
    "norm",
    "norm_sq",
    "linear_combination",
    "conjugate_exponent",
]


class Field(enum.Enum):
    """Scalar field of the ambient space."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64 if self is Field.REAL else np.complex128)


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
        ordered in exact arithmetic.
    """

    rank_rel_tol: float = 1e-12
    orth_rel_tol: float = 1e-10
    compare_rel_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_rel_tol", "orth_rel_tol", "compare_rel_tol"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0) or not math.isfinite(value):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value!r}")


DEFAULT_TOL = ToleranceConfig()


def checked_int(name: str, value: object) -> int:
    """``value`` as a Python int; ValueError naming ``name`` unless it is an
    integer (``numbers.Integral``, numpy integers included, but not bool)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_coords(values: Iterable[Scalar] | np.ndarray, field: Field) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"vector coordinates must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("vectors must have at least one coordinate")
    if field is Field.REAL:
        if np.iscomplexobj(arr) and np.any(arr.imag != 0.0):
            raise FieldMismatchError("real vector has coordinates with nonzero imaginary part")
        out = arr.real.astype(np.float64) if np.iscomplexobj(arr) else arr.astype(np.float64)
    else:
        out = arr.astype(np.complex128)
    if not np.all(np.isfinite(out.view(np.float64) if out.dtype == np.complex128 else out)):
        raise ValueError("vector coordinates must be finite")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Vector:
    """Immutable dense vector over a fixed scalar field.

    The coordinate array is normalized to float64/complex128 and frozen
    (``writeable=False``) at construction; share freely across threads.
    """

    coords: np.ndarray
    field: Field = Field.REAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _as_coords(self.coords, self.field))

    @property
    def dim(self) -> int:
        return int(self.coords.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vector({self.coords.tolist()!r}, field={self.field.value})"


def vector(values: Iterable[Scalar], field: Field | None = None) -> Vector:
    """Build a :class:`Vector`, inferring the field when not given.

    Inference: any nonzero imaginary part means complex, otherwise real.
    Passing ``field`` explicitly is the way to build a complex-field vector
    with all-real coordinates.
    """
    if field is None:
        arr = np.asarray(values)
        field = Field.COMPLEX if np.iscomplexobj(arr) and np.any(arr.imag != 0.0) else Field.REAL
        return Vector(arr, field)
    return Vector(np.asarray(values), field)


def _check_pair(u: Vector, v: Vector) -> None:
    if u.field is not v.field:
        raise FieldMismatchError(f"mixed scalar fields: {u.field.value} vs {v.field.value}")
    if u.dim != v.dim:
        raise DimensionMismatchError(f"dimension mismatch: {u.dim} vs {v.dim}")


def inner_product(u: Vector, v: Vector) -> Scalar:
    """Hermitian inner product ``<u, v>``, conjugating the second argument.

    Returns a plain float over the reals and a complex over the complexes,
    so ``inner_product(v, u) == conj(inner_product(u, v))`` holds exactly.
    """
    _check_pair(u, v)
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
    arr = np.asarray(coeffs)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise DimensionMismatchError(
            f"expected {n} coefficients, got array of shape {arr.shape}"
        )
    if field is Field.REAL and np.iscomplexobj(arr) and np.any(arr.imag != 0.0):
        raise FieldMismatchError("complex coefficients with real-field vectors")
    out = arr.astype(field.dtype)
    finite = np.isfinite(out) if field is Field.REAL else np.isfinite(out.real) & np.isfinite(out.imag)
    if not np.all(finite):
        raise ValueError("coefficients must be finite")
    return out


def linear_combination(coeffs: Sequence[Scalar], vectors: Sequence[Vector]) -> Vector:
    """``sum_i coeffs[i] * vectors[i]`` with field/dimension validation."""
    if len(vectors) == 0:
        raise ValueError("need at least one vector")
    head = vectors[0]
    for v in vectors[1:]:
        _check_pair(head, v)
    alphas = _coeff_array(coeffs, head.field, len(vectors))
    rows = np.stack([v.coords for v in vectors])
    return Vector(alphas @ rows, head.field)


def conjugate_exponent(p: float) -> float:
    """Return q with 1/p + 1/q = 1; requires p > 1.

    Only one exponent of a Hölder pair is ever accepted by the public
    operations; the partner is always derived here so the pair cannot drift
    out of conjugacy.
    """
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"Hölder exponent must be finite and > 1, got {p!r}")
    return p / (p - 1.0)
