"""Gram–Schmidt orthonormalization, classical and applied twice (CGS2).

Deliberately independent of the Gram/determinant machinery: it only uses
coordinate arithmetic, which makes it a useful cross-check ("compute the
distance a completely different way") as well as a library routine. Each
projection is two block passes r -= (conj(B) r) B against the basis rows B
found so far; the second pass removes what rounding left after the first,
which keeps the basis orthogonal to working precision ("twice is enough":
Giraud, Langou and Rozložník, 2005).
"""

from __future__ import annotations

import numpy as np

from .errors import LinearDependenceError
from .space import DEFAULT_TOL, ToleranceConfig, sq_norms

__all__ = ["orthonormal_rows", "residual_after_projection", "distance_sq_by_orthonormalization"]


def _project_out(basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Subtract from each v[t] its components along the orthonormal rows of
    basis[t], for a (T, i, dim) basis stack and (T, dim) vectors.

    Two block passes of classical Gram–Schmidt; the second pass mops up the
    rounding left by the first, keeping the residual orthogonal to the
    basis to near machine precision even for ill-conditioned inputs.
    """
    r = v.astype(np.result_type(basis.dtype, v.dtype), copy=True)
    for _ in range(2):
        # conj(B) @ r, conjugating the vectors rather than the basis
        c = (basis @ np.conj(r)[:, :, np.newaxis])[:, :, 0]
        r -= (np.conj(c)[:, np.newaxis, :] @ basis)[:, 0, :]
    return r


def orthonormal_stack(rows: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal bases (as rows) of the row spans of a (T, n, dim) stack.

    Raises LinearDependenceError if a vector's residual collapses below
    ``rank_rel_tol`` (relative to the vector's own norm) in any system, i.e.
    its rows are numerically dependent.
    """
    basis = np.empty(rows.shape, dtype=np.result_type(rows.dtype, np.float64))
    rnorms = np.empty(rows.shape[:2])
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(rows.shape[1]):
            r = _project_out(basis[:, :i], rows[:, i])
            rnorms[:, i] = np.sqrt(sq_norms(r))
            basis[:, i] = r / rnorms[:, i, np.newaxis]
    dependent = (rnorms <= np.sqrt(tol.rank_rel_tol) * np.sqrt(sq_norms(rows))) | (rnorms == 0.0)
    if dependent.any():
        raise LinearDependenceError(
            f"vector {int(np.argmax(dependent.any(axis=0)))} is numerically in the span of its predecessors"
        )
    return basis


def distance_sq_stack(rows: np.ndarray, x: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Squared distance from each x[t] to the row span of rows[t]."""
    return sq_norms(_project_out(orthonormal_stack(rows, tol), x))


def orthonormal_rows(rows: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as rows) of the row span of ``rows``.

    Raises LinearDependenceError if a vector's residual collapses below
    ``rank_rel_tol`` (relative to the vector's own norm), i.e. the rows are
    numerically dependent.
    """
    return orthonormal_stack(np.asarray(rows)[np.newaxis], tol)[0]


def residual_after_projection(rows: np.ndarray, x: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Component of x orthogonal to the row span of ``rows``."""
    return _project_out(orthonormal_rows(rows, tol)[np.newaxis], np.asarray(x)[np.newaxis])[0]


def distance_sq_by_orthonormalization(rows: np.ndarray, x: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Squared distance from x to the row span, via an orthonormal basis."""
    return float(distance_sq_stack(np.asarray(rows)[np.newaxis], np.asarray(x)[np.newaxis], tol)[0])
