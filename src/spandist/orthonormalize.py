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
from .space import DEFAULT_TOL, ToleranceConfig

__all__ = ["orthonormal_rows", "residual_after_projection", "distance_sq_by_orthonormalization"]


def _project_out(basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Subtract from v its components along the orthonormal rows of basis.

    Two block passes of classical Gram–Schmidt; the second pass mops up the
    rounding left by the first, keeping the residual orthogonal to the
    basis to near machine precision even for ill-conditioned inputs.
    """
    r = v.astype(np.result_type(basis.dtype, v.dtype), copy=True)
    for _ in range(2):
        # conj(B) @ r, conjugating the vectors rather than the basis
        r -= np.conj(basis @ np.conj(r)) @ basis
    return r


def orthonormal_rows(rows: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as rows) of the row span of ``rows``.

    Raises LinearDependenceError if a vector's residual collapses below
    ``rank_rel_tol`` (relative to the vector's own norm), i.e. the rows are
    numerically dependent.
    """
    rows = np.asarray(rows)
    basis = np.empty(rows.shape, dtype=np.result_type(rows.dtype, np.float64))
    for i, v in enumerate(rows):
        r = _project_out(basis[:i], v)
        scale = np.linalg.norm(v)
        rnorm = np.linalg.norm(r)
        if rnorm <= np.sqrt(tol.rank_rel_tol) * scale or rnorm == 0.0:
            raise LinearDependenceError(
                f"vector {i} is numerically in the span of its predecessors"
            )
        basis[i] = r / rnorm
    return basis


def residual_after_projection(rows: np.ndarray, x: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Component of x orthogonal to the row span of ``rows``."""
    return _project_out(orthonormal_rows(rows, tol), np.asarray(x))


def distance_sq_by_orthonormalization(rows: np.ndarray, x: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Squared distance from x to the row span, via an orthonormal basis."""
    r = residual_after_projection(rows, x, tol)
    return float(np.real(np.vdot(r, r)))
