"""Orthonormalization by Householder QR.

Deliberately independent of the Gram/determinant machinery: it only uses
coordinate arithmetic and never forms the Gram matrix, which makes it a
useful cross-check ("compute the distance a completely different way") as
well as a library routine. In the orthogonal factor the identity
d^2 = Gamma(x_1..x_n, x) / Gamma(x_1..x_n) reads d^2 = |R[n, n]|^2, for R
of the QR factorisation of the columns x_1, ..., x_n, x. Householder QR is
normwise backward stable (Golub and Van Loan, section 5.2; Higham, Accuracy
and Stability of Numerical Algorithms, ch. 19).

:func:`distance_sq_stack` is the stacked kernel and trusts its caller's
rank decision: :class:`spandist.distance.PointStack` calls it on the whole
stack and masks the systems whose Gram factorization is not complete. The
functions over bare rows (:func:`orthonormal_rows`,
:func:`residual_after_projection`,
:func:`distance_sq_by_orthonormalization`) have no system to ask, so they
check their arrays by :func:`spandist.space.field_array` and test the
diagonal of R themselves, raising LinearDependenceError.

Every QR here is one LAPACK call per stack, by :func:`spandist.gram._qr`;
so is the generator's (:mod:`spandist.generator` draws its orthonormal frames by it).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, LinearDependenceError
from .gram import _qr
from .space import DEFAULT_TOL, ToleranceConfig, field_array, sq_norms

__all__ = ["orthonormal_rows", "residual_after_projection", "distance_sq_by_orthonormalization"]


def _checked_diagonal(r: np.ndarray, rows: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """diag R for (T, dim, >= n) factored QR copies of the columns of a (T, n,
    dim) stack of rows. |R[k, k]| is what is left of row k after projecting out
    its predecessors: LinearDependenceError if that collapses below
    ``rank_rel_tol`` (relative to the row's own norm) in any system, or if
    there are more rows than dimensions."""
    diag = np.diagonal(r, axis1=-2, axis2=-1)[:, : rows.shape[1]]
    rnorms = np.zeros(rows.shape[:2])
    rnorms[:, : diag.shape[1]] = np.abs(diag)
    dependent = (rnorms <= np.sqrt(tol.rank_rel_tol) * np.sqrt(sq_norms(rows))) | (rnorms == 0.0)
    if dependent.any():
        raise LinearDependenceError(
            f"vector {int(np.argmax(dependent.any(axis=0)))} is numerically in the span of its predecessors"
        )
    return diag


def _checked(rows: object, x: object = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Caller rows, a nonempty (n, dim) array, and x, dim coordinates (if
    given), each checked by field_array with its own field inferred."""
    rows = field_array(rows, None, "rows")
    if rows.ndim != 2 or rows.size == 0:
        raise ValueError(f"expected a nonempty (n, dim) array of rows, got shape {rows.shape}")
    if x is not None:
        x = field_array(x, None, "x")
        if x.shape != rows.shape[1:]:
            raise DimensionMismatchError(f"x of shape {x.shape} against rows of dimension {rows.shape[1]}")
    return rows, x


def _basis(rows: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """:func:`orthonormal_rows` of checked rows."""
    r, q = _qr(rows.T)
    diag = _checked_diagonal(r[np.newaxis], rows[np.newaxis], tol)[0]
    return (q * (diag / np.abs(diag))).T


def _augmented_r(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """R, in the factored copy, of one stacked QR of the (T, dim, n + 1) augmented columns x_1..x_n, x."""
    return _qr(np.swapaxes(np.concatenate([rows, x[:, np.newaxis]], axis=1), -1, -2), reduced=False)[0]


def _distance_sq(r: np.ndarray, n: int, dim: int) -> np.ndarray:
    """|R[n, n]|^2 of each augmented R, or exactly 0 when dim <= n."""
    return np.zeros(r.shape[0]) if dim <= n else np.abs(r[:, n, n]) ** 2


def distance_sq_stack(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared distance from each x[t] to the row span of rows[t]: |R[n, n]|^2
    of one stacked QR of the (T, dim, n + 1) augmented columns, or exactly 0
    when dim <= n. No dependence test: the value of a dependent system means
    nothing, and the caller masks it by its own rank decision."""
    return _distance_sq(_augmented_r(rows, x), *rows.shape[1:])


def orthonormal_rows(rows: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as rows) of the row span of ``rows``: the reduced Q
    of the columns rows^T, each column's phase chosen so that diag R > 0, as
    Gram–Schmidt gives it.

    Raises LinearDependenceError if a vector's residual collapses below
    ``rank_rel_tol`` (relative to the vector's own norm), i.e. the rows are
    numerically dependent.
    """
    return _basis(_checked(rows)[0], tol)


def residual_after_projection(rows: np.ndarray, x: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Component of x orthogonal to the row span of ``rows``."""
    rows, x = _checked(rows, x)
    basis = _basis(rows, tol)
    return x - (basis.conj() @ x) @ basis


def distance_sq_by_orthonormalization(rows: np.ndarray, x: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Squared distance from x to the row span, via Householder QR.

    Raises LinearDependenceError, as :func:`orthonormal_rows` does, if the
    rows are numerically dependent.
    """
    rows, x = _checked(rows, x)
    rows, x = rows[np.newaxis], x[np.newaxis]
    r = _augmented_r(rows, x)
    _checked_diagonal(r, rows, tol)
    return float(_distance_sq(r, *rows.shape[1:])[0])
