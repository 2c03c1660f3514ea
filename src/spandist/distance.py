"""Squared distance from a vector to the span of a finite system.

Three routes to the same number (for an independent system x_1..x_n and a
vector x, with G the Gram matrix and beta_i = <x, x_i>):

* determinant ratio      d^2 = det G(x_1..x_n, x) / det G(x_1..x_n)
* quadratic form         d^2 = ||x||^2 - beta* G^{-1} beta
* projection quotient    ||x||^2 - (sum_i |beta_i|^2)^2 / ||sum_i beta_i x_i||^2

The first two agree for every independent system. The third equals the
squared distance to the one-dimensional span of y = sum_i beta_i x_i, a
subspace of the full span, so it is an upper estimate in general; it
collapses to the true distance for orthonormal systems, for n = 1, and
(with value ||x||^2) when x is orthogonal to every x_i. Results carry
flags instead of silently reconciling the difference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NotOrthonormalError, NumericalInstabilityError, NumericalWarning
from .gram import PivotedCholesky, VectorSystem, gram_det_of_matrix, require_independent
from .orthonormalize import distance_sq_by_orthonormalization
from .space import DEFAULT_TOL, Field, Scalar, ToleranceConfig, Vector, norm_sq

__all__ = [
    "DistanceResult",
    "coefficients",
    "in_orthogonal_complement",
    "is_orthonormal",
    "distance_sq_gram_ratio",
    "distance_sq_quadratic",
    "distance_sq_projection",
    "distance_sq_orthonormal",
    "distance_sq_oracle",
    "exact_distance",
]

# Gram condition below which the two exact representations are expected to
# agree to comparison tolerance; disagreement there is flagged as numerical.
WELL_CONDITIONED_LIMIT = 1e6


def coefficients(system: VectorSystem, x: Vector) -> np.ndarray:
    """Inner products beta_i = <x, x_i> as an ndarray."""
    system._check_member(x)
    return system.rows.conj() @ x.coords.astype(system.field.dtype)


def in_orthogonal_complement(
    system: VectorSystem, x: Vector, tol: ToleranceConfig | None = None
) -> bool:
    """True when every <x, x_i> is negligible at the scale of x and the system."""
    return _in_orth_complement(system, norm_sq(x), coefficients(system, x), tol or system.tol)


def _in_orth_complement(system: VectorSystem, xx: float, beta: np.ndarray, tol: ToleranceConfig) -> bool:
    """:func:`in_orthogonal_complement` given ||x||^2 and beta."""
    scale = math.sqrt(xx) * math.sqrt(float(system.aggregates.norm_max))
    return bool(np.max(np.abs(beta), initial=0.0) <= tol.orth_rel_tol * scale)


def is_orthonormal(system: VectorSystem, tol: ToleranceConfig | None = None) -> bool:
    """True when the Gram matrix is the identity to orthogonality tolerance."""
    tol = tol or system.tol
    return bool(system.aggregates.identity_deviation <= tol.orth_rel_tol)


def _solve_spd(chol: PivotedCholesky, b: np.ndarray) -> np.ndarray:
    """Solve G a = b given the complete factorization P G P^T = L L^H."""
    lower = chol.lower
    z = np.linalg.solve(lower.conj().T, np.linalg.solve(lower, b[chol.perm]))
    a = np.empty_like(z)
    a[chol.perm] = z
    return a


def distance_sq_gram_ratio(system: VectorSystem, x: Vector) -> float:
    """d^2 via the ratio of the augmented to the base Gram determinant.

    Both determinants are taken over unit-normalised copies of the vectors:
    the ratio is invariant under per-vector scaling and x contributes
    exactly ||x||^2. The normalised Gram matrices have unit diagonal, so
    the factorisation pivots all live on one scale — mismatched vector
    norms can neither trip the rank test nor wash out the quotient's
    relative precision.
    """
    require_independent(system)
    return _gram_ratio(system, norm_sq(x), coefficients(system, x))


def _gram_ratio(system: VectorSystem, xx: float, beta: np.ndarray) -> float:
    """:func:`distance_sq_gram_ratio` given ||x||^2 and beta."""
    if xx == 0.0:
        return 0.0
    base = system.normalized_gram()
    if base.det <= 0.0:
        raise NumericalInstabilityError(
            "normalised Gram determinant vanished for a system that passed the rank test"
        )
    beta_hat = beta / (base.norms * math.sqrt(xx))
    n = system.n
    aug = np.empty((n + 1, n + 1), dtype=base.entries.dtype)
    aug[:n, :n] = base.entries
    aug[:n, n] = beta_hat.conj()
    aug[n, :n] = beta_hat
    aug[n, n] = 1.0
    return xx * gram_det_of_matrix(aug, system.tol.rank_rel_tol) / base.det


def distance_sq_quadratic(system: VectorSystem, x: Vector) -> float:
    """d^2 = ||x||^2 - beta* G^{-1} beta, clamped at zero.

    A tiny negative value from cancellation is clamped silently; a negative
    value beyond comparison tolerance (relative to ||x||^2) additionally
    emits a NumericalWarning before clamping.
    """
    require_independent(system)
    return _quadratic(system, norm_sq(x), coefficients(system, x))


def _quadratic(system: VectorSystem, xx: float, beta: np.ndarray) -> float:
    """:func:`distance_sq_quadratic` given ||x||^2 and beta; warns at the
    caller of the public function that called it."""
    # The projection coefficients c satisfy conj(G) c = beta under our
    # entry convention G[i, j] = <x_i, x_j>, and ||Px||^2 = Re sum conj(beta) c.
    # Solving G w = conj(beta) and conjugating is the same thing.
    a = np.conj(_solve_spd(system.cholesky, np.conj(beta)))
    value = xx - float(np.real(np.vdot(beta, a)))
    if value < 0.0:
        if value < -system.tol.compare_rel_tol * (1.0 + xx):
            warnings.warn(
                f"quadratic-form distance {value:.3e} is negative beyond tolerance",
                NumericalWarning,
                stacklevel=3,
            )
        value = 0.0
    return value


def distance_sq_projection(system: VectorSystem, x: Vector) -> float:
    """The projection-quotient expression (upper estimate in general).

    Returns ||x||^2 when x is orthogonal to the whole system (including
    x = 0, which yields 0).
    """
    require_independent(system)
    return _projection(system, norm_sq(x), coefficients(system, x))


def _projection(system: VectorSystem, xx: float, beta: np.ndarray) -> float:
    """:func:`distance_sq_projection` given ||x||^2 and beta."""
    if _in_orth_complement(system, xx, beta, system.tol):
        return xx
    combo = beta @ system.rows
    s = float(np.real(np.vdot(beta, beta)))
    value = xx - s * s / float(np.real(np.vdot(combo, combo)))
    return max(value, 0.0)


def distance_sq_orthonormal(system: VectorSystem, x: Vector) -> float:
    """Bessel form ||x||^2 - sum |<x, e_i>|^2 for an orthonormal system."""
    if not is_orthonormal(system):
        raise NotOrthonormalError("system is not orthonormal to tolerance")
    beta = coefficients(system, x)
    return max(norm_sq(x) - float(np.real(np.vdot(beta, beta))), 0.0)


@dataclass(frozen=True)
class DistanceResult:
    """All representations of one distance computation, with agreement flags.

    ``d2`` is the quadratic-form value; ``agreement_ok`` ties it to the
    determinant ratio; ``projection_matches`` records whether the projection
    quotient coincided (it need not); ``numerical_warning`` is set when the
    two exact representations disagree although the Gram matrix was well
    conditioned.
    """

    d2_gram_ratio: float
    d2_quadratic: float
    d2_projection: float
    beta: tuple[Scalar, ...]
    in_orth_complement: bool
    in_subspace: bool
    agreement_ok: bool
    projection_matches: bool
    gram_condition: float
    numerical_warning: bool

    @property
    def d2(self) -> float:
        return self.d2_quadratic


def exact_distance(system: VectorSystem, x: Vector, tol: ToleranceConfig | None = None) -> DistanceResult:
    """Compute every representation and cross-check them.

    Requires an independent system. Never raises for x in the orthogonal
    complement or in the span; those are reported as flags.
    """
    require_independent(system)
    tol = tol or system.tol
    beta = coefficients(system, x)
    xx = norm_sq(x)
    d2_ratio = _gram_ratio(system, xx, beta)
    d2_quad = _quadratic(system, xx, beta)
    d2_proj = _projection(system, xx, beta)
    agree = abs(d2_ratio - d2_quad) <= tol.compare_rel_tol * (1.0 + abs(d2_quad))
    proj_match = abs(d2_proj - d2_quad) <= tol.compare_rel_tol * (1.0 + abs(d2_quad))
    condition = system.gram_condition()
    field = system.field
    return DistanceResult(
        d2_gram_ratio=d2_ratio,
        d2_quadratic=d2_quad,
        d2_projection=d2_proj,
        beta=tuple(float(b.real) if field is Field.REAL else complex(b) for b in beta),
        in_orth_complement=_in_orth_complement(system, xx, beta, tol),
        in_subspace=d2_quad <= tol.compare_rel_tol * xx,
        agreement_ok=agree,
        projection_matches=proj_match,
        gram_condition=condition,
        numerical_warning=(not agree) and condition <= WELL_CONDITIONED_LIMIT,
    )


def distance_sq_oracle(system: VectorSystem, x: Vector) -> float:
    """Reference distance via Gram–Schmidt only (no determinants, no solves)."""
    return distance_sq_by_orthonormalization(system.rows, x.coords, system.tol)
