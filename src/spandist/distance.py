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

A fourth route, the Householder QR of :mod:`spandist.orthonormalize`, never
forms the Gram matrix; it is the reference the checks hold the other three
against.

Each number is computed once, in :class:`PointStack`: the per-instance
functions here and in :mod:`spandist.bounds` read a stack of one, the
campaign's checks a chunk of trials. A :class:`~spandist.gram.VectorSystem`
keeps the stack of one of the last vector asked about
(:meth:`PointStack.of`), so ``exact_distance`` followed by
``full_bound_report`` on the same (system, x) computes ||x||^2, beta, the
orthogonality test and the quadratic form once between them, and the
quadratic form's NumericalWarning fires once per (system, x), not once per
call. Whether a system is independent is decided once too, by its Gram
factorization; the QR oracle and the determinant ratio read that decision
rather than making their own.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NotOrthonormalError, NumericalWarning
from .gram import FactorStack, SystemStack, VectorSystem, _lapack, _umath_linalg, require_independent
from .orthonormalize import distance_sq_stack
from .space import Field, Scalar, ToleranceConfig, Vector, cached_property, leq_margin, near_margin, sq_norms

__all__ = [
    "DistanceResult",
    "PointStack",
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

# kappa_E (the factor's condition of the equilibrated Gram matrix, which row
# scaling does not move) below which the two exact representations are
# expected to agree to comparison tolerance; disagreement there is flagged
# as numerical.
WELL_CONDITIONED_LIMIT = 1e6


# -- stacked kernels: T systems (T, n, dim), vectors (T, dim), one value each --


def beta_stack(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(T, n) inner products beta[t, i] = <x[t], rows[t, i]>."""
    return (rows.conj() @ x[:, :, np.newaxis])[:, :, 0]


def orth_complement_stack(
    xx: np.ndarray, beta: np.ndarray, norm_max: np.ndarray, tol: ToleranceConfig
) -> np.ndarray:
    """Whether every <x, x_i> is negligible at the scale of x and the system."""
    scale = np.sqrt(xx) * np.sqrt(norm_max)
    return np.abs(beta).max(axis=-1, initial=0.0) <= tol.orth_rel_tol * scale


def quadratic_stack(
    factor: FactorStack, xx: np.ndarray, beta: np.ndarray, tol: ToleranceConfig
) -> np.ndarray:
    """d^2 = ||x||^2 - beta* G^{-1} beta, clamped at zero, for the systems
    whose factorization is complete (NaN for the others, through their NaN
    ``inverse``).

    With P G P^T = L L^H, beta* G^{-1} beta = ||L^-1 conj(beta)[perm]||^2,
    one product with the factorization's kept ``inverse``. Its columns carry
    the row scaling exactly, so per-row scaling by powers of two leaves
    every bit of d^2 as it is. A tiny negative value from cancellation is
    clamped silently; a negative value beyond comparison tolerance (relative
    to ||x||^2) additionally emits a NumericalWarning before clamping.
    """
    # The projection coefficients c satisfy conj(G) c = beta under our entry
    # convention G[i, j] = <x_i, x_j>, and ||Px||^2 = Re sum conj(beta) c =
    # v^H G^{-1} v for v = conj(beta).
    v = np.take_along_axis(np.conj(beta), factor.perm, axis=-1)
    value = xx - sq_norms((factor.inverse @ v[:, :, np.newaxis])[:, :, 0])
    for d2 in value[leq_margin(0.0, value, tol.compare_rel_tol, scale=xx) < 0.0].tolist():
        warnings.warn(
            f"quadratic-form distance {d2:.3e} is negative beyond tolerance",
            NumericalWarning,
            stacklevel=3,
        )
    return np.maximum(value, 0.0)


def gram_ratio_stack(systems: SystemStack, xx: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """d^2 via the ratio of the augmented to the base Gram determinant, for
    the independent systems (NaN for the others).

    The ratio is the last pivot of the Cholesky factor of the augmented
    Gram matrix, so it needs no rank decision of its own: the system's
    factorization has made it. The vectors are unit-normalised first, so
    the bordered matrix [[G_hat, beta_hat^H], [beta_hat, 1]] has unit
    diagonal, the ratio is invariant under per-vector scaling and x
    contributes exactly ||x||^2: d^2 = ||x||^2 |L[n, n]|^2. Every system
    of the stack is factored in one LAPACK call, and the dependent ones
    are masked by their ``complete`` flag afterwards. A NaN pivot reads 0:
    that of x = 0 (whose beta_hat is 0/0, which LAPACK may factor rather
    than fail on) and LAPACK's NaN fill of a matrix it cannot factor. That
    is right for an x in the span, but from a Gram condition of about 1e12
    also met by an x at a positive distance from an independent system
    (ROADMAP item 6).
    """
    norms = np.sqrt(systems.aggregates.norms_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        g_hat = systems.gram / (norms[:, :, np.newaxis] * norms[:, np.newaxis, :])
        beta_hat = beta / (norms * np.sqrt(xx)[:, np.newaxis])
    count, n = beta.shape
    aug = np.empty((count, n + 1, n + 1), dtype=g_hat.dtype)
    aug[:, :n, :n] = g_hat
    aug[:, :n, n] = beta_hat.conj()
    aug[:, n, :n] = beta_hat
    aug[:, n, n] = 1.0
    last = _lapack(_umath_linalg.cholesky_lo, aug)[:, n, n]
    return np.where(systems.factor.complete, xx * np.abs(np.where(np.isnan(last), 0.0, last)) ** 2, np.nan)


def projection_stack(rows: np.ndarray, xx: np.ndarray, beta: np.ndarray, s: np.ndarray, in_orth: np.ndarray) -> np.ndarray:
    """The projection quotient ||x||^2 - S^2 / ||sum_i beta_i x_i||^2 for
    S = sum_i |beta_i|^2, clamped at zero; ||x||^2 where x is orthogonal to
    the whole system."""
    combo = (beta[:, np.newaxis, :] @ rows)[:, 0, :]
    value = np.maximum(xx - s * s / np.where(in_orth, 1.0, sq_norms(combo)), 0.0)
    return np.where(in_orth, xx, value)


class PointStack:
    """T vectors x (a (T, dim) array) against the T systems of a
    :class:`SystemStack`: what the paper computes from x and a system, each
    once, on first use, for every entry. Everything here reads ``tol``;
    what depends on a system alone (its factorization and rank) keeps the
    stack's own tolerance. No route here makes a rank decision of its own:
    each reads the system's.
    """

    def __init__(self, systems: SystemStack, x: np.ndarray, tol: ToleranceConfig) -> None:
        self.systems = systems
        self.x = x
        self.tol = tol

    @classmethod
    def of(cls, system: VectorSystem, x: Vector, tol: ToleranceConfig | None = None) -> "PointStack":
        """``x`` against ``system`` at ``tol`` or else the system's, as a
        stack of one.

        The system keeps the last stack built for it: asked again about the
        same :class:`Vector` object (whose coordinates are frozen) at an
        equal tolerance, it returns that stack, with every number it has
        computed so far. Otherwise ``x`` is validated and a new stack is
        built and kept in its place.
        """
        tol = tol or system.tol
        kept = system._point
        if kept is not None and kept[0] is x and kept[1] == tol:
            return kept[2]
        system._check_member(x)
        p = cls(system.as_stack(), x.coords[np.newaxis], tol)
        system._point = (x, tol, p)
        return p

    @cached_property
    def xx(self) -> np.ndarray:
        """||x||^2."""
        return sq_norms(self.x)

    @cached_property
    def beta(self) -> np.ndarray:
        """(T, n) inner products beta_i = <x, x_i>."""
        return beta_stack(self.systems.rows, self.x)

    @cached_property
    def s(self) -> np.ndarray:
        """S = sum_i |beta_i|^2."""
        return sq_norms(self.beta)

    @cached_property
    def in_orth(self) -> np.ndarray:
        """Whether x is orthogonal to the whole system (:func:`orth_complement_stack`)."""
        return orth_complement_stack(self.xx, self.beta, self.systems.aggregates.norm_max, self.tol)

    @cached_property
    def orthonormal(self) -> np.ndarray:
        """Whether the Gram matrix is the identity to orthogonality tolerance."""
        return self.systems.aggregates.identity_deviation <= self.tol.orth_rel_tol

    @cached_property
    def d2(self) -> np.ndarray:
        """The quadratic-form distance (:func:`quadratic_stack`), NaN for dependent systems."""
        return quadratic_stack(self.systems.factor, self.xx, self.beta, self.tol)

    @cached_property
    def ratio(self) -> np.ndarray:
        """The determinant-ratio distance (:func:`gram_ratio_stack`), NaN for dependent systems."""
        return gram_ratio_stack(self.systems, self.xx, self.beta)

    @cached_property
    def projection(self) -> np.ndarray:
        """The projection quotient (:func:`projection_stack`)."""
        return projection_stack(self.systems.rows, self.xx, self.beta, self.s, self.in_orth)

    @cached_property
    def oracle(self) -> np.ndarray:
        """The Householder QR distance (:func:`distance_sq_stack`): one QR
        over the whole stack, masked to NaN for the dependent systems, since
        the rank decision is the system's factorization."""
        return np.where(self.systems.factor.complete, distance_sq_stack(self.systems.rows, self.x), np.nan)


# -- one system: entry 0 of a point stack of one -------------------------------


def coefficients(system: VectorSystem, x: Vector) -> np.ndarray:
    """Inner products beta_i = <x, x_i> as a new ndarray (a copy, since the
    system's kept point stack reads beta again)."""
    return PointStack.of(system, x).beta[0].copy()


def in_orthogonal_complement(
    system: VectorSystem, x: Vector, tol: ToleranceConfig | None = None
) -> bool:
    """True when every <x, x_i> is negligible at the scale of x and the system."""
    return bool(PointStack.of(system, x, tol).in_orth[0])


def is_orthonormal(system: VectorSystem, tol: ToleranceConfig | None = None) -> bool:
    """True when the Gram matrix is the identity to orthogonality tolerance."""
    tol = tol or system.tol
    return bool(system.as_stack().aggregates.identity_deviation[0] <= tol.orth_rel_tol)


def distance_sq_gram_ratio(system: VectorSystem, x: Vector) -> float:
    """d^2 via the ratio of the augmented to the base Gram determinant
    (see :func:`gram_ratio_stack`)."""
    require_independent(system)
    return float(PointStack.of(system, x).ratio[0])


def distance_sq_quadratic(system: VectorSystem, x: Vector) -> float:
    """d^2 = ||x||^2 - beta* G^{-1} beta, clamped at zero.

    A tiny negative value from cancellation is clamped silently; a negative
    value beyond comparison tolerance (relative to ||x||^2) additionally
    emits a NumericalWarning before clamping.
    """
    require_independent(system)
    return float(PointStack.of(system, x).d2[0])


def distance_sq_projection(system: VectorSystem, x: Vector) -> float:
    """The projection-quotient expression (upper estimate in general).

    Returns ||x||^2 when x is orthogonal to the whole system (including
    x = 0, which yields 0).
    """
    require_independent(system)
    return float(PointStack.of(system, x).projection[0])


def distance_sq_orthonormal(system: VectorSystem, x: Vector) -> float:
    """Bessel form ||x||^2 - sum |<x, e_i>|^2 for an orthonormal system."""
    if not is_orthonormal(system):
        raise NotOrthonormalError("system is not orthonormal to tolerance")
    p = PointStack.of(system, x)
    return max(float(p.xx[0] - p.s[0]), 0.0)


@dataclass(frozen=True)
class DistanceResult:
    """All representations of one distance computation, with agreement flags.

    ``d2`` is the quadratic-form value; ``agreement_ok`` ties it to the
    determinant ratio; ``projection_matches`` records whether the projection
    quotient coincided (it need not); ``numerical_warning`` is set when the
    two exact representations disagree although the equilibrated Gram
    matrix was well conditioned (the factor's kappa_E, which does not depend
    on how the rows are scaled). ``gram_condition`` reports the eigenvalue
    condition number of the Gram matrix itself, kappa(G), which does.
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
    p = PointStack.of(system, x, tol)
    tol, xx, beta = p.tol, float(p.xx[0]), p.beta[0]
    d2_ratio = float(p.ratio[0])  # before the quadratic form, so that warnings keep their order
    d2_quad = float(p.d2[0])
    d2_proj = float(p.projection[0])
    agree = near_margin(d2_ratio, d2_quad, tol.compare_rel_tol) >= 0.0
    field = system.field
    return DistanceResult(
        d2_gram_ratio=d2_ratio,
        d2_quadratic=d2_quad,
        d2_projection=d2_proj,
        beta=tuple(float(b.real) if field is Field.REAL else complex(b) for b in beta),
        in_orth_complement=bool(p.in_orth[0]),
        in_subspace=d2_quad <= tol.compare_rel_tol * xx,
        agreement_ok=agree,
        projection_matches=near_margin(d2_proj, d2_quad, tol.compare_rel_tol) >= 0.0,
        gram_condition=system.gram_condition(),
        numerical_warning=(not agree) and float(system.as_stack().factor.condition[0]) <= WELL_CONDITIONED_LIMIT,
    )


def distance_sq_oracle(system: VectorSystem, x: Vector) -> float:
    """Reference distance via Householder QR only (no Gram matrix, no
    determinants, no solves); the system's rank decision is the one every
    other function here reads."""
    require_independent(system)
    return float(PointStack.of(system, x).oracle[0])
