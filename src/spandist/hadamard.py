"""Refinements of the determinant–norm-product inequality.

For an independent system the Gram determinant satisfies

    det G <= ||x_1||^2 * prod_{k=2..n} (||x_k||^2 - c_k) <= prod_k ||x_k||^2,

where c_k estimates from below the squared-norm loss of x_k against the
span of its predecessors: c_k = (sum_{i<k} |<x_k, x_i>|^2) / D_k with D_k
an aggregate of the leading (k-1) x (k-1) Gram block. Four aggregates are
offered, mirroring the distance-bound denominators. Orthogonal prefixes
give c_k = 0, so the middle product degrades gracefully to the plain
norm product; for an orthonormal system every factor is exactly 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalWarning
from .gram import ChainVariant, VectorSystem, gram_determinant, require_independent
from .space import ToleranceConfig, leq_margin

__all__ = [
    "ChainVariant",
    "HadamardChainResult",
    "HadamardStrictVerdict",
    "hadamard_chain",
    "chain_stack",
    "check_hadamard_strict",
]

_ROWS = {variant: row for row, variant in enumerate(ChainVariant)}  # each variant's row of the denominators


@dataclass(frozen=True)
class HadamardChainResult:
    """One refinement chain: det G <= refined <= norm product.

    ``factors`` holds the per-step values (||x_1||^2 first, then each
    corrected factor); ``refined`` is their product. ``lower_ok`` and
    ``upper_ok`` report the two inequalities at comparison tolerance and
    ``clamped`` flags a correction that exceeded its factor's norm beyond
    tolerance (numerically impossible for exact Gram data).
    """

    variant: ChainVariant
    gram_det: float
    refined: float
    norm_product: float
    factors: tuple[float, ...]
    lower_ok: bool
    upper_ok: bool
    clamped: bool


def chain_stack(
    norms: np.ndarray, numerators: np.ndarray, denominators: np.ndarray, tol: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(factors, refined, clamped) of one refinement chain for each system of
    a stack, n >= 2: (T, n) squared norms, and the chain's (T, n) prefix
    numerators and denominators (see
    :attr:`~spandist.gram.AggregateStack.chain_prefixes`). Denominators of
    shape (..., T, n) run one chain per leading index (every variant's at
    once from the whole (4, T, n) array), and the results carry the same
    leading axes.

    A factor below zero is clamped to zero; one below zero beyond tolerance
    also emits a NumericalWarning and sets ``clamped``.
    """
    factors = np.empty(denominators.shape)
    factors[..., 0] = norms[:, 0]
    factors[..., 1:] = norms[:, 1:] - numerators[:, 1:] / denominators[..., :-1]
    negative = factors < 0.0
    if not negative.any():
        return factors, np.multiply.reduce(factors, axis=-1), negative[..., 0]
    loud = negative & (leq_margin(0.0, factors, tol.compare_rel_tol, scale=norms) < 0.0)
    for at in np.argwhere(loud):
        warnings.warn(
            f"chain factor {factors[tuple(at)]:.3e} at position {at[-1]} is negative beyond "
            "tolerance; clamping to zero",
            NumericalWarning,
            stacklevel=3,
        )
    factors[negative] = 0.0
    return factors, np.prod(factors, axis=-1), np.any(loud, axis=-1)


def hadamard_chain(
    system: VectorSystem, variant: ChainVariant, tol: ToleranceConfig | None = None
) -> HadamardChainResult:
    """Evaluate one corrected-product refinement for an independent system (n >= 2).

    The prefix numerators and the variant's row of the denominators come
    from the ``chain_prefixes`` of the system's stack
    (``system.as_stack().aggregates``), computed once per system for every
    position and every variant; :func:`chain_stack` runs on that stack of
    one. A ``variant`` that is not a :class:`ChainVariant` raises ValueError.
    """
    if not isinstance(variant, ChainVariant):
        raise ValueError(f"variant must be a ChainVariant, got {variant!r}")
    require_independent(system)
    if system.n < 2:
        raise ValueError("chain refinements need at least two vectors")
    tol = tol or system.tol
    agg = system.as_stack().aggregates
    numerators, denominators = agg.chain_prefixes
    factors, refined, clamped = chain_stack(agg.norms_sq, numerators, denominators[_ROWS[variant]], tol)
    refined = float(refined[0])
    det = gram_determinant(system)
    product = float(agg.norm_product[0])
    return HadamardChainResult(
        variant=variant,
        gram_det=det,
        refined=refined,
        norm_product=product,
        factors=tuple(factors[0].tolist()),
        lower_ok=leq_margin(det, refined, tol.compare_rel_tol) >= 0.0,
        upper_ok=leq_margin(refined, product, tol.compare_rel_tol) >= 0.0,
        clamped=bool(clamped[0]),
    )


@dataclass(frozen=True)
class HadamardStrictVerdict:
    """Strict determinant inequality for independent, non-orthogonal systems."""

    gram_det: float
    norm_product: float
    margin: float
    strict: bool


def check_hadamard_strict(system: VectorSystem, tol: ToleranceConfig | None = None) -> HadamardStrictVerdict:
    """det G < prod ||x_i||^2 strictly, unless the system is pairwise orthogonal.

    ``margin`` is the gap (product minus determinant); ``strict`` asks the
    gap to clear comparison tolerance at the product's scale. For pairwise
    orthogonal systems the gap is zero and ``strict`` is False.
    """
    require_independent(system)
    tol = tol or system.tol
    det = gram_determinant(system)
    agg = system.as_stack().aggregates
    product = float(agg.norm_product[0])
    pair_scale = np.sqrt(np.outer(agg.norms_sq[0], agg.norms_sq[0]))
    orthogonal = bool(np.all(agg.abs_offdiag[0] <= tol.orth_rel_tol * pair_scale))
    strict = leq_margin(product, det, tol.compare_rel_tol) < 0.0 and not orthogonal
    return HadamardStrictVerdict(gram_det=det, norm_product=product, margin=product - det, strict=strict)
