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

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericalWarning
from .gram import VectorSystem, gram_determinant, require_independent
from .space import ToleranceConfig

__all__ = [
    "ChainVariant",
    "HadamardChainResult",
    "HadamardStrictVerdict",
    "hadamard_chain",
    "check_hadamard_strict",
]


class ChainVariant(Enum):
    """How the prefix Gram block is aggregated into the denominator D_k."""

    TOTAL_NORM = "total_norm"
    OFFDIAG_FROBENIUS = "offdiag_frobenius"
    OFFDIAG_MAX = "offdiag_max"
    ROW_SUMS = "row_sums"


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


def _prefix_denominator(variant: ChainVariant, block: np.ndarray) -> float:
    """Aggregate of the leading Gram block, matching the bound denominators."""
    norms = np.ascontiguousarray(block.diagonal().real)
    if variant is ChainVariant.TOTAL_NORM:
        return float(np.sum(norms))
    off = np.abs(block)
    np.fill_diagonal(off, 0.0)
    k = block.shape[0]
    if variant is ChainVariant.OFFDIAG_FROBENIUS:
        return float(np.max(norms)) + math.sqrt(float(np.sum(off**2)))
    if variant is ChainVariant.OFFDIAG_MAX:
        return float(np.max(norms)) + (k - 1) * float(np.max(off, initial=0.0))
    return float(np.max(np.sum(np.abs(block), axis=1)))


def hadamard_chain(
    system: VectorSystem, variant: ChainVariant, tol: ToleranceConfig | None = None
) -> HadamardChainResult:
    """Evaluate one corrected-product refinement for an independent system (n >= 2)."""
    require_independent(system)
    if system.n < 2:
        raise ValueError("chain refinements need at least two vectors")
    tol = tol or system.tol
    g = system.gram.entries
    agg = system.aggregates
    norms = agg.norms_sq
    factors = [float(norms[0])]
    clamped = False
    for k in range(1, system.n):
        num = float(np.sum(np.abs(g[k, :k]) ** 2))
        den = _prefix_denominator(variant, g[:k, :k])
        factor = float(norms[k]) - num / den
        if factor < 0.0:
            if factor < -tol.compare_rel_tol * (1.0 + float(norms[k])):
                warnings.warn(
                    f"chain factor {factor:.3e} at position {k} is negative beyond "
                    "tolerance; clamping to zero",
                    NumericalWarning,
                    stacklevel=2,
                )
                clamped = True
            factor = 0.0
        factors.append(factor)
    refined = float(np.prod(factors))
    det = gram_determinant(system)
    product = float(agg.norm_product)
    rel = tol.compare_rel_tol
    return HadamardChainResult(
        variant=variant,
        gram_det=det,
        refined=refined,
        norm_product=product,
        factors=tuple(factors),
        lower_ok=det <= refined + rel * (1.0 + abs(det) + abs(refined)),
        upper_ok=refined <= product + rel * (1.0 + abs(refined) + abs(product)),
        clamped=clamped,
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
    agg = system.aggregates
    product = float(agg.norm_product)
    margin = product - det
    pair_scale = np.sqrt(np.outer(agg.norms_sq, agg.norms_sq))
    orthogonal = bool(np.all(agg.abs_offdiag <= tol.orth_rel_tol * pair_scale))
    strict = margin > tol.compare_rel_tol * (1.0 + abs(product)) and not orthogonal
    return HadamardStrictVerdict(gram_det=det, norm_product=product, margin=margin, strict=strict)
