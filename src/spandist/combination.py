"""Upper bounds for the norm of a linear combination ``sum_i alpha_i z_i``.

Every bound here is driven by the same raw material: the coefficient
magnitudes |alpha_i|, the squared norms ||z_i||^2 (the Gram diagonal), and
the off-diagonal inner-product magnitudes |<z_i, z_j>|. The bounds differ
in how they aggregate that material — maxima, sums, or Hölder pairings —
and several come as a tight/coarse chain whose internal ordering is itself
a theorem and is surfaced for verification.

None of these require linear independence; they hold for arbitrary finite
systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Literal, Sequence

import numpy as np

from .gram import VectorSystem
from .space import Scalar, ToleranceConfig, conjugate_exponent
from .space import _coeff_array as _validated_coeffs

__all__ = [
    "CombinationKind",
    "CombinationMethod",
    "CombinationBoundResult",
    "CombinationInputs",
    "LagrangeParts",
    "combination_norm_sq",
    "lagrange_identity_parts",
    "lagrange_identity_residual",
    "cauchy_schwarz_bound",
    "diag_offdiag_bound",
    "selection_max_bound",
    "selection_frobenius_bound",
    "row_sum_bound",
    "holder_gram_bound",
    "holder_gram_p2_bound",
    "evaluate_combination",
    "DIAG_BRANCHES",
    "OFFDIAG_BRANCHES",
    "ROW_SUM_BRANCHES",
]

DiagBranch = Literal["max_coeff", "holder", "max_norm"]
OffdiagBranch = Literal["max_coeff", "holder", "max_entry"]
RowSumBranch = Literal["max_coeff", "holder", "max_row"]

DIAG_BRANCHES: tuple[DiagBranch, ...] = ("max_coeff", "holder", "max_norm")
OFFDIAG_BRANCHES: tuple[OffdiagBranch, ...] = ("max_coeff", "holder", "max_entry")
ROW_SUM_BRANCHES: tuple[RowSumBranch, ...] = ("max_coeff", "holder", "max_row")


class CombinationKind(Enum):
    CAUCHY_SCHWARZ = "cauchy_schwarz"
    DIAG_OFFDIAG = "diag_offdiag"
    SELECTION_MAX = "selection_max"
    SELECTION_FROBENIUS = "selection_frobenius"
    ROW_SUM = "row_sum"
    HOLDER_GRAM = "holder_gram"
    HOLDER_GRAM_P2 = "holder_gram_p2"


@dataclass(frozen=True)
class CombinationMethod:
    """A bound family plus whatever branch/exponent choices it takes."""

    kind: CombinationKind
    diag_branch: DiagBranch | None = None
    offdiag_branch: OffdiagBranch | None = None
    branch: RowSumBranch | None = None
    p: float | None = None
    diag_exp: float | None = None
    offdiag_exp: float | None = None

    def __post_init__(self) -> None:
        k = self.kind
        if k is CombinationKind.DIAG_OFFDIAG:
            if self.diag_branch not in DIAG_BRANCHES:
                raise ValueError(f"diag_branch must be one of {DIAG_BRANCHES}, got {self.diag_branch!r}")
            if self.offdiag_branch not in OFFDIAG_BRANCHES:
                raise ValueError(
                    f"offdiag_branch must be one of {OFFDIAG_BRANCHES}, got {self.offdiag_branch!r}"
                )
            if (self.diag_branch == "holder") != (self.diag_exp is not None):
                raise ValueError("diag_exp is required exactly when diag_branch='holder'")
            if (self.offdiag_branch == "holder") != (self.offdiag_exp is not None):
                raise ValueError("offdiag_exp is required exactly when offdiag_branch='holder'")
            for exp in (self.diag_exp, self.offdiag_exp):
                if exp is not None:
                    conjugate_exponent(exp)  # validates > 1
        elif k is CombinationKind.ROW_SUM:
            if self.branch not in ROW_SUM_BRANCHES:
                raise ValueError(f"branch must be one of {ROW_SUM_BRANCHES}, got {self.branch!r}")
            if (self.branch == "holder") != (self.p is not None):
                raise ValueError("p is required exactly when branch='holder'")
            if self.p is not None:
                conjugate_exponent(self.p)
        elif k in (CombinationKind.HOLDER_GRAM, CombinationKind.HOLDER_GRAM_P2):
            if self.p is None:
                raise ValueError("holder_gram methods require the exponent p")
            conjugate_exponent(self.p)
            if k is CombinationKind.HOLDER_GRAM_P2 and self.p != 2.0:
                raise ValueError("the p=2 specialisation fixes p at 2")

    @property
    def label(self) -> str:
        bits = [self.kind.value]
        if self.diag_branch:
            bits.append(f"diag={self.diag_branch}" + (f"({self.diag_exp:g})" if self.diag_exp else ""))
        if self.offdiag_branch:
            bits.append(
                f"offdiag={self.offdiag_branch}" + (f"({self.offdiag_exp:g})" if self.offdiag_exp else "")
            )
        if self.branch:
            bits.append(f"branch={self.branch}")
        if self.p is not None and self.kind is not CombinationKind.HOLDER_GRAM_P2:
            bits.append(f"p={self.p:g}")
        return "[" + ", ".join(bits) + "]"


@dataclass(frozen=True)
class CombinationBoundResult:
    """Outcome of one combination bound.

    ``chain`` runs tightest to coarsest; ``bound`` is always ``chain[0]``.
    ``holds`` compares lhs against the tight end; ``chain_ok`` asserts the
    internal ordering of the chain itself.
    """

    lhs: float
    bound: float
    chain: tuple[float, ...]
    method: CombinationMethod
    holds: bool
    chain_ok: bool


class CombinationInputs:
    """One validated coefficient draw against one system.

    Holds everything the bounds read from the coefficients — |a|, its
    maximum and sum, the power sums sum |a_i|^e (memoised per exponent) and
    the lhs ||sum a_i z_i||^2 — each computed at most once, so any number
    of bounds on the same draw validate and reduce the coefficients once.
    The Gram side comes from ``zs.aggregates``. Build with :meth:`build`.
    """

    def __init__(self, alphas: np.ndarray, zs: VectorSystem) -> None:
        self.alphas = alphas
        self.zs = zs
        self._powers: dict[float, np.floating] = {}

    @classmethod
    def build(cls, alphas: Sequence[Scalar] | np.ndarray, zs: VectorSystem) -> "CombinationInputs":
        """Validate ``alphas`` against ``zs`` (one finite scalar per vector)."""
        a = _validated_coeffs(alphas, zs.field, zs.n)
        a.setflags(write=False)
        return cls(a, zs)

    @cached_property
    def lhs(self) -> float:
        """||sum_i alphas[i] * z_i||^2 computed in coordinates."""
        combo = self.alphas @ self.zs.rows
        return float(np.real(np.vdot(combo, combo)))

    @cached_property
    def coeff_norm_sq(self) -> float:
        """sum_i |alphas[i]|^2 as the inner product <a, a>."""
        return float(np.real(np.vdot(self.alphas, self.alphas)))

    @cached_property
    def a(self) -> np.ndarray:
        """|alphas|."""
        return np.abs(self.alphas)

    @cached_property
    def a_max(self) -> np.floating:
        return np.max(self.a)

    @cached_property
    def a_sum(self) -> np.floating:
        return np.sum(self.a)

    @cached_property
    def top_pair_product(self) -> float:
        """max_{i != j} |a_i||a_j| — product of the two largest magnitudes."""
        a = self.a
        if a.shape[0] < 2:
            return 0.0
        top = np.partition(a, -2)[-2:]
        return float(top[0] * top[1])

    def power_sum(self, e: float) -> np.floating:
        """sum_i |a_i|^e, memoised per exponent."""
        value = self._powers.get(e)
        if value is None:
            value = self._powers[e] = np.sum(self.a**e)
        return value

    def bound(self, method: CombinationMethod, tol: ToleranceConfig | None = None) -> CombinationBoundResult:
        """Evaluate one combination bound on this draw."""
        chain = _CHAINS[method.kind](self, method)
        return _make_result(self.lhs, chain, method, tol or self.zs.tol)


def combination_norm_sq(alphas: Sequence[Scalar], zs: VectorSystem) -> float:
    """||sum_i alphas[i] * z_i||^2 computed in coordinates."""
    return CombinationInputs.build(alphas, zs).lhs


@dataclass(frozen=True)
class LagrangeParts:
    """Terms of the norm-of-combination identity.

    (sum |a_i|^2)(sum ||z_i||^2) - ||sum a_i z_i||^2
        = 1/2 * sum_{i,j} ||conj(a_i) z_j - conj(a_j) z_i||^2

    ``residual`` is the absolute defect between the two sides; ``magnitude``
    is the natural scale to judge it against.
    """

    coeff_sum: float
    norm_sum: float
    combo_norm_sq: float
    pair_sum: float

    @property
    def residual(self) -> float:
        return abs(self.coeff_sum * self.norm_sum - self.combo_norm_sq - self.pair_sum)

    @property
    def magnitude(self) -> float:
        return abs(self.coeff_sum * self.norm_sum) + abs(self.combo_norm_sq) + abs(self.pair_sum)


# Entries of one block of pairwise differences in the Lagrange sum: bounds
# the working memory (a few such arrays live at once) whatever n and dim.
_PAIR_BLOCK_ENTRIES = 1 << 16


def _pair_sum(ac: np.ndarray, rows: np.ndarray) -> float:
    """sum_{i<j} ||ac_i z_j - ac_j z_i||^2, summed in coordinates.

    One block of rows i at a time, against the partners j > i: the block's
    differences form a (block rows, partners, dim) array in which the pairs
    with j <= i get zero coefficients, so the (n, n, dim) tensor is never
    built.
    """
    n, dim = rows.shape
    step = max(1, _PAIR_BLOCK_ENTRIES // (n * dim))
    total = 0.0
    for start in range(0, n - 1, step):
        stop = min(start + step, n - 1)
        upper = np.arange(start + 1, n) > np.arange(start, stop)[:, np.newaxis]
        left = np.where(upper, ac[start:stop, np.newaxis], 0.0)
        right = np.where(upper, ac[start + 1 :], 0.0)
        diff = (left[:, :, np.newaxis] * rows[start + 1 :]
                - right[:, :, np.newaxis] * rows[start:stop, np.newaxis, :])
        total += float(np.real(np.vdot(diff, diff)))
    return total


def lagrange_identity_parts(alphas: Sequence[Scalar], zs: VectorSystem) -> LagrangeParts:
    c = CombinationInputs.build(alphas, zs)
    return LagrangeParts(
        coeff_sum=c.coeff_norm_sq,
        norm_sum=float(zs.aggregates.norm_sum),
        combo_norm_sq=c.lhs,
        pair_sum=_pair_sum(c.alphas.conj(), zs.rows),
    )


def lagrange_identity_residual(alphas: Sequence[Scalar], zs: VectorSystem) -> float:
    """Absolute defect of the identity; ~1e-16 * magnitude in practice."""
    return lagrange_identity_parts(alphas, zs).residual


def _make_result(
    lhs: float,
    chain: Sequence[float],
    method: CombinationMethod,
    tol: ToleranceConfig,
) -> CombinationBoundResult:
    rel = tol.compare_rel_tol
    chain = tuple(float(c) for c in chain)
    holds = lhs <= chain[0] * (1.0 + rel) + rel
    chain_ok = all(chain[i] <= chain[i + 1] * (1.0 + rel) + rel for i in range(len(chain) - 1))
    return CombinationBoundResult(
        lhs=lhs, bound=chain[0], chain=chain, method=method, holds=holds, chain_ok=chain_ok
    )


# -- the bound families: one chain formula each, over CombinationInputs -----


def _cauchy_schwarz_chain(c: CombinationInputs, m: CombinationMethod) -> tuple[float, ...]:
    return (c.coeff_norm_sq * float(c.zs.aggregates.norm_sum),)


def _diag_term(branch: DiagBranch, exp: float | None, c: CombinationInputs) -> float:
    g = c.zs.aggregates
    if branch == "max_coeff":
        return float(c.a_max**2 * g.norm_sum)
    if branch == "holder":
        q = conjugate_exponent(exp)
        return float(c.power_sum(2 * exp) ** (1 / exp) * g.power_sum("norms_sq", q) ** (1 / q))
    return float(c.power_sum(2) * g.norm_max)


def _offdiag_term(branch: OffdiagBranch, exp: float | None, c: CombinationInputs) -> float:
    g = c.zs.aggregates
    if branch == "max_coeff":
        return c.top_pair_product * float(g.offdiag_sum)
    if branch == "holder":
        q = conjugate_exponent(exp)
        coeff = max(float(c.power_sum(exp) ** 2 - c.power_sum(2 * exp)), 0.0)
        return coeff ** (1 / exp) * float(g.power_sum("abs_offdiag", q)) ** (1 / q)
    coeff = max(float(c.a_sum**2 - c.power_sum(2)), 0.0)
    return coeff * float(g.offdiag_max)


def _diag_offdiag_chain(c: CombinationInputs, m: CombinationMethod) -> tuple[float, ...]:
    return (_diag_term(m.diag_branch, m.diag_exp, c) + _offdiag_term(m.offdiag_branch, m.offdiag_exp, c),)


def _selection_max_chain(c: CombinationInputs, m: CombinationMethod) -> tuple[float, ...]:
    g = c.zs.aggregates
    sum_sq = float(c.power_sum(2))
    max_off = float(g.offdiag_max)
    tight = float(g.norm_max) * sum_sq + max_off * max(float(c.a_sum**2) - sum_sq, 0.0)
    coarse = sum_sq * (float(g.norm_max) + (c.zs.n - 1) * max_off)
    return (tight, coarse)


def _selection_frobenius_chain(c: CombinationInputs, m: CombinationMethod) -> tuple[float, ...]:
    g = c.zs.aggregates
    sum_sq = float(c.power_sum(2))
    off_frob = math.sqrt(float(g.offdiag_sum_sq))
    coeff = math.sqrt(max(sum_sq**2 - float(c.power_sum(4)), 0.0))
    tight = float(g.norm_max) * sum_sq + off_frob * coeff
    coarse = sum_sq * (float(g.norm_max) + off_frob)
    return (tight, coarse)


def _row_sum_chain(c: CombinationInputs, m: CombinationMethod) -> tuple[float, ...]:
    g = c.zs.aggregates
    base = float(np.sum(c.a**2 * g.row_sums))
    if m.branch == "max_coeff":
        relaxed = float(c.a_max**2 * g.row_sum_total)
    elif m.branch == "holder":
        q = conjugate_exponent(m.p)
        relaxed = float(c.power_sum(2 * m.p) ** (1 / m.p) * g.power_sum("row_sums", q) ** (1 / q))
    else:
        relaxed = float(c.power_sum(2) * g.row_max)
    return (base, relaxed)


def _holder_gram_chain(c: CombinationInputs, m: CombinationMethod) -> tuple[float, ...]:
    q = conjugate_exponent(m.p)
    return (float(c.power_sum(m.p) ** (2 / m.p) * c.zs.aggregates.power_sum("abs_gram", q) ** (1 / q)),)


_CHAINS = {
    CombinationKind.CAUCHY_SCHWARZ: _cauchy_schwarz_chain,
    CombinationKind.DIAG_OFFDIAG: _diag_offdiag_chain,
    CombinationKind.SELECTION_MAX: _selection_max_chain,
    CombinationKind.SELECTION_FROBENIUS: _selection_frobenius_chain,
    CombinationKind.ROW_SUM: _row_sum_chain,
    CombinationKind.HOLDER_GRAM: _holder_gram_chain,
    CombinationKind.HOLDER_GRAM_P2: _holder_gram_chain,
}


def cauchy_schwarz_bound(
    alphas: Sequence[Scalar], zs: VectorSystem, tol: ToleranceConfig | None = None
) -> CombinationBoundResult:
    """||sum a_i z_i||^2 <= (sum |a_i|^2)(sum ||z_i||^2)."""
    inputs = CombinationInputs.build(alphas, zs)
    return inputs.bound(CombinationMethod(kind=CombinationKind.CAUCHY_SCHWARZ), tol)


def diag_offdiag_bound(
    alphas: Sequence[Scalar],
    zs: VectorSystem,
    diag_branch: DiagBranch,
    offdiag_branch: OffdiagBranch,
    diag_exp: float | None = None,
    offdiag_exp: float | None = None,
    tol: ToleranceConfig | None = None,
) -> CombinationBoundResult:
    """Split bound: diagonal mass and off-diagonal mass estimated separately.

    Each side offers three aggregations (coefficient maximum / Hölder pair /
    entry maximum), giving nine combinations. Hölder branches take the
    coefficient-side exponent; the partner exponent is derived.
    """
    method = CombinationMethod(
        kind=CombinationKind.DIAG_OFFDIAG,
        diag_branch=diag_branch,
        offdiag_branch=offdiag_branch,
        diag_exp=diag_exp,
        offdiag_exp=offdiag_exp,
    )
    return CombinationInputs.build(alphas, zs).bound(method, tol)


def selection_max_bound(
    alphas: Sequence[Scalar], zs: VectorSystem, tol: ToleranceConfig | None = None
) -> CombinationBoundResult:
    """Max-norm/max-entry selection with its coarser closed form.

    tight  = max||z||^2 * sum|a|^2 + max|<z_i,z_j>| * ((sum|a|)^2 - sum|a|^2)
    coarse = sum|a|^2 * (max||z||^2 + (n-1) * max|<z_i,z_j>|)
    """
    inputs = CombinationInputs.build(alphas, zs)
    return inputs.bound(CombinationMethod(kind=CombinationKind.SELECTION_MAX), tol)


def selection_frobenius_bound(
    alphas: Sequence[Scalar], zs: VectorSystem, tol: ToleranceConfig | None = None
) -> CombinationBoundResult:
    """Max-norm/off-diagonal-Frobenius selection with its coarser closed form.

    tight  = max||z||^2 * sum|a|^2
             + (sum_{i!=j} |<z_i,z_j>|^2)^(1/2) * ((sum|a|^2)^2 - sum|a|^4)^(1/2)
    coarse = sum|a|^2 * (max||z||^2 + (sum_{i!=j} |<z_i,z_j>|^2)^(1/2))
    """
    inputs = CombinationInputs.build(alphas, zs)
    return inputs.bound(CombinationMethod(kind=CombinationKind.SELECTION_FROBENIUS), tol)


def row_sum_bound(
    alphas: Sequence[Scalar],
    zs: VectorSystem,
    branch: RowSumBranch,
    p: float | None = None,
    tol: ToleranceConfig | None = None,
) -> CombinationBoundResult:
    """Coupled row-sum bound sum_i |a_i|^2 r_i with a selectable relaxation.

    r_i = sum_j |<z_i, z_j>| (diagonal included). The base bound already
    dominates the lhs; the branch relaxes it further:

    * max_coeff: max|a|^2 * sum_i r_i
    * holder:    (sum |a|^(2p))^(1/p) * (sum r_i^q)^(1/q)
    * max_row:   sum|a|^2 * max_i r_i
    """
    method = CombinationMethod(kind=CombinationKind.ROW_SUM, branch=branch, p=p)
    return CombinationInputs.build(alphas, zs).bound(method, tol)


def holder_gram_bound(
    alphas: Sequence[Scalar], zs: VectorSystem, p: float, tol: ToleranceConfig | None = None
) -> CombinationBoundResult:
    """Hölder pairing of coefficient powers against Gram-entry powers.

    bound = (sum_i |a_i|^p)^(2/p) * (sum_{i,j} |<z_i,z_j>|^q)^(1/q),
    with q conjugate to p and the double sum running over all pairs.  The
    coefficient factor is the squared p-norm because the pairing is applied
    to the double sum over |a_i| |a_j|, which factorises.
    """
    method = CombinationMethod(kind=CombinationKind.HOLDER_GRAM, p=p)
    return CombinationInputs.build(alphas, zs).bound(method, tol)


def holder_gram_p2_bound(
    alphas: Sequence[Scalar], zs: VectorSystem, tol: ToleranceConfig | None = None
) -> CombinationBoundResult:
    """The symmetric p = q = 2 case: sum|a|^2 * (sum|G_ij|^2)^(1/2)."""
    method = CombinationMethod(kind=CombinationKind.HOLDER_GRAM_P2, p=2.0)
    return CombinationInputs.build(alphas, zs).bound(method, tol)


def evaluate_combination(
    alphas: Sequence[Scalar],
    zs: VectorSystem,
    method: CombinationMethod,
    tol: ToleranceConfig | None = None,
) -> CombinationBoundResult:
    """Evaluate the bound a :class:`CombinationMethod` names."""
    return CombinationInputs.build(alphas, zs).bound(method, tol)
