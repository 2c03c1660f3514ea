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

from dataclasses import dataclass, fields
from enum import Enum
from typing import Literal, NamedTuple, Sequence

import numpy as np

from .gram import AggregateStack, VectorSystem
from .space import Scalar, ToleranceConfig, cached_property, holder_pair, sq_norms
from .space import _coeff_array as _validated_coeffs

__all__ = [
    "CombinationKind",
    "CombinationMethod",
    "CombinationBoundResult",
    "CombinationStack",
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
    "bound_margin",
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


class _Choice(NamedTuple):
    """An exponent field a kind reads: given exactly when the ``branch`` field is "holder", or
    always where ``required_by`` names the family; ``fixed`` is its one allowed value, if any."""

    exp: str
    branch: str | None = None
    branches: tuple[str, ...] = ()
    required_by: str | None = None
    fixed: float | None = None


_HOLDER_GRAM_P = _Choice("p", required_by="holder_gram")
# per kind: its choices, and its chain terms (CombinationMethod._chain_terms) from each choice's (branch, pair or None)
_KINDS = {
    CombinationKind.CAUCHY_SCHWARZ: ((), lambda: ((_cauchy_schwarz,), None, None)),
    CombinationKind.DIAG_OFFDIAG: (
        (_Choice("diag_exp", "diag_branch", DIAG_BRANCHES), _Choice("offdiag_exp", "offdiag_branch", OFFDIAG_BRANCHES)),
        lambda diag, offdiag: ((_diag_term, *diag), (_offdiag_term, *offdiag), None),
    ),
    CombinationKind.SELECTION_MAX: ((), lambda: (
        (_diag_term, "max_norm", None), (_offdiag_term, "max_entry", None), (_coarse, "diag_offdiag_max"),
    )),
    CombinationKind.SELECTION_FROBENIUS: ((), lambda: (
        (_diag_term, "max_norm", None),
        (_offdiag_term, "holder", holder_pair(2.0)),
        (_coarse, "diag_offdiag_frobenius"),
    )),
    CombinationKind.ROW_SUM: ((_Choice("p", "branch", ROW_SUM_BRANCHES),), lambda relaxed: (
        (_row_sum_base,), None, (_row_sum_relaxed, *relaxed),
    )),
    CombinationKind.HOLDER_GRAM: ((_HOLDER_GRAM_P,), lambda gram: ((_holder_gram, gram[1]), None, None)),
    CombinationKind.HOLDER_GRAM_P2: (
        (_HOLDER_GRAM_P._replace(fixed=2.0),), lambda gram: ((_holder_gram, gram[1]), None, None)
    ),
}


@dataclass(frozen=True)
class CombinationMethod:
    """A bound family plus whatever branch/exponent choices it takes, each
    checked once when it is built, which sets ``_chain_terms``: the memo keys
    (term, *args) :meth:`CombinationStack.chain` reads for the tight end or a
    split's diagonal term, its off-diagonal term and the coarse end (None where
    there is none), a Hölder term's carrying its pair (p, q) from
    :func:`~spandist.space.holder_pair`."""

    kind: CombinationKind
    diag_branch: DiagBranch | None = None
    offdiag_branch: OffdiagBranch | None = None
    branch: RowSumBranch | None = None
    p: float | None = None
    diag_exp: float | None = None
    offdiag_exp: float | None = None

    def __post_init__(self) -> None:
        k = self.kind
        if not isinstance(k, CombinationKind):
            raise ValueError(f"kind must be a CombinationKind, got {k!r}")
        choices, terms = _KINDS[k]
        reads = [name for c in choices for name in (c.branch, c.exp)]
        for f in fields(self)[1:]:
            if f.name not in reads and getattr(self, f.name) is not None:
                raise ValueError(f"{k.value} takes no {f.name}, got {getattr(self, f.name)!r}")
        for c in choices:
            if c.branch and getattr(self, c.branch) not in c.branches:
                raise ValueError(f"{c.branch} must be one of {c.branches}, got {getattr(self, c.branch)!r}")
        for c in choices:
            if c.required_by and getattr(self, c.exp) is None:
                raise ValueError(f"{c.required_by} methods require the exponent {c.exp}")
            if c.branch and (getattr(self, c.branch) == "holder") != (getattr(self, c.exp) is not None):
                raise ValueError(f"{c.exp} is required exactly when {c.branch}='holder'")
        picks = []
        for c in choices:
            pair = None if getattr(self, c.exp) is None else holder_pair(getattr(self, c.exp))
            if pair is not None:
                object.__setattr__(self, c.exp, pair[0])  # kept as a Python number
            if c.fixed is not None and pair[0] != c.fixed:
                raise ValueError(f"the {c.exp}={c.fixed:g} specialisation fixes {c.exp} at {c.fixed:g}")
            picks.append((c.branch and getattr(self, c.branch), pair))
        object.__setattr__(self, "_chain_terms", terms(*picks))

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

    ``chain`` is (tight,) or (tight, coarse); ``bound`` is always
    ``chain[0]``. ``holds`` compares lhs against the tight end and
    ``chain_ok`` the tight end against the coarse one, each by
    :func:`bound_margin`.
    """

    lhs: float
    bound: float
    chain: tuple[float, ...]
    method: CombinationMethod
    holds: bool
    chain_ok: bool


class CombinationStack:
    """Coefficient draws against the systems of a stack, one row per system.

    ``alphas`` is (T, n), ``rows`` the (T, n, dim) coordinates and ``agg``
    the systems' :class:`~spandist.gram.AggregateStack`. Holds everything the
    bounds read from the coefficients, per system — |a|, its maximum, the
    power sums sum |a_i|^e (its sum at e = 1, and at e = 2 the array
    ``coeff_norm_sq``), the diagonal and off-diagonal terms of the
    diag/offdiag splits (memoised per exponent and branch), the row-sum
    base, the lhs ||sum a_i z_i||^2 and the Lagrange identity parts — each
    computed at most once, so any number of bounds on the same draws reduce
    the coefficients once. :meth:`chain` evaluates one bound family from the
    memoised terms its method names; :meth:`of` builds the stack of one draw
    against one system.
    """

    def __init__(self, alphas: np.ndarray, rows: np.ndarray, agg: AggregateStack) -> None:
        self.alphas = alphas
        self.rows = rows
        self.agg = agg
        self.n = alphas.shape[-1]
        self._memos: dict[tuple, np.ndarray] = {}

    @classmethod
    def of(cls, alphas: Sequence[Scalar] | np.ndarray, zs: VectorSystem) -> "CombinationStack":
        """``alphas`` against ``zs``, validated once (one finite scalar per
        vector): a stack of one."""
        stack = zs.as_stack()
        return cls(_validated_coeffs(alphas, zs.field, zs.n)[np.newaxis], stack.rows, stack.aggregates)

    @cached_property
    def lhs(self) -> np.ndarray:
        """||sum_i alphas[i] * z_i||^2 computed in coordinates."""
        return sq_norms((self.alphas[:, np.newaxis, :] @ self.rows)[:, 0, :])

    @cached_property
    def coeff_norm_sq(self) -> np.ndarray:
        """sum_i |alphas[i]|^2 as the inner product <a, a>, also :meth:`power_sum` at e = 2."""
        return sq_norms(self.alphas)

    @cached_property
    def a(self) -> np.ndarray:
        """|alphas|."""
        return np.abs(self.alphas)

    @cached_property
    def a_max(self) -> np.ndarray:
        return self.a.max(axis=-1)

    @cached_property
    def top_pair_product(self) -> np.ndarray:
        """max_{i != j} |a_i||a_j| — product of the two largest magnitudes."""
        if self.n < 2:
            return np.zeros(self.a.shape[0])
        top = np.partition(self.a, -2, axis=-1)[:, -2:]
        return top[:, 0] * top[:, 1]

    def _memo(self, key: tuple) -> np.ndarray:
        """``term(self, *args)`` of a key (term, *args), computed once per key."""
        value = self._memos.get(key)
        if value is None:
            value = self._memos[key] = key[0](self, *key[1:])
        return value

    def power_sum(self, e: float) -> np.ndarray:
        """sum_i |a_i|^e, memoised per exponent; at e = 2 it is :attr:`coeff_norm_sq`."""
        return self._memo((_power_sum, e))

    @cached_property
    def lagrange(self) -> "LagrangeParts":
        """The parts of the norm-of-combination identity, per system."""
        return LagrangeParts(
            coeff_sum=self.coeff_norm_sq,
            norm_sum=self.agg.norm_sum,
            combo_norm_sq=self.lhs,
            pair_sum=_pair_sum(self.alphas.conj(), self.rows),
        )

    def chain(self, method: CombinationMethod) -> tuple[np.ndarray, ...]:
        """The chain of one bound family, tightest first, per system: a split is the add of its two terms."""
        first, offdiag, coarse = method._chain_terms
        tight = self._memo(first) if offdiag is None else self._memo(first) + self._memo(offdiag)
        return (tight,) if coarse is None else (tight, self._memo(coarse))


def combination_norm_sq(alphas: Sequence[Scalar], zs: VectorSystem) -> float:
    """||sum_i alphas[i] * z_i||^2 computed in coordinates."""
    return float(CombinationStack.of(alphas, zs).lhs[0])


@dataclass(frozen=True)
class LagrangeParts:
    """Terms of the norm-of-combination identity: floats for one system,
    (T,) arrays for a stack.

    (sum |a_i|^2)(sum ||z_i||^2) - ||sum a_i z_i||^2
        = 1/2 * sum_{i,j} ||conj(a_i) z_j - conj(a_j) z_i||^2

    ``residual`` is the absolute defect between the two sides; ``magnitude``
    is the natural scale to judge it against.
    """

    coeff_sum: float | np.ndarray
    norm_sum: float | np.ndarray
    combo_norm_sq: float | np.ndarray
    pair_sum: float | np.ndarray

    @property
    def residual(self) -> float | np.ndarray:
        return abs(self.coeff_sum * self.norm_sum - self.combo_norm_sq - self.pair_sum)

    @property
    def magnitude(self) -> float | np.ndarray:
        return abs(self.coeff_sum * self.norm_sum) + abs(self.combo_norm_sq) + abs(self.pair_sum)


def _pair_sum(ac: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_{i<j} ||ac_i z_j - ac_j z_i||^2 per system, summed in coordinates,
    for (T, n) coefficients and (T, n, dim) rows.

    One pass per row i over the whole stack: the differences
    ac_i z_j - ac_j z_i against the partners j > i of every system are
    formed in place in two (T, n - 1, dim) buffers, so the (n, n, dim)
    tensor is never built, squared in place (a complex buffer as its float
    pairs) and added up per system by ``np.add.reduce``. No BLAS call takes
    part, so a system's sum is the same bits in any stack and under any
    BLAS thread count.
    """
    count, n, dim = rows.shape
    left = np.empty(count * (n - 1) * dim, np.result_type(ac, rows))
    right = np.empty_like(left)
    total = np.zeros(count)
    for row in range(n - 1):
        partners = n - 1 - row
        size = count * partners * dim
        diff, sub = left[:size].reshape(count, partners, dim), right[:size].reshape(count, partners, dim)
        np.multiply(ac[:, row, np.newaxis, np.newaxis], rows[:, row + 1 :], out=diff)
        np.multiply(ac[:, row + 1 :, np.newaxis], rows[:, row, np.newaxis], out=sub)
        diff -= sub
        sq = diff.reshape(count, partners * dim).view(np.float64)
        np.multiply(sq, sq, out=sq)
        total += np.add.reduce(sq, axis=-1)
    return total


def lagrange_identity_parts(alphas: Sequence[Scalar], zs: VectorSystem) -> LagrangeParts:
    p = CombinationStack.of(alphas, zs).lagrange
    return LagrangeParts(float(p.coeff_sum[0]), float(p.norm_sum[0]), float(p.combo_norm_sq[0]), float(p.pair_sum[0]))


def lagrange_identity_residual(alphas: Sequence[Scalar], zs: VectorSystem) -> float:
    """Absolute defect of the identity; ~1e-16 * magnitude in practice."""
    return lagrange_identity_parts(alphas, zs).residual


def bound_margin(upper: float | np.ndarray, lower: float | np.ndarray, rel: float) -> float | np.ndarray:
    """Margin of 'lower <= upper * (1 + rel) + rel', relative to 1 + |lower|:
    >= 0 exactly when that holds, and NaN, a failure, for an infinite
    ``lower``. Both :func:`evaluate_combination` and the campaign's sweep
    decide by it."""
    return (upper * (1.0 + rel) + rel - lower) / (1.0 + np.abs(lower))


# -- the bound families: the terms of each chain, over a CombinationStack ----


def _cauchy_schwarz(c: CombinationStack) -> np.ndarray:
    return c.coeff_norm_sq * c.agg.norm_sum


def _power_sum(c: CombinationStack, e: float) -> np.ndarray:
    return c.coeff_norm_sq if e == 2 else (c.a**e).sum(axis=-1)


def _diag_term(c: CombinationStack, branch: DiagBranch, pair: tuple[float, float] | None) -> np.ndarray:
    g = c.agg
    if branch == "max_coeff":
        return c.a_max**2 * g.norm_sum
    if branch == "holder":
        exp, q = pair
        return c.power_sum(2 * exp) ** (1 / exp) * g.power_sum("norms_sq", q) ** (1 / q)
    return c.power_sum(2) * g.norm_max


def _offdiag_term(c: CombinationStack, branch: OffdiagBranch, pair: tuple[float, float] | None) -> np.ndarray:
    g = c.agg
    if branch == "max_coeff":
        return c.top_pair_product * g.power_sum("abs_offdiag", 1)
    if branch == "holder":
        exp, q = pair
        coeff = np.maximum(c.power_sum(exp) ** 2 - c.power_sum(2 * exp), 0.0)
        return coeff ** (1 / exp) * g.power_sum("abs_offdiag", q) ** (1 / q)
    coeff = np.maximum(c.power_sum(1) ** 2 - c.power_sum(2), 0.0)
    return coeff * g.offdiag_max


def _coarse(c: CombinationStack, aggregate: str) -> np.ndarray:
    return c.power_sum(2) * getattr(c.agg, aggregate)


def _row_sum_base(c: CombinationStack) -> np.ndarray:
    """sum_i |a_i|^2 r_i, the tight end of every row-sum chain."""
    return (c.a**2 * c.agg.row_sums).sum(axis=-1)


def _row_sum_relaxed(c: CombinationStack, branch: RowSumBranch, pair: tuple[float, float] | None) -> np.ndarray:
    g = c.agg
    if branch == "max_coeff":
        return c.a_max**2 * g.power_sum("row_sums", 1)
    if branch == "holder":
        p, q = pair
        return c.power_sum(2 * p) ** (1 / p) * g.power_sum("row_sums", q) ** (1 / q)
    return c.power_sum(2) * g.row_max


def _holder_gram(c: CombinationStack, pair: tuple[float, float]) -> np.ndarray:
    p, q = pair
    return c.power_sum(p) ** (2 / p) * c.agg.power_sum("abs_gram", q) ** (1 / q)


def cauchy_schwarz_bound(
    alphas: Sequence[Scalar], zs: VectorSystem, tol: ToleranceConfig | None = None
) -> CombinationBoundResult:
    """||sum a_i z_i||^2 <= (sum |a_i|^2)(sum ||z_i||^2)."""
    return evaluate_combination(alphas, zs, CombinationMethod(kind=CombinationKind.CAUCHY_SCHWARZ), tol)


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
    return evaluate_combination(alphas, zs, method, tol)


def selection_max_bound(
    alphas: Sequence[Scalar], zs: VectorSystem, tol: ToleranceConfig | None = None
) -> CombinationBoundResult:
    """Max-norm/max-entry selection with its coarser closed form.

    tight  = max||z||^2 * sum|a|^2 + max|<z_i,z_j>| * ((sum|a|)^2 - sum|a|^2),
             the diag/offdiag split (max_norm, max_entry)
    coarse = sum|a|^2 * (max||z||^2 + (n-1) * max|<z_i,z_j>|)
    """
    return evaluate_combination(alphas, zs, CombinationMethod(kind=CombinationKind.SELECTION_MAX), tol)


def selection_frobenius_bound(
    alphas: Sequence[Scalar], zs: VectorSystem, tol: ToleranceConfig | None = None
) -> CombinationBoundResult:
    """Max-norm/off-diagonal-Frobenius selection with its coarser closed form.

    tight  = max||z||^2 * sum|a|^2
             + (sum_{i!=j} |<z_i,z_j>|^2)^(1/2) * ((sum|a|^2)^2 - sum|a|^4)^(1/2),
             the diag/offdiag split (max_norm, holder at p = 2)
    coarse = sum|a|^2 * (max||z||^2 + (sum_{i!=j} |<z_i,z_j>|^2)^(1/2))
    """
    return evaluate_combination(alphas, zs, CombinationMethod(kind=CombinationKind.SELECTION_FROBENIUS), tol)


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
    return evaluate_combination(alphas, zs, method, tol)


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
    return evaluate_combination(alphas, zs, method, tol)


def holder_gram_p2_bound(
    alphas: Sequence[Scalar], zs: VectorSystem, tol: ToleranceConfig | None = None
) -> CombinationBoundResult:
    """The symmetric p = q = 2 case: sum|a|^2 * (sum|G_ij|^2)^(1/2)."""
    method = CombinationMethod(kind=CombinationKind.HOLDER_GRAM_P2, p=2.0)
    return evaluate_combination(alphas, zs, method, tol)


def evaluate_combination(
    alphas: Sequence[Scalar],
    zs: VectorSystem,
    method: CombinationMethod,
    tol: ToleranceConfig | None = None,
) -> CombinationBoundResult:
    """Evaluate the bound a :class:`CombinationMethod` names: entry 0 of a
    :class:`CombinationStack` of one (keep one to evaluate many bounds). A
    ``method`` that is not a :class:`CombinationMethod` raises ValueError."""
    if not isinstance(method, CombinationMethod):
        raise ValueError(f"method must be a CombinationMethod, got {method!r}")
    stack = CombinationStack.of(alphas, zs)
    rel = (tol or zs.tol).compare_rel_tol
    lhs, chain = float(stack.lhs[0]), tuple(float(c[0]) for c in stack.chain(method))
    holds = bool(bound_margin(chain[0], lhs, rel) >= 0.0)
    chain_ok = len(chain) == 1 or bool(bound_margin(chain[-1], chain[0], rel) >= 0.0)
    return CombinationBoundResult(lhs=lhs, bound=chain[0], chain=chain, method=method, holds=holds, chain_ok=chain_ok)
