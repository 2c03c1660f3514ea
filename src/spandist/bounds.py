"""Computable upper bounds for the squared distance to a span.

Each unconditional bound has the shape

    value = ||x||^2 - S / D,    S = sum_i |<x, x_i>|^2,

where D is a cheap aggregate of the Gram matrix that dominates the norm of
y = sum_i <x, x_i> x_i relative to S. Since d^2 <= ||x||^2 - S^2/||y||^2
(distance to the line through y), any such D yields a valid bound; the
five choices of D trade tightness against how much of the Gram matrix they
look at. The same aggregates power Bessel-type inequalities
S <= ||x||^2 * D for arbitrary (even dependent) systems.

The conditional family assumes two-sided scalar information gamma_i,
Gamma_i with Re< sum Gamma_i x_i - x, x - sum gamma_i x_i > >= 0 — i.e. x
lies in the ball centred at the midpoint combination with radius half the
width combination — and bounds d^2 by a quarter of the squared width norm,
with three coarser closed forms.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConditionNotSatisfiedError,
    DimensionMismatchError,
    NotOrthonormalError,
    OrthogonalComplementError,
)
from .distance import PointStack, is_orthonormal
from .gram import AggregateStack, VectorSystem, require_independent
from .space import Field, Scalar, ToleranceConfig, Vector, field_array, re_inner_rows, sq_norms

__all__ = [
    "BoundMethod",
    "BoundEntry",
    "BoundReport",
    "IntervalData",
    "ConditionVerdict",
    "ReverseBesselVerdict",
    "bound_total_norm",
    "bound_offdiag_frobenius",
    "bound_offdiag_max",
    "bound_row_sums",
    "bound_frobenius",
    "bessel_rhs_offdiag_frobenius",
    "bessel_rhs_offdiag_max",
    "bessel_rhs_row_sums",
    "condition_verdict",
    "require_condition",
    "bound_cond_half_width",
    "bound_cond_relaxed",
    "reverse_bessel_gap",
    "full_bound_report",
    "UNCONDITIONAL_METHODS",
    "CONDITIONAL_METHODS",
]


class BoundMethod(Enum):
    """Bound families in their fixed reporting order."""

    TOTAL_NORM = "total_norm"
    OFFDIAG_FROBENIUS = "offdiag_frobenius"
    OFFDIAG_MAX = "offdiag_max"
    ROW_SUMS = "row_sums"
    FROBENIUS = "frobenius"
    COND_HALF_WIDTH = "cond_half_width"
    COND_OFFDIAG_MAX = "cond_offdiag_max"
    COND_OFFDIAG_FROBENIUS = "cond_offdiag_frobenius"
    COND_ROW_SUMS = "cond_row_sums"


UNCONDITIONAL_METHODS = (
    BoundMethod.TOTAL_NORM,
    BoundMethod.OFFDIAG_FROBENIUS,
    BoundMethod.OFFDIAG_MAX,
    BoundMethod.ROW_SUMS,
    BoundMethod.FROBENIUS,
)

CONDITIONAL_METHODS = (
    BoundMethod.COND_HALF_WIDTH,
    BoundMethod.COND_OFFDIAG_MAX,
    BoundMethod.COND_OFFDIAG_FROBENIUS,
    BoundMethod.COND_ROW_SUMS,
)


@dataclass(frozen=True)
class IntervalData:
    """Two-sided scalar data (gamma_i, Gamma_i) for the conditional bounds,
    checked by :func:`~spandist.space.field_array` (its field inferred)."""

    gammas: tuple[Scalar, ...]
    Gammas: tuple[Scalar, ...]
    _arrays: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.gammas) != len(self.Gammas):
            raise DimensionMismatchError(
                f"gamma/Gamma lengths differ: {len(self.gammas)} vs {len(self.Gammas)}"
            )
        if len(self.gammas) == 0:
            raise ValueError("interval data must be nonempty")
        if field_array((self.gammas, self.Gammas), None, "interval scalars").ndim != 2:
            raise ValueError("interval scalars must be numbers")

    @classmethod
    def _of(cls, lo: np.ndarray, hi: np.ndarray) -> "IntervalData":
        """The data of two same-length arrays that :func:`field_array` has
        checked, kept as the arrays of their field."""
        data = cls.__new__(cls)
        object.__setattr__(data, "gammas", tuple(lo.tolist()))
        object.__setattr__(data, "Gammas", tuple(hi.tolist()))
        object.__setattr__(data, "_arrays", {Field.of(lo): (lo, hi)})
        return data

    @property
    def n(self) -> int:
        return len(self.gammas)

    def arrays(self, field: Field, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (gamma, Gamma) arrays for a system of ``n`` vectors over
        ``field``, memoised per field."""
        if self.n != n:
            raise DimensionMismatchError(f"interval data for {self.n} vectors, system has {n}")
        pair = self._arrays.get(field)
        if pair is None:
            pair = self._arrays[field] = tuple(field_array((self.gammas, self.Gammas), field, "interval scalars"))
        return pair


# -- stacked kernels: one value per system of a stack ---------------------


_DENOMINATOR_FIELDS = {  # the AggregateStack field of each unconditional bound's D
    BoundMethod.TOTAL_NORM: "norm_sum",
    BoundMethod.OFFDIAG_FROBENIUS: "diag_offdiag_frobenius",
    BoundMethod.OFFDIAG_MAX: "diag_offdiag_max",
    BoundMethod.ROW_SUMS: "row_max",
    BoundMethod.FROBENIUS: "frobenius",
}


def bound_values(xx: np.ndarray, s: np.ndarray, agg: AggregateStack) -> dict[BoundMethod, np.ndarray]:
    """The five unconditional bounds ||x||^2 - S / D, clamped at zero."""
    return {m: np.maximum(xx - s / getattr(agg, d), 0.0) for m, d in _DENOMINATOR_FIELDS.items()}


BESSEL_METHODS = (BoundMethod.OFFDIAG_FROBENIUS, BoundMethod.OFFDIAG_MAX, BoundMethod.ROW_SUMS)


def bessel_values(xx: np.ndarray, agg: AggregateStack) -> dict[BoundMethod, np.ndarray]:
    """Bessel right-hand sides ||x||^2 * D, each dominating S."""
    return {m: xx * getattr(agg, _DENOMINATOR_FIELDS[m]) for m in BESSEL_METHODS}


def condition_stack(
    rows: np.ndarray, x: np.ndarray, xx: np.ndarray, lo: np.ndarray, hi: np.ndarray, tol: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(re_inner, ball_margin, holds, forms_agree) of :class:`ConditionVerdict`
    per system, for (T, n) interval data."""
    upper_comb = (hi[:, np.newaxis, :] @ rows)[:, 0, :]
    lower_comb = (lo[:, np.newaxis, :] @ rows)[:, 0, :]
    re_inner = re_inner_rows(x - lower_comb, upper_comb - x)
    mid_resid = x - (upper_comb + lower_comb) / 2.0
    half_width = (upper_comb - lower_comb) / 2.0
    ball_margin = sq_norms(half_width) - sq_norms(mid_resid)
    slack = tol.compare_rel_tol * (1.0 + xx + sq_norms(upper_comb))
    holds = re_inner >= -slack
    return re_inner, ball_margin, holds, holds == (ball_margin >= -slack)


def conditional_stack(rows: np.ndarray, widths: np.ndarray, agg: AggregateStack) -> dict[BoundMethod, np.ndarray]:
    """The four conditional bounds per system, in :data:`CONDITIONAL_METHODS`
    order, for (T, n) interval widths."""
    width_comb = (widths[:, np.newaxis, :] @ rows)[:, 0, :]
    values = {BoundMethod.COND_HALF_WIDTH: 0.25 * sq_norms(width_comb)}
    width_sq = sq_norms(widths)
    for method, factor in _COND_FACTORS.items():
        values[method] = 0.25 * width_sq * getattr(agg, _DENOMINATOR_FIELDS[factor])
    return values


def reverse_bessel_stack(xx: np.ndarray, s: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(||x||^2 - S, (1/4) sum_i |Gamma_i - gamma_i|^2) per system."""
    return xx - s, 0.25 * sq_norms(widths)


_COND_FACTORS = {
    BoundMethod.COND_OFFDIAG_MAX: BoundMethod.OFFDIAG_MAX,
    BoundMethod.COND_OFFDIAG_FROBENIUS: BoundMethod.OFFDIAG_FROBENIUS,
    BoundMethod.COND_ROW_SUMS: BoundMethod.ROW_SUMS,
}


# -- one system: entry 0 of a point stack of one -------------------------------


def _prepare(system: VectorSystem, x: Vector, tol: ToleranceConfig | None) -> PointStack:
    """x against the system, once independence and x not orthogonal to the span hold."""
    require_independent(system)
    p = PointStack.of(system, x, tol)
    if p.in_orth[0]:
        raise OrthogonalComplementError(
            "x is orthogonal to every system vector; these bounds degenerate there"
        )
    return p


def _ratio_bound(system: VectorSystem, x: Vector, method: BoundMethod, tol: ToleranceConfig | None) -> float:
    p = _prepare(system, x, tol)
    return float(bound_values(p.xx, p.s, system.as_stack().aggregates)[method][0])


def bound_total_norm(system: VectorSystem, x: Vector, tol: ToleranceConfig | None = None) -> float:
    """D = sum_i ||x_i||^2. The cheapest aggregate; never tight for n >= 2."""
    return _ratio_bound(system, x, BoundMethod.TOTAL_NORM, tol)


def bound_offdiag_frobenius(system: VectorSystem, x: Vector, tol: ToleranceConfig | None = None) -> float:
    """D = max ||x_i||^2 + sqrt(sum_{i != j} |<x_i, x_j>|^2)."""
    return _ratio_bound(system, x, BoundMethod.OFFDIAG_FROBENIUS, tol)


def bound_offdiag_max(system: VectorSystem, x: Vector, tol: ToleranceConfig | None = None) -> float:
    """D = max ||x_i||^2 + (n - 1) max_{i != j} |<x_i, x_j>|."""
    return _ratio_bound(system, x, BoundMethod.OFFDIAG_MAX, tol)


def bound_row_sums(system: VectorSystem, x: Vector, tol: ToleranceConfig | None = None) -> float:
    """D = max_i sum_j |<x_i, x_j>| (largest absolute Gram row sum)."""
    return _ratio_bound(system, x, BoundMethod.ROW_SUMS, tol)


def bound_frobenius(system: VectorSystem, x: Vector, tol: ToleranceConfig | None = None) -> float:
    """D = (sum_{i,j} |<x_i, x_j>|^2)^(1/2) (full Frobenius norm of the Gram)."""
    return _ratio_bound(system, x, BoundMethod.FROBENIUS, tol)


# -- Bessel-type right-hand sides (arbitrary systems) ---------------------


def _bessel_rhs(system: VectorSystem, x: Vector, method: BoundMethod) -> float:
    return float(bessel_values(PointStack.of(system, x).xx, system.as_stack().aggregates)[method][0])


def bessel_rhs_offdiag_frobenius(system: VectorSystem, x: Vector) -> float:
    """RHS dominating sum_i |<x, x_i>|^2 via the off-diagonal Frobenius mass."""
    return _bessel_rhs(system, x, BoundMethod.OFFDIAG_FROBENIUS)


def bessel_rhs_offdiag_max(system: VectorSystem, x: Vector) -> float:
    """RHS dominating sum_i |<x, x_i>|^2 via the largest off-diagonal entry."""
    return _bessel_rhs(system, x, BoundMethod.OFFDIAG_MAX)


def bessel_rhs_row_sums(system: VectorSystem, x: Vector) -> float:
    """RHS dominating sum_i |<x, x_i>|^2 via the largest absolute row sum."""
    return _bessel_rhs(system, x, BoundMethod.ROW_SUMS)


# -- conditional family ----------------------------------------------------


@dataclass(frozen=True)
class ConditionVerdict:
    """Both formulations of the two-sided condition, cross-checked.

    ``re_inner`` is Re< sum Gamma_i x_i - x, x - sum gamma_i x_i >;
    ``ball_margin`` is (1/4)||sum (Gamma_i - gamma_i) x_i||^2 minus
    ||x - sum mid_i x_i||^2. In exact arithmetic the two have the same sign,
    so ``holds`` (>= 0 up to tolerance) and ``forms_agree`` are reported.
    """

    re_inner: float
    ball_margin: float
    holds: bool
    forms_agree: bool


def condition_verdict(
    system: VectorSystem, x: Vector, intervals: IntervalData, tol: ToleranceConfig | None = None
) -> ConditionVerdict:
    """Both formulations of the two-sided condition for x against the system."""
    p = PointStack.of(system, x, tol)
    lo, hi = intervals.arrays(system.field, system.n)
    re_inner, ball_margin, holds, forms_agree = condition_stack(
        p.systems.rows, p.x, p.xx, lo[np.newaxis], hi[np.newaxis], p.tol
    )
    return ConditionVerdict(
        re_inner=float(re_inner[0]),
        ball_margin=float(ball_margin[0]),
        holds=bool(holds[0]),
        forms_agree=bool(forms_agree[0]),
    )


def require_condition(
    system: VectorSystem, x: Vector, intervals: IntervalData, tol: ToleranceConfig | None = None
) -> ConditionVerdict:
    """:func:`condition_verdict`; ConditionNotSatisfiedError unless it holds."""
    verdict = condition_verdict(system, x, intervals, tol)
    if not verdict.holds:
        raise ConditionNotSatisfiedError(
            f"two-sided condition fails: Re-inner term {verdict.re_inner:.6e} < 0"
        )
    return verdict


def _conditional_values(system: VectorSystem, intervals: IntervalData) -> dict[BoundMethod, float]:
    """The four conditional bounds, in :data:`CONDITIONAL_METHODS` order.

    Checks nothing: the caller has established independence, that x is not
    orthogonal to the span, and the two-sided condition (as
    :func:`full_bound_report` does), so that the condition is evaluated once.
    """
    lo, hi = intervals.arrays(system.field, system.n)
    values = conditional_stack(system.rows[np.newaxis], (hi - lo)[np.newaxis], system.as_stack().aggregates)
    return {m: float(v[0]) for m, v in values.items()}


def bound_cond_half_width(
    system: VectorSystem, x: Vector, intervals: IntervalData, tol: ToleranceConfig | None = None
) -> float:
    """d^2 <= (1/4) ||sum_i (Gamma_i - gamma_i) x_i||^2 under the condition."""
    _prepare(system, x, tol)
    require_condition(system, x, intervals, tol)
    return _conditional_values(system, intervals)[BoundMethod.COND_HALF_WIDTH]


def bound_cond_relaxed(
    system: VectorSystem,
    x: Vector,
    intervals: IntervalData,
    method: BoundMethod,
    tol: ToleranceConfig | None = None,
) -> float:
    """Coarser conditional bounds (1/4) sum_i |Gamma_i - gamma_i|^2 * F.

    F is the Gram aggregate named by ``method`` (one of the three
    conditional relaxations); each dominates the half-width bound.
    """
    if method not in _COND_FACTORS:
        raise ValueError(f"not a conditional relaxation method: {method}")
    _prepare(system, x, tol)
    require_condition(system, x, intervals, tol)
    return _conditional_values(system, intervals)[method]


@dataclass(frozen=True)
class ReverseBesselVerdict:
    """Two-sided check 0 <= ||x||^2 - sum |<x, e_i>|^2 <= quarter width sum."""

    bessel_gap: float
    quarter_width_sq: float
    holds: bool


def reverse_bessel_gap(
    system: VectorSystem, x: Vector, intervals: IntervalData, tol: ToleranceConfig | None = None
) -> ReverseBesselVerdict:
    """Reverse Bessel inequality for orthonormal systems under the condition."""
    if not is_orthonormal(system, tol):
        raise NotOrthonormalError("reverse Bessel bound requires an orthonormal system")
    p = PointStack.of(system, x, tol)
    require_condition(system, x, intervals, tol)
    lo, hi = intervals.arrays(system.field, system.n)
    gap, quarter = reverse_bessel_stack(p.xx, p.s, (hi - lo)[np.newaxis])
    gap, quarter = float(gap[0]), float(quarter[0])
    rel = p.tol.compare_rel_tol
    holds = gap >= -rel * (1.0 + abs(gap)) and gap <= quarter + rel * (1.0 + quarter)
    return ReverseBesselVerdict(bessel_gap=gap, quarter_width_sq=quarter, holds=holds)


# -- aggregated report -----------------------------------------------------


@dataclass(frozen=True)
class BoundEntry:
    """One bound value with its slack over the exact distance.

    ``tightness`` is slack normalised by (1 + exact): 0 means sharp.
    ``strict_expected`` marks methods that cannot be sharp for the given
    instance shape (the total-norm bound for n >= 2).
    """

    method: BoundMethod
    value: float
    slack: float
    tightness: float
    strict_expected: bool


@dataclass(frozen=True)
class BoundReport:
    exact_d2: float
    entries: tuple[BoundEntry, ...]

    def entry(self, method: BoundMethod) -> BoundEntry:
        for e in self.entries:
            if e.method is method:
                return e
        raise KeyError(method)


def full_bound_report(
    system: VectorSystem,
    x: Vector,
    intervals: IntervalData | None = None,
    tol: ToleranceConfig | None = None,
) -> BoundReport:
    """Evaluate every applicable bound against the exact squared distance.

    The unconditional five always appear (in fixed order); the conditional
    four are appended when interval data is supplied and the two-sided
    condition holds (a failing condition raises, rather than reporting
    vacuous numbers).
    """
    p = _prepare(system, x, tol)
    exact = float(p.d2[0])
    values = {m: float(v[0]) for m, v in bound_values(p.xx, p.s, system.as_stack().aggregates).items()}
    if intervals is not None:
        require_condition(system, x, intervals, tol)
        values.update(_conditional_values(system, intervals))
    entries = tuple(
        BoundEntry(
            method=m,
            value=v,
            slack=v - exact,
            tightness=(v - exact) / (1.0 + exact),
            strict_expected=(m is BoundMethod.TOTAL_NORM and system.n >= 2),
        )
        for m, v in values.items()
    )
    return BoundReport(exact_d2=exact, entries=entries)
