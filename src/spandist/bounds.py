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

import math
import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    ConditionNotSatisfiedError,
    DimensionMismatchError,
    NotOrthonormalError,
    OrthogonalComplementError,
)
from .distance import _in_orth_complement, _quadratic, coefficients, is_orthonormal
from .gram import VectorSystem, require_independent
from .space import Field, Scalar, ToleranceConfig, Vector, norm_sq
from .space import _coeff_array as _validated_coeffs

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
    "conditional_values",
    "reverse_bessel_gap",
    "reverse_bessel_verdict",
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
    """Two-sided scalar data (gamma_i, Gamma_i) for the conditional bounds."""

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
        for value in (*self.gammas, *self.Gammas):
            z = complex(value)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError("interval scalars must be finite")

    @property
    def n(self) -> int:
        return len(self.gammas)

    def arrays(self, field: Field) -> tuple[np.ndarray, np.ndarray]:
        """Validated read-only (gamma, Gamma) arrays, memoised per field."""
        pair = self._arrays.get(field)
        if pair is None:
            lo = _validated_coeffs(self.gammas, field, self.n)
            hi = _validated_coeffs(self.Gammas, field, self.n)
            lo.setflags(write=False)
            hi.setflags(write=False)
            pair = self._arrays[field] = (lo, hi)
        return pair

    def widths(self, field: Field) -> np.ndarray:
        lo, hi = self.arrays(field)
        return hi - lo

    def midpoints(self, field: Field) -> np.ndarray:
        lo, hi = self.arrays(field)
        return (hi + lo) / 2.0


# -- shared plumbing -----------------------------------------------------


def _prepare(system: VectorSystem, x: Vector, tol: ToleranceConfig | None) -> tuple[ToleranceConfig, np.ndarray, float]:
    """Common preconditions: independence and x not orthogonal to the span."""
    require_independent(system)
    tol = tol or system.tol
    beta = coefficients(system, x)
    if _in_orth_complement(system, norm_sq(x), beta, tol):
        raise OrthogonalComplementError(
            "x is orthogonal to every system vector; these bounds degenerate there"
        )
    s = float(np.real(np.vdot(beta, beta)))
    return tol, beta, s


def _denominators(system: VectorSystem) -> dict[BoundMethod, float]:
    g = system.aggregates
    return {
        BoundMethod.TOTAL_NORM: float(g.norm_sum),
        BoundMethod.OFFDIAG_FROBENIUS: float(g.norm_max) + math.sqrt(float(g.offdiag_sum_sq)),
        BoundMethod.OFFDIAG_MAX: float(g.norm_max) + (system.n - 1) * float(g.offdiag_max),
        BoundMethod.ROW_SUMS: float(g.row_max),
        BoundMethod.FROBENIUS: math.sqrt(float(g.abs_sum_sq)),
    }


def _ratio_value(xx: float, s: float, d: float) -> float:
    """The common shape ||x||^2 - S / D, clamped at zero."""
    return max(xx - s / d, 0.0)


def _ratio_bound(system: VectorSystem, x: Vector, method: BoundMethod, tol: ToleranceConfig | None) -> float:
    _, _, s = _prepare(system, x, tol)
    return _ratio_value(norm_sq(x), s, _denominators(system)[method])


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
    system._check_member(x)
    return norm_sq(x) * _denominators(system)[method]


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
    tol = tol or system.tol
    system._check_member(x)
    if intervals.n != system.n:
        raise DimensionMismatchError(
            f"interval data for {intervals.n} vectors, system has {system.n}"
        )
    lo, hi = intervals.arrays(system.field)
    rows = system.rows
    xc = x.coords.astype(system.field.dtype)
    upper_comb = hi @ rows
    lower_comb = lo @ rows
    re_inner = float(np.real(np.vdot(xc - lower_comb, upper_comb - xc)))
    mid_resid = xc - (upper_comb + lower_comb) / 2.0
    half_width = (upper_comb - lower_comb) / 2.0
    ball_margin = float(np.real(np.vdot(half_width, half_width))) - float(
        np.real(np.vdot(mid_resid, mid_resid))
    )
    scale = 1.0 + norm_sq(x) + float(np.real(np.vdot(upper_comb, upper_comb)))
    slack = tol.compare_rel_tol * scale
    holds = re_inner >= -slack
    forms_agree = (re_inner >= -slack) == (ball_margin >= -slack)
    return ConditionVerdict(
        re_inner=re_inner, ball_margin=ball_margin, holds=holds, forms_agree=forms_agree
    )


def require_condition(
    system: VectorSystem, x: Vector, intervals: IntervalData, tol: ToleranceConfig | None = None
) -> ConditionVerdict:
    verdict = condition_verdict(system, x, intervals, tol)
    if not verdict.holds:
        raise ConditionNotSatisfiedError(
            f"two-sided condition fails: Re-inner term {verdict.re_inner:.6e} < 0"
        )
    return verdict


def _cond_half_width(system: VectorSystem, widths: np.ndarray) -> float:
    width_comb = widths @ system.rows
    return 0.25 * float(np.real(np.vdot(width_comb, width_comb)))


def _cond_relaxed(system: VectorSystem, widths: np.ndarray, method: BoundMethod) -> float:
    width_sq = float(np.real(np.vdot(widths, widths)))
    return 0.25 * width_sq * _denominators(system)[_COND_FACTORS[method]]


def conditional_values(system: VectorSystem, intervals: IntervalData) -> dict[BoundMethod, float]:
    """The four conditional bounds, in :data:`CONDITIONAL_METHODS` order.

    Checks nothing: the caller has established independence, that x is not
    orthogonal to the span, and the two-sided condition (as
    :func:`full_bound_report` does), so that the condition is evaluated once.
    """
    widths = intervals.widths(system.field)
    values = {BoundMethod.COND_HALF_WIDTH: _cond_half_width(system, widths)}
    for method in _COND_FACTORS:
        values[method] = _cond_relaxed(system, widths, method)
    return values


def bound_cond_half_width(
    system: VectorSystem, x: Vector, intervals: IntervalData, tol: ToleranceConfig | None = None
) -> float:
    """d^2 <= (1/4) ||sum_i (Gamma_i - gamma_i) x_i||^2 under the condition."""
    tol, _, _ = _prepare(system, x, tol)
    require_condition(system, x, intervals, tol)
    return _cond_half_width(system, intervals.widths(system.field))


_COND_FACTORS = {
    BoundMethod.COND_OFFDIAG_MAX: BoundMethod.OFFDIAG_MAX,
    BoundMethod.COND_OFFDIAG_FROBENIUS: BoundMethod.OFFDIAG_FROBENIUS,
    BoundMethod.COND_ROW_SUMS: BoundMethod.ROW_SUMS,
}


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
    tol, _, _ = _prepare(system, x, tol)
    require_condition(system, x, intervals, tol)
    return _cond_relaxed(system, intervals.widths(system.field), method)


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
    tol = tol or system.tol
    if not is_orthonormal(system, tol):
        raise NotOrthonormalError("reverse Bessel bound requires an orthonormal system")
    require_condition(system, x, intervals, tol)
    return reverse_bessel_verdict(system, x, intervals, tol)


def reverse_bessel_verdict(
    system: VectorSystem, x: Vector, intervals: IntervalData, tol: ToleranceConfig
) -> ReverseBesselVerdict:
    """:func:`reverse_bessel_gap` without its checks: the caller has
    established orthonormality and the two-sided condition."""
    beta = coefficients(system, x)
    gap = norm_sq(x) - float(np.real(np.vdot(beta, beta)))
    widths = intervals.widths(system.field)
    quarter = 0.25 * float(np.real(np.vdot(widths, widths)))
    rel = tol.compare_rel_tol
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
    tol2, beta, s = _prepare(system, x, tol)
    xx = norm_sq(x)
    exact = _quadratic(system, xx, beta)
    denominators = _denominators(system)
    values = {m: _ratio_value(xx, s, denominators[m]) for m in UNCONDITIONAL_METHODS}
    if intervals is not None:
        require_condition(system, x, intervals, tol2)
        values.update(conditional_values(system, intervals))
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
