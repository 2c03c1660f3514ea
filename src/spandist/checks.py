"""Verification checks run per instance by the campaign driver.

Each check inspects one :class:`~spandist.generator.Instance` and returns
zero or more :class:`CheckOutcome` records. A check that does not apply to
the instance (wrong shape, dependent system where independence is needed,
missing interval data) returns no outcomes rather than failing — campaigns
mix instance shapes freely.

Margins are normalised so that ok == (margin >= 0) and more positive means
more comfortable; the campaign keeps the worst margin per check id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from . import bounds as bnd
from . import combination as comb
from .distance import (
    coefficients,
    distance_sq_oracle,
    distance_sq_quadratic,
    exact_distance,
    in_orthogonal_complement,
    is_orthonormal,
)
from .generator import Instance, child_rng
from .gram import check_gram_hadamard, check_gram_product_split, gram_triangle_of_rows
from .hadamard import ChainVariant, hadamard_chain
from .space import Field, ToleranceConfig, norm_sq

__all__ = ["CheckOutcome", "CheckFn", "REGISTRY", "applicable_checks", "run_checks"]

# Dominance assertions get a fixed absolute-relative cushion independent of
# the comparison tolerance (they are exact-arithmetic theorems and the
# arithmetic here is short).
DOMINANCE_REL = 1e-10
IDENTITY_REL = 1e-12
FIXED_POINT_REL = 1e-12
STRICTNESS_GAP = 1e-12
STRICT_CONDITION_LIMIT = 1e3

_SALT_LAGRANGE = 1
_SALT_COMBINATION = 2
_SALT_TRIANGLE = 3


@dataclass(frozen=True)
class CheckOutcome:
    check_id: str
    ok: bool
    margin: float
    values: tuple[tuple[str, float], ...] = ()


CheckFn = Callable[[Instance, ToleranceConfig], list[CheckOutcome]]


def _outcome(check_id: str, margin: float, **values: float) -> CheckOutcome:
    return CheckOutcome(
        check_id=check_id,
        ok=margin >= 0.0,
        margin=float(margin),
        values=tuple(sorted((k, float(v)) for k, v in values.items())),
    )


def _dominance_margin(bound: float, floor: float) -> float:
    """Margin for 'bound >= floor' with the dominance cushion."""
    return (bound - floor) / (1.0 + abs(floor)) + DOMINANCE_REL


def _closeness_margin(value: float, expected: float, rel: float) -> float:
    """Margin for '|value - expected| <= rel * (1 + |expected|)'."""
    return rel - abs(value - expected) / (1.0 + abs(expected))


# -- individual checks -----------------------------------------------------


def check_representation_agreement(instance: Instance, tol: ToleranceConfig) -> list[CheckOutcome]:
    """The determinant-ratio and quadratic-form distances agree with each
    other and with a Gram–Schmidt oracle; the projection quotient sits above."""
    system, x = instance.system, instance.x
    if not system.independent:
        return []
    result = exact_distance(system, x, tol)
    oracle = distance_sq_oracle(system, x)
    d2 = result.d2_quadratic
    return [
        _outcome(
            "representation_agreement/ratio_vs_quadratic",
            _closeness_margin(result.d2_gram_ratio, d2, tol.compare_rel_tol),
            ratio=result.d2_gram_ratio,
            quadratic=d2,
        ),
        _outcome(
            "representation_agreement/oracle_vs_quadratic",
            _closeness_margin(oracle, d2, tol.compare_rel_tol),
            oracle=oracle,
            quadratic=d2,
        ),
        _outcome(
            "representation_agreement/projection_is_upper",
            _dominance_margin(result.d2_projection, d2),
            projection=result.d2_projection,
            quadratic=d2,
        ),
    ]


def check_bound_dominance(instance: Instance, tol: ToleranceConfig) -> list[CheckOutcome]:
    """Every unconditional bound dominates the exact squared distance; the
    total-norm bound is strictly above it away from degeneracies."""
    system, x = instance.system, instance.x
    if not system.independent or in_orthogonal_complement(system, x, tol):
        return []
    report = bnd.full_bound_report(system, x, tol=tol)
    d2 = report.exact_d2
    out = [
        _outcome(
            f"bound_dominance/{entry.method.value}",
            _dominance_margin(entry.value, d2),
            bound=entry.value,
            exact=d2,
        )
        for entry in report.entries
    ]
    if system.n >= 2 and system.gram_condition() <= STRICT_CONDITION_LIMIT:
        total = report.entry(bnd.BoundMethod.TOTAL_NORM).value
        out.append(
            _outcome(
                "bound_dominance/total_norm_strict",
                (total - d2 - STRICTNESS_GAP) / (1.0 + abs(d2)),
                bound=total,
                exact=d2,
                condition=system.gram_condition(),
            )
        )
    return out


def check_orthonormal_collapse(instance: Instance, tol: ToleranceConfig) -> list[CheckOutcome]:
    """For orthonormal systems three bounds collapse to the Bessel distance
    and the other two exceed it by closed-form amounts."""
    system, x = instance.system, instance.x
    if not is_orthonormal(system, tol) or in_orthogonal_complement(system, x, tol):
        return []
    beta = coefficients(system, x)
    s = float(np.real(np.vdot(beta, beta)))
    bessel = norm_sq(x) - s
    n = system.n
    report = bnd.full_bound_report(system, x, tol=tol)
    expectations = {
        bnd.BoundMethod.OFFDIAG_FROBENIUS: bessel,
        bnd.BoundMethod.OFFDIAG_MAX: bessel,
        bnd.BoundMethod.ROW_SUMS: bessel,
        bnd.BoundMethod.TOTAL_NORM: bessel + s * (1.0 - 1.0 / n),
        bnd.BoundMethod.FROBENIUS: bessel + s * (1.0 - 1.0 / math.sqrt(n)),
    }
    return [
        _outcome(
            f"orthonormal_collapse/{method.value}",
            _closeness_margin(report.entry(method).value, expected, DOMINANCE_REL),
            value=report.entry(method).value,
            expected=expected,
        )
        for method, expected in expectations.items()
    ]


def check_bessel_refinements(instance: Instance, tol: ToleranceConfig) -> list[CheckOutcome]:
    """Refined Bessel right-hand sides dominate the coefficient power sum
    for arbitrary systems, dependent ones included."""
    system, x = instance.system, instance.x
    beta = coefficients(system, x)
    s = float(np.real(np.vdot(beta, beta)))
    rhs = {
        "offdiag_frobenius": bnd.bessel_rhs_offdiag_frobenius(system, x),
        "offdiag_max": bnd.bessel_rhs_offdiag_max(system, x),
        "row_sums": bnd.bessel_rhs_row_sums(system, x),
    }
    return [
        _outcome(
            f"bessel_refinements/{name}",
            _dominance_margin(value, s),
            rhs=value,
            power_sum=s,
        )
        for name, value in rhs.items()
    ]


def _draw_coeffs(instance: Instance, salt: int, count: int | None = None) -> np.ndarray:
    rng = child_rng(instance, salt)
    count = instance.system.n if count is None else count
    if instance.system.field is Field.REAL:
        return rng.standard_normal(count)
    return (rng.standard_normal(count) + 1j * rng.standard_normal(count)) / math.sqrt(2.0)


def check_lagrange_identity(instance: Instance, tol: ToleranceConfig) -> list[CheckOutcome]:
    """The norm-of-combination identity balances to near machine precision."""
    alphas = _draw_coeffs(instance, _SALT_LAGRANGE)
    parts = comb.lagrange_identity_parts(alphas, instance.system)
    margin = IDENTITY_REL - parts.residual / (1.0 + parts.magnitude)
    return [
        _outcome(
            "lagrange_identity/residual",
            margin,
            residual=parts.residual,
            magnitude=parts.magnitude,
        )
    ]


_SWEEP_EXPONENTS = (1.5, 2.0, 3.0)
_HOLDER_GRAM_EXPONENTS = (1.25, 2.0, 4.0)


def _sweep() -> tuple[tuple[str, comb.CombinationMethod], ...]:
    """Every (label, method) of the combination sweep, in reporting order."""
    kind = comb.CombinationKind
    out = [("cauchy_schwarz", comb.CombinationMethod(kind=kind.CAUCHY_SCHWARZ))]
    for db, ob in product(comb.DIAG_BRANCHES, comb.OFFDIAG_BRANCHES):
        exponents = _SWEEP_EXPONENTS if "holder" in (db, ob) else (None,)
        for e in exponents:
            method = comb.CombinationMethod(
                kind=kind.DIAG_OFFDIAG,
                diag_branch=db,
                offdiag_branch=ob,
                diag_exp=e if db == "holder" else None,
                offdiag_exp=e if ob == "holder" else None,
            )
            out.append((f"diag_offdiag[{db},{ob}]" + (f"(p={e:g})" if e is not None else ""), method))
    out.append(("selection_max", comb.CombinationMethod(kind=kind.SELECTION_MAX)))
    out.append(("selection_frobenius", comb.CombinationMethod(kind=kind.SELECTION_FROBENIUS)))
    for branch in comb.ROW_SUM_BRANCHES:
        for p in _SWEEP_EXPONENTS if branch == "holder" else (None,):
            method = comb.CombinationMethod(kind=kind.ROW_SUM, branch=branch, p=p)
            out.append((f"row_sum[{branch}]" + (f"(p={p:g})" if p is not None else ""), method))
    for p in _HOLDER_GRAM_EXPONENTS:
        out.append((f"holder_gram(p={p:g})", comb.CombinationMethod(kind=kind.HOLDER_GRAM, p=p)))
    out.append(("holder_gram_p2", comb.CombinationMethod(kind=kind.HOLDER_GRAM_P2, p=2.0)))
    return tuple(out)


COMBINATION_SWEEP = _sweep()


def _combination_outcomes(
    label: str, result: comb.CombinationBoundResult, tol: ToleranceConfig
) -> list[CheckOutcome]:
    rel = tol.compare_rel_tol
    out = [
        _outcome(
            f"combination_sweep/{label}/holds",
            (result.bound * (1.0 + rel) + rel - result.lhs) / (1.0 + abs(result.lhs)),
            lhs=result.lhs,
            bound=result.bound,
        )
    ]
    if len(result.chain) > 1:
        tight, coarse = result.chain[0], result.chain[-1]
        out.append(
            _outcome(
                f"combination_sweep/{label}/chain",
                (coarse * (1.0 + rel) + rel - tight) / (1.0 + abs(tight)),
                tight=tight,
                coarse=coarse,
            )
        )
    return out


def check_combination_sweep(instance: Instance, tol: ToleranceConfig) -> list[CheckOutcome]:
    """Exercise every combination bound family on one coefficient draw."""
    inputs = comb.CombinationInputs.build(_draw_coeffs(instance, _SALT_COMBINATION), instance.system)
    out: list[CheckOutcome] = []
    for label, method in COMBINATION_SWEEP:
        out.extend(_combination_outcomes(label, inputs.bound(method, tol), tol))
    return out


def check_hadamard_chains(instance: Instance, tol: ToleranceConfig) -> list[CheckOutcome]:
    """All chain refinements are sandwiched between the determinant and the
    norm product; orthonormal systems sit exactly at 1."""
    system = instance.system
    if system.n < 2 or not system.independent:
        return []
    out: list[CheckOutcome] = []
    orthonormal = is_orthonormal(system, tol)
    for variant in ChainVariant:
        chain = hadamard_chain(system, variant, tol)
        out.append(
            _outcome(
                f"hadamard_chains/{variant.value}/lower",
                _dominance_margin(chain.refined, chain.gram_det),
                refined=chain.refined,
                gram_det=chain.gram_det,
            )
        )
        out.append(
            _outcome(
                f"hadamard_chains/{variant.value}/upper",
                _dominance_margin(chain.norm_product, chain.refined),
                refined=chain.refined,
                norm_product=chain.norm_product,
            )
        )
        if orthonormal:
            out.append(
                _outcome(
                    f"hadamard_chains/{variant.value}/orthonormal_fixed_point",
                    _closeness_margin(chain.refined, 1.0, FIXED_POINT_REL),
                    refined=chain.refined,
                )
            )
    return out


def check_gram_inequalities(instance: Instance, tol: ToleranceConfig) -> list[CheckOutcome]:
    """Determinant nonnegativity/product bound, block splits, and the
    sqrt-determinant triangle inequality on a random companion vector."""
    system = instance.system
    verdict = check_gram_hadamard(system, tol)
    out = [
        _outcome(
            "gram_inequalities/nonnegative",
            verdict.gram_det / (1.0 + abs(verdict.gram_det)) + DOMINANCE_REL,
            gram_det=verdict.gram_det,
        ),
        _outcome(
            "gram_inequalities/norm_product",
            _dominance_margin(verdict.norm_product, verdict.gram_det),
            gram_det=verdict.gram_det,
            norm_product=verdict.norm_product,
        ),
    ]
    if system.n >= 2:
        split = check_gram_product_split(system, system.n // 2, tol)
        out.append(
            _outcome(
                "gram_inequalities/product_split",
                _dominance_margin(split.gram_left * split.gram_right, split.gram_full),
                full=split.gram_full,
                left=split.gram_left,
                right=split.gram_right,
            )
        )
        y1 = _draw_coeffs(instance, _SALT_TRIANGLE, system.dim)
        tri = gram_triangle_of_rows(system.rows[0], y1, system.rows[1:], system.field, tol)
        out.append(
            _outcome(
                "gram_inequalities/triangle",
                _dominance_margin(tri.first + tri.second, tri.combined),
                combined=tri.combined,
                first=tri.first,
                second=tri.second,
            )
        )
    return out


def check_conditional_bounds(instance: Instance, tol: ToleranceConfig) -> list[CheckOutcome]:
    """Constructively sampled two-sided data: the condition holds in both
    formulations, the half-width bound dominates d^2, and each relaxation
    dominates the half-width bound."""
    system, x, iv = instance.system, instance.x, instance.intervals
    if iv is None or not system.independent or in_orthogonal_complement(system, x, tol):
        return []
    verdict = bnd.condition_verdict(system, x, iv, tol)
    scale = 1.0 + norm_sq(x)
    out = [
        _outcome(
            "conditional_bounds/condition_holds",
            verdict.re_inner / scale + tol.compare_rel_tol,
            re_inner=verdict.re_inner,
        ),
        _outcome(
            "conditional_bounds/forms_agree",
            tol.compare_rel_tol if verdict.forms_agree else -1.0,
            re_inner=verdict.re_inner,
            ball_margin=verdict.ball_margin,
        ),
    ]
    if not verdict.holds:
        return out
    d2 = distance_sq_quadratic(system, x)
    values = bnd.conditional_values(system, iv)
    half_width = values[bnd.BoundMethod.COND_HALF_WIDTH]
    out.append(
        _outcome(
            "conditional_bounds/half_width_dominates",
            _dominance_margin(half_width, d2),
            bound=half_width,
            exact=d2,
        )
    )
    for method in bnd.CONDITIONAL_METHODS[1:]:
        relaxed = values[method]
        out.append(
            _outcome(
                f"conditional_bounds/{method.value}_coarser",
                _dominance_margin(relaxed, half_width),
                relaxed=relaxed,
                half_width=half_width,
            )
        )
    if is_orthonormal(system, tol):
        rb = bnd.reverse_bessel_verdict(system, x, iv, tol)
        out.append(
            _outcome(
                "conditional_bounds/reverse_bessel",
                min(
                    _dominance_margin(rb.bessel_gap, 0.0),
                    _dominance_margin(rb.quarter_width_sq, rb.bessel_gap),
                ),
                gap=rb.bessel_gap,
                quarter_width_sq=rb.quarter_width_sq,
            )
        )
    return out


REGISTRY: dict[str, CheckFn] = {
    "representation_agreement": check_representation_agreement,
    "bound_dominance": check_bound_dominance,
    "orthonormal_collapse": check_orthonormal_collapse,
    "bessel_refinements": check_bessel_refinements,
    "lagrange_identity": check_lagrange_identity,
    "combination_sweep": check_combination_sweep,
    "hadamard_chains": check_hadamard_chains,
    "gram_inequalities": check_gram_inequalities,
    "conditional_bounds": check_conditional_bounds,
}


def applicable_checks(config) -> tuple[str, ...]:
    """Registry names whose preconditions the given config can satisfy."""
    names = [
        "representation_agreement",
        "bound_dominance",
        "bessel_refinements",
        "lagrange_identity",
        "combination_sweep",
        "gram_inequalities",
    ]
    if config.orthonormal:
        names.insert(2, "orthonormal_collapse")
    if config.n >= 2:
        names.append("hadamard_chains")
    if config.intervals:
        names.append("conditional_bounds")
    return tuple(names)


def run_checks(
    instance: Instance, names: Sequence[str], tol: ToleranceConfig
) -> list[CheckOutcome]:
    out: list[CheckOutcome] = []
    for name in names:
        try:
            fn = REGISTRY[name]
        except KeyError:
            raise ValueError(f"unknown check name: {name!r}") from None
        out.extend(fn(instance, tol))
    return out
