"""Verification checks run per instance by the campaign driver.

Each check inspects one :class:`~spandist.generator.Instance` and returns
zero or more :class:`CheckOutcome` records. A check that does not apply to
the instance (wrong shape, dependent system where independence is needed,
missing interval data) returns no outcomes rather than failing — campaigns
mix instance shapes freely.

The built-in checks are written once, over a chunk of trials (an
:class:`~spandist.generator.InstanceChunk`, the point stack of its trials,
which carries its tolerance and draws their auxiliary coefficients): each
returns a few :class:`CheckStack` objects, one per formula. A stack holds
the margins of the C check ids of its formula as one (C, T) array, its
recorded values and one mask of the trials it applies to; an id of its own
formula is the case C = 1. Each built-in REGISTRY entry is one family
object: its chunk function, its precondition on a config (which
:func:`applicable_checks` reads), and, called on one instance, the family
on a chunk of one. It pickles by name. Any other entry (a check registered
at runtime, or a built-in wrapped in another function) is a plain
per-instance function, run once per trial. The campaign tallies a chunk's
stacks in one pass and builds a record only for a failure.

Margins are normalised so that ok == (margin >= 0) and more positive means
more comfortable; the campaign keeps the worst margin per check id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import bounds as bnd
from . import combination as comb
from .generator import GeneratorConfig, Instance, InstanceChunk
from .gram import split_determinants, triangle_roots
from .hadamard import ChainVariant, chain_stack
from .space import ToleranceConfig, leq_margin, near_margin

__all__ = [
    "CheckOutcome",
    "CheckFn",
    "CheckStack",
    "REGISTRY",
    "applicable_checks",
    "outcomes_of",
    "resolve_check",
    "resolve_checks",
    "run_checks",
    "run_stacked",
]

# Dominance assertions get a fixed absolute-relative cushion independent of
# the comparison tolerance (they are exact-arithmetic theorems and the
# arithmetic here is short).
DOMINANCE_REL = 1e-10
IDENTITY_REL = 1e-12
FIXED_POINT_REL = 1e-12
STRICTNESS_GAP = 1e-12
# The strict total-norm check runs where kappa_E, the factor's condition of
# the equilibrated Gram matrix (scale-free, unlike kappa(G)), is at most this.
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


class CheckStack(NamedTuple):
    """The outcomes of C check ids of one formula over a chunk of T trials.

    ``margin`` is (C, T), id c taking row c. Each recorded value (sorted by
    name) is (C, T), row c going to id c, or (T,), shared by every id;
    ``mask``, (T,), marks the trials where every id has an outcome (None:
    all). In the outcome order row c comes right after row ``follows[c]``
    of the stack before it, or, where ``follows`` is None, the rows come in
    order after every earlier one: a family whose ids interleave two
    formulas gives that order without reordering either stack.
    """

    ids: tuple[str, ...]
    margin: np.ndarray
    values: tuple[tuple[str, np.ndarray], ...]
    mask: np.ndarray | None = None
    follows: tuple[int, ...] | None = None

    def outcome(self, c: int, k: int) -> tuple[float, tuple[tuple[str, float], ...]]:
        """Row c's margin and recorded values at trial k."""
        values = tuple((name, float(v[c, k] if v.ndim == 2 else v[k])) for name, v in self.values)
        return float(self.margin[c, k]), values


def _stack(
    ids: str | Sequence[str], margin: np.ndarray, mask: np.ndarray | None = None,
    follows: tuple[int, ...] | None = None, **values: np.ndarray,
) -> CheckStack:
    """The stack of ``ids`` and their (C, T) margins; one id, a str, takes its (T,) margin as a (1, T) row."""
    if isinstance(ids, str):
        ids, margin = (ids,), margin[np.newaxis]
    return CheckStack(tuple(ids), margin, tuple(sorted(values.items())), mask, follows)


def outcomes_of(stacks: Sequence[CheckStack], k: int) -> list[CheckOutcome]:
    """The outcomes of trial k of a chunk, in outcome order."""
    keys, previous = [], []
    for i, stack in enumerate(stacks):  # a row's key: its anchor's key, then (stack, row)
        anchors = [()] * len(stack.ids) if stack.follows is None else [previous[r] for r in stack.follows]
        previous = [anchor + ((i, c),) for c, anchor in enumerate(anchors)]
        keys += previous
    out = []
    for *_, (i, c) in sorted(keys):
        stack = stacks[i]
        if stack.mask is None or stack.mask[k]:
            margin, values = stack.outcome(c, k)
            out.append(CheckOutcome(stack.ids[c], bool(margin >= 0.0), margin, values))
    return out


# -- the check families, each over a whole chunk ----------------------------


def _representation_agreement(t: InstanceChunk) -> list[CheckStack]:
    """The determinant-ratio and quadratic-form distances agree with each
    other and with the Householder QR oracle; the projection quotient sits
    above. All four are read from the chunk, on the systems whose
    factorization is complete: the oracle makes no rank decision of its own."""
    ok = t.systems.factor.complete
    d2, ratio, projection, oracle, rel = t.d2, t.ratio, t.projection, t.oracle, t.tol.compare_rel_tol
    return [
        _stack("representation_agreement/ratio_vs_quadratic", near_margin(ratio, d2, rel), ok,
               ratio=ratio, quadratic=d2),
        _stack("representation_agreement/oracle_vs_quadratic", near_margin(oracle, d2, rel), ok,
               oracle=oracle, quadratic=d2),
        _stack("representation_agreement/projection_is_upper", leq_margin(d2, projection, DOMINANCE_REL), ok,
               projection=projection, quadratic=d2),
    ]


def _bound_dominance(t: InstanceChunk) -> list[CheckStack]:
    """Every unconditional bound dominates the exact squared distance; the
    total-norm bound is strictly above it away from degeneracies."""
    ok = t.systems.factor.complete & ~t.in_orth
    d2 = t.d2
    bounds = np.array(list(t.unconditional.values()))
    ids = [f"bound_dominance/{method.value}" for method in t.unconditional]
    out = [_stack(ids, leq_margin(d2, bounds, DOMINANCE_REL), ok, bound=bounds, exact=d2)]
    if t.systems.n >= 2:
        condition = t.systems.factor.condition
        total = t.unconditional[bnd.BoundMethod.TOTAL_NORM]
        out.append(_stack(
            "bound_dominance/total_norm_strict",
            (total - d2 - STRICTNESS_GAP) / (1.0 + np.abs(d2)),
            ok & (condition <= STRICT_CONDITION_LIMIT),
            bound=total,
            exact=d2,
            condition=condition,
        ))
    return out


def _orthonormal_collapse(t: InstanceChunk) -> list[CheckStack]:
    """For orthonormal systems three bounds collapse to the Bessel distance
    and the other two exceed it by closed-form amounts."""
    ok = t.orthonormal & ~t.in_orth
    s, n = t.s, t.systems.n
    bessel = t.xx - s
    method = bnd.BoundMethod
    expectations = {
        method.OFFDIAG_FROBENIUS: bessel,
        method.OFFDIAG_MAX: bessel,
        method.ROW_SUMS: bessel,
        method.TOTAL_NORM: bessel + s * (1.0 - 1.0 / n),
        method.FROBENIUS: bessel + s * (1.0 - 1.0 / math.sqrt(n)),
    }
    values = np.array([t.unconditional[m] for m in expectations])
    expected = np.array(list(expectations.values()))
    ids = [f"orthonormal_collapse/{m.value}" for m in expectations]
    return [_stack(ids, near_margin(values, expected, DOMINANCE_REL), ok, value=values, expected=expected)]


def _bessel_refinements(t: InstanceChunk) -> list[CheckStack]:
    """Refined Bessel right-hand sides dominate the coefficient power sum
    for arbitrary systems, dependent ones included."""
    rhs = bnd.bessel_values(t.xx, t.systems.aggregates)
    values = np.array(list(rhs.values()))
    ids = [f"bessel_refinements/{m.value}" for m in rhs]
    return [_stack(ids, leq_margin(t.s, values, DOMINANCE_REL), rhs=values, power_sum=t.s)]


def _lagrange_identity(t: InstanceChunk) -> list[CheckStack]:
    """The norm-of-combination identity balances to near machine precision."""
    parts = comb.CombinationStack(t.coeffs(_SALT_LAGRANGE), t.systems.rows, t.systems.aggregates).lagrange
    residual, magnitude = parts.residual, parts.magnitude
    return [
        _stack("lagrange_identity/residual", IDENTITY_REL - residual / (1.0 + magnitude),
               residual=residual, magnitude=magnitude)
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
_SWEEP_HOLDS = tuple(f"combination_sweep/{label}/holds" for label, _ in COMBINATION_SWEEP)
# the 7 rows of the sweep whose chain has a coarse end, and their ids
_SWEEP_LINKED = tuple(k for k, (_, method) in enumerate(COMBINATION_SWEEP) if method._chain_terms[-1] is not None)
_SWEEP_CHAINS = tuple(f"combination_sweep/{COMBINATION_SWEEP[k][0]}/chain" for k in _SWEEP_LINKED)


def _combination_sweep(t: InstanceChunk) -> list[CheckStack]:
    """Exercise every combination bound family on one coefficient draw:
    each bound holds, and each chain's coarse end is above its tight one
    (outcome order: each ``/holds`` id, then its ``/chain`` id if any)."""
    draws = comb.CombinationStack(t.coeffs(_SALT_COMBINATION), t.systems.rows, t.systems.aggregates)
    rel = t.tol.compare_rel_tol
    lhs = draws.lhs
    chains = [draws.chain(method) for _, method in COMBINATION_SWEEP]
    tight = np.array([chain[0] for chain in chains])
    coarse, paired = np.array([chains[k][1] for k in _SWEEP_LINKED]), tight[list(_SWEEP_LINKED)]
    return [
        _stack(_SWEEP_HOLDS, comb.bound_margin(tight, lhs, rel), lhs=lhs, bound=tight),
        _stack(_SWEEP_CHAINS, comb.bound_margin(coarse, paired, rel), follows=_SWEEP_LINKED,
               tight=paired, coarse=coarse),
    ]


_CHAIN_IDS = {kind: tuple(f"hadamard_chains/{v.value}/{kind}" for v in ChainVariant)
              for kind in ("lower", "upper", "orthonormal_fixed_point")}
_EACH_VARIANT = tuple(range(len(ChainVariant)))  # each row after its variant's row in the stack before


def _hadamard_chains(t: InstanceChunk) -> list[CheckStack]:
    """All chain refinements are sandwiched between the determinant and the
    norm product; orthonormal systems sit exactly at 1 (outcome order: the
    three ids of each variant in turn)."""
    if t.systems.n < 2:
        return []
    ok = t.systems.factor.complete
    det, agg = t.systems.factor.det, t.systems.aggregates
    product, prefixes = agg.norm_product, agg.chain_prefixes
    fixed_point = ok & t.orthonormal
    # the chains of every variant on every system, one (variants, T, n) stack of denominators
    denominators = np.array([getattr(prefixes, v.value) for v in ChainVariant])
    refined = chain_stack(agg.norms_sq, prefixes.numerators, denominators, t.tol)[1]
    return [
        _stack(_CHAIN_IDS["lower"], leq_margin(det, refined, DOMINANCE_REL), ok, refined=refined, gram_det=det),
        _stack(_CHAIN_IDS["upper"], leq_margin(refined, product, DOMINANCE_REL), ok,
               follows=_EACH_VARIANT, refined=refined, norm_product=product),
        _stack(_CHAIN_IDS["orthonormal_fixed_point"], near_margin(refined, 1.0, FIXED_POINT_REL),
               fixed_point, follows=_EACH_VARIANT, refined=refined),
    ]


def _gram_inequalities(t: InstanceChunk) -> list[CheckStack]:
    """Determinant nonnegativity/product bound, block splits, and the
    sqrt-determinant triangle inequality on a random companion vector y1,
    whose det(x1, rest) is the system's own determinant. The split factors
    its blocks: in a pivoted order, a prefix product of the pivots is
    another block's determinant."""
    det, product = t.systems.factor.det, t.systems.aggregates.norm_product
    out = [
        _stack("gram_inequalities/nonnegative", leq_margin(0.0, det, DOMINANCE_REL, scale=det), gram_det=det),
        _stack("gram_inequalities/norm_product", leq_margin(det, product, DOMINANCE_REL),
               gram_det=det, norm_product=product),
    ]
    if t.systems.n >= 2:
        left, right = split_determinants(t.systems.gram, t.systems.n // 2, t.tol.rank_rel_tol)
        out.append(_stack("gram_inequalities/product_split", leq_margin(det, left * right, DOMINANCE_REL),
                          full=det, left=left, right=right))
        combined, first, second = triangle_roots(t.systems, t.coeffs(_SALT_TRIANGLE, t.systems.dim), t.tol)
        out.append(_stack("gram_inequalities/triangle", leq_margin(combined, first + second, DOMINANCE_REL),
                          combined=combined, first=first, second=second))
    return out


def _conditional_bounds(t: InstanceChunk) -> list[CheckStack]:
    """Constructively sampled two-sided data: the condition holds in both
    formulations, the half-width bound dominates d^2, and each relaxation
    dominates the half-width bound."""
    if t.lo is None:
        return []
    ok = t.systems.factor.complete & ~t.in_orth
    rows, d2 = t.systems.rows, t.d2
    quarter, values = bnd.conditional_stack(rows, t.hi - t.lo, t.systems.aggregates)
    half_width = values[bnd.BoundMethod.COND_HALF_WIDTH]
    re_inner, ball_margin, margin, forms_agree = bnd.condition_stack(rows, t.x, t.xx, t.lo, t.hi, half_width, t.tol)
    out = [
        _stack("conditional_bounds/condition_holds", margin, ok, re_inner=re_inner),
        _stack("conditional_bounds/forms_agree", np.where(forms_agree, t.tol.compare_rel_tol, -1.0), ok,
               re_inner=re_inner, ball_margin=ball_margin),
    ]
    held = ok & (margin >= 0.0)
    out.append(_stack("conditional_bounds/half_width_dominates", leq_margin(d2, half_width, DOMINANCE_REL), held,
                      bound=half_width, exact=d2))
    relaxed = np.array([values[method] for method in bnd.CONDITIONAL_METHODS[1:]])
    ids = [f"conditional_bounds/{method.value}_coarser" for method in bnd.CONDITIONAL_METHODS[1:]]
    out.append(_stack(ids, leq_margin(half_width, relaxed, DOMINANCE_REL), held,
                      relaxed=relaxed, half_width=half_width))
    gap = t.xx - t.s
    above, below = leq_margin(0.0, gap, DOMINANCE_REL), leq_margin(gap, quarter, DOMINANCE_REL)
    out.append(_stack("conditional_bounds/reverse_bessel", np.where(below < above, below, above),
                      held & t.orthonormal, gap=gap, quarter_width_sq=quarter))
    return out


# -- the registry: each family with its precondition ---------------------------


class _Family:
    """A built-in check: a family of check ids over a chunk of trials, and
    the precondition a config meets where it applies. On one instance it
    runs on a chunk of one; it pickles by name, as its REGISTRY entry."""

    def __init__(self, stacked: Callable[[InstanceChunk], list[CheckStack]],
                 applies: Callable[[GeneratorConfig], bool] = lambda config: True) -> None:
        self.name, self.__doc__ = stacked.__name__.lstrip("_"), stacked.__doc__
        self._stacked, self.applies = stacked, applies

    def __call__(self, instance: Instance, tol: ToleranceConfig) -> list[CheckOutcome]:
        return _run_resolved(instance, (self,), tol)

    def __reduce__(self):
        return resolve_check, (self.name,)


# every built-in family, in the order a campaign runs them
_BUILT_IN = (
    _Family(_representation_agreement),
    _Family(_bound_dominance),
    _Family(_orthonormal_collapse, lambda config: config.orthonormal),
    _Family(_bessel_refinements),
    _Family(_lagrange_identity),
    _Family(_combination_sweep),
    _Family(_gram_inequalities),
    _Family(_hadamard_chains, lambda config: config.n >= 2),
    _Family(_conditional_bounds, lambda config: config.intervals),
)
REGISTRY: dict[str, CheckFn] = {family.name: family for family in _BUILT_IN}


def applicable_checks(config: GeneratorConfig) -> tuple[str, ...]:
    """Names of the built-in checks whose preconditions the given config can satisfy."""
    return tuple(family.name for family in _BUILT_IN if family.applies(config))


def resolve_check(name: str) -> CheckFn:
    """The REGISTRY entry for ``name``."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown check name: {name!r}") from None


def resolve_checks(names: Sequence[str]) -> dict[str, CheckFn]:
    """The REGISTRY entry of each of ``names``, in their order; a bare str,
    no name, a name given twice and an unknown name raise ValueError."""
    if isinstance(names, str):
        raise ValueError(f"checks must be a sequence of names, not the str {names!r}")
    resolved: dict[str, CheckFn] = {}
    for name in names:
        if name in resolved:
            raise ValueError(f"check name given twice: {name!r}")
        resolved[name] = resolve_check(name)
    if not resolved:
        raise ValueError("no checks to run")
    return resolved


def run_stacked(checks: Sequence[_Family], chunk: InstanceChunk) -> list[CheckStack]:
    """The stacks of the built-in ``checks`` over one chunk, in their order."""
    # entries of trials an outcome does not exist for may hold inf or NaN
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return [stack for family in checks for stack in family._stacked(chunk)]


def run_checks(
    instance: Instance, names: Sequence[str], tol: ToleranceConfig
) -> list[CheckOutcome]:
    """Every outcome of the named checks on one instance, in their order."""
    return _run_resolved(instance, resolve_checks(names).values(), tol)


def _run_resolved(instance: Instance, checks: Iterable[CheckFn], tol: ToleranceConfig) -> list[CheckOutcome]:
    chunk = None  # one chunk of one for every built-in check
    out: list[CheckOutcome] = []
    for fn in checks:
        if isinstance(fn, _Family):
            chunk = InstanceChunk.of(instance, tol) if chunk is None else chunk
            out += outcomes_of(run_stacked([fn], chunk), 0)
        else:
            out += fn(instance, tol)
    return out
