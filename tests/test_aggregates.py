"""The Gram aggregates of a system's stack and the per-draw combination stacks.

Every value read from a cache must be the very number the direct
expression gives, so the comparisons here are exact (==), never approx.
"""

import copy
import pickle
from functools import cached_property

import numpy as np
import pytest

import spandist as sd
from spandist import BoundMethod, CombinationKind, Field, GeneratorConfig
from spandist import gram as sd_gram
from spandist.checks import COMBINATION_SWEEP, applicable_checks, run_checks

from conftest import random_rows

EXPONENTS = (1, 1.25, 1.5, 2, 2.0, 3.0, 4 / 3)
_STACK_FIELDS = sorted(name for name, v in vars(sd_gram.AggregateStack).items() if isinstance(v, cached_property))


def _systems():
    rng = np.random.default_rng(20260814)
    out = {}
    for field in (Field.REAL, Field.COMPLEX):
        out[f"{field.value}-n5"] = sd.VectorSystem.from_rows(random_rows(rng, 5, 7, field), field)
        out[f"{field.value}-n1"] = sd.VectorSystem.from_rows(random_rows(rng, 1, 4, field), field)
        rows = random_rows(rng, 4, 6, field)
        rows[2] = 0.5 * rows[0] - 2.0 * rows[3]
        out[f"{field.value}-dependent"] = sd.VectorSystem.from_rows(rows, field)
    return out


SYSTEMS = _systems()


@pytest.fixture(params=sorted(SYSTEMS))
def system(request):
    return SYSTEMS[request.param]


def test_fixture_systems_cover_dependence():
    assert not SYSTEMS["real-dependent"].independent
    assert not SYSTEMS["complex-dependent"].independent
    assert SYSTEMS["complex-n5"].independent and SYSTEMS["real-n1"].n == 1


# -- a system's aggregates: entry 0 of its stack's -------------------------------


def test_aggregate_fields_equal_direct_expressions(system):
    g = system.gram.entries
    n = system.n
    stacked = system.as_stack().aggregates
    agg = {name: getattr(stacked, name)[0] for name in _STACK_FIELDS if name != "chain_prefixes"}
    norms = g.diagonal().real
    abs_g = np.abs(g)
    off = np.where(np.eye(n, dtype=bool), 0.0, abs_g)
    rows = np.sum(abs_g, axis=1)

    assert np.array_equal(agg["norms_sq"], norms)
    assert agg["norm_sum"] == np.sum(norms)
    assert agg["norm_max"] == np.max(norms)
    assert agg["norm_product"] == np.prod(norms)
    assert np.array_equal(agg["abs_gram"], abs_g)
    assert np.array_equal(agg["abs_offdiag"], off)
    assert agg["offdiag_max"] == np.max(off, initial=0.0)
    assert stacked.power_sum("abs_offdiag", 1)[0] == np.sum(off)
    assert stacked.power_sum("abs_offdiag", 2)[0] == np.sum(off**2)
    assert np.array_equal(agg["row_sums"], rows)
    assert stacked.power_sum("row_sums", 1)[0] == np.sum(rows)
    assert agg["row_max"] == np.max(rows)
    assert stacked.power_sum("abs_gram", 2)[0] == np.sum(abs_g**2)
    assert agg["identity_deviation"] == np.max(np.abs(g - np.eye(n)))
    for name, array in (("norms_sq", norms), ("abs_gram", abs_g), ("abs_offdiag", off), ("row_sums", rows)):
        for q in EXPONENTS:
            assert stacked.power_sum(name, q)[0] == np.sum(array**q)


def test_aggregate_arrays_are_read_only(system):
    # the per-system scalars, the chain prefixes and the power sums included
    agg = system.as_stack().aggregates
    arrays = [getattr(agg, name) for name in _STACK_FIELDS if name != "chain_prefixes"]
    arrays += list(agg.chain_prefixes)
    arrays += [agg.power_sum(name, 1.5) for name in ("norms_sq", "abs_gram", "abs_offdiag", "row_sums")]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_power_sums_read_no_other_name(system):
    agg = system.as_stack().aggregates
    for name in ("norm_sum", "row_max", "gram", "chain_prefixes", "_powers", "power_sum", "norms"):
        with pytest.raises(ValueError, match=f"power_sum reads one of norms_sq, .*, got '{name}'"):
            agg.power_sum(name, 1.5)


def test_caches_return_the_first_value(system):
    agg = system.as_stack().aggregates
    assert system.as_stack().aggregates is agg
    assert agg.chain_prefixes is agg.chain_prefixes
    assert agg.power_sum("abs_gram", 1.5) is agg.power_sum("abs_gram", 1.5)
    first = system.gram_condition()
    assert system.gram_condition() == first
    assert system.gram_condition() == first


def test_gram_condition_equals_eigenvalue_ratio(system):
    eigs = np.linalg.eigvalsh(system.gram.entries)
    expected = np.inf if eigs[0] <= 0.0 else float(eigs[-1]) / float(eigs[0])
    assert system.gram_condition() == expected


# -- full_bound_report against the individual bound functions ---------------------


_UNCONDITIONAL = {
    BoundMethod.TOTAL_NORM: sd.bound_total_norm,
    BoundMethod.OFFDIAG_FROBENIUS: sd.bound_offdiag_frobenius,
    BoundMethod.OFFDIAG_MAX: sd.bound_offdiag_max,
    BoundMethod.ROW_SUMS: sd.bound_row_sums,
    BoundMethod.FROBENIUS: sd.bound_frobenius,
}


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("dim,n", [(7, 5), (3, 1)])
def test_report_entries_equal_bound_functions(field, dim, n):
    cfg = GeneratorConfig(seed=11, trials=4, dim=dim, n=n, field=field, conditioning=1e2 if n > 1 else 1.0,
                          intervals=True)
    for trial in range(cfg.trials):
        inst = sd.generate_instance(cfg, trial)
        s, x, iv = inst.system, inst.x, inst.intervals
        report = sd.full_bound_report(s, x, iv)
        assert report.exact_d2 == sd.distance_sq_quadratic(s, x)
        assert [e.method for e in report.entries] == list(BoundMethod)
        for method, fn in _UNCONDITIONAL.items():
            assert report.entry(method).value == fn(s, x)
        assert report.entry(BoundMethod.COND_HALF_WIDTH).value == sd.bound_cond_half_width(s, x, iv)
        for method in sd.bounds.CONDITIONAL_METHODS[1:]:
            assert report.entry(method).value == sd.bound_cond_relaxed(s, x, iv, method)
        plain = sd.full_bound_report(s, x)
        assert plain.entries == report.entries[: len(_UNCONDITIONAL)]


def test_report_rejects_dependent_system():
    s = SYSTEMS["complex-dependent"]
    x = sd.Vector(np.ones(s.dim), Field.COMPLEX)
    with pytest.raises(sd.LinearDependenceError):
        sd.full_bound_report(s, x)


def test_bessel_right_hand_sides_read_the_aggregates(system):
    x = sd.Vector(np.arange(1.0, system.dim + 1.0), system.field)
    xx = sd.norm_sq(x)
    agg = system.as_stack().aggregates
    assert sd.bessel_rhs_offdiag_max(system, x) == xx * (
        float(agg.norm_max[0]) + (system.n - 1) * float(agg.offdiag_max[0]))
    assert sd.bessel_rhs_row_sums(system, x) == xx * float(agg.row_max[0])


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_each_conditional_relaxation_reads_its_aggregate(field):
    cfg = GeneratorConfig(seed=11, trials=1, dim=6, n=4, field=field, conditioning=1e2, intervals=True)
    inst = sd.generate_instance(cfg, 0)
    s, x, iv = inst.system, inst.x, inst.intervals
    agg = s.as_stack().aggregates
    lo, hi = iv.arrays(s.field, s.n)
    quarter = 0.25 * float(np.sum(np.abs(hi - lo) ** 2))
    factors = {
        BoundMethod.COND_OFFDIAG_MAX: float(agg.norm_max[0]) + (s.n - 1) * float(agg.offdiag_max[0]),
        BoundMethod.COND_OFFDIAG_FROBENIUS: float(agg.diag_offdiag_frobenius[0]),
        BoundMethod.COND_ROW_SUMS: float(agg.row_max[0]),
    }
    assert len(set(factors.values())) == 3
    for method, factor in factors.items():
        assert sd.bound_cond_relaxed(s, x, iv, method) == pytest.approx(quarter * factor, rel=1e-13)


# -- the combination sweep through CombinationStack.of -------------------------


def _public_bound(alphas, zs, method):
    """The named public function for ``method``, called on raw coefficients."""
    k = method.kind
    if k is CombinationKind.CAUCHY_SCHWARZ:
        return sd.cauchy_schwarz_bound(alphas, zs)
    if k is CombinationKind.DIAG_OFFDIAG:
        return sd.diag_offdiag_bound(alphas, zs, method.diag_branch, method.offdiag_branch,
                                     method.diag_exp, method.offdiag_exp)
    if k is CombinationKind.SELECTION_MAX:
        return sd.selection_max_bound(alphas, zs)
    if k is CombinationKind.SELECTION_FROBENIUS:
        return sd.selection_frobenius_bound(alphas, zs)
    if k is CombinationKind.ROW_SUM:
        return sd.row_sum_bound(alphas, zs, method.branch, method.p)
    if k is CombinationKind.HOLDER_GRAM:
        return sd.holder_gram_bound(alphas, zs, method.p)
    return sd.holder_gram_p2_bound(alphas, zs)


def test_sweep_has_31_bounds_and_38_outcomes():
    assert len(COMBINATION_SWEEP) == 31
    cfg = GeneratorConfig(seed=3, trials=1, dim=5, n=3)
    outcomes = run_checks(sd.generate_instance(cfg, 0), ("combination_sweep",), sd.DEFAULT_TOL)
    assert len(outcomes) == 38


def test_sweep_bounds_equal_public_functions(system):
    rng = np.random.default_rng(system.n)
    raw = [complex(v) if system.field is Field.COMPLEX else float(v)
           for v in random_rows(rng, 1, system.n, system.field)[0]]
    stack = sd.CombinationStack.of(raw, system)
    assert stack.lhs[0] == sd.combination_norm_sq(raw, system)
    for _, method in COMBINATION_SWEEP:
        want = _public_bound(raw, system, method)
        assert want.lhs == stack.lhs[0], method.label
        assert want.chain == tuple(c[0] for c in stack.chain(method)), method.label
        assert want.method == method
        assert sd.evaluate_combination(raw, system, method) == want


def test_combination_stack_power_sums_are_memoised(system):
    stack = sd.CombinationStack.of(np.linspace(-2.0, 3.0, system.n), system)
    for e in EXPONENTS:
        assert stack.power_sum(e)[0] == np.sum(np.abs(stack.alphas[0]) ** e)
        assert stack.power_sum(e) is stack.power_sum(e)
    assert stack.a_max[0] == np.max(stack.a[0])
    assert stack.power_sum(1)[0] == np.sum(stack.a[0])


# -- the selection chains' tight ends: the diag/offdiag splits they equal ----------


_SELECTION_SPLITS = {  # selection kind -> (offdiag branch, offdiag exponent), diag branch max_norm
    CombinationKind.SELECTION_MAX: ("max_entry", None),
    CombinationKind.SELECTION_FROBENIUS: ("holder", 2.0),
}
_SELECTION_STREAMS = {
    f"{field.value}-{name}": GeneratorConfig(seed=13, trials=12, dim=dim, n=n, field=field, **kwargs)
    for field in (Field.REAL, Field.COMPLEX)
    for name, dim, n, kwargs in (("n4-dependent", 6, 4, dict(conditioning=1e3, dependent_fraction=0.5)),
                                 ("n1", 3, 1, {}))
}


@pytest.mark.parametrize("name", sorted(_SELECTION_STREAMS))
def test_selection_tight_ends_are_their_splits_in_a_stack(name):
    from spandist.generator import generate_chunk

    config = _SELECTION_STREAMS[name]
    chunk = generate_chunk(config, range(config.trials))
    if config.dependent_fraction:
        assert not chunk.systems.factor.complete.all()
    alphas = chunk.coeffs(1)
    for kind, (offdiag, exp) in _SELECTION_SPLITS.items():
        split = sd.CombinationMethod(kind=CombinationKind.DIAG_OFFDIAG, diag_branch="max_norm",
                                     offdiag_branch=offdiag, offdiag_exp=exp)
        # each from a stack of its own, so neither reads the other's memo
        selection = sd.CombinationStack(alphas, chunk.systems.rows, chunk.systems.aggregates)
        diag_offdiag = sd.CombinationStack(alphas, chunk.systems.rows, chunk.systems.aggregates)
        (want,) = diag_offdiag.chain(split)
        assert np.array_equal(selection.chain(sd.CombinationMethod(kind=kind))[0], want), kind


def test_selection_tight_ends_are_their_splits_for_one_system(system):
    raw = [complex(v) if system.field is Field.COMPLEX else float(v)
           for v in random_rows(np.random.default_rng(system.n + 1), 1, system.n, system.field)[0]]
    for kind, (offdiag, exp) in _SELECTION_SPLITS.items():
        got = sd.evaluate_combination(raw, system, sd.CombinationMethod(kind=kind))
        want = sd.diag_offdiag_bound(raw, system, "max_norm", offdiag, offdiag_exp=exp)
        assert got.bound == got.chain[0] == want.bound, kind


# -- work per instance -------------------------------------------------------------


_STREAM = GeneratorConfig(seed=5, trials=4, dim=7, n=5, field=Field.COMPLEX, conditioning=1e2, intervals=True)


def test_one_trial_factors_at_most_eight_gram_matrices(monkeypatch):
    instance = sd.generate_instance(_STREAM, 0)
    calls = []
    original = sd_gram._pivoted

    def counted(a, *args, **kwargs):
        calls.extend([1] * a.shape[0])  # one entry per matrix entering the fallback
        return original(a, *args, **kwargs)

    monkeypatch.setattr(sd_gram, "_pivoted", counted)
    outcomes = run_checks(instance, applicable_checks(_STREAM), sd.DEFAULT_TOL)
    assert outcomes and all(o.ok for o in outcomes)
    assert len(calls) <= 8, len(calls)


def test_beta_is_computed_once_per_call(monkeypatch):
    from spandist import distance as sd_distance

    instance = sd.generate_instance(_STREAM, 0)
    s, x, intervals = instance.system, instance.x, instance.intervals
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(sd_distance, "beta_stack")
    counted(sd.VectorSystem, "_check_member")
    # once per (system, x): the system keeps the point stack of its last x
    sd.exact_distance(s, x)
    sd.full_bound_report(s, x, intervals)
    sd.bound_cond_half_width(s, x, intervals)
    assert calls == ["_check_member", "beta_stack"]


def test_aggregates_are_built_once_per_system(monkeypatch):
    built = []
    original = sd_gram.AggregateStack.__init__

    def counted(self, gram):
        built.append(gram)
        original(self, gram)

    monkeypatch.setattr(sd_gram.AggregateStack, "__init__", counted)
    result = sd.run_campaign(_STREAM)
    assert result.passed
    assert len(built) == 1  # one chunk, one SystemStack: the checks read its AggregateStack
    built.clear()
    instance = sd.generate_instance(_STREAM, 0)
    assert len(built) == 1 and built[0] is instance.system.as_stack().gram
    sd.full_bound_report(instance.system, instance.x, instance.intervals)
    sd.hadamard_chain(instance.system, sd.ChainVariant.ROW_SUMS)
    sd.check_gram_hadamard(instance.system)
    assert len(built) == 1


# -- the stack of one of a system, and the combination stack of one ---------------


def _assert_entry(got, stacked, k):
    if isinstance(stacked, tuple):  # the chain prefixes: (T, n) numerators, (4, T, n) denominators
        assert type(got) is tuple
        for field, whole in zip(got, stacked):
            assert np.array_equal(field[..., 0, :], whole[..., k, :])
    else:
        assert type(got) is np.ndarray and np.array_equal(got[0], stacked[k])


def test_every_stack_field_of_a_system_is_its_entry_of_a_larger_stack():
    assert len(_STACK_FIELDS) == 15
    rng = np.random.default_rng(5)
    stack = sd_gram.SystemStack(random_rows(rng, 12, 6, Field.COMPLEX).reshape(3, 4, 6), Field.COMPLEX)
    for k in range(len(stack.rows)):
        system = sd.VectorSystem.from_rows(stack.rows[k], Field.COMPLEX)
        agg = system.as_stack().aggregates
        for name in _STACK_FIELDS:
            _assert_entry(getattr(agg, name), getattr(stack.aggregates, name), k)
            assert getattr(agg, name) is getattr(agg, name)
        for name in sd_gram._POWER_AXES:
            for q in (1, 2):
                _assert_entry(agg.power_sum(name, q), stack.aggregates.power_sum(name, q), k)


@pytest.mark.parametrize("read", [False, True])
def test_systems_copy_and_pickle(system, read):
    stacked = system.as_stack().aggregates
    if read:
        for name in _STACK_FIELDS:
            getattr(stacked, name)
    for clone in (copy.copy(system), pickle.loads(pickle.dumps(system))):
        assert (clone.n, clone.dim, clone.field, clone.independent) == (system.n, system.dim, system.field, system.independent)
        assert np.array_equal(clone.rows, system.rows)
        agg = clone.as_stack().aggregates
        for name in _STACK_FIELDS:
            _assert_entry(getattr(agg, name), getattr(stacked, name), 0)
        assert np.array_equal(agg.power_sum("row_sums", 1.5), stacked.power_sum("row_sums", 1.5))


def test_combination_stack_of_one_draw(system):
    alphas = np.linspace(-2.0, 3.0, system.n)
    stack = sd.CombinationStack.of(alphas, system)
    assert stack.alphas.shape == (1, system.n) and np.array_equal(stack.alphas[0], alphas)
    assert stack.rows is system.as_stack().rows
    assert stack.agg is system.as_stack().aggregates
    result = sd.evaluate_combination(alphas, system, sd.CombinationMethod(kind=CombinationKind.CAUCHY_SCHWARZ))
    assert type(result.lhs) is float and type(result.holds) is bool
    assert result.lhs == stack.lhs[0]
    assert type(sd.combination_norm_sq([1.0] * system.n, system)) is float
    with pytest.raises(sd.DimensionMismatchError):
        sd.CombinationStack.of(np.ones(system.n + 1), system)
