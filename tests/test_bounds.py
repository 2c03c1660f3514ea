"""Unconditional and two-sided-coefficient bounds on the squared distance."""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

import spandist as sd
from spandist import BoundMethod, Field, IntervalData, VectorSystem, vector
from spandist.space import leq_margin

from conftest import random_rows


# d^2 = 1 for the worked example; the five bound values are hand-derived.
FIXED_POINT_TABLE = {
    BoundMethod.TOTAL_NORM: 4.0 / 3.0,
    BoundMethod.OFFDIAG_FROBENIUS: (1.0 + 3.0 * math.sqrt(2.0)) / (2.0 + math.sqrt(2.0)),
    BoundMethod.OFFDIAG_MAX: 4.0 / 3.0,
    BoundMethod.ROW_SUMS: 4.0 / 3.0,
    BoundMethod.FROBENIUS: 3.0 - 5.0 / math.sqrt(7.0),
}

BOUND_FNS = {
    BoundMethod.TOTAL_NORM: sd.bound_total_norm,
    BoundMethod.OFFDIAG_FROBENIUS: sd.bound_offdiag_frobenius,
    BoundMethod.OFFDIAG_MAX: sd.bound_offdiag_max,
    BoundMethod.ROW_SUMS: sd.bound_row_sums,
    BoundMethod.FROBENIUS: sd.bound_frobenius,
}


@pytest.mark.parametrize("method", list(FIXED_POINT_TABLE))
def test_fixed_point_table(system_b, x_b, method):
    got = BOUND_FNS[method](system_b, x_b)
    assert got == pytest.approx(FIXED_POINT_TABLE[method], abs=1e-12)


def test_full_report_on_worked_example(system_b, x_b):
    report = sd.full_bound_report(system_b, x_b)
    assert report.exact_d2 == pytest.approx(1.0, abs=1e-12)
    assert [e.method for e in report.entries] == list(sd.bounds.UNCONDITIONAL_METHODS)
    for entry in report.entries:
        assert entry.value == pytest.approx(FIXED_POINT_TABLE[entry.method], abs=1e-12)
        assert entry.slack >= 0.0
        assert entry.tightness == pytest.approx(
            (entry.value - report.exact_d2) / (1.0 + report.exact_d2))
    assert report.entry(BoundMethod.TOTAL_NORM).strict_expected


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("seed", range(4))
def test_bounds_dominate_exact_distance(field, seed):
    cfg = sd.GeneratorConfig(seed=seed, trials=5, dim=6, n=3, field=field, conditioning=30.0)
    for trial in range(cfg.trials):
        inst = sd.generate_instance(cfg, trial)
        exact = sd.distance_sq_oracle(inst.system, inst.x)
        for fn in BOUND_FNS.values():
            assert fn(inst.system, inst.x) >= exact - 1e-10 * (1.0 + exact)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_orthonormal_collapse_closed_forms(field):
    cfg = sd.GeneratorConfig(seed=13, trials=5, dim=6, n=4, field=field, orthonormal=True)
    for trial in range(cfg.trials):
        inst = sd.generate_instance(cfg, trial)
        s = float(sum(abs(b) ** 2 for b in sd.exact_distance(inst.system, inst.x).beta))
        bessel = sd.norm_sq(inst.x) - s
        n = inst.system.n
        scale = 1e-10 * (1.0 + bessel + s)
        assert abs(sd.bound_offdiag_frobenius(inst.system, inst.x) - bessel) <= scale
        assert abs(sd.bound_offdiag_max(inst.system, inst.x) - bessel) <= scale
        assert abs(sd.bound_row_sums(inst.system, inst.x) - bessel) <= scale
        assert abs(sd.bound_total_norm(inst.system, inst.x)
                   - (bessel + s * (1.0 - 1.0 / n))) <= scale
        assert abs(sd.bound_frobenius(inst.system, inst.x)
                   - (bessel + s * (1.0 - 1.0 / math.sqrt(n)))) <= scale


def test_bounds_reject_orthogonal_x(system_b):
    x = vector([0.0, 0.0, 1.0])
    with pytest.raises(sd.OrthogonalComplementError):
        sd.bound_total_norm(system_b, x)


def test_bounds_reject_dependent_system():
    system = VectorSystem.from_rows([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(sd.LinearDependenceError):
        sd.bound_frobenius(system, vector([1.0, 1.0]))


@pytest.mark.parametrize("rhs_fn, bound_fn", [
    (sd.bessel_rhs_offdiag_frobenius, sd.bound_offdiag_frobenius),
    (sd.bessel_rhs_offdiag_max, sd.bound_offdiag_max),
    (sd.bessel_rhs_row_sums, sd.bound_row_sums),
])
def test_bessel_refinements_dominate_coefficient_energy(rhs_fn, bound_fn):
    rng = np.random.default_rng(41)
    for _ in range(5):
        system = VectorSystem.from_rows(random_rows(rng, 4, 6, Field.COMPLEX))
        x = vector(random_rows(rng, 1, 6, Field.COMPLEX)[0])
        s = float(sum(abs(sd.inner_product(x, v)) ** 2 for v in system.vectors))
        assert rhs_fn(system, x) >= s - 1e-10 * (1.0 + s)


def test_bessel_refinements_allow_dependent_systems():
    system = VectorSystem.from_rows([[1.0, 0.0], [2.0, 0.0]])
    x = vector([1.0, 1.0])
    s = 1.0 + 4.0
    assert sd.bessel_rhs_row_sums(system, x) >= s - 1e-12


# --- two-sided coefficient condition ------------------------------------------


@pytest.fixture
def planar():
    """{e1, e2} in R^3 with x = (1,1,1) and coefficient box [0,2]^2."""
    system = VectorSystem.from_rows(np.eye(3)[:2])
    x = vector([1.0, 1.0, 1.0])
    iv = IntervalData(gammas=(0.0, 0.0), Gammas=(2.0, 2.0))
    return system, x, iv


def test_condition_verdict_hand_example(planar):
    system, x, iv = planar
    v = sd.condition_verdict(system, x, iv)
    # Re<(2,2,0)-(1,1,1), (1,1,1)-(0,0,0)> = (1,1,-1).(1,1,1) = 1
    assert v.re_inner == pytest.approx(1.0, abs=1e-12)
    assert v.holds
    assert v.forms_agree
    assert v.holds == (leq_margin(0.0, v.re_inner, sd.DEFAULT_TOL.compare_rel_tol, scale=sd.norm_sq(x)) >= 0.0)
    # the half-width bound ||(2,2,0)||^2 / 4 = 2 less ||x - (1,1,0)||^2 = 1
    assert v.ball_margin == 1.0
    assert sd.bounds.require_condition(system, x, iv) == v


def test_conditional_bounds_hand_example(planar):
    system, x, iv = planar
    # quarter of ||sum (Gamma_i - gamma_i) x_i||^2 = ||(2,2,0)||^2 / 4 = 2
    assert sd.bound_cond_half_width(system, x, iv) == pytest.approx(2.0, abs=1e-12)
    for method in sd.bounds.CONDITIONAL_METHODS:
        if method is BoundMethod.COND_HALF_WIDTH:
            continue
        assert sd.bound_cond_relaxed(system, x, iv, method) == pytest.approx(2.0, abs=1e-12)
    # and they all dominate the true squared distance, which is 1
    assert sd.distance_sq_oracle(system, x) == pytest.approx(1.0, abs=1e-12)


def test_condition_violation_detected():
    system = VectorSystem.from_rows(np.eye(2))
    x = vector([10.0, 10.0])  # far outside the coefficient box
    iv = IntervalData(gammas=(0.0, 0.0), Gammas=(1.0, 1.0))
    v = sd.condition_verdict(system, x, iv)
    assert not v.holds
    assert v.forms_agree
    assert v.holds == (leq_margin(0.0, v.re_inner, sd.DEFAULT_TOL.compare_rel_tol, scale=sd.norm_sq(x)) >= 0.0)
    with pytest.raises(sd.ConditionNotSatisfiedError):
        sd.bound_cond_half_width(system, x, iv)
    with pytest.raises(sd.ConditionNotSatisfiedError, match="^two-sided condition fails: Re-inner term "):
        sd.bounds.require_condition(system, x, iv)


def test_half_width_bound_is_tightest_relaxation():
    cfg = sd.GeneratorConfig(seed=19, trials=6, dim=5, n=3, field=sd.Field.COMPLEX,
                             conditioning=50.0, intervals=True)
    for trial in range(cfg.trials):
        inst = sd.generate_instance(cfg, trial)
        base = sd.bound_cond_half_width(inst.system, inst.x, inst.intervals)
        for method in (BoundMethod.COND_OFFDIAG_MAX, BoundMethod.COND_OFFDIAG_FROBENIUS,
                       BoundMethod.COND_ROW_SUMS):
            relaxed = sd.bound_cond_relaxed(inst.system, inst.x, inst.intervals, method)
            assert base <= relaxed * (1 + 1e-10) + 1e-12


def test_full_report_includes_conditional_entries(planar):
    system, x, iv = planar
    report = sd.full_bound_report(system, x, iv)
    methods = [e.method for e in report.entries]
    assert methods == list(sd.bounds.UNCONDITIONAL_METHODS) + list(sd.bounds.CONDITIONAL_METHODS)


def test_interval_data_validation():
    with pytest.raises(ValueError):
        IntervalData(gammas=(0.0,), Gammas=(1.0, 2.0))  # length mismatch
    with pytest.raises(ValueError):
        IntervalData(gammas=(), Gammas=())
    with pytest.raises(ValueError):
        IntervalData(gammas=(math.nan,), Gammas=(1.0,))
    for big in (10**400, -(10**400), Fraction(10**401, 7)):  # numbers beyond the float range
        with pytest.raises(ValueError, match="^interval scalars must be finite$"):
            IntervalData(gammas=(big,), Gammas=(1,))
        with pytest.raises(ValueError, match="^interval scalars must be finite$"):
            IntervalData(gammas=(0,), Gammas=(big,))
    for bad in ("1", "2e0", None, b"1"):
        with pytest.raises(ValueError):
            IntervalData(gammas=(bad,), Gammas=(1.0,))
        with pytest.raises(ValueError):
            IntervalData(gammas=(0.0,), Gammas=(bad,))
    # numpy scalars are numbers
    IntervalData(gammas=(np.float64(0.5), np.int64(1)), Gammas=(np.complex128(2.0), 3))
    # reversed endpoints are legal data (scalars may be complex, so there is
    # no ordering to enforce); the condition check is what rejects them
    IntervalData(gammas=(3.0,), Gammas=(1.0,))


# --- reverse inequality for orthonormal systems --------------------------------


def _reverse_bessel_holds(v, rel=sd.DEFAULT_TOL.compare_rel_tol):
    """0 <= gap <= quarter by the shared rule; the upper side on the scale of the quarter."""
    gap, quarter = v.bessel_gap, v.quarter_width_sq
    return leq_margin(0.0, gap, rel) >= 0.0 and leq_margin(gap, quarter, rel, scale=quarter) >= 0.0


def test_reverse_bessel_gap_orthonormal():
    system = VectorSystem.from_rows(np.eye(3)[:2])
    x = vector([1.0, 1.0, 0.5])
    iv = IntervalData(gammas=(0.0, 0.0), Gammas=(2.0, 2.0))
    v = sd.reverse_bessel_gap(system, x, iv)
    assert v.holds
    assert v.bessel_gap == pytest.approx(0.25, abs=1e-12)
    assert v.quarter_width_sq == pytest.approx(2.0, abs=1e-12)
    assert v.holds == _reverse_bessel_holds(v)


def test_reverse_bessel_sharpness():
    # single basis vector, x = e1 + e2, coefficient interval [0, 2]:
    # gap = ||x||^2 - |<x,e1>|^2 = 1 equals a quarter of |2 - 0|^2 = 1
    system = VectorSystem.from_rows(np.eye(2)[:1])
    x = vector([1.0, 1.0])
    iv = IntervalData(gammas=(0.0,), Gammas=(2.0,))
    v = sd.reverse_bessel_gap(system, x, iv)
    assert v.holds
    assert v.bessel_gap == pytest.approx(v.quarter_width_sq, abs=1e-12)
    assert v.holds == _reverse_bessel_holds(v)


def test_reverse_bessel_requires_orthonormal(system_b, x_b):
    iv = IntervalData(gammas=(0.0, 0.0), Gammas=(2.0, 2.0))
    with pytest.raises(sd.NotOrthonormalError):
        sd.reverse_bessel_gap(system_b, x_b, iv)


@pytest.mark.parametrize("method", [BoundMethod.TOTAL_NORM, BoundMethod.FROBENIUS, BoundMethod.COND_HALF_WIDTH])
def test_a_relaxed_bound_needs_a_relaxation_method(planar, method):
    system, x, iv = planar
    with pytest.raises(ValueError, match=f"^not a conditional relaxation method: {method}$"):
        sd.bound_cond_relaxed(system, x, iv, method)


@pytest.mark.parametrize("gammas, Gammas", [
    (([0.0, 1.0],), ([1.0, 2.0],)),
    (((0.0,), (1.0,)), ((2.0,), (3.0,))),
    ((np.zeros(2), np.zeros(2)), (np.ones(2), np.ones(2))),
])
def test_interval_scalars_must_not_be_sequences(gammas, Gammas):
    with pytest.raises(ValueError, match="^interval scalars must be numbers$"):
        IntervalData(gammas=gammas, Gammas=Gammas)


@pytest.mark.parametrize("gammas, Gammas", [
    (1.0, 2.0),
    ((0.0,), 2.0),
    (np.float64(0.0), (1.0,)),
    (np.array(0.0), np.array(1.0)),
])
def test_interval_data_must_be_two_sequences(gammas, Gammas):
    message = f"gammas and Gammas must be sequences, got {gammas!r} and {Gammas!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IntervalData(gammas=gammas, Gammas=Gammas)


def test_interval_data_keeps_tuples_of_the_entries_given():
    # not the caller's list: an edit of it after the fact reaches no field and
    # no array; the data equals the loaded form of its numbers and hashes
    gammas, entry = [1.0, 2.0], np.float64(3.0)
    data = IntervalData(gammas, [entry, 4.0])
    gammas[0] = 9.0
    assert data.gammas == (1.0, 2.0) and data.Gammas[0] is entry
    assert data.arrays(Field.REAL, 2)[0].tolist() == data.arrays(Field.COMPLEX, 2)[0].tolist() == [1.0, 2.0]
    loaded = IntervalData._of(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert data == loaded and hash(data) == hash(loaded)
    assert hash(IntervalData([1.0], [2.0])) == hash(IntervalData((1.0,), (2.0,)))


BESSEL_FNS = {
    BoundMethod.OFFDIAG_FROBENIUS: sd.bessel_rhs_offdiag_frobenius,
    BoundMethod.OFFDIAG_MAX: sd.bessel_rhs_offdiag_max,
    BoundMethod.ROW_SUMS: sd.bessel_rhs_row_sums,
}


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_each_row_of_a_stacked_family_is_its_methods_function(field):
    # on a stack of one, row k of each kernel is, bit for bit, the function
    # of the k-th method of its documented order
    from spandist.bounds import CONDITIONAL_METHODS, bessel_values, bound_values, two_sided_stack
    from spandist.distance import PointStack

    config = sd.GeneratorConfig(seed=3, trials=1, dim=6, n=4, field=field, conditioning=10.0, intervals=True)
    inst = sd.generate_instance(config, 0)
    system, x, iv = inst.system, inst.x, inst.intervals
    p, agg = PointStack.of(system, x), system.as_stack().aggregates
    unconditional = bound_values(p.xx, p.s, agg)
    assert unconditional.shape == (5, 1)
    assert unconditional[:, 0].tolist() == [BOUND_FNS[m](system, x) for m in sd.bounds.UNCONDITIONAL_METHODS]
    rhs = bessel_values(p.xx, agg)
    assert rhs.shape == (3, 1)
    assert rhs[:, 0].tolist() == [BESSEL_FNS[m](system, x) for m in sd.bounds.BESSEL_METHODS]
    lo, hi = iv.arrays(field, system.n)
    conditional = two_sided_stack(p, lo[np.newaxis], hi[np.newaxis])[1]
    assert conditional.shape == (4, 1)
    relaxed = [sd.bound_cond_relaxed(system, x, iv, m) for m in CONDITIONAL_METHODS[1:]]
    assert conditional[:, 0].tolist() == [sd.bound_cond_half_width(system, x, iv), *relaxed]
    assert len(set(unconditional[:, 0].tolist())) == 5 and len(set(conditional[:, 0].tolist())) == 4


def test_interval_data_is_checked_once(monkeypatch):
    # the constructor keeps the arrays it checked, and the report reads them
    system, x = VectorSystem.from_rows(np.eye(3)[:2]), vector([1.0, 1.0, 1.0])
    original = sd.space.field_array
    calls = []

    def counted(values, field, what):
        calls.append(what)
        return original(values, field, what)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "spandist" and getattr(module, "field_array", None) is original:
            monkeypatch.setattr(module, "field_array", counted)
    report = sd.full_bound_report(system, x, IntervalData(gammas=(0.0, 0.0), Gammas=(2.0, 2.0)))
    assert len(report.entries) == 9
    assert calls.count("interval scalars") == 1


def test_a_report_has_no_entry_for_a_method_it_does_not_hold(system_b, x_b, planar):
    report = sd.full_bound_report(system_b, x_b)
    for method in sd.bounds.CONDITIONAL_METHODS:
        with pytest.raises(KeyError) as caught:
            report.entry(method)
        assert caught.value.args == (method,)
    system, x, iv = planar
    full = sd.full_bound_report(system, x, iv)
    assert all(full.entry(e.method) is e for e in full.entries)
