"""The three distance representations against an orthonormalization oracle."""

import math
import warnings

import numpy as np
import pytest

import spandist as sd
from spandist import Field, VectorSystem, vector
from spandist.distance import PointStack
from spandist.generator import generate_chunk
from spandist.space import near_margin

from conftest import random_rows


def test_worked_example_distance(system_b, x_b):
    # span{(1,0,0), (1,1,0)} is the xy-plane, so d((1,1,1), M)^2 = 1
    assert sd.distance_sq_gram_ratio(system_b, x_b) == pytest.approx(1.0, abs=1e-12)
    assert sd.distance_sq_quadratic(system_b, x_b) == pytest.approx(1.0, abs=1e-12)
    assert sd.distance_sq_oracle(system_b, x_b) == pytest.approx(1.0, abs=1e-12)


def test_worked_example_projection_quotient(system_b, x_b):
    # ||x||^2 - S^2 / ||sum beta_i x_i||^2 = 3 - 25/13 = 14/13 for this data
    got = sd.distance_sq_projection(system_b, x_b)
    assert got == pytest.approx(14.0 / 13.0, abs=1e-12)
    assert got >= 1.0  # upper estimate of the true squared distance


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("conditioning", [1.0, 1e2, 1e4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_representations_agree_with_oracle(field, conditioning, seed):
    cfg = sd.GeneratorConfig(seed=seed, trials=4, dim=6, n=4, field=field,
                             conditioning=conditioning)
    for trial in range(cfg.trials):
        inst = sd.generate_instance(cfg, trial)
        d_ratio = sd.distance_sq_gram_ratio(inst.system, inst.x)
        d_quad = sd.distance_sq_quadratic(inst.system, inst.x)
        d_oracle = sd.distance_sq_oracle(inst.system, inst.x)
        scale = 1.0 + d_oracle
        assert abs(d_ratio - d_quad) <= 1e-8 * scale
        assert abs(d_oracle - d_quad) <= 1e-8 * scale
        assert sd.distance_sq_projection(inst.system, inst.x) >= d_oracle - 1e-10 * scale
        res, rel = sd.exact_distance(inst.system, inst.x), inst.system.tol.compare_rel_tol
        assert res.agreement_ok == (near_margin(res.d2_gram_ratio, res.d2_quadratic, rel) >= 0.0)
        assert res.projection_matches == (near_margin(res.d2_projection, res.d2_quadratic, rel) >= 0.0)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_projection_quotient_exact_for_orthonormal(field):
    cfg = sd.GeneratorConfig(seed=9, trials=3, dim=5, n=3, field=field, orthonormal=True)
    for trial in range(cfg.trials):
        inst = sd.generate_instance(cfg, trial)
        exact = sd.distance_sq_oracle(inst.system, inst.x)
        assert sd.distance_sq_projection(inst.system, inst.x) == pytest.approx(exact, rel=1e-10, abs=1e-12)


def test_projection_quotient_exact_for_single_vector():
    rng = np.random.default_rng(3)
    system = VectorSystem.from_rows(random_rows(rng, 1, 4, Field.REAL))
    x = vector(random_rows(rng, 1, 4, Field.REAL)[0])
    exact = sd.distance_sq_oracle(system, x)
    assert sd.distance_sq_projection(system, x) == pytest.approx(exact, rel=1e-12)


def test_x_in_subspace_gives_zero_distance(system_b):
    x = vector([2.0, 3.0, 0.0])
    res = sd.exact_distance(system_b, x)
    assert res.d2 == pytest.approx(0.0, abs=1e-12)
    assert res.in_subspace


def test_x_orthogonal_to_system(system_b):
    x = vector([0.0, 0.0, 2.0])
    assert sd.in_orthogonal_complement(system_b, x)
    assert sd.distance_sq_projection(system_b, x) == sd.norm_sq(x)
    assert sd.distance_sq_gram_ratio(system_b, x) == pytest.approx(4.0, abs=1e-12)


def test_exact_distance_reads_one_tolerance():
    # beta_1 = 1e-7 is negligible at orth_rel_tol 1e-6: every field of the
    # result treats x as orthogonal to the system, the projection included
    s = VectorSystem.from_rows([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    x = vector([1e-7, 0.0, 1.0])
    tol = sd.ToleranceConfig(orth_rel_tol=1e-6)
    result = sd.exact_distance(s, x, tol)
    assert result.in_orth_complement == sd.in_orthogonal_complement(s, x, tol)
    assert result.d2_projection == sd.norm_sq(x)


def test_dependent_system_is_rejected():
    system = VectorSystem.from_rows([[1.0, 0.0], [2.0, 0.0]])
    x = vector([0.0, 1.0])
    for fn in (sd.distance_sq_gram_ratio, sd.distance_sq_quadratic,
               sd.distance_sq_projection, sd.distance_sq_oracle):
        with pytest.raises(sd.LinearDependenceError):
            fn(system, x)


def test_oracle_validates_x_like_the_rest(system_b):
    with pytest.raises(sd.FieldMismatchError):
        sd.distance_sq_oracle(system_b, vector([1j, 0.0, 0.0]))
    with pytest.raises(sd.DimensionMismatchError):
        sd.distance_sq_oracle(system_b, vector([1.0, 2.0]))


def test_oracle_reads_the_systems_rank_decision():
    # parallel rows whose lengths differ by a factor of about 3e15: the
    # system's factorization calls them rank 1, and every route says so
    system = VectorSystem.from_rows([[1e8, 1e8, 0.0], [3e-8, 3e-8, 0.0]])
    x = vector([0.0, 0.0, 1.0])
    assert not system.independent
    for fn in (sd.exact_distance, sd.distance_sq_oracle):
        with pytest.raises(sd.LinearDependenceError, match="^system of 2 vectors has numerical rank 1$"):
            fn(system, x)


# -- scale: results do not depend on how the rows are scaled --------------------------


def test_orthogonal_rows_of_norms_1e8_and_1e_minus_8_are_independent():
    system = VectorSystem.from_rows([[1e8, 0.0, 0.0], [0.0, 1e-8, 0.0]])
    x = vector([0.0, 0.0, 1.0])
    assert system.independent and system.rank == 2
    result = sd.exact_distance(system, x)
    assert result.d2_quadratic == result.d2_gram_ratio == 1.0
    assert sd.distance_sq_oracle(system, x) == 1.0


_SCALED = [
    sd.GeneratorConfig(seed=31, trials=16, dim=dim, n=n, field=field, conditioning=kappa)
    for field in (Field.REAL, Field.COMPLEX)
    for dim, n in ((7, 5), (8, 7))
    for kappa in (1e2, 1e6, 1e10, 1e12)
]


@pytest.mark.parametrize("config", _SCALED, ids=lambda c: f"{c.field.value}-n{c.n}-k{c.conditioning:.0e}")
def test_row_scaling_by_powers_of_two_keeps_rank_ratio_and_d2_bits(config):
    for trial in range(config.trials):
        inst = sd.generate_instance(config, trial)
        k = np.random.default_rng([config.n, trial]).integers(-60, 61, config.n)
        scaled = VectorSystem.from_rows(inst.system.rows * np.exp2(k)[:, np.newaxis], config.field)
        assert scaled.rank == inst.system.rank
        got, want = PointStack.of(scaled, inst.x), PointStack.of(inst.system, inst.x)
        np.testing.assert_array_equal(got.ratio, want.ratio)
        np.testing.assert_array_equal(got.d2, want.d2)
        np.testing.assert_array_equal(scaled.as_stack().factor.condition, inst.system.as_stack().factor.condition)


def test_a_kappa_one_system_keeps_its_quadratic_form_under_row_scaling():
    # orthonormal rows scaled by 2^53, 2^-41 and 2^29: kappa(G) is huge, the
    # equilibrated Gram matrix is still the identity
    config = sd.GeneratorConfig(seed=7, trials=200, dim=4, n=3, orthonormal=True, intervals=True)
    inst = sd.generate_instance(config, 12)
    scaled = VectorSystem.from_rows(inst.system.rows * np.exp2([53, -41, 29])[:, np.newaxis])
    want = sd.exact_distance(inst.system, inst.x)
    with warnings.catch_warnings():
        warnings.simplefilter("error", sd.NumericalWarning)
        got = sd.exact_distance(scaled, inst.x)
    assert got.d2_quadratic == want.d2_quadratic
    assert got.agreement_ok and not got.numerical_warning
    assert got.d2_quadratic == pytest.approx(sd.distance_sq_oracle(scaled, inst.x), rel=1e-12)


def test_the_warning_gate_reads_the_scale_free_condition():
    # the kappa-one system above: row scaling leaves kappa_E (3 up to
    # rounding) as it is to the bit while kappa(G) overflows, so a
    # disagreement is still flagged
    config = sd.GeneratorConfig(seed=7, trials=200, dim=4, n=3, orthonormal=True, intervals=True)
    inst = sd.generate_instance(config, 12)
    scaled = VectorSystem.from_rows(inst.system.rows * np.exp2([53, -41, 29])[:, np.newaxis])
    want = inst.system.as_stack().factor.condition
    assert want[0] == pytest.approx(3.0, rel=1e-15)
    assert np.array_equal(scaled.as_stack().factor.condition, want)
    assert scaled.gram_condition() == np.inf
    # no agreement slack at all: the two routes differ in the last bit
    tight = sd.ToleranceConfig(compare_rel_tol=1e-300)
    for system in (inst.system, scaled):
        result = sd.exact_distance(system, inst.x, tight)
        assert not result.agreement_ok and result.numerical_warning
        assert result.gram_condition == system.gram_condition()


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_uniform_scaling_by_2_to_the_k_scales_d2_by_4_to_the_k(field):
    config = sd.GeneratorConfig(seed=32, trials=8, dim=7, n=5, field=field, conditioning=1e6)
    for trial in range(config.trials):
        inst = sd.generate_instance(config, trial)
        want = PointStack.of(inst.system, inst.x)
        for k in (-400, -61, 1, 60, 400):
            with np.errstate(over="ignore"):  # det G itself, scaled by 4^(5k), may overflow
                system = VectorSystem.from_rows(inst.system.rows * 2.0**k, field)
            got = PointStack.of(system, vector(inst.x.coords * 2.0**k, field))
            assert system.rank == inst.system.rank
            np.testing.assert_array_equal(got.d2, want.d2 * 4.0**k)
            np.testing.assert_array_equal(got.ratio, want.ratio * 4.0**k)


def test_orthonormal_shortcut_matches_and_validates(system_b, x_b):
    onb = VectorSystem.from_rows(np.eye(3)[:2])
    x = vector([1.0, 2.0, 2.0])
    assert sd.distance_sq_orthonormal(onb, x) == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(sd.NotOrthonormalError):
        sd.distance_sq_orthonormal(system_b, x_b)


def test_exact_distance_result_fields(system_b, x_b):
    res = sd.exact_distance(system_b, x_b)
    assert res.d2 == res.d2_quadratic
    assert res.agreement_ok
    assert not res.in_orth_complement
    assert not res.in_subspace
    assert not res.numerical_warning
    assert len(res.beta) == system_b.n
    # beta holds the raw inner products <x, x_i>
    assert res.beta[0] == pytest.approx(1.0)
    assert res.beta[1] == pytest.approx(2.0)
    assert res.gram_condition >= 1.0


def test_complex_distance_known_value():
    # d(x, span{z})^2 = ||x||^2 - |<x,z>|^2 / ||z||^2 for one vector
    z = vector([1.0 + 1j, 1.0 - 1j])
    x = vector([1.0 + 0j, 1j])
    system = VectorSystem([z])
    # <x, z> = 1*(1-1j) + 1j*(1+1j) = (1 - 1j) + (1j - 1) = 0... recompute:
    # conj(z) = (1-1j, 1+1j); x . conj(z) = (1)(1-1j) + (1j)(1+1j) = 1-1j + 1j-1 = 0
    assert sd.inner_product(x, system.vectors[0]) == pytest.approx(0.0)
    assert sd.distance_sq_gram_ratio(system, x) == pytest.approx(sd.norm_sq(x), abs=1e-12)


def test_near_dependent_system_warns_or_flags():
    eps = 1e-5  # keeps the pair independent at working precision, cond ~ 4e10
    system = VectorSystem.from_rows([[1.0, 0.0], [1.0, eps]])
    x = vector([0.3, 0.7])
    res = sd.exact_distance(system, x)
    assert res.gram_condition > 1e6
    # representations may legitimately disagree here, but the result says so
    assert res.agreement_ok or not res.numerical_warning


# -- the point stack a system keeps: one per (system, x) ---------------------------


def _point_results(system, x, intervals, order=1):
    """The repr of every per-instance result of (system, x), or the type of
    what the call raises, the calls made in ``order`` (1 or -1)."""
    calls = [
        lambda: sd.exact_distance(system, x),
        lambda: sd.full_bound_report(system, x, intervals),
        lambda: sd.coefficients(system, x).tolist(),
        lambda: sd.in_orthogonal_complement(system, x),
        lambda: sd.distance_sq_gram_ratio(system, x),
        lambda: sd.distance_sq_quadratic(system, x),
        lambda: sd.distance_sq_projection(system, x),
        lambda: sd.distance_sq_orthonormal(system, x),
        lambda: sd.distance_sq_oracle(system, x),
        lambda: sd.bound_row_sums(system, x),
        lambda: sd.bessel_rhs_offdiag_max(system, x),
        lambda: sd.condition_verdict(system, x, intervals),
        lambda: sd.bound_cond_half_width(system, x, intervals),
        lambda: sd.reverse_bessel_gap(system, x, intervals),
    ]
    results = {}
    for k in range(len(calls))[::order]:
        try:
            results[k] = repr(calls[k]())
        except (sd.SpandistError, ValueError) as exc:
            results[k] = type(exc).__name__
    return [results[k] for k in range(len(calls))]


@pytest.mark.parametrize(
    "config",
    [
        sd.GeneratorConfig(seed=3, trials=8, dim=7, n=5, field=Field.COMPLEX, conditioning=1e2, intervals=True),
        sd.GeneratorConfig(seed=3, trials=8, dim=4, n=3, orthonormal=True, intervals=True),
        sd.GeneratorConfig(seed=3, trials=8, dim=6, n=4, conditioning=1e3, intervals=True, dependent_fraction=0.3),
    ],
)
def test_a_shared_point_stack_gives_a_fresh_systems_bits_in_any_order(config):
    for trial in range(config.trials):
        inst = sd.generate_instance(config, trial)
        forward = _point_results(inst.system, inst.x, inst.intervals)
        backward = sd.generate_instance(config, trial)
        assert _point_results(backward.system, backward.x, backward.intervals, order=-1) == forward
        # each call alone, on a system built afresh for it
        alone = []
        for k in range(len(forward)):
            fresh = sd.generate_instance(config, trial)
            alone.append(_point_results(fresh.system, fresh.x, fresh.intervals)[k])
        assert alone == forward


def test_an_equal_vector_or_another_tolerance_gets_its_own_stack(system_b, x_b):
    p = PointStack.of(system_b, x_b)
    assert PointStack.of(system_b, x_b) is p
    assert PointStack.of(system_b, x_b, sd.ToleranceConfig()) is p  # equal to the system's tolerance
    other = sd.ToleranceConfig(orth_rel_tol=1e-6)
    q = PointStack.of(system_b, x_b, other)
    assert q is not p and q.tol is other
    equal = vector(x_b.coords.tolist())
    r = PointStack.of(system_b, equal)
    assert r is not p and r is not q
    assert r.d2.tolist() == p.d2.tolist() and r.beta.tolist() == p.beta.tolist()
    # only the last stack is kept
    assert PointStack.of(system_b, equal) is r
    assert PointStack.of(system_b, x_b) is not p


def test_the_returned_coefficients_are_the_callers_to_change(system_b, x_b):
    want = sd.exact_distance(VectorSystem.from_rows(system_b.rows), x_b)
    beta = sd.coefficients(system_b, x_b)
    beta[:] = 0.0
    assert sd.exact_distance(system_b, x_b) == want
    assert sd.coefficients(system_b, x_b).tolist() == list(want.beta)


def test_the_quadratic_forms_warning_fires_once_per_system_and_x():
    # x in the span of the rows: with no comparison slack, a quadratic form
    # that rounds below zero warns; the first combination that does is used
    tight = sd.ToleranceConfig(compare_rel_tol=1e-300)
    rows = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    for a, b in [(0.2, 0.9), (0.2, -0.3), (0.3, -0.3), (0.7, -0.3), (0.1, 0.7), (1.1, 0.3)]:
        system = VectorSystem.from_rows(rows, tol=tight)
        x = vector(a * rows[0] + b * rows[1])
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            sd.exact_distance(system, x)
            sd.full_bound_report(system, x)
            sd.distance_sq_quadratic(system, x)
        if record:
            break
    else:
        pytest.fail("no combination rounded below zero")
    assert [w.category for w in record] == [sd.NumericalWarning]
    with pytest.warns(sd.NumericalWarning):  # an equal vector is another x
        sd.distance_sq_quadratic(system, vector(x.coords.tolist()))


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_every_distance_of_the_zero_vector_is_zero(field):
    # x = 0 borders the ratio's unit-diagonal matrix with 0/0, which LAPACK
    # may factor into a NaN pivot rather than fail on: it still reads 0
    system = VectorSystem.from_rows(random_rows(np.random.default_rng(7), 3, 5, field))
    x = sd.Vector(np.zeros(5, dtype=field.dtype), field)
    result = sd.exact_distance(system, x)
    assert result.d2_gram_ratio == result.d2_quadratic == result.d2_projection == 0.0
    assert sd.distance_sq_gram_ratio(system, x) == sd.distance_sq_oracle(system, x) == 0.0


def test_the_ratio_is_zero_where_lapack_cannot_factor_the_bordered_matrix():
    # an independent system whose bordered unit-diagonal Gram matrix LAPACK
    # cannot factor: the ratio reads x as in the span, exactly 0.0, in a
    # stack of one and in its chunk, where it is the only such trial
    config = sd.GeneratorConfig(seed=404, trials=200, dim=8, n=7, conditioning=1e12)
    instance = sd.generate_instance(config, 120)
    system, p = instance.system, PointStack.of(instance.system, instance.x)
    norms = np.sqrt(system.as_stack().aggregates.norms_sq[0])
    bordered = np.eye(system.n + 1)
    bordered[:-1, :-1] = system.gram.entries / np.outer(norms, norms)
    bordered[-1, :-1] = p.beta[0] / (norms * math.sqrt(p.xx[0]))
    bordered[:-1, -1] = bordered[-1, :-1].conj()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(bordered)
    assert system.independent and p.oracle[0] > 1e-5
    assert p.ratio[0] == 0.0 and not math.copysign(1.0, p.ratio[0]) < 0.0
    chunk = generate_chunk(config, range(config.trials), sd.DEFAULT_TOL)
    assert np.flatnonzero(chunk.systems.factor.complete & (chunk.ratio == 0.0)).tolist() == [120]
