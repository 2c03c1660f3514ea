import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spandist as sd
from spandist import Field, conjugate_exponent, inner_product, norm, norm_sq, vector


def test_vector_infers_real_field():
    v = vector([1, 2, 3])
    assert v.field is Field.REAL
    assert v.coords.dtype == np.float64
    assert v.dim == 3


def test_vector_infers_complex_field():
    v = vector([1 + 1j, 0])
    assert v.field is Field.COMPLEX
    assert v.coords.dtype == np.complex128


def test_real_field_rejects_complex_coords():
    with pytest.raises(sd.FieldMismatchError):
        vector([1 + 1j, 0], field=Field.REAL)


def test_complex_field_accepts_real_coords():
    v = vector([1.0, 2.0], field=Field.COMPLEX)
    assert v.field is Field.COMPLEX
    assert v.coords.dtype == np.complex128


@pytest.mark.parametrize("bad", [[np.nan, 0.0], [np.inf, 1.0], [1.0, -np.inf]])
def test_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        vector(bad)


def test_vector_is_immutable():
    v = vector([1.0, 2.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.coords = np.zeros(2)
    with pytest.raises(ValueError):
        v.coords[0] = 5.0


def test_inner_product_conjugates_second_argument():
    # <u, v> = sum u_k conj(v_k): linear in u, conjugate-linear in v
    u = vector([1j, 0])
    v = vector([1, 0], field=Field.COMPLEX)
    assert inner_product(u, v) == 1j
    assert inner_product(v, u) == -1j


def test_inner_product_real_returns_float():
    val = inner_product(vector([1.0, 2.0]), vector([3.0, 4.0]))
    assert isinstance(val, float)
    assert val == 11.0


def test_inner_product_dimension_mismatch():
    with pytest.raises(sd.DimensionMismatchError):
        inner_product(vector([1.0]), vector([1.0, 2.0]))


def test_norm_sq_matches_inner_product():
    v = vector([3 + 4j, 1j])
    assert norm_sq(v) == pytest.approx(26.0)
    assert norm(v) == pytest.approx(np.sqrt(26.0))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
       st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
def test_cauchy_schwarz_for_the_scalar_product(xs, ys):
    m = min(len(xs), len(ys))
    u, v = vector(xs[:m]), vector(ys[:m])
    assert inner_product(u, v) ** 2 <= norm_sq(u) * norm_sq(v) * (1 + 1e-12) + 1e-12


def test_linear_combination():
    vs = [vector([1.0, 0.0]), vector([0.0, 1.0])]
    w = sd.linear_combination([2.0, -3.0], vs)
    assert np.array_equal(w.coords, [2.0, -3.0])


def test_linear_combination_length_mismatch():
    with pytest.raises(ValueError):
        sd.linear_combination([1.0], [vector([1.0]), vector([2.0])])


@pytest.mark.parametrize("p, q", [(2.0, 2.0), (1.5, 3.0), (4.0, 4.0 / 3.0), (1.25, 5.0)])
def test_conjugate_exponent_values(p, q):
    assert conjugate_exponent(p) == pytest.approx(q, rel=1e-15)


@given(st.floats(min_value=1.0 + 1e-6, max_value=50.0))
def test_conjugate_exponent_identity(p):
    q = conjugate_exponent(p)
    assert 1.0 / p + 1.0 / q == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 0.5, 0.0, -2.0])
def test_conjugate_exponent_requires_p_above_one(p):
    with pytest.raises(ValueError):
        conjugate_exponent(p)


@pytest.mark.parametrize("kwargs", [
    {"rank_rel_tol": 0.0},
    {"compare_rel_tol": -1e-9},
    {"orth_rel_tol": 1.0},
])
def test_tolerance_config_validates_open_unit_interval(kwargs):
    with pytest.raises(ValueError):
        sd.ToleranceConfig(**kwargs)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.int8])
def test_a_numpy_scalar_is_compared_with_the_float_range_as_a_float64(dtype):
    # the float range cast to a narrow dtype would overflow, a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sd.space.checked_real("value", dtype(-3)) == -3
        assert sd.GeneratorConfig(conditioning=dtype(10)).conditioning == 10
        assert conjugate_exponent(dtype(3)) == 1.5
        bad = [float("nan"), float("inf"), 10**400, True, np.bool_(True)]
        if dtype != np.int8:  # a tolerance lies strictly between 0 and 1
            assert sd.ToleranceConfig(rank_rel_tol=dtype(1e-3)).rank_rel_tol == dtype(1e-3)
            bad += [dtype("nan"), dtype("inf"), -dtype("inf")]
        for value in bad:
            with pytest.raises(ValueError, match="^value must be a finite real number"):
                sd.space.checked_real("value", value)


def test_a_numpy_scalar_tolerance_or_exponent_is_computed_as_its_python_float():
    # a float32 kept as given would compute in float32: the margin, the
    # verdict, q = 10.999998 and another bound in the last bits
    rel, p = np.float32(1e-8), np.float32(1.1)
    tol = sd.ToleranceConfig(compare_rel_tol=rel)
    assert type(tol.compare_rel_tol) is float and tol == sd.ToleranceConfig(compare_rel_tol=float(rel))
    margin = sd.space.leq_margin(1.0, 1.0, tol.compare_rel_tol)
    assert type(margin) is float and margin == float(rel)
    system = sd.VectorSystem.from_rows([[1.0, 0.5, 0.0], [0.25, 1.0, 2.0], [0.0, -1.0, 0.5]])
    assert type(sd.check_gram_hadamard(system, tol).upper_ok) is bool
    q = conjugate_exponent(p)
    assert type(q) is float and q == float(p) / (float(p) - 1.0) == 10.999997615814777
    kinds = sd.CombinationKind
    methods = [
        sd.CombinationMethod(kinds.HOLDER_GRAM, p=p),
        sd.CombinationMethod(kinds.ROW_SUM, branch="holder", p=p),
        sd.CombinationMethod(
            kinds.DIAG_OFFDIAG, diag_branch="holder", offdiag_branch="holder", diag_exp=p, offdiag_exp=p
        ),
    ]
    for method in methods:
        for name in ("p", "diag_exp", "offdiag_exp"):
            assert getattr(method, name) is None or type(getattr(method, name)) is float
    bound = sd.holder_gram_bound([1.0, -2.0, 0.5], system, p).bound
    assert type(bound) is float and bound == sd.holder_gram_bound([1.0, -2.0, 0.5], system, float(p)).bound


@pytest.mark.parametrize("wide", [np.longdouble, Fraction])
def test_a_long_double_or_fraction_is_kept_as_the_float_nearest_it(wide):
    # kept as given, either reached the campaign JSON, which cannot
    # serialise it, and computed in its own arithmetic
    ten, tiny, p = wide(10), wide(1) / wide(10**8), wide(11) / wide(10)
    tol = sd.ToleranceConfig(compare_rel_tol=tiny)
    assert type(tol.compare_rel_tol) is float and tol == sd.ToleranceConfig(compare_rel_tol=float(tiny))
    config = sd.GeneratorConfig(seed=3, trials=4, dim=5, n=3, intervals=True, conditioning=ten)
    assert type(config.conditioning) is float and config.conditioning == 10.0
    assert type(sd.GeneratorConfig(conditioning=10).conditioning) is int  # an int stays an int
    kinds = sd.CombinationKind
    method = sd.CombinationMethod(
        kinds.DIAG_OFFDIAG, diag_branch="holder", offdiag_branch="holder", diag_exp=p, offdiag_exp=p
    )
    for exp in (sd.CombinationMethod(kinds.HOLDER_GRAM, p=p).p, method.diag_exp, method.offdiag_exp):
        assert type(exp) is float and exp == float(p)
    q = conjugate_exponent(p)
    assert type(q) is float and q == float(p) / (float(p) - 1.0)
    as_float = dataclasses.replace(config, conditioning=10.0)
    float_tol = sd.ToleranceConfig(compare_rel_tol=float(tiny))
    for got, want in [(sd.run_campaign(config), sd.run_campaign(as_float)),
                      (sd.run_campaign(as_float, tol=tol), sd.run_campaign(as_float, tol=float_tol))]:
        assert sd.render_campaign(got, "json") == sd.render_campaign(want, "json")
    big = wide(10) ** 400
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (big, -big):
            with pytest.raises(ValueError, match="^value must be a finite real number"):
                sd.space.checked_real("value", value)


# --- one rule for caller-supplied numbers ----------------------------------------
# Each bad input goes, in place of one number, to each public entry point that
# takes caller numbers; every one must raise a ValueError subclass (never a
# bare OverflowError or TypeError). "wrong length" replaces the whole array.

_BAD = {
    "numeric string": "2.5",
    "None": None,
    "integer beyond the float range": 10**400,
    "nan": float("nan"),
    "inf": float("inf"),
    "complex in a real field": 1 + 1j,
}
_SYS = sd.VectorSystem.from_rows([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
_X = vector([1.0, 1.0, 1.0])
_ROWS = [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]
_E = [vector([1.0, 0.0]), vector([0.0, 1.0])]


def _coeffs(fn):
    """A combination bound of the two-vector real system with coefficients (1, bad)."""
    return lambda bad, short: fn([1.0] if short else [1.0, bad], _SYS)


# name -> (call(bad, short), takes a complex value as valid, has a length)
_ENTRIES = {
    "vector": (lambda bad, short: vector([] if short else [1.0, bad], Field.REAL), False, True),
    "Vector": (lambda bad, short: sd.Vector([] if short else [bad, 0.0]), False, True),
    "from_rows": (lambda bad, short: sd.VectorSystem.from_rows(
        [[1.0, 0.0], [1.0]] if short else [[1.0, bad], [0.0, 1.0]], Field.REAL), False, True),
    "linear_combination": (lambda bad, short: sd.linear_combination([1.0] if short else [1.0, bad], _E), False, True),
    "combination_norm_sq": (_coeffs(sd.combination_norm_sq), False, True),
    "cauchy_schwarz_bound": (_coeffs(sd.cauchy_schwarz_bound), False, True),
    "diag_offdiag_bound": (_coeffs(lambda a, s: sd.diag_offdiag_bound(a, s, "holder", "max_entry", diag_exp=2.0)),
                           False, True),
    "selection_max_bound": (_coeffs(sd.selection_max_bound), False, True),
    "selection_frobenius_bound": (_coeffs(sd.selection_frobenius_bound), False, True),
    "row_sum_bound": (_coeffs(lambda a, s: sd.row_sum_bound(a, s, "max_row")), False, True),
    "holder_gram_bound": (_coeffs(lambda a, s: sd.holder_gram_bound(a, s, 3.0)), False, True),
    "holder_gram_p2_bound": (_coeffs(sd.holder_gram_p2_bound), False, True),
    "lagrange_identity_parts": (_coeffs(sd.lagrange_identity_parts), False, True),
    "IntervalData": (lambda bad, short: sd.condition_verdict(
        _SYS, _X, sd.IntervalData((0.0,) if short else (0.0, bad), (1.0, 1.0))), False, True),
    "orthonormal_rows": (lambda bad, short: sd.orthonormal_rows(
        [[]] if short else [[1.0, bad, 0.0], [0.0, 1.0, 0.0]]), True, True),
    "residual_after_projection": (lambda bad, short: sd.residual_after_projection(
        _ROWS, [1.0, 1.0] if short else [1.0, bad, 1.0]), True, True),
    "distance_sq_by_orthonormalization": (lambda bad, short: sd.distance_sq_by_orthonormalization(
        _ROWS, [1.0, 1.0] if short else [bad, 1.0, 1.0]), True, True),
    "GeneratorConfig.conditioning": (lambda bad, short: sd.GeneratorConfig(conditioning=bad), False, False),
    "GeneratorConfig.dependent_fraction": (lambda bad, short: sd.GeneratorConfig(dependent_fraction=bad), False, False),
    "ToleranceConfig.rank_rel_tol": (lambda bad, short: sd.ToleranceConfig(rank_rel_tol=bad), False, False),
    "ToleranceConfig.orth_rel_tol": (lambda bad, short: sd.ToleranceConfig(orth_rel_tol=bad), False, False),
    "ToleranceConfig.compare_rel_tol": (lambda bad, short: sd.ToleranceConfig(compare_rel_tol=bad), False, False),
    "conjugate_exponent": (lambda bad, short: conjugate_exponent(bad), False, False),
}
_CASES = [
    pytest.param(entry, bad, id=f"{entry}-{bad}")
    for entry, (_, complex_ok, has_length) in _ENTRIES.items()
    for bad in (*_BAD, "wrong length")
    if not (bad == "complex in a real field" and complex_ok) and not (bad == "wrong length" and not has_length)
]


@pytest.mark.parametrize("entry, bad", _CASES)
def test_bad_caller_numbers_raise_value_error(entry, bad):
    call = _ENTRIES[entry][0]
    with pytest.raises(ValueError):
        if bad == "wrong length":
            call(None, True)
        else:
            call(_BAD[bad], False)


@pytest.mark.parametrize("values, field, error, message", [
    ([1.0, None], None, ValueError, "must be numbers"),
    (["1", "2"], None, ValueError, "must be numbers"),
    ([1.0, 10**400], None, ValueError, "must be finite"),
    ([1j, 10**400], Field.COMPLEX, ValueError, "must be finite"),
    ([1.0, float("nan")], Field.COMPLEX, ValueError, "must be finite"),
    ([1.0, 2j], Field.REAL, sd.FieldMismatchError, "have a nonzero imaginary part in a real field"),
])
def test_field_array_names_what_it_checks(values, field, error, message):
    with pytest.raises(error, match=f"^coordinates {message}$"):
        sd.space.field_array(values, field, "coordinates")


@pytest.mark.parametrize("call", [
    lambda: sd.Vector([1.0], "real"),
    lambda: vector([1.0], "real"),
    lambda: sd.VectorSystem.from_rows([[1.0, 0.0]], "real"),
    lambda: sd.space.field_array([1.0], "real", "coordinates"),
])
def test_a_field_that_is_not_a_field_raises_value_error(call):
    with pytest.raises(ValueError, match="^field must be a Field, got 'real'$"):
        call()


_S = sd.VectorSystem.from_rows([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
_V = vector([1.0, 1.0, 1.0])


@pytest.mark.parametrize("call, got", [
    (lambda: sd.exact_distance(_S, np.ones(3)), "ndarray"),
    (lambda: sd.condition_verdict(_S, np.ones(3), sd.IntervalData((0.0, 0.0), (2.0, 2.0))), "ndarray"),
    (lambda: inner_product(np.ones(3), _V), "ndarray"),
    (lambda: sd.VectorSystem([np.ones(3), np.ones(3)]), "ndarray"),
    (lambda: sd.linear_combination([1.0], [np.ones(3)]), "ndarray"),
    (lambda: _S.augmented([1.0, 2.0, 3.0]), "list"),
    (lambda: sd.check_gram_triangle(_V, np.ones(3), _S), "ndarray"),
], ids=["exact_distance", "condition_verdict", "inner_product", "VectorSystem", "linear_combination",
        "augmented", "check_gram_triangle"])
def test_an_array_where_a_vector_is_expected_raises_value_error(call, got):
    with pytest.raises(ValueError, match=f"^expected a Vector, got {got}$") as info:
        call()
    assert info.type is ValueError


def test_field_array_keeps_every_bit_of_valid_input():
    from fractions import Fraction
    big = 2**64 + 1  # an object array: beyond int64 and uint64
    real = sd.space.field_array([1, 2.5, big, Fraction(1, 3), np.float32(0.1)], None, "coordinates")
    assert real.dtype == np.float64 and not real.flags.writeable
    assert real.tolist() == [1.0, 2.5, float(big), 1 / 3, float(np.float32(0.1))]
    assert sd.space.field_array(np.array([1 + 0j, -0.0 + 0j]), None, "c").dtype == np.float64
    cplx = sd.space.field_array([1, 2j], None, "c")
    assert cplx.dtype == np.complex128 and cplx.tolist() == [1 + 0j, 2j]
    assert sd.space.field_array([True, 3], Field.COMPLEX, "c").tolist() == [1 + 0j, 3 + 0j]


def test_vector_coordinates_must_be_one_dimensional():
    with pytest.raises(ValueError, match=r"^vector coordinates must be one-dimensional, got shape \(2, 2\)$"):
        vector([[1.0, 2.0], [3.0, 4.0]])


def test_linear_combination_needs_a_vector():
    with pytest.raises(ValueError, match="^need at least one vector$"):
        sd.linear_combination([], [])


# --- the comparison rule -------------------------------------------------------

INF, NAN = math.inf, math.nan
_LEQ_CASES = [  # (lower, upper, rel, scale, margin); None: NaN, a failure
    (1.0, 1.5, 0.0, None, 0.25),
    (1.5, 1.0, 0.1, None, 0.1 - 0.2),
    (2.0, 1.0, 0.0, 3.0, -0.25),  # an explicit scale, not the default 1 + |lower| = 3
    (NAN, 1.0, 1e-8, None, None),
    (1.0, NAN, 1e-8, None, None),
    (INF, INF, 1e-8, None, None),  # inf <= inf is no verdict
    (-INF, -INF, 1e-8, None, None),
    (INF, INF, 1e-8, 1.0, None),  # whatever the scale
    (1.0, INF, 1e-8, None, INF),  # a finite value below inf holds
    (INF, 1.0, 1e-8, None, None),  # inf below a finite value fails
    (0.0, -0.0, 0.0, None, 0.0),  # a signed zero is no violation
    (-0.0, 0.0, 0.0, None, 0.0),
    (0.0, -1e-9, 1e-8, 100.0, 1e-8 - 1e-9 / 101.0),
]
_NEAR_CASES = [  # (value, expected, rel, margin); None: NaN
    (1.0, 1.5, 1.0, 1.0 - 0.2),
    (NAN, 1.0, 1e-8, None),
    (1.0, NAN, 1e-8, None),
    (INF, INF, 1e-8, None),
    (INF, 1.0, 1e-8, -INF),  # inf is far from a finite value
    (1.0, INF, 1e-8, None),  # and a finite value from inf
    (-0.0, 0.0, 0.0, 0.0),
    (0.0, -0.0, 0.0, 0.0),
]


@pytest.mark.parametrize("lower, upper, rel, scale, expected", _LEQ_CASES)
def test_leq_margin_decides_an_ordering(lower, upper, rel, scale, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        margin = sd.space.leq_margin(lower, upper, rel, scale)
    assert type(margin) is float
    if expected is None:
        assert math.isnan(margin) and not margin >= 0.0
    else:
        assert margin == pytest.approx(expected, rel=1e-15, abs=0.0) and (margin >= 0.0) == (expected >= 0.0)
    scales = None if scale is None else np.array([scale])
    with np.errstate(invalid="ignore"):
        stacked = sd.space.leq_margin(np.array([lower]), np.array([upper]), rel, scales)
    assert stacked.tolist() == pytest.approx([margin], nan_ok=True, rel=0.0, abs=0.0)


@pytest.mark.parametrize("value, expected_value, rel, expected", _NEAR_CASES)
def test_near_margin_decides_an_agreement(value, expected_value, rel, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        margin = sd.space.near_margin(value, expected_value, rel)
    assert type(margin) is float
    if expected is None:
        assert math.isnan(margin) and not margin >= 0.0
    else:
        assert margin == pytest.approx(expected, rel=1e-15, abs=0.0) and (margin >= 0.0) == (expected >= 0.0)
    with np.errstate(invalid="ignore"):
        stacked = sd.space.near_margin(np.array([value]), np.array([expected_value]), rel)
    assert stacked.tolist() == pytest.approx([margin], nan_ok=True, rel=0.0, abs=0.0)


def test_the_margins_are_the_formulas_of_the_docstrings():
    rng = np.random.default_rng(17)
    lower, upper, scale = rng.standard_normal((3, 50)) * 10.0 ** rng.integers(-5, 6, (3, 50))
    rel = 1e-8
    assert np.array_equal(sd.space.leq_margin(lower, upper, rel), (upper - lower) / (1.0 + np.abs(lower)) + rel)
    assert np.array_equal(sd.space.leq_margin(lower, upper, rel, scale), (upper - lower) / (1.0 + np.abs(scale)) + rel)
    assert np.array_equal(sd.space.near_margin(upper, lower, rel), rel - np.abs(upper - lower) / (1.0 + np.abs(lower)))
    assert [sd.space.leq_margin(a, b, rel) for a, b in zip(lower.tolist(), upper.tolist())] == \
        sd.space.leq_margin(lower, upper, rel).tolist()
