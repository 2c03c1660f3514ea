"""Norm-of-combination identities and their bound family.

The running hand example: z1 = (1,0), z2 = (1,1), alpha = (1,1), so
sum alpha_i z_i = (2,1) and ||sum||^2 = 5 with Gram [[1,1],[1,2]].
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spandist as sd
from spandist import CombinationKind, CombinationMethod, Field, VectorSystem

from conftest import random_rows


@pytest.fixture
def pair():
    return VectorSystem.from_rows([[1.0, 0.0], [1.0, 1.0]])


ALPHAS = [1.0, 1.0]


def test_lagrange_identity_hand_example(pair):
    parts = sd.lagrange_identity_parts(ALPHAS, pair)
    assert parts.coeff_sum == pytest.approx(2.0)
    assert parts.norm_sum == pytest.approx(3.0)
    assert parts.combo_norm_sq == pytest.approx(5.0)
    # (sum a^2)(sum ||z||^2) - ||sum a z||^2 = half the pairwise spread
    assert parts.pair_sum == pytest.approx(1.0, abs=1e-14)
    assert parts.residual <= 1e-12 * (1.0 + parts.magnitude)


def test_lagrange_identity_single_vector_has_no_spread():
    system = VectorSystem.from_rows([[2.0, 1.0]])
    parts = sd.lagrange_identity_parts([3.0], system)
    assert parts.pair_sum == 0.0
    assert parts.combo_norm_sq == pytest.approx(parts.coeff_sum * parts.norm_sum)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("seed", range(5))
def test_lagrange_identity_random(field, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    zs = VectorSystem.from_rows(random_rows(rng, n, 6, field))
    alphas = random_rows(rng, 1, n, field)[0]
    assert sd.lagrange_identity_residual(alphas, zs) <= 1e-12


@settings(max_examples=40)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=4),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_lagrange_identity_hypothesis(alphas, seed):
    rng = np.random.default_rng(seed)
    zs = VectorSystem.from_rows(rng.standard_normal((len(alphas), 5)))
    parts = sd.lagrange_identity_parts(alphas, zs)
    # absolute defect scales with the size of the two sides
    assert parts.residual <= 1e-12 * (1.0 + parts.coeff_sum * parts.norm_sum)


def test_cauchy_schwarz_hand_example(pair):
    res = sd.cauchy_schwarz_bound(ALPHAS, pair)
    assert res.lhs == pytest.approx(5.0)
    assert res.bound == pytest.approx(6.0)  # (1+1) * (1+2)
    assert res.holds


def test_cauchy_schwarz_equality_for_single_vector():
    system = VectorSystem.from_rows([[3.0, 4.0]])
    res = sd.cauchy_schwarz_bound([2.0], system)
    assert res.lhs == pytest.approx(res.bound, rel=1e-14)


DIAG = ("max_coeff", "holder", "max_norm")
OFFDIAG = ("max_coeff", "holder", "max_entry")


def test_diag_offdiag_hand_example(pair):
    # max_coeff/max_coeff: 1 * (1+2) + 1 * (|G12|+|G21|) = 5 — equality here
    res = sd.diag_offdiag_bound(ALPHAS, pair, "max_coeff", "max_coeff")
    assert res.bound == pytest.approx(5.0)
    assert res.holds
    # max_norm/max_entry is the selection shape: 2*2 + (4-2)*1 = 6
    res = sd.diag_offdiag_bound(ALPHAS, pair, "max_norm", "max_entry")
    assert res.bound == pytest.approx(6.0)


@pytest.mark.parametrize("diag", DIAG)
@pytest.mark.parametrize("offdiag", OFFDIAG)
@pytest.mark.parametrize("exp", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_diag_offdiag_all_branches_hold(diag, offdiag, exp, field):
    rng = np.random.default_rng(17)
    zs = VectorSystem.from_rows(random_rows(rng, 4, 5, field))
    alphas = random_rows(rng, 1, 4, field)[0]
    res = sd.diag_offdiag_bound(
        alphas, zs, diag, offdiag,
        diag_exp=exp if diag == "holder" else None,
        offdiag_exp=exp if offdiag == "holder" else None,
    )
    assert res.holds, f"{diag}/{offdiag} exp={exp}: lhs={res.lhs} bound={res.bound}"


def test_diag_offdiag_validates_exponents(pair):
    with pytest.raises(ValueError):
        sd.diag_offdiag_bound(ALPHAS, pair, "holder", "max_entry")  # missing diag_exp
    with pytest.raises(ValueError):
        sd.diag_offdiag_bound(ALPHAS, pair, "max_norm", "max_entry", diag_exp=2.0)


def test_selection_max_hand_example(pair):
    res = sd.selection_max_bound(ALPHAS, pair)
    assert res.chain == pytest.approx((6.0, 6.0))
    assert res.holds and res.chain_ok


def test_selection_frobenius_hand_example(pair):
    res = sd.selection_frobenius_bound(ALPHAS, pair)
    assert res.chain[0] == pytest.approx(6.0)
    assert res.chain[1] == pytest.approx(2.0 * (2.0 + np.sqrt(2.0)))
    assert res.holds and res.chain_ok


def test_row_sum_base_is_exact_for_positive_data(pair):
    # all inner products and coefficients positive: the base bound is an identity
    res = sd.row_sum_bound(ALPHAS, pair, "max_row")
    assert res.chain[0] == pytest.approx(res.lhs, rel=1e-14)
    assert res.chain[1] == pytest.approx(6.0)  # sum|a|^2 * max row sum = 2 * 3


@pytest.mark.parametrize("branch, p", [("max_coeff", None), ("holder", 1.5),
                                       ("holder", 2.0), ("holder", 3.0), ("max_row", None)])
@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_row_sum_branches_hold(branch, p, field):
    rng = np.random.default_rng(29)
    zs = VectorSystem.from_rows(random_rows(rng, 5, 6, field))
    alphas = random_rows(rng, 1, 5, field)[0]
    res = sd.row_sum_bound(alphas, zs, branch, p=p)
    assert res.holds and res.chain_ok


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 4.0, 10.0])
@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_holder_gram_bound_holds(p, field):
    rng = np.random.default_rng(31)
    zs = VectorSystem.from_rows(random_rows(rng, 4, 6, field))
    alphas = random_rows(rng, 1, 4, field)[0]
    res = sd.holder_gram_bound(alphas, zs, p)
    assert res.holds, f"p={p}: lhs={res.lhs} bound={res.bound}"


def test_holder_gram_hand_example_at_p2(pair):
    # sum|a|^2 * sqrt(sum of squared Gram entries) = 2 * sqrt(7)
    res = sd.holder_gram_p2_bound(ALPHAS, pair)
    assert res.bound == pytest.approx(2.0 * np.sqrt(7.0), rel=1e-14)
    assert res.holds
    general = sd.holder_gram_bound(ALPHAS, pair, 2.0)
    assert general.bound == pytest.approx(res.bound, rel=1e-14)


def test_evaluate_combination_dispatch(pair):
    method = CombinationMethod(kind=CombinationKind.SELECTION_MAX)
    res = sd.evaluate_combination(ALPHAS, pair, method)
    direct = sd.selection_max_bound(ALPHAS, pair)
    assert res.chain == direct.chain
    assert res.method.label == direct.method.label


@pytest.mark.parametrize("method", ["cauchy_schwarz", None, CombinationKind.CAUCHY_SCHWARZ])
def test_evaluate_combination_takes_only_a_combination_method(pair, method):
    with pytest.raises(ValueError, match=f"^method must be a CombinationMethod, got {re.escape(repr(method))}$"):
        sd.evaluate_combination(ALPHAS, pair, method)


@pytest.mark.parametrize("kind, branch", [("row_sum", "bogus"), ("row_sum", "max_row"), (None, None), (4, None)])
def test_a_method_kind_must_be_a_combination_kind(kind, branch):
    with pytest.raises(ValueError, match=f"^kind must be a CombinationKind, got {kind!r}$"):
        CombinationMethod(kind=kind, branch=branch)


def test_combination_rejects_length_mismatch(pair):
    with pytest.raises(ValueError):
        sd.cauchy_schwarz_bound([1.0], pair)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_the_coefficient_square_sum_is_one_array(field):
    # Cauchy-Schwarz and Lagrange read coeff_norm_sq, every other bound power_sum(2)
    rng = np.random.default_rng(3)
    zs = VectorSystem.from_rows(random_rows(rng, 5, 7, field))
    stack = sd.CombinationStack.of(random_rows(rng, 1, 5, field)[0], zs)
    assert stack.power_sum(2) is stack.power_sum(2.0) is stack.coeff_norm_sq is stack.lagrange.coeff_sum
    cauchy_schwarz = stack.chain(CombinationMethod(kind=CombinationKind.CAUCHY_SCHWARZ))[0]
    holder_p2 = stack.chain(CombinationMethod(kind=CombinationKind.HOLDER_GRAM_P2, p=2.0))[0]
    assert cauchy_schwarz.tobytes() == (stack.coeff_norm_sq * zs.as_stack().aggregates.norm_sum).tobytes()
    assert holder_p2.tobytes() == (stack.coeff_norm_sq * zs.as_stack().aggregates.frobenius).tobytes()


def test_zero_coefficients_are_fine(pair):
    res = sd.selection_frobenius_bound([0.0, 0.0], pair)
    assert res.lhs == 0.0
    assert res.bound == 0.0
    assert res.holds


def test_an_infinite_lhs_fails_in_the_library_and_in_the_campaign_margin():
    # the Gram matrix and the lhs overflow: inf <= inf once counted as holding
    with np.errstate(over="ignore", invalid="ignore"):
        zs = VectorSystem.from_rows([[1e200, 0.0], [0.0, 1e200]])
        res = sd.cauchy_schwarz_bound([1e200, 1e200], zs)
        stack = sd.CombinationStack.of([1e200, 1e200], zs)
        (bound,) = stack.chain(res.method)
        margin = sd.combination.bound_margin(bound, stack.lhs, sd.DEFAULT_TOL.compare_rel_tol)
    assert res.lhs == res.bound == np.inf
    assert not res.holds and res.chain_ok
    assert np.isnan(margin[0])


def test_the_bound_margin_decides_holds_and_chain_ok(pair):
    rng = np.random.default_rng(3)
    margin_of, rel = sd.combination.bound_margin, sd.DEFAULT_TOL.compare_rel_tol
    for _, method in sd.checks.COMBINATION_SWEEP:
        res = sd.evaluate_combination(rng.standard_normal(pair.n), pair, method)
        assert res.holds == (margin_of(res.bound, res.lhs, rel) >= 0.0)
        assert res.chain_ok == (len(res.chain) == 1 or margin_of(res.chain[1], res.bound, rel) >= 0.0)
    with np.errstate(invalid="ignore"):
        margin = margin_of(np.array([1.0, 1.0, 2.0, np.inf]), np.array([1.0, 1.5, np.inf, 2.0]), 0.0)
    assert margin.tolist()[:2] == [0.0, -0.2] and np.isnan(margin[2]) and margin[3] == np.inf


_KIND = CombinationKind
_BAD_METHODS = [
    (dict(kind=_KIND.DIAG_OFFDIAG, diag_branch="bogus", offdiag_branch="max_coeff"),
     f"diag_branch must be one of {sd.combination.DIAG_BRANCHES}, got 'bogus'"),
    (dict(kind=_KIND.DIAG_OFFDIAG, diag_branch="max_coeff", offdiag_branch="max_row"),
     f"offdiag_branch must be one of {sd.combination.OFFDIAG_BRANCHES}, got 'max_row'"),
    (dict(kind=_KIND.DIAG_OFFDIAG, diag_branch="max_coeff", offdiag_branch="max_coeff", diag_exp=2.0),
     "diag_exp is required exactly when diag_branch='holder'"),
    (dict(kind=_KIND.DIAG_OFFDIAG, diag_branch="max_coeff", offdiag_branch="holder"),
     "offdiag_exp is required exactly when offdiag_branch='holder'"),
    (dict(kind=_KIND.ROW_SUM, branch="max_norm"),
     f"branch must be one of {sd.combination.ROW_SUM_BRANCHES}, got 'max_norm'"),
    (dict(kind=_KIND.ROW_SUM, branch="holder"), "p is required exactly when branch='holder'"),
    (dict(kind=_KIND.ROW_SUM, branch="max_row", p=2.0), "p is required exactly when branch='holder'"),
    (dict(kind=_KIND.HOLDER_GRAM), "holder_gram methods require the exponent p"),
    (dict(kind=_KIND.HOLDER_GRAM_P2), "holder_gram methods require the exponent p"),
    (dict(kind=_KIND.HOLDER_GRAM_P2, p=3.0), "the p=2 specialisation fixes p at 2"),
    # a field the kind never reads
    (dict(kind=_KIND.CAUCHY_SCHWARZ, p=3.0), "cauchy_schwarz takes no p, got 3.0"),
    (dict(kind=_KIND.SELECTION_MAX, diag_exp=5.0), "selection_max takes no diag_exp, got 5.0"),
    (dict(kind=_KIND.SELECTION_FROBENIUS, offdiag_branch="holder", offdiag_exp=2.0),
     "selection_frobenius takes no offdiag_branch, got 'holder'"),
    (dict(kind=_KIND.DIAG_OFFDIAG, diag_branch="max_coeff", offdiag_branch="max_coeff", branch="max_row", p=7.0),
     "diag_offdiag takes no branch, got 'max_row'"),
    (dict(kind=_KIND.ROW_SUM, branch="holder", p=2.0, diag_exp=2.0), "row_sum takes no diag_exp, got 2.0"),
    (dict(kind=_KIND.HOLDER_GRAM, p=2.0, branch="holder"), "holder_gram takes no branch, got 'holder'"),
    (dict(kind=_KIND.HOLDER_GRAM_P2, p=2.0, offdiag_exp=2.0), "holder_gram_p2 takes no offdiag_exp, got 2.0"),
]


@pytest.mark.parametrize("fields, message", _BAD_METHODS)
def test_a_method_names_what_is_wrong_with_it(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CombinationMethod(**fields)


@pytest.mark.parametrize("method, label", [
    (CombinationMethod(kind=_KIND.CAUCHY_SCHWARZ), "[cauchy_schwarz]"),
    (CombinationMethod(kind=_KIND.DIAG_OFFDIAG, diag_branch="holder", offdiag_branch="max_entry", diag_exp=1.5),
     "[diag_offdiag, diag=holder(1.5), offdiag=max_entry]"),
    (CombinationMethod(kind=_KIND.DIAG_OFFDIAG, diag_branch="max_norm", offdiag_branch="holder", offdiag_exp=3.0),
     "[diag_offdiag, diag=max_norm, offdiag=holder(3)]"),
    (CombinationMethod(kind=_KIND.ROW_SUM, branch="holder", p=2.0), "[row_sum, branch=holder, p=2]"),
    (CombinationMethod(kind=_KIND.ROW_SUM, branch="max_row"), "[row_sum, branch=max_row]"),
    (CombinationMethod(kind=_KIND.HOLDER_GRAM, p=1.25), "[holder_gram, p=1.25]"),
    (CombinationMethod(kind=_KIND.HOLDER_GRAM_P2, p=2.0), "[holder_gram_p2]"),
])
def test_a_method_label_names_its_choices(method, label):
    assert method.label == label
