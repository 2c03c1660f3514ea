"""Each array kernel against the loop it replaced, or against a reference.

* ``factor_stack`` on a stack of one (LAPACK Cholesky with a rank
  certificate) must reach the same rank decision, completeness and exception
  as ``pivoted_cholesky`` on the equilibrated matrix, and the same
  determinant up to rounding (scaled back) where the matrix is not too
  ill-conditioned.
* The stacked pivoted fallback must give each matrix of a stack the bits of
  the one-matrix loop it replaced, and raise as that loop does.
* The Householder QR oracle must leave the residual of a least-squares
  solve, and its squared distance must lie within its backward-error bound
  of the exact rational Gram determinant ratio.
* The one-pass chain prefixes must give the factors of a per-position loop.
* The Lagrange pair sum, one row at a time, must give the dense
  (n, n, dim) formula.
* The QR oracle and the pair sum give each system the same bits in any
  stack, and the pair sum under one BLAS thread or two.
"""

import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import spandist as sd
from spandist import Field, GeneratorConfig
from spandist import combination as sd_comb
from spandist import gram as sd_gram
from spandist import orthonormalize as sd_orth
from spandist.checks import applicable_checks, run_checks
from spandist.distance import PointStack, quadratic_stack
from spandist.errors import NumericalInstabilityError

from conftest import random_rows

TOL = sd.DEFAULT_TOL.rank_rel_tol
CONDITIONS = (1.0, 1e2, 1e4, 1e6, 1e8, 1e10, 1e12, 1e14, 1e16)
DET_REL = 1e-10


def _conditioned_rows(rng, n, field, kappa):
    """n rows whose Gram matrix has condition kappa before the rows are
    rescaled by factors in [e^-3, e^3]."""
    dim = n + 2
    left = np.linalg.qr(random_rows(rng, n, n, field))[0]
    right = np.linalg.qr(random_rows(rng, dim, n, field))[0]
    singular = np.geomspace(1.0, 1.0 / math.sqrt(kappa), n)
    rows = (left * singular) @ right.conj().T
    return rows * np.exp(rng.uniform(-3.0, 3.0, n))[:, np.newaxis]


def _gram(rows):
    g = rows @ rows.conj().T
    return (g + g.conj().T) / 2.0


def _one(matrix):
    """factor_stack on a stack of one."""
    return sd_gram.factor_stack(np.asarray(matrix)[np.newaxis], TOL)


def _stacked(matrix):
    f = _one(matrix)
    return (int(f.rank[0]), bool(f.complete[0])), float(f.det[0])


def _reference(matrix):
    chol = sd_gram.pivoted_cholesky(matrix, TOL)
    return (chol.rank, chol.complete), chol.determinant()


def _decision(factor, matrix):
    """What a caller can observe of a factorisation, (rank, complete) and the
    determinant, or the exception type."""
    try:
        return factor(matrix)
    except (NumericalInstabilityError, ValueError) as exc:
        return type(exc), None


def _equilibrated(matrix):
    """E = S^-1 G S^-1 and S, with S[i] = 2^(e // 2) for G[i, i] = f 2^e,
    f in [1/2, 1), or 1 where G[i, i] is not positive and finite."""
    g = np.asarray(matrix)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        return g, np.ones(0)
    s = np.array([2.0 ** (math.frexp(v)[1] // 2) if 0.0 < v < math.inf else 1.0 for v in g.diagonal().real])
    return g / s[:, np.newaxis] / s[np.newaxis, :], s


def _assert_same_decision(matrix, det_rel=None):
    e, s = _equilibrated(matrix)
    fast, fast_det = _decision(_stacked, matrix)
    ref, ref_det = _decision(_reference, e)
    assert fast == ref
    if det_rel is not None and ref_det is not None:
        assert fast_det == pytest.approx(ref_det * np.prod(s**2), rel=det_rel, abs=0.0)


# -- factor_stack against pivoted_cholesky on the equilibrated matrix ----------------


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("kappa", CONDITIONS)
def test_factor_stack_decides_like_pivoted_cholesky(field, kappa):
    rng = np.random.default_rng([20261018, int(math.log10(kappa)), field is Field.COMPLEX])
    for n in range(1, 13):
        for _ in range(3):
            g = _gram(_conditioned_rows(rng, n, field, kappa))
            # determinants are compared where the condition of the matrix
            # actually factored (row scaling included) is at most 1e6
            _assert_same_decision(g, DET_REL if np.linalg.cond(g) <= 1e6 else None)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_factor_stack_on_dependent_and_degenerate_rows(field):
    rng = np.random.default_rng(77)
    for n in range(2, 13):
        rows = random_rows(rng, n, n + 3, field)
        rows[-1] = 0.5 * rows[0] - 1.5 * rows[(n - 1) // 2]
        _assert_same_decision(_gram(rows))
        assert _one(_gram(rows)).rank[0] < n
        rows = random_rows(rng, n, n + 3, field)
        rows[-1] = 0.0
        _assert_same_decision(_gram(rows))
        assert not _one(_gram(rows)).complete[0]
    # more vectors than dimensions
    _assert_same_decision(_gram(random_rows(rng, 6, 4, field)))


def test_factor_stack_raises_like_pivoted_cholesky():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert _decision(_stacked, indefinite)[0] is NumericalInstabilityError
    _assert_same_decision(indefinite)
    _assert_same_decision(np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert _decision(_stacked, np.ones((2, 3)))[0] is ValueError
    _assert_same_decision(np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(\)$"):
        sd_gram.pivoted_cholesky(5.0)


def test_factor_stack_on_an_overflowing_gram():
    rows = np.array([[1e200, 0.0, 0.0], [0.0, 1e200, 1e199]])
    with np.errstate(over="ignore"):
        g = _gram(rows)
    assert np.isinf(g).any()
    # the decision of factor_stack's fallback pass on E; the public
    # factorization takes no inf entry
    e, _ = _equilibrated(g)
    rank = int(sd_gram._pivoted(e[np.newaxis].copy(), TOL)[3][0])
    assert _stacked(g)[0] == (rank, rank == 2)
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        sd_gram.pivoted_cholesky(e)


@pytest.mark.parametrize("matrix, message", [
    ([["1"]], "must be numbers"),
    ([[None]], "must be numbers"),
    ([[4.0, 2.0], [2.0, "3"]], "must be numbers"),
    ([[10**400]], "must be finite"),
    # a list of Python floats is a float array, checked like any other
    ([[np.nan, 0.0], [0.0, 1.0]], "must be finite"),
    ([[np.inf, 0.0], [0.0, 1.0]], "must be finite"),
    ([[1.0, 0.0], [0.0, -np.inf]], "must be finite"),
])
def test_a_matrix_of_non_numbers_raises_value_error(matrix, message):
    with pytest.raises(ValueError, match=f"^matrix entries {message}$"):
        sd_gram.pivoted_cholesky(matrix)


def test_a_complex_matrix_stays_complex():
    real_valued = np.array([[4.0, 2.0], [2.0, 3.0]])
    got = sd_gram.pivoted_cholesky(real_valued.astype(np.complex128))
    want = sd_gram.pivoted_cholesky(real_valued)
    assert got.lower.dtype == np.complex128 and want.lower.dtype == np.float64
    assert np.array_equal(got.lower.real, want.lower) and got.rank == want.rank == 2


def test_an_integer_matrix_factors_as_its_float_copy():
    ints = [[4, 2], [2, 3]]
    got, want = sd_gram.pivoted_cholesky(ints), sd_gram.pivoted_cholesky(np.array(ints, dtype=np.float64))
    assert np.array_equal(got.lower, want.lower) and got.rank == want.rank == 2
    assert sd_gram.pivoted_cholesky([[True]]).rank == 1


def test_factor_stack_fast_result_has_the_contract():
    rng = np.random.default_rng(3)
    g = _gram(random_rows(rng, 5, 7, Field.COMPLEX))
    chol = _one(g)
    assert chol.complete[0] and chol.rank[0] == 5
    assert np.array_equal(chol.perm[0], np.arange(5))
    inv = chol.inverse[0]  # perm is the identity: L^-1 G L^-H = I
    assert np.allclose(inv @ g @ inv.conj().T, np.eye(5), rtol=0.0, atol=1e-12)
    assert np.allclose(chol.pivots[0], 1.0 / np.abs(inv.diagonal()) ** 2, rtol=1e-12, atol=0.0)
    for a in (chol.pivots, chol.perm, chol.inverse, chol.condition):
        assert not a.flags.writeable


# -- the certificate and how often it falls back --------------------------------------


def _count_fallbacks(monkeypatch):
    """A list that gains one entry per matrix entering the stacked pivoted fallback."""
    calls = []
    original = sd_gram._pivoted

    def counted(a, *args, **kwargs):
        calls.extend([1] * a.shape[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(sd_gram, "_pivoted", counted)
    return calls


def test_certificate_boundary(monkeypatch):
    # diag(1, t) equilibrates to diag(1, t / s^2) with t / s^2 in [1/2, 2):
    # however small t is, the matrix is complete with no fallback
    calls = _count_fallbacks(monkeypatch)
    for t in (3.99 * TOL, 4.01 * TOL, 1e-3, 1.0):
        assert _one(np.diag([1.0, t])).complete[0]
    assert not calls
    # through off-diagonal mass: tr(E^-1) = 2 / (1 - c^2), so 1 - c^2 against 8 * TOL
    c = math.sqrt(1.0 - 8.0 * TOL * 0.99)
    just_under = _one(np.array([[1.0, c], [c, 1.0]]))
    assert len(calls) == 1
    # the certificate is conservative: the reference still finds full rank
    assert just_under.complete[0]
    _one(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert len(calls) == 1


def test_the_rank_decision_does_not_depend_on_row_scaling(monkeypatch):
    # scaling row i by d_i scales G to D G D; the decision is made on the
    # equilibrated matrix, so rows with norms 1e8 and 1e-8 keep full rank
    calls = _count_fallbacks(monkeypatch)
    g = np.array([[1.0, 0.5], [0.5, 1.0]])
    scaled = [np.diag(d) @ g @ np.diag(d) for d in ([math.exp(3.0), math.exp(-3.0)], [1e8, 1e-8], [1e150, 1e-150])]
    assert all(_one(m).rank[0] == 2 for m in scaled)
    assert not calls
    for m in scaled:
        _assert_same_decision(m)
    # powers of two scale the pivots exactly, fallback or not
    for base in (g, np.array([[1.0, 1.0], [1.0, 1.0]])):
        ref = _one(base)
        for k in ([60, -60], [-3, 200], [0, 1]):
            got = _one(np.diag(np.exp2(k)) @ base @ np.diag(np.exp2(k)))
            assert got.rank[0] == ref.rank[0] and np.array_equal(got.perm, ref.perm)
            assert np.array_equal(got.pivots[0], np.exp2(2 * np.array(k))[ref.perm[0]] * ref.pivots[0])
            assert np.array_equal(got.condition, ref.condition)


_WELL_CONDITIONED = GeneratorConfig(
    seed=5, trials=4, dim=7, n=5, field=Field.COMPLEX, conditioning=1e2, intervals=True
)
_DEPENDENT = GeneratorConfig(seed=5, trials=8, dim=6, n=4, field=Field.REAL, dependent_fraction=1.0)


def test_no_fallback_on_a_well_conditioned_trial(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    instance = sd.generate_instance(_WELL_CONDITIONED, 0)
    outcomes = run_checks(instance, applicable_checks(_WELL_CONDITIONED), sd.DEFAULT_TOL)
    assert outcomes and all(o.ok for o in outcomes)
    assert not calls


def test_a_dependent_trial_falls_back(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    instance = sd.generate_instance(_DEPENDENT, 0)
    assert not instance.system.independent
    assert len(calls) == 1
    outcomes = run_checks(instance, applicable_checks(_DEPENDENT), sd.DEFAULT_TOL)
    assert outcomes and all(o.ok for o in outcomes)
    assert len(calls) >= 1


# -- the stacked fallback against the per-matrix loop it replaced -------------------


def _loop_reference(matrix, rank_rel_tol=TOL):
    """The one-matrix pivoted Cholesky loop that the stacked pass replaced,
    kept here as the reference: lower, perm, pivots and rank."""
    a = np.array(matrix, dtype=np.complex128 if np.iscomplexobj(matrix) else np.float64)
    n = a.shape[0]
    perm = np.arange(n)
    pivots = np.zeros(n)
    rank = n
    scale = float(np.max(np.abs(a.diagonal().real))) if n else 0.0
    for k in range(n):
        diag = a.diagonal().real
        j = k + int(np.argmax(diag[k:]))
        piv = float(diag[j])
        if k > 0:
            scale = pivots[0]
        if piv < -rank_rel_tol * scale:
            raise NumericalInstabilityError(
                f"pivot {piv:.3e} at step {k} is negative beyond tolerance; "
                "input is not positive semidefinite"
            )
        if piv <= rank_rel_tol * scale or piv <= 0.0:
            rank = k
            a[k:, k:] = 0.0
            break
        if j != k:
            a[[k, j], :] = a[[j, k], :]
            a[:, [k, j]] = a[:, [j, k]]
            perm[[k, j]] = perm[[j, k]]
        pivots[k] = piv
        root = math.sqrt(piv)
        a[k, k] = root
        a[k + 1 :, k] /= root
        col = a[k + 1 :, k]
        a[k + 1 :, k + 1 :] -= np.outer(col, col.conj())
        a[k, k + 1 :] = 0.0
    return np.tril(a), perm, pivots, rank


def _mixed_stack(rng, m, field):
    """Full-rank, rank-deficient, tied, scaled and zero Hermitian PSD matrices of size m."""
    mats = [_gram(random_rows(rng, m, m + 2, field)) for _ in range(3)]
    for r in range(m):  # every lower rank, the last row a combination of the first
        rows = random_rows(rng, m, m + 2, field)
        rows[r:] = random_rows(rng, 1, r, field) @ rows[:r] if r else 0.0
        mats.append(_gram(rows))
    ties = np.eye(m) * 2.0 + (0.5 if m > 1 else 0.0)  # every diagonal entry ties with every other
    mats += [ties, np.eye(m), np.zeros((m, m))]
    d = np.exp2(rng.integers(-60, 60, m))
    mats.append(_gram(_conditioned_rows(rng, m, field, 1e8)) * d[:, np.newaxis] * d[np.newaxis, :])
    return np.stack(mats).astype(np.complex128 if field is Field.COMPLEX else np.float64)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("m", range(1, 9))
def test_the_stacked_fallback_gives_each_matrix_the_loops_bits(field, m):
    rng = np.random.default_rng([m, field is Field.COMPLEX])
    stack = _mixed_stack(rng, m, field)
    lower, perm, pivots, rank = sd_gram._pivoted(stack.copy(), TOL)
    ranks = []
    for k, matrix in enumerate(stack):
        ref_lower, ref_perm, ref_pivots, ref_rank = _loop_reference(matrix)
        for got_lower, got_perm, got_pivots, got_rank in ((lower[k], perm[k], pivots[k], rank[k]), _one_matrix(matrix)):
            assert _bits(got_lower) == _bits(ref_lower)  # the sign of zero too
            assert got_perm.tolist() == ref_perm.tolist()
            assert _bits(got_pivots) == _bits(ref_pivots)
            assert got_rank == ref_rank
        ranks.append(ref_rank)
    assert set(ranks) == set(range(m + 1))  # the stack holds every rank


def _one_matrix(matrix):
    """pivoted_cholesky's lower, perm, pivots and rank."""
    chol = sd_gram.pivoted_cholesky(matrix, TOL)
    return chol.lower, chol.perm, chol.pivots, chol.rank


def _outcome(fn, matrix):
    try:
        return fn(matrix)
    except NumericalInstabilityError as exc:
        return str(exc)


def _indefinite(m, step, value):
    """Diagonal, with ones up to ``step`` and then ``value`` < 0: the pivot at
    ``step`` is ``value``."""
    return np.diag(np.r_[np.ones(step), np.full(m - step, value)])


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("bad", [(0,), (3,), (6,), (1, 4), (2, 5)])
def test_a_stack_raises_for_its_first_non_psd_matrix(field, bad):
    rng = np.random.default_rng(len(bad))
    m = 5
    stack = _mixed_stack(rng, m, field)[:7].copy()
    for pos, index in enumerate(bad):  # a later matrix turns negative at an earlier step
        stack[index] = _indefinite(m, m - 1 - pos, -1.0 - index)
    want = next(o for o in (_outcome(_loop_reference, g) for g in stack) if isinstance(o, str))
    assert want.startswith(f"pivot {-1.0 - bad[0]:.3e} at step {m - 1} ")
    with pytest.raises(NumericalInstabilityError) as raised:
        sd_gram._pivoted(stack.copy(), TOL)
    assert str(raised.value) == want
    with pytest.raises(NumericalInstabilityError) as raised:
        sd_gram.factor_stack(stack, TOL)
    assert str(raised.value) == want


def _same_values(got, want):
    """Equal entries, the sign of zero included, NaN where the other has NaN."""
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    for part in ((lambda a: a.real), (lambda a: a.imag)) if np.iscomplexobj(want) else ((lambda a: a),):
        g, w = part(got), part(want)
        nan = np.isnan(w)
        assert np.array_equal(np.isnan(g), nan)
        assert np.array_equal(g[~nan], w[~nan]) and np.array_equal(np.signbit(g[~nan]), np.signbit(w[~nan]))


_NON_FINITE = [
    [[np.nan]],
    [[np.inf]],
    [[1.0, np.nan], [np.nan, 1.0]],
    [[1.0, np.inf], [np.inf, 1.0]],
    [[1.0, 0.5], [0.5, np.nan]],
    [[np.inf, 0.5], [0.5, 1.0]],
    [[2.0, 1.0, -np.inf], [1.0, 2.0, 0.5], [-np.inf, 0.5, 3.0]],
    [[4.0, np.nan, 1.0], [np.nan, 1.0, 0.0], [1.0, 0.0, 2.0]],
]


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("matrix", _NON_FINITE, ids=range(len(_NON_FINITE)))
def test_the_stacked_fallback_on_inf_and_nan_entries(field, matrix):
    # as the loop: the same rank, perm or message, NaN in the same places
    # and the same other entries (a NaN's sign bit is not compared); the
    # public factorization raises instead
    g = np.array(matrix, dtype=np.complex128 if field is Field.COMPLEX else np.float64)
    m = g.shape[0]
    rng = np.random.default_rng(m)
    stack = np.concatenate([_mixed_stack(rng, m, field)[:2], g[np.newaxis], _mixed_stack(rng, m, field)[:2]])
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        sd_gram.pivoted_cholesky(g, TOL)
    with np.errstate(all="ignore"):
        want = _outcome(_loop_reference, g)
        got = _outcome(lambda a: [v[2] for v in sd_gram._pivoted(a.copy(), TOL)], stack)
    if isinstance(want, str):
        assert got == want
        return
    for got_part, want_part in zip(got, want):
        _same_values(got_part, want_part)


# -- a system's factor against the pivoted reference ---------------------------------


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_a_system_on_the_fast_path_has_the_reference_determinant(field):
    rng = np.random.default_rng(11)
    rows = _conditioned_rows(rng, 6, field, 1e4)
    system = sd.VectorSystem.from_rows(rows, field)
    assert np.array_equal(system.as_stack().factor.perm[0], np.arange(6))  # the fast path
    ref = sd_gram.pivoted_cholesky(system.gram.entries, TOL)
    assert ref.complete is system.independent is True
    assert ref.determinant() == pytest.approx(sd.gram_determinant(system), rel=1e-10)


def test_a_dependent_system_has_the_reference_rank_and_a_zero_determinant():
    system = sd.VectorSystem.from_rows([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
    ref = sd_gram.pivoted_cholesky(system.gram.entries, TOL)
    assert not system.independent and not ref.complete
    assert system.rank == ref.rank == 2
    assert sd.gram_determinant(system) == ref.determinant() == 0.0
    assert float(ref.pivots[0]) == 9.0


# -- the kept inverse factor and the quadratic form that reads it --------------------


def _inverse_cases(field):
    """A certified matrix, a complete one that falls back to the pivoted
    reference (E's pivots taken in the order 1, 2, 0) and a rank-2 one."""
    rng = np.random.default_rng(23)
    certified = _gram(_conditioned_rows(rng, 3, field, 1e4))
    phase = 1j if field is Field.COMPLEX else 1.0
    c = phase * math.sqrt(1.5 * (1.0 - 4.0 * TOL))
    fallback = np.array([[1.0, c, 0.0], [np.conj(c), 1.5, 0.0], [0.0, 0.0, 1.25]])
    dependent = np.array([[1.0, phase, 0.0], [np.conj(phase), 1.0, 0.0], [0.0, 0.0, 1.0]])
    return np.stack([certified, fallback, dependent])


# L_e of the certified and the fallback case: LAPACK's factor of E where the
# certificate holds, the pivoted reference's where it falls back
_FACTORS_OF_E = ((0, np.linalg.cholesky), (1, lambda e: sd_gram.pivoted_cholesky(e, TOL).lower))


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_the_factor_keeps_the_inverse_of_its_lower_factor(field, monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    factor = sd_gram.factor_stack(_inverse_cases(field), TOL)
    assert len(calls) == 2
    assert factor.complete.tolist() == [True, True, False]
    assert factor.perm[0].tolist() == [0, 1, 2] and factor.perm[1].tolist() == [1, 2, 0]
    # L = S[perm] L_e
    for k, lower_e in _FACTORS_OF_E:
        e, s = _equilibrated(_inverse_cases(field)[k])
        lower = s[factor.perm[k]][:, np.newaxis] * lower_e(e)
        assert np.allclose(factor.inverse[k] @ lower, np.eye(3), rtol=0.0, atol=1e-9)
    assert np.isnan(factor.inverse[2]).all()
    assert not factor.inverse.flags.writeable


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_the_factor_gauges_each_matrix_by_its_equilibrated_condition(field):
    mats = _inverse_cases(field)
    factor = sd_gram.factor_stack(mats, TOL)
    assert not factor.condition.flags.writeable
    # kappa_E = max_i E[i, i] * ||L_e^-1||_F^2
    for k, lower_e in _FACTORS_OF_E:
        e, _ = _equilibrated(mats[k])
        want = np.max(e.diagonal().real) * np.sum(np.abs(np.linalg.inv(lower_e(e))) ** 2)
        assert factor.condition[k] == want
        kappa = np.linalg.cond(e)
        assert kappa / 3 <= factor.condition[k] * (1 + 1e-12) and factor.condition[k] <= 3 * kappa * (1 + 1e-12)
    assert 4.0 * TOL * factor.condition[0] < 1.0 <= 4.0 * TOL * factor.condition[1]
    assert factor.condition[2] == np.inf


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_row_scaling_divides_the_inverse_columns_exactly(field):
    mats = _inverse_cases(field)
    factor = sd_gram.factor_stack(mats, TOL)
    k = np.array([[60, -41, 29], [-3, 200, 7], [1, 0, -60]])
    d = np.exp2(k)
    scaled = sd_gram.factor_stack(mats * d[:, :, np.newaxis] * d[:, np.newaxis, :], TOL)
    assert np.array_equal(scaled.perm, factor.perm)
    want = factor.inverse / np.take_along_axis(d, factor.perm, axis=-1)[:, np.newaxis, :]
    assert np.array_equal(scaled.inverse, want, equal_nan=True)
    assert np.array_equal(scaled.condition, factor.condition)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_the_quadratic_form_reads_a_pivoted_factor_in_its_order(field):
    # rows whose Gram matrix is the fallback case: the factor's perm is [1, 2, 0]
    rows = np.hstack([np.linalg.cholesky(_inverse_cases(field)[1]), np.zeros((3, 1))])
    system = sd.VectorSystem.from_rows(rows, field)
    assert system.as_stack().factor.perm[0].tolist() == [1, 2, 0]
    x = sd.vector(np.array([0.3, -0.7, 0.2, 0.5]) * (1.0 + 0.5j if field is Field.COMPLEX else 1.0), field)
    p = PointStack.of(system, x)
    assert abs(p.d2[0] - p.oracle[0]) <= system.gram_condition() * np.finfo(float).eps * p.xx[0]


def test_the_quadratic_form_warns_once_and_clamps_a_negative_value():
    factor = sd_gram.factor_stack([[[1.0]], [[0.0]]])
    with pytest.warns(sd.NumericalWarning) as record:
        got = quadratic_stack(factor, np.array([0.5, 1.0]), np.array([[1.0], [1.0]]), sd.DEFAULT_TOL)
    assert [str(w.message) for w in record] == ["quadratic-form distance -5.000e-01 is negative beyond tolerance"]
    assert np.array_equal(got, [0.0, np.nan], equal_nan=True)


# -- the QR oracle against least squares and an exact value -------------------------


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("n,dim", [(1, 3), (4, 7), (12, 12), (20, 64)])
def test_qr_residual_matches_least_squares(field, n, dim):
    rng = np.random.default_rng([n, dim])
    rows = random_rows(rng, n, dim, field)
    x = random_rows(rng, 1, dim, field)[0]
    coeffs = np.linalg.lstsq(rows.T, x, rcond=None)[0]
    expected = x - rows.T @ coeffs
    residual = sd.residual_after_projection(rows, x)
    assert np.allclose(residual, expected, rtol=0.0, atol=1e-12 * np.linalg.norm(x))
    d2 = sd.distance_sq_by_orthonormalization(rows, x)
    assert d2 == pytest.approx(float(np.real(np.vdot(expected, expected))), rel=1e-10, abs=1e-14)
    basis = sd.orthonormal_rows(rows)
    assert np.allclose(basis @ basis.conj().T, np.eye(n), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_qr_basis_has_the_gram_schmidt_phase(field):
    # row k = sum_{i<=k} c_ki basis_i with c_kk > 0, as Gram–Schmidt gives it
    rng = np.random.default_rng(21)
    for n, dim in ((1, 3), (4, 7), (12, 12)):
        rows = random_rows(rng, n, dim, field)
        c = rows @ sd.orthonormal_rows(rows).conj().T
        atol = 1e-12 * np.max(np.abs(c))
        assert np.allclose(np.triu(c, 1), 0.0, rtol=0.0, atol=atol)
        assert np.all(c.diagonal().real > 0.0)
        assert np.allclose(c.diagonal().imag, 0.0, rtol=0.0, atol=atol)


def test_qr_keeps_orthogonality_when_ill_conditioned():
    rng = np.random.default_rng(8)
    rows = _conditioned_rows(rng, 8, Field.REAL, 1e10)
    basis = sd.orthonormal_rows(rows)
    assert np.max(np.abs(basis @ basis.T - np.eye(8))) < 1e-14


def _exact_gram_det(vectors):
    """Gram determinant of real vectors of Fractions, by exact elimination."""
    g = [[sum(a * b for a, b in zip(u, v)) for v in vectors] for u in vectors]
    det = Fraction(1)
    for k in range(len(g)):
        pivot = next(r for r in range(k, len(g)) if g[r][k] != 0)
        if pivot != k:
            g[k], g[pivot] = g[pivot], g[k]
            det = -det
        det *= g[k][k]
        for r in range(k + 1, len(g)):
            f = g[r][k] / g[k][k]
            for c in range(k, len(g)):
                g[r][c] -= f * g[k][c]
    return det


@pytest.mark.parametrize("kappa", [1.0, 1e6, 1e10, 1e12])
def test_qr_oracle_against_the_exact_gram_ratio(kappa):
    # Householder QR is normwise backward stable, so its error in d^2 scales
    # with eps * ||[A; x]||_F^2, not with d^2: the bound is absolute, and
    # allows sqrt(kappa) growth. The largest measured constant is about 1.8
    eps = np.finfo(float).eps
    for n, dim in ((1, 3), (3, 4), (5, 7), (7, 8)):
        config = GeneratorConfig(seed=2027, trials=8, dim=dim, n=n, conditioning=kappa)
        for trial in range(config.trials):
            instance = sd.generate_instance(config, trial)
            rows, x = instance.system.rows, instance.x.coords
            exact_rows = [[Fraction(float(v)) for v in row] for row in rows]
            exact_x = [Fraction(float(v)) for v in x]
            exact = _exact_gram_det(exact_rows + [exact_x]) / _exact_gram_det(exact_rows)
            oracle = sd.distance_sq_by_orthonormalization(rows, x)
            scale = float(np.sum(rows**2) + np.sum(x**2))
            assert abs(Fraction(oracle) - exact) <= Fraction(8.0 * math.sqrt(kappa) * eps * scale)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_qr_oracle_gives_each_system_its_bits_in_any_stack(field):
    rng = np.random.default_rng([64, 256, field is Field.COMPLEX])
    for count, n, dim in ((2, 64, 256), (16, 5, 7), (3, 1, 4)):
        rows = np.stack([random_rows(rng, n, dim, field) for _ in range(count)])
        x = random_rows(rng, count, dim, field)
        stacked = sd_orth.distance_sq_stack(rows, x)
        for k in range(count):
            assert stacked[k] == sd_orth.distance_sq_stack(rows[k : k + 1], x[k : k + 1])[0]


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_qr_oracle_is_zero_when_the_rows_span_the_space(field):
    rng = np.random.default_rng(12)
    for n in (1, 4, 9):
        system = sd.VectorSystem.from_rows(random_rows(rng, n, n, field), field)
        x = sd.vector(random_rows(rng, 1, n, field)[0], field)
        oracle = sd.distance_sq_by_orthonormalization(system.rows, x.coords)
        assert oracle == 0.0
        quadratic = sd.distance_sq_quadratic(system, x)
        assert abs(oracle - quadratic) <= sd.DEFAULT_TOL.compare_rel_tol * (1.0 + abs(quadratic))


# -- Hadamard chain factors against a per-position loop ------------------------------


def _reference_factors(g, variant):
    """The chain factors position by position, as the loop used to compute them."""
    norms = g.diagonal().real
    factors = [float(norms[0])]
    for k in range(1, g.shape[0]):
        block = g[:k, :k]
        num = float(np.sum(np.abs(g[k, :k]) ** 2))
        diag = block.diagonal().real
        off = np.abs(block)
        np.fill_diagonal(off, 0.0)
        if variant is sd.ChainVariant.TOTAL_NORM:
            den = float(np.sum(diag))
        elif variant is sd.ChainVariant.OFFDIAG_FROBENIUS:
            den = float(np.max(diag)) + math.sqrt(float(np.sum(off**2)))
        elif variant is sd.ChainVariant.OFFDIAG_MAX:
            den = float(np.max(diag)) + (k - 1) * float(np.max(off, initial=0.0))
        else:
            den = float(np.max(np.sum(np.abs(block), axis=1)))
        factors.append(max(float(norms[k]) - num / den, 0.0))
    return factors


@pytest.mark.parametrize("variant", list(sd.ChainVariant))
@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_chain_factors_match_the_per_position_loop(variant, field):
    rng = np.random.default_rng(99)
    for n in (2, 3, 6, 12):
        system = sd.VectorSystem.from_rows(_conditioned_rows(rng, n, field, 1e3), field)
        result = sd.hadamard_chain(system, variant)
        expected = _reference_factors(system.gram.entries, variant)
        assert result.factors == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert result.refined == pytest.approx(float(np.prod(expected)), rel=1e-12)
        assert not result.clamped


def test_chain_clamps_a_planted_negative_factor_with_a_warning():
    system = sd.VectorSystem.from_rows([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    # not a Gram matrix: |G[2, 0]|^2 = 4 exceeds ||x_2||^2 * ||x_0||^2 = 1
    planted = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
    system.as_stack().aggregates = sd_gram.AggregateStack(planted[np.newaxis])
    variant = sd.ChainVariant.TOTAL_NORM
    with pytest.warns(sd.NumericalWarning, match="position 2"):
        result = sd.hadamard_chain(system, variant)
    assert result.clamped
    assert list(result.factors) == _reference_factors(planted, variant) == [1.0, 1.0, 0.0]
    assert result.refined == 0.0


def test_chain_clamps_a_tiny_negative_factor_silently():
    system = sd.VectorSystem.from_rows([[1.0, 0.0], [0.0, 1.0]])
    c = math.sqrt(1.0 + 1e-13)  # factor 1 - c^2 is just below zero, inside tolerance
    planted = np.array([[1.0, c], [c, 1.0]])
    system.as_stack().aggregates = sd_gram.AggregateStack(planted[np.newaxis])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sd.hadamard_chain(system, sd.ChainVariant.OFFDIAG_MAX)
    assert result.factors == (1.0, 0.0) and not result.clamped


def test_chain_stack_runs_every_variant_in_one_call():
    # denominators with a leading variant axis give each variant's chain as
    # its own two-dimensional call does, warnings in the same text and order
    rng = np.random.default_rng(7)
    grams = [rows @ rows.T for rows in (_conditioned_rows(rng, 4, Field.REAL, 1e2) for _ in range(3))]
    planted = np.eye(4)
    planted[3, 0] = planted[0, 3] = 2.0  # a factor far below zero at position 3
    planted[2, 1] = planted[1, 2] = 1.5  # and one at position 2
    agg = sd_gram.AggregateStack(np.array([grams[0], planted, grams[1], planted, grams[2]]))
    prefixes, tol = agg.chain_prefixes, sd.DEFAULT_TOL
    alone, texts = [], []
    for variant in sd.ChainVariant:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alone.append(sd.hadamard.chain_stack(agg.norms_sq, prefixes.numerators, getattr(prefixes, variant.value), tol))
        texts += [str(w.message) for w in caught]
    denominators = np.array([getattr(prefixes, v.value) for v in sd.ChainVariant])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        joint = sd.hadamard.chain_stack(agg.norms_sq, prefixes.numerators, denominators, tol)
    assert all(issubclass(w.category, sd.NumericalWarning) for w in caught)
    assert [str(w.message) for w in caught] == texts and len(texts) >= 8
    for got, parts in zip(joint, zip(*alone)):
        assert got.shape == (4, *parts[0].shape)
        assert got.tobytes() == np.array(parts).tobytes()
    assert joint[2][:, [1, 3]].all() and not joint[2][:, [0, 2, 4]].any()


# -- the Lagrange pair sum against the dense tensor ----------------------------------


def _dense_pair_sum(alphas, rows):
    ac = np.conj(alphas)
    diff = ac[:, None, None] * rows[None, :, :] - ac[None, :, None] * rows[:, None, :]
    return 0.5 * float(np.sum(np.abs(diff) ** 2))


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("n, dim", [(1, 3), (2, 2), (5, 7), (13, 9), (64, 40)])
def test_pair_sum_matches_the_dense_tensor(field, n, dim):
    rng = np.random.default_rng([2026, n, dim])
    system = sd.VectorSystem.from_rows(random_rows(rng, n, dim, field), field)
    alphas = random_rows(rng, 1, n, field)[0]
    parts = sd.lagrange_identity_parts(alphas, system)
    assert parts.pair_sum == pytest.approx(_dense_pair_sum(alphas, system.rows), rel=1e-13, abs=0.0)
    assert parts.residual <= 1e-12 * parts.magnitude


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
def test_pair_sum_over_a_chunk_of_small_systems(field, n):
    # a campaign chunk: 16 systems summed together, row by row; each
    # system's sum is the same bits as its own stack of one
    rng = np.random.default_rng([16, n, 7])
    rows = np.stack([random_rows(rng, n, 7, field) for _ in range(16)])
    alphas = random_rows(rng, 16, n, field)
    chunk = sd_comb._pair_sum(alphas.conj(), rows)
    for k in range(16):
        assert chunk[k] == pytest.approx(_dense_pair_sum(alphas[k], rows[k]), rel=1e-13, abs=0.0)
        assert chunk[k] == sd_comb._pair_sum(alphas[k : k + 1].conj(), rows[k : k + 1])[0]
    assert sd_comb._pair_sum(alphas[:0].conj(), rows[:0]).shape == (0,)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_pair_sum_at_the_wide_shape(field):
    # a campaign_wide chunk: two systems of 64 rows of dimension 256
    rng = np.random.default_rng([2, 64, 256, field is Field.COMPLEX])
    rows = np.stack([random_rows(rng, 64, 256, field) for _ in range(2)])
    alphas = random_rows(rng, 2, 64, field)
    chunk = sd_comb._pair_sum(alphas.conj(), rows)
    for k in range(2):
        assert chunk[k] == pytest.approx(_dense_pair_sum(alphas[k], rows[k]), rel=1e-13, abs=0.0)
        assert chunk[k] == sd_comb._pair_sum(alphas[k : k + 1].conj(), rows[k : k + 1])[0]


_PAIR_SUM_BYTES = """
import sys
import numpy as np
from spandist.combination import _pair_sum

out = []
for count, n, dim in ((2, 64, 256), (1, 96, 512)):
    for complex_ in (False, True):
        rng = np.random.default_rng([count, n, dim, complex_])
        rows = rng.standard_normal((count, n, dim))
        ac = rng.standard_normal((count, n))
        if complex_:
            rows = rows + 1j * rng.standard_normal((count, n, dim))
            ac = ac + 1j * rng.standard_normal((count, n))
        out.append(_pair_sum(ac, rows).tobytes().hex())
sys.stdout.write(" ".join(out))
"""


def test_pair_sum_bytes_do_not_depend_on_the_blas_thread_count():
    # each thread count in a fresh interpreter, since BLAS reads it at import
    src = str(Path(sd.__file__).resolve().parent.parent)
    sums = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        sums.append(subprocess.run([sys.executable, "-c", _PAIR_SUM_BYTES], capture_output=True, text=True,
                                   env=env, timeout=120, check=True).stdout.split())
    assert len(sums[0]) == 4 and sums[0] == sums[1]
