import numpy as np
import pytest

import spandist as sd
from spandist import Field, VectorSystem
from spandist.space import leq_margin, near_margin

from conftest import random_rows


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_gram_entries_match_pairwise_inner_products(field):
    rng = np.random.default_rng(5)
    rows = random_rows(rng, 4, 6, field)
    system = VectorSystem.from_rows(rows)
    g = system.gram.entries
    for i in range(4):
        for j in range(4):
            expected = sd.inner_product(system.vectors[i], system.vectors[j])
            assert g[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_gram_is_exactly_hermitian():
    rng = np.random.default_rng(6)
    system = VectorSystem.from_rows(random_rows(rng, 5, 7, Field.COMPLEX))
    g = system.gram.entries
    assert np.array_equal(g, g.conj().T)
    assert np.all(np.isreal(np.diag(g)))


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("seed", range(6))
def test_determinant_matches_numpy(field, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    rows = random_rows(rng, n, n + 2, field)
    system = VectorSystem.from_rows(rows)
    expected = float(np.linalg.det(system.gram.entries).real)
    assert sd.gram_determinant(system) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_determinant_nonnegative_and_zero_for_dependent():
    rows = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])  # second = 2 * first
    system = VectorSystem.from_rows(rows)
    assert sd.gram_determinant(system) == 0.0
    assert not system.independent
    assert system.rank == 1


def test_pivoted_cholesky_reconstructs():
    rng = np.random.default_rng(7)
    b = random_rows(rng, 5, 8, Field.COMPLEX)
    a = b @ b.conj().T
    fac = sd.pivoted_cholesky(a)
    assert fac.complete
    p = np.eye(5)[list(fac.perm)]
    residual = p @ a @ p.T - fac.lower @ fac.lower.conj().T
    assert np.max(np.abs(residual)) < 1e-12 * np.max(np.abs(a))


def test_pivoted_cholesky_detects_rank():
    rng = np.random.default_rng(8)
    b = rng.standard_normal((4, 2))
    a = b @ b.T  # psd of rank 2
    fac = sd.pivoted_cholesky(a)
    assert fac.rank == 2
    assert not fac.complete
    assert fac.determinant() == 0.0


def test_pivoted_cholesky_rejects_indefinite():
    with pytest.raises(sd.NumericalInstabilityError):
        sd.pivoted_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_gram_condition_of_orthonormal_is_one():
    system = VectorSystem.from_rows(np.eye(3))
    assert system.gram_condition() == pytest.approx(1.0, rel=1e-12)


def test_system_rejects_mixed_dimensions():
    with pytest.raises(sd.DimensionMismatchError):
        VectorSystem([sd.vector([1.0, 0.0]), sd.vector([1.0, 0.0, 0.0])])


def test_system_rejects_mixed_fields():
    with pytest.raises(sd.FieldMismatchError):
        VectorSystem([sd.vector([1.0, 0.0]), sd.vector([1j, 0.0])])


def test_system_requires_at_least_one_vector():
    with pytest.raises(ValueError):
        VectorSystem.from_rows(np.zeros((0, 3)))


def test_subsystem_and_augmented(system_b, x_b):
    sub = system_b.subsystem([0])
    assert sub.n == 1
    assert np.array_equal(sub.rows[0], system_b.rows[0])
    aug = system_b.augmented(x_b)
    assert aug.n == 3
    assert np.array_equal(aug.rows[-1], x_b.coords)


# --- determinant inequalities -------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_hadamard_verdict_on_random_systems(seed):
    rng = np.random.default_rng(seed)
    system = VectorSystem.from_rows(random_rows(rng, 4, 5, Field.REAL))
    v = sd.check_gram_hadamard(system)
    assert v.lower_ok and v.upper_ok
    assert 0.0 <= v.gram_det <= v.norm_product * (1 + 1e-12)
    rel = system.tol.compare_rel_tol
    assert v.upper_ok == (leq_margin(v.gram_det, v.norm_product, rel) >= 0.0)
    assert v.orthogonal_equality == (near_margin(v.gram_det, v.norm_product, rel) >= 0.0)
    assert not v.dependent_equality
    assert not v.orthogonal_equality


def test_hadamard_verdict_flags_orthogonal_equality():
    system = VectorSystem.from_rows(np.diag([1.0, 2.0, 3.0]))
    v = sd.check_gram_hadamard(system)
    assert v.orthogonal_equality
    assert v.gram_det == pytest.approx(v.norm_product, rel=1e-12)


def test_hadamard_verdict_flags_dependent_equality():
    system = VectorSystem.from_rows([[1.0, 1.0], [2.0, 2.0]])
    v = sd.check_gram_hadamard(system)
    assert v.dependent_equality
    assert v.gram_det == 0.0


def test_hadamard_verdict_on_an_overflowing_gram_is_no_orthogonal_equality():
    # ||x_i||^2 = 1e400 overflows: inf <= inf must not read as equality
    with np.errstate(over="ignore"):
        system = VectorSystem.from_rows([[1e200, 0.0], [0.0, 1e200]])
    v = sd.check_gram_hadamard(system)
    assert v.norm_product == np.inf
    assert not v.orthogonal_equality
    assert system.rank == 0 and v.gram_det == 0.0 and v.upper_ok  # 0.0 <= inf holds
    # ||x_i||^2 = 1e300 is finite, rank 2, but det G and the norm product overflow:
    # inf <= inf is no verdict, in the library as in the campaign's margins
    with np.errstate(over="ignore"):
        system = VectorSystem.from_rows([[1e150, 0.0, 0.0], [0.0, 1e150, 0.0]])
        v = sd.check_gram_hadamard(system)
        chains = [sd.hadamard_chain(system, variant) for variant in sd.ChainVariant]
    assert system.rank == 2 and v.gram_det == v.norm_product == np.inf
    assert not v.orthogonal_equality and not v.upper_ok
    assert not sd.check_gram_product_split(system, 1).ok
    assert [(c.refined, c.lower_ok, c.upper_ok) for c in chains] == [(np.inf, False, False)] * 4


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("seed", range(4))
def test_product_split_inequality(field, seed):
    # det of the whole is at most the product of the two block dets
    rng = np.random.default_rng(seed)
    system = VectorSystem.from_rows(random_rows(rng, 5, 7, field))
    for k in (1, 2, 4):
        v = sd.check_gram_product_split(system, k)
        assert v.ok
        assert v.gram_full <= v.gram_left * v.gram_right * (1 + 1e-10) + 1e-12
        assert v.ok == (leq_margin(v.gram_full, v.gram_left * v.gram_right, system.tol.compare_rel_tol) >= 0.0)


def test_product_split_equality_for_orthogonal_blocks():
    rows = np.zeros((4, 6))
    rows[0, 0], rows[1, 1] = 1.0, 2.0
    rows[2, 3], rows[3, 4] = 1.5, 0.5
    rows[1, 0] = 0.25  # entangle inside the left block only
    system = VectorSystem.from_rows(rows)
    v = sd.check_gram_product_split(system, 2)
    assert v.ok
    assert v.gram_full == pytest.approx(v.gram_left * v.gram_right, rel=1e-12)


def test_product_split_validates_cut():
    system = VectorSystem.from_rows(np.eye(3))
    with pytest.raises(ValueError):
        sd.check_gram_product_split(system, 0)
    with pytest.raises(ValueError):
        sd.check_gram_product_split(system, 3)
    for k in (True, 1.0, 1.5):
        with pytest.raises(ValueError, match="^split position must be an integer"):
            sd.check_gram_product_split(system, k)
    assert sd.check_gram_product_split(system, np.int64(1)).ok


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("seed", range(4))
def test_sqrt_determinant_triangle_inequality(field, seed):
    rng = np.random.default_rng(100 + seed)
    rows = random_rows(rng, 3, 5, field)
    x1 = sd.vector(random_rows(rng, 1, 5, field)[0])
    y1 = sd.vector(random_rows(rng, 1, 5, field)[0])
    v = sd.check_gram_triangle(x1, y1, VectorSystem.from_rows(rows))
    assert v.ok
    assert v.combined <= v.first + v.second + 1e-10 * (1 + v.first + v.second)
    assert v.ok == (leq_margin(v.combined, v.first + v.second, sd.DEFAULT_TOL.compare_rel_tol) >= 0.0)


def test_sqrt_determinant_triangle_equality_for_parallel_leads():
    rest = VectorSystem.from_rows([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    x1 = sd.vector([2.0, 0.5, 0.0])
    t = 3.0
    y1 = sd.vector((t * x1.coords).tolist())
    v = sd.check_gram_triangle(x1, y1, rest)
    assert v.combined == pytest.approx(v.first + v.second, rel=1e-10)


def test_triangle_reads_a_system_rests_own_tolerance():
    loose = sd.ToleranceConfig(rank_rel_tol=0.5)
    rest = VectorSystem.from_rows([[1.0, 0.0, 0.0]], tol=loose)
    x1, y1 = sd.vector([1.0, 0.5, 0.0]), sd.vector([0.0, 0.0, 1.0])
    pair = VectorSystem.from_rows([x1.coords, rest.rows[0]], tol=loose)
    assert pair.rank == 1 and sd.gram_determinant(pair) == 0.0
    assert sd.check_gram_triangle(x1, y1, rest).first == 0.0
    # an explicit tolerance wins, and a sequence of vectors takes the default
    assert sd.check_gram_triangle(x1, y1, rest, sd.DEFAULT_TOL).first == pytest.approx(0.5, rel=1e-15)
    assert sd.check_gram_triangle(x1, y1, list(rest.vectors)).first == pytest.approx(0.5, rel=1e-15)
    assert sd.check_gram_triangle(x1, y1, list(rest.vectors), loose).first == 0.0


def test_triangle_with_an_empty_rest_is_the_triangle_inequality_of_norms():
    # the system (x1, rest) is x1 alone
    v = sd.check_gram_triangle(sd.vector([3.0, 0.0]), sd.vector([0.0, 4.0]), [])
    assert (v.combined, v.first, v.second, v.ok) == (5.0, 3.0, 4.0, True)


def test_triangle_validates_fields_and_dims():
    rest = VectorSystem.from_rows([[0.0, 1.0]])
    with pytest.raises(sd.DimensionMismatchError):
        sd.check_gram_triangle(sd.vector([1.0, 0.0, 0.0]), sd.vector([1.0, 0.0]), rest)
    with pytest.raises(sd.FieldMismatchError):
        sd.check_gram_triangle(sd.vector([1j, 0.0]), sd.vector([1.0, 0.0]), rest)
    with pytest.raises(sd.DimensionMismatchError):
        sd.check_gram_triangle(sd.vector([1.0, 0.0]), sd.vector([1.0, 0.0, 0.0]), rest)
    with pytest.raises(sd.FieldMismatchError):
        sd.check_gram_triangle(sd.vector([1.0, 0.0]), sd.vector([1j, 0.0]), list(rest.vectors))


def test_the_vector_constructor_needs_at_least_one_vector():
    with pytest.raises(ValueError, match="^a vector system needs at least one vector$"):
        VectorSystem([])
    assert VectorSystem([sd.vector([1.0, 2.0]), sd.vector([0.0, 1.0])]).gram.n == 2


def test_a_hadamard_verdict_is_ok_when_both_sides_hold(system_b):
    v = sd.check_gram_hadamard(system_b)
    assert v.ok is (v.lower_ok and v.upper_ok) is True


def test_factor_stack_takes_integer_matrices_as_floats():
    ints = np.array([[[4, 2], [2, 3]]])
    assert ints.dtype.kind == "i"
    got, want = sd.gram.factor_stack(ints), sd.gram.factor_stack(ints.astype(np.float64))
    assert got.det.tobytes() == want.det.tobytes() and got.rank.tolist() == [2]
