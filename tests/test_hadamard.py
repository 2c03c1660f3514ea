import numpy as np
import pytest

import spandist as sd
from spandist import ChainVariant, Field, VectorSystem
from spandist.space import leq_margin

from conftest import random_rows


@pytest.mark.parametrize("variant", list(ChainVariant))
@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("seed", range(4))
def test_chain_sits_between_determinant_and_norm_product(variant, field, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    system = VectorSystem.from_rows(random_rows(rng, n, n + 2, field))
    res = sd.hadamard_chain(system, variant)
    assert res.lower_ok and res.upper_ok
    assert not res.clamped
    rel = system.tol.compare_rel_tol
    assert (res.lower_ok, res.upper_ok) == (leq_margin(res.gram_det, res.refined, rel) >= 0.0,
                                            leq_margin(res.refined, res.norm_product, rel) >= 0.0)
    assert len(res.factors) == n
    assert res.refined == pytest.approx(float(np.prod(res.factors)))


@pytest.mark.parametrize("variant", list(ChainVariant))
def test_two_vector_chain_is_exact(variant):
    # with a single corrected factor the chain reproduces the determinant
    rng = np.random.default_rng(55)
    system = VectorSystem.from_rows(random_rows(rng, 2, 4, Field.COMPLEX))
    res = sd.hadamard_chain(system, variant)
    assert res.refined == pytest.approx(res.gram_det, rel=1e-12)


def test_epsilon_example_strict():
    eps = 1e-3
    system = VectorSystem.from_rows([[1.0, 0.0], [1.0, eps]])
    res = sd.hadamard_chain(system, ChainVariant.TOTAL_NORM)
    assert res.gram_det == pytest.approx(eps**2, rel=1e-9)
    assert res.refined == pytest.approx(eps**2, rel=1e-9)
    v = sd.check_hadamard_strict(system)
    assert v.strict
    assert v.margin == pytest.approx(1.0, rel=1e-9)
    assert v.strict == (leq_margin(v.norm_product, v.gram_det, system.tol.compare_rel_tol) < 0.0)


def test_orthogonal_system_is_not_strict():
    system = VectorSystem.from_rows(np.diag([1.0, 2.0, 0.5]))
    v = sd.check_hadamard_strict(system)
    assert not v.strict
    assert v.margin == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("variant", list(ChainVariant))
def test_orthonormal_fixed_point(variant):
    cfg = sd.GeneratorConfig(seed=2, trials=3, dim=6, n=4, field=Field.COMPLEX, orthonormal=True)
    for trial in range(cfg.trials):
        inst = sd.generate_instance(cfg, trial)
        res = sd.hadamard_chain(inst.system, variant)
        assert res.gram_det == pytest.approx(1.0, abs=1e-12)
        assert res.refined == pytest.approx(1.0, abs=1e-12)
        assert res.norm_product == pytest.approx(1.0, abs=1e-12)
        assert all(abs(f - 1.0) <= 1e-12 for f in res.factors)


def test_chain_requires_two_vectors():
    system = VectorSystem.from_rows([[1.0, 0.0]])
    with pytest.raises(ValueError):
        sd.hadamard_chain(system, ChainVariant.ROW_SUMS)


@pytest.mark.parametrize("variant", ["total_norm", None, 0])
def test_chain_takes_only_a_chain_variant(variant):
    system = VectorSystem.from_rows([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match=f"^variant must be a ChainVariant, got {variant!r}$"):
        sd.hadamard_chain(system, variant)


def test_chain_requires_independence():
    system = VectorSystem.from_rows([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(sd.LinearDependenceError):
        sd.hadamard_chain(system, ChainVariant.TOTAL_NORM)
    with pytest.raises(sd.LinearDependenceError):
        sd.check_hadamard_strict(system)
