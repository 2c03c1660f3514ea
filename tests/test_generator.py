import numpy as np
import pytest

import spandist as sd
from spandist import Field, GeneratorConfig


@pytest.mark.parametrize("kwargs", [
    {"seed": -1},
    {"seed": 2**64},
    {"trials": -1},
    {"dim": 0},
    {"dim": 513},
    {"n": 0},
    {"n": 5, "dim": 4},
    {"conditioning": 0.5},
    {"dependent_fraction": 1.5},
    {"orthonormal": True, "conditioning": 100.0},
    {"orthonormal": True, "dependent_fraction": 0.5},
    {"dependent_fraction": 0.5, "n": 1, "dim": 3},
    {"seed": 0.9},
    {"trials": 2.5},
    {"n": 1.0},
    {"dim": 4.0},
    {"seed": True},
    {"field": "real"},
    {"orthonormal": "no"},
    {"orthonormal": 1},
    {"intervals": "yes"},
    {"intervals": None},
    {"conditioning": True},
])
def test_config_validation(kwargs):
    base = dict(seed=1, trials=10, dim=4, n=2)
    base.update(kwargs)
    with pytest.raises(ValueError):
        GeneratorConfig(**base)


def test_config_stores_numpy_integers_as_int():
    cfg = GeneratorConfig(seed=np.int64(3), trials=np.int32(4), dim=4, n=2)
    plain = GeneratorConfig(seed=3, trials=4, dim=4, n=2)
    assert cfg == plain and type(cfg.seed) is int and type(cfg.trials) is int
    # a valid real keeps its type: an int conditioning still renders as an int
    assert type(GeneratorConfig(conditioning=10).conditioning) is int
    assert '"conditioning": 10,' in sd.render_campaign(sd.run_campaign(GeneratorConfig(trials=1, conditioning=10)), "json")
    assert sd.render_campaign(sd.run_campaign(cfg), "json") == sd.render_campaign(sd.run_campaign(plain), "json")


def test_same_seed_and_trial_reproduce_exactly():
    cfg = GeneratorConfig(seed=77, trials=10, dim=5, n=3, field=Field.COMPLEX,
                          conditioning=100.0, intervals=True)
    a = sd.generate_instance(cfg, 4)
    b = sd.generate_instance(cfg, 4)
    assert np.array_equal(a.system.rows, b.system.rows)
    assert np.array_equal(a.x.coords, b.x.coords)
    assert a.intervals.gammas == b.intervals.gammas
    assert a.intervals.Gammas == b.intervals.Gammas


def test_different_trials_differ():
    cfg = GeneratorConfig(seed=77, trials=10, dim=5, n=3)
    a = sd.generate_instance(cfg, 0)
    b = sd.generate_instance(cfg, 1)
    assert not np.array_equal(a.system.rows, b.system.rows)


def test_trial_index_out_of_range():
    cfg = GeneratorConfig(seed=1, trials=3, dim=4, n=2)
    with pytest.raises(ValueError):
        sd.generate_instance(cfg, 3)


def test_orthonormal_systems_are_orthonormal():
    cfg = GeneratorConfig(seed=5, trials=6, dim=6, n=4, field=Field.COMPLEX, orthonormal=True)
    for trial in range(cfg.trials):
        inst = sd.generate_instance(cfg, trial)
        assert sd.is_orthonormal(inst.system)


@pytest.mark.parametrize("target", [1.0, 1e2, 1e4, 1e6])
def test_conditioning_is_hit(target):
    cfg = GeneratorConfig(seed=8, trials=4, dim=6, n=4, conditioning=target)
    for trial in range(cfg.trials):
        inst = sd.generate_instance(cfg, trial)
        assert inst.system.gram_condition() == pytest.approx(target, rel=1e-6)


def test_dependent_fraction_one_always_degrades():
    cfg = GeneratorConfig(seed=3, trials=8, dim=5, n=3, dependent_fraction=1.0)
    for trial in range(cfg.trials):
        inst = sd.generate_instance(cfg, trial)
        assert not inst.system.independent
        assert inst.system.rank == inst.system.n - 1


def test_dependent_fraction_zero_never_degrades():
    cfg = GeneratorConfig(seed=3, trials=8, dim=5, n=3)
    for trial in range(cfg.trials):
        assert sd.generate_instance(cfg, trial).system.independent


def test_interval_instances_satisfy_the_condition():
    cfg = GeneratorConfig(seed=15, trials=10, dim=5, n=3, field=Field.COMPLEX,
                          conditioning=1e3, intervals=True)
    for trial in range(cfg.trials):
        inst = sd.generate_instance(cfg, trial)
        v = sd.condition_verdict(inst.system, inst.x, inst.intervals)
        assert v.holds
        assert v.forms_agree


def test_x_is_never_orthogonal_to_the_system():
    cfg = GeneratorConfig(seed=23, trials=20, dim=4, n=2)
    for trial in range(cfg.trials):
        inst = sd.generate_instance(cfg, trial)
        assert not sd.in_orthogonal_complement(inst.system, inst.x)


def test_child_streams_differ_by_salt():
    cfg = GeneratorConfig(seed=1, trials=2, dim=4, n=2)
    inst = sd.generate_instance(cfg, 0)
    a = sd.child_rng(inst, 1).standard_normal(4)
    b = sd.child_rng(inst, 2).standard_normal(4)
    assert not np.array_equal(a, b)
    again = sd.child_rng(inst, 1).standard_normal(4)
    assert np.array_equal(a, again)
