import dataclasses
import math
import warnings

import numpy as np
import pytest

import spandist as sd
from spandist import Field, GeneratorConfig
from spandist import generator as sd_gen
from spandist.generator import InstanceChunk, generate_chunk
from spandist.space import leq_margin


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
        rel = inst.system.tol.compare_rel_tol
        assert v.holds == (leq_margin(0.0, v.re_inner, rel, scale=sd.norm_sq(inst.x)) >= 0.0)


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


BAD_WORDS = [2.5, 1.0, True, False, -1, 2**64, None, "1", np.float64(3.0)]


@pytest.mark.parametrize("bad", BAD_WORDS)
def test_the_stream_constructors_take_only_64_bit_integers(bad):
    inst = sd.generate_instance(GeneratorConfig(seed=1, trials=2, dim=4, n=2), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="seed"):
            sd.trial_rng(bad, 1)
        with pytest.raises(ValueError, match="trial"):
            sd.trial_rng(1, bad)
        with pytest.raises(ValueError, match="salt"):
            sd.child_rng(inst, bad)
        if bad is not None:  # None is a file-loaded instance's seed and trial
            for name in ("seed", "trial"):
                odd = dataclasses.replace(inst, **{name: bad})
                with pytest.raises(ValueError, match=name):
                    sd.child_rng(odd, 1)
                with pytest.raises(ValueError, match=name):
                    sd.run_checks(odd, ("lagrange_identity",), sd.DEFAULT_TOL)


def test_every_64_bit_seed_keys_its_own_stream():
    # the top seeds are keys of their own, not the float-rounded neighbours
    # of one another
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = [sd.trial_rng(seed, 0).standard_normal(4) for seed in (2**64 - 1, 2**64 - 2, 2**63 + 1, 2**63)]
        for seed in (2**64 - 1, 2**63 + 1):
            assert sd.trial_rng(seed, 3).bit_generator.state["state"]["key"].tolist() == [seed, 3]
        assert sd.trial_rng(np.uint64(2**64 - 1), np.int32(3)).bit_generator.state["state"]["key"][0] == 2**64 - 1
    assert len({d.tobytes() for d in draws}) == len(draws)


def _draws(rng):
    """Normals, uniforms and 32-bit integers, whose halves the Philox
    buffers between calls."""
    return [
        rng.standard_normal(5),
        rng.integers(0, 2**31, 3, dtype=np.int32),
        rng.uniform(-0.5, 0.5),
        rng.integers(0, 2**31, dtype=np.int32),
        rng.random(3),
        rng.standard_normal(4),
    ]


@pytest.mark.parametrize("seed, trial, salt", [
    (2**64 - 1, 0, 0),
    (2**64 - 1, 9, 3),
    (0, 0, 0),
    (41, 5, 3),
    (2**63, 2**64 - 1, 2**64 - 1),
    (None, None, 0),
    (None, None, 3),
])
def test_a_rekeyed_generator_draws_the_fresh_streams(seed, trial, salt):
    system = sd.VectorSystem.from_rows([[1.0, 0.0, 0.0]])
    inst = sd.Instance(system=system, x=sd.vector([0.0, 1.0, 0.0]), seed=seed, trial=trial)
    kept = np.random.Generator(np.random.Philox(key=0))
    kept.integers(0, 2**31, dtype=np.int32)  # leaves the second 32-bit half buffered
    assert kept.bit_generator.state["has_uint32"] == 1
    fresh = [sd.child_rng(inst, salt)]
    if salt == 0:
        fresh.append(sd.trial_rng(seed or 0, trial or 0))
    for rng in fresh:
        want = _draws(rng)
        got = _draws(sd_gen._rekey(kept, seed or 0, trial or 0, salt))
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    # a chunk's coefficients, the file-loaded chunk of one included
    chunk = InstanceChunk.of(inst, sd.DEFAULT_TOL)
    assert np.array_equal(chunk.coeffs(salt, 4)[0], sd.child_rng(inst, salt).standard_normal(4))


@pytest.mark.parametrize("field", list(Field))
def test_chunk_coefficients_are_each_trials_child_stream(field):
    config = GeneratorConfig(seed=2**64 - 1, trials=9, dim=5, n=3, field=field)
    chunk = generate_chunk(config, range(2, 9, 2))
    for salt, count in ((1, None), (3, 5)):
        got = chunk.coeffs(salt, count)
        for k, trial in enumerate(chunk.trials):
            rng = sd.child_rng(sd.generate_instance(config, trial), salt)
            want = rng.standard_normal(count or config.n)
            if field is Field.COMPLEX:
                want = (want + 1j * rng.standard_normal(count or config.n)) / math.sqrt(2.0)
            assert np.array_equal(got[k], want), (salt, trial)
