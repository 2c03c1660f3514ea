import pickle

import numpy as np
import pytest

import spandist as sd
from spandist import Field, GeneratorConfig
from spandist import orthonormalize as sd_orth


def test_registry_names():
    assert set(sd.REGISTRY) == {
        "representation_agreement", "bound_dominance", "orthonormal_collapse",
        "bessel_refinements", "lagrange_identity", "combination_sweep",
        "hadamard_chains", "gram_inequalities", "conditional_bounds",
    }
    for name, fn in sd.REGISTRY.items():
        assert isinstance(fn, sd.checks._Family) and fn.name == name


@pytest.mark.parametrize("orthonormal", [False, True])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("intervals", [False, True])
def test_applicable_checks_follow_config_shape(orthonormal, n, intervals):
    config = GeneratorConfig(seed=0, trials=1, dim=4, n=n, orthonormal=orthonormal, intervals=intervals)
    expected = [
        "representation_agreement",
        "bound_dominance",
        *(["orthonormal_collapse"] if orthonormal else []),
        "bessel_refinements",
        "lagrange_identity",
        "combination_sweep",
        "gram_inequalities",
        *(["hadamard_chains"] if n >= 2 else []),
        *(["conditional_bounds"] if intervals else []),
    ]
    assert sd.applicable_checks(config) == tuple(expected)
    # the registry holds the families in the same order
    assert [name for name in sd.REGISTRY if name in expected] == expected


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_all_checks_pass_on_well_conditioned_instances(field):
    cfg = GeneratorConfig(seed=101, trials=1, dim=6, n=3, field=field,
                          conditioning=100.0, intervals=True)
    outcomes = sd.run_checks(sd.generate_instance(cfg, 0), sd.applicable_checks(cfg), sd.DEFAULT_TOL)
    assert outcomes, "expected a non-empty outcome list"
    bad = [o for o in outcomes if not o.ok]
    assert not bad, bad
    # ok is synonymous with a non-negative margin
    for o in outcomes:
        assert o.ok == (o.margin >= 0.0)


def test_outcomes_are_deterministic():
    cfg = GeneratorConfig(seed=33, trials=2, dim=5, n=3, field=Field.COMPLEX, intervals=True)
    inst = sd.generate_instance(cfg, 1)
    first = sd.run_checks(inst, sd.applicable_checks(cfg), sd.DEFAULT_TOL)
    second = sd.run_checks(inst, sd.applicable_checks(cfg), sd.DEFAULT_TOL)
    assert first == second


def test_representation_agreement_skips_dependent_systems():
    cfg = GeneratorConfig(seed=3, trials=8, dim=5, n=3, dependent_fraction=1.0)
    inst = sd.generate_instance(cfg, 0)
    assert not inst.system.independent
    outcomes = sd.run_checks(inst, ("representation_agreement",), sd.DEFAULT_TOL)
    assert outcomes == []


def test_bessel_refinements_cover_dependent_systems():
    cfg = GeneratorConfig(seed=3, trials=8, dim=5, n=3, dependent_fraction=1.0)
    inst = sd.generate_instance(cfg, 0)
    outcomes = sd.run_checks(inst, ("bessel_refinements",), sd.DEFAULT_TOL)
    assert len(outcomes) == 3
    assert all(o.ok for o in outcomes)


def test_strictness_outcome_only_for_small_condition_numbers():
    tame = GeneratorConfig(seed=4, trials=1, dim=5, n=3, conditioning=10.0)
    ids = [o.check_id for o in sd.run_checks(sd.generate_instance(tame, 0),
                                             ("bound_dominance",), sd.DEFAULT_TOL)]
    assert "bound_dominance/total_norm_strict" in ids

    harsh = GeneratorConfig(seed=4, trials=1, dim=5, n=3, conditioning=1e5)
    ids = [o.check_id for o in sd.run_checks(sd.generate_instance(harsh, 0),
                                             ("bound_dominance",), sd.DEFAULT_TOL)]
    assert "bound_dominance/total_norm_strict" not in ids


def test_strictness_outcome_reads_the_scale_free_condition():
    # rows scaled by 2^20, 2^-20 and 1: kappa(G) is 2^80, but the
    # equilibrated Gram matrix is the identity, with kappa_E = 3
    rows = np.eye(3, 4) * np.exp2([20, -20, 0])[:, np.newaxis]
    instance = sd.Instance(system=sd.VectorSystem.from_rows(rows), x=sd.vector([1.0, 1.0, 1.0, 1.0]))
    outcomes = sd.run_checks(instance, ("bound_dominance",), sd.DEFAULT_TOL)
    (strict,) = [o for o in outcomes if o.check_id == "bound_dominance/total_norm_strict"]
    assert strict.ok and dict(strict.values)["condition"] == 3.0


def _refuse_eigvalsh(*args, **kwargs):
    raise RuntimeError("an eigenvalue decomposition ran")


def test_a_campaign_runs_no_eigenvalue_decomposition(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", _refuse_eigvalsh)
    config = GeneratorConfig(seed=7, trials=40, dim=6, n=4, conditioning=1e3, dependent_fraction=0.2)
    result = sd.run_campaign(config, jobs=1)
    assert result.counts["bound_dominance/total_norm_strict"] > 0
    assert not result.failures


def test_strictness_outcome_skipped_for_single_vector():
    cfg = GeneratorConfig(seed=4, trials=1, dim=5, n=1)
    ids = [o.check_id for o in sd.run_checks(sd.generate_instance(cfg, 0),
                                             ("bound_dominance",), sd.DEFAULT_TOL)]
    assert "bound_dominance/total_norm_strict" not in ids


def test_unknown_check_name_rejected():
    cfg = GeneratorConfig(seed=0, trials=1, dim=4, n=2)
    with pytest.raises(ValueError, match="unknown check"):
        sd.run_checks(sd.generate_instance(cfg, 0), ("no_such_check",), sd.DEFAULT_TOL)


def test_the_built_in_checks_pickle_by_reference():
    for fn in sd.REGISTRY.values():
        assert pickle.loads(pickle.dumps(fn)) is fn


def test_outcome_values_are_sorted_pairs():
    cfg = GeneratorConfig(seed=9, trials=1, dim=4, n=2)
    outcomes = sd.run_checks(sd.generate_instance(cfg, 0), ("lagrange_identity",), sd.DEFAULT_TOL)
    (outcome,) = outcomes
    keys = [k for k, _ in outcome.values]
    assert keys == sorted(keys)


def test_the_checks_oracle_makes_no_rank_decision_of_its_own(monkeypatch):
    def refuse(*args):
        raise RuntimeError("the QR oracle's own dependence test ran")

    monkeypatch.setattr(sd_orth, "_checked_diagonal", refuse)
    config = GeneratorConfig(seed=5, trials=40, dim=6, n=4, conditioning=1e3, dependent_fraction=0.2)
    checks = ("representation_agreement",)
    result = sd.run_campaign(config, checks=checks, jobs=1)
    independent = [t for t in range(config.trials) if sd.generate_instance(config, t).system.independent]
    assert 0 < len(independent) < config.trials
    assert result.counts["representation_agreement/oracle_vs_quadratic"] == len(independent)
    assert not result.failures
    for trial in range(8):
        assert all(o.ok for o in sd.replay_trial(config, trial, checks=checks))
    instance = sd.generate_instance(config, independent[0])
    assert sd.distance_sq_oracle(instance.system, instance.x) >= 0.0
    with pytest.raises(RuntimeError):
        sd_orth.distance_sq_by_orthonormalization(instance.system.rows, instance.x.coords)


def test_the_combination_sweep_does_not_revalidate_its_exponents(monkeypatch):
    # CombinationMethod validated every exponent once; a chunk reads each
    # conjugate as p / (p - 1.0), with the same bits
    from spandist import checks, space
    from spandist.generator import generate_chunk

    config = GeneratorConfig(seed=4, trials=4, dim=5, n=3)
    expected = checks._combination_sweep(generate_chunk(config, range(4)))
    chunk = generate_chunk(config, range(4))
    calls = []
    original = space.checked_real

    def counted(name, value):
        calls.append(name)
        return original(name, value)

    monkeypatch.setattr(space, "checked_real", counted)
    columns = checks._combination_sweep(chunk)
    assert calls == []
    assert [c.ids for c in columns] == [c.ids for c in expected]
    for got, want in zip(columns, expected):
        assert got.margin.tobytes() == want.margin.tobytes()


def test_the_sweep_computes_each_distinct_term_once(monkeypatch):
    # 19 diag/offdiag splits over 5 distinct diagonal and 5 distinct
    # off-diagonal terms, and 5 row-sum chains over one base
    from spandist import checks
    from spandist import combination as comb
    from spandist.generator import generate_chunk

    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(comb, "_diag_term", counted("diag", comb._diag_term))
    monkeypatch.setattr(comb, "_offdiag_term", counted("offdiag", comb._offdiag_term))
    monkeypatch.setattr(comb, "_row_sum_base", counted("base", comb._row_sum_base))
    # a method holds the term functions it first read: methods made here hold the counted ones
    monkeypatch.setattr(checks, "COMBINATION_SWEEP", checks._sweep())
    kinds = [method.kind for _, method in checks.COMBINATION_SWEEP]
    assert kinds.count(comb.CombinationKind.DIAG_OFFDIAG) == 19 and kinds.count(comb.CombinationKind.ROW_SUM) == 5
    chunk = generate_chunk(GeneratorConfig(seed=4, trials=16, dim=5, n=3), range(16))
    stacks = checks.run_stacked([checks.resolve_check("combination_sweep")], chunk)
    assert sorted(calls) == ["base"] + ["diag"] * 5 + ["offdiag"] * 5
    assert [len(stack.ids) for stack in stacks] == [31, 7]


def test_one_sweep_over_a_chunk_hashes_no_method(monkeypatch):
    # each chain reads its own method's memo keys: no cache is keyed by the methods
    from spandist import checks
    from spandist import combination as comb
    from spandist.generator import generate_chunk

    def unhashable(method):
        raise AssertionError(f"{method.label} was hashed")

    chunk = generate_chunk(GeneratorConfig(seed=4, trials=16, dim=5, n=3), range(16))
    want = checks.run_stacked([checks.resolve_check("combination_sweep")], chunk)
    monkeypatch.setattr(comb.CombinationMethod, "__hash__", unhashable)
    with pytest.raises(AssertionError, match="was hashed"):
        hash(checks.COMBINATION_SWEEP[0][1])
    for sweep in (checks.COMBINATION_SWEEP, checks._sweep()):  # keys read before, and read first here
        monkeypatch.setattr(checks, "COMBINATION_SWEEP", sweep)
        got = checks.run_stacked([checks.resolve_check("combination_sweep")], chunk)
        assert [stack.margin.tobytes() for stack in got] == [stack.margin.tobytes() for stack in want]


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_conditional_bounds_give_nothing_without_interval_data(field):
    cfg = GeneratorConfig(seed=21, trials=3, dim=5, n=3, field=field)
    for trial in range(cfg.trials):
        inst = sd.generate_instance(cfg, trial)
        assert inst.intervals is None
        assert sd.run_checks(inst, ("conditional_bounds",), sd.DEFAULT_TOL) == []
    with_data = sd.generate_instance(GeneratorConfig(seed=21, trials=1, dim=5, n=3, field=field, intervals=True), 0)
    assert sd.run_checks(with_data, ("conditional_bounds",), sd.DEFAULT_TOL)


def test_the_chains_give_nothing_for_a_single_vector():
    cfg = GeneratorConfig(seed=21, trials=3, dim=4, n=1)
    assert "hadamard_chains" not in sd.applicable_checks(cfg)
    assert sd.run_checks(sd.generate_instance(cfg, 0), ("hadamard_chains",), sd.DEFAULT_TOL) == []
    # a campaign whose every stack list is empty counts nothing
    result = sd.run_campaign(cfg, ("hadamard_chains",))
    assert result.counts == {} and result.worst_margin == {} and result.passed
