"""Acceptance gate: ten criteria, one pass/fail line apiece.

Every campaign below is seeded, so reruns are bit-for-bit identical. The
whole module takes 14-15 s on one core of a shared 2-vCPU Intel Xeon
virtual machine at 2.0 GHz (Python 3.11, numpy 2.4), most of the 20-23 s
the full test suite takes there; the spread is that machine's speed
drifting with other load.
"""

import math
import time

import numpy as np
import pytest

import spandist as sd
from spandist import BoundMethod, Field, GeneratorConfig
from spandist.checks import REGISTRY

SEED = 20260814


def _line(num: int, desc: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {desc}: {'PASS' if ok else 'FAIL'}")


def _grid_configs(trials: int, conditionings=(1.0, 1e2, 1e4, 1e6)):
    """The shared instance grid: both fields, dims 2..8, n = dim - 1."""
    return [
        GeneratorConfig(seed=SEED, trials=trials, dim=dim, n=max(dim - 1, 1),
                        field=field, conditioning=cond)
        for field in (Field.REAL, Field.COMPLEX)
        for cond in conditionings
        for dim in range(2, 9)
    ]


def test_criterion_01_fixed_point_table(system_b, x_b):
    table = {
        "exact": (sd.exact_distance(system_b, x_b).d2, 1.0),
        "total_norm": (sd.bound_total_norm(system_b, x_b), 4.0 / 3.0),
        "offdiag_frobenius": (sd.bound_offdiag_frobenius(system_b, x_b),
                              (1.0 + 3.0 * math.sqrt(2.0)) / (2.0 + math.sqrt(2.0))),
        "offdiag_max": (sd.bound_offdiag_max(system_b, x_b), 4.0 / 3.0),
        "row_sums": (sd.bound_row_sums(system_b, x_b), 4.0 / 3.0),
        "frobenius": (sd.bound_frobenius(system_b, x_b), 3.0 - 5.0 / math.sqrt(7.0)),
    }
    deviations = {k: abs(got - want) for k, (got, want) in table.items()}
    ok = max(deviations.values()) <= 1e-12
    _line(1, "fixed-point table at 1e-12", ok)
    assert ok, deviations


def test_criterion_02_representation_agreement():
    configs = _grid_configs(trials=179)  # 56 * 179 = 10024 instances
    t0 = time.perf_counter()
    results = [sd.run_campaign(cfg, checks=("representation_agreement",)) for cfg in configs]
    elapsed = time.perf_counter() - t0
    instances = sum(cfg.trials for cfg in configs)
    ok = all(r.passed for r in results) and instances >= 10_000 and elapsed <= 30.0
    _line(2, f"representation agreement on {instances} instances in {elapsed:.1f}s", ok)
    assert ok, [f for r in results for f in r.failures[:2]]


def test_criterion_03_bound_dominance_and_strictness():
    configs = _grid_configs(trials=179)  # the same instance streams as criterion 2
    results = [sd.run_campaign(cfg, checks=("bound_dominance",)) for cfg in configs]
    strict_outcomes = sum(r.counts.get("bound_dominance/total_norm_strict", 0) for r in results)
    ok = all(r.passed for r in results) and strict_outcomes > 0
    _line(3, f"five bounds dominate; {strict_outcomes} strictness outcomes", ok)
    assert ok, [f for r in results for f in r.failures[:2]]


def test_criterion_04_orthonormal_collapse():
    configs = [
        GeneratorConfig(seed=SEED, trials=100, dim=dim, n=n, field=field, orthonormal=True)
        for field in (Field.REAL, Field.COMPLEX)
        for dim, n in ((4, 3), (5, 4), (6, 4), (7, 5), (8, 6))
    ]
    results = [sd.run_campaign(cfg, checks=("orthonormal_collapse",)) for cfg in configs]
    instances = sum(cfg.trials for cfg in configs)
    ok = all(r.passed for r in results) and instances >= 1_000
    _line(4, f"orthonormal collapse closed forms on {instances} systems", ok)
    assert ok, [f for r in results for f in r.failures[:2]]


def test_criterion_05_bessel_refinements():
    configs = [
        GeneratorConfig(seed=SEED, trials=2500, dim=dim, n=dim - 2, field=field,
                        conditioning=100.0, dependent_fraction=0.3)
        for field in (Field.REAL, Field.COMPLEX)
        for dim in (5, 7)
    ]
    results = [sd.run_campaign(cfg, checks=("bessel_refinements",)) for cfg in configs]
    ok = all(r.passed for r in results)
    _line(5, "refined coefficient-energy bounds on 10000 systems incl. dependent", ok)
    assert ok, [f for r in results for f in r.failures[:2]]


def test_criterion_06_lagrange_identity():
    configs = [
        GeneratorConfig(seed=SEED, trials=5000, dim=6, n=4, field=field, conditioning=1e3)
        for field in (Field.REAL, Field.COMPLEX)
    ]
    results = [sd.run_campaign(cfg, checks=("lagrange_identity",)) for cfg in configs]
    ok = all(r.passed for r in results)
    _line(6, "combination identity residual <= 1e-12 on 10000 instances", ok)
    assert ok, [f for r in results for f in r.failures[:2]]


def test_criterion_07_combination_sweeps():
    configs = [
        GeneratorConfig(seed=SEED, trials=2500, dim=dim, n=dim - 2, field=field,
                        conditioning=100.0)
        for field in (Field.REAL, Field.COMPLEX)
        for dim in (5, 7)
    ]
    results = [sd.run_campaign(cfg, checks=("combination_sweep",)) for cfg in configs]
    # every branch family must actually appear in the sweep
    ids = set().union(*(r.counts for r in results))
    families = ("cauchy_schwarz", "diag_offdiag[holder,holder](p=1.5)",
                "row_sum[holder](p=3)", "holder_gram(p=1.25)", "holder_gram_p2")
    covered = all(any(f in i for i in ids) for f in families)
    chains = any(i.endswith("/chain") for i in ids)
    ok = all(r.passed for r in results) and covered and chains
    _line(7, "all combination-bound branches and chains on 10000 instances", ok)
    assert ok, [f for r in results for f in r.failures[:2]]


def test_criterion_08_determinant_chains_and_gram_inequalities():
    configs = [
        GeneratorConfig(seed=SEED, trials=1250, dim=n + 2, n=n, field=field, conditioning=50.0)
        for field in (Field.REAL, Field.COMPLEX)
        for n in (2, 3, 5, 6)
    ]
    results = [sd.run_campaign(cfg, checks=("hadamard_chains", "gram_inequalities"))
               for cfg in configs]
    orth = [
        sd.run_campaign(GeneratorConfig(seed=SEED, trials=250, dim=n + 2, n=n, field=field,
                                        orthonormal=True), checks=("hadamard_chains",))
        for field in (Field.REAL, Field.COMPLEX)
        for n in (2, 4)
    ]
    fixed_point = sum(count for r in orth for cid, count in r.counts.items()
                      if cid.endswith("/orthonormal_fixed_point"))
    ok = all(r.passed for r in results + orth) and fixed_point >= 1_000
    _line(8, f"chain refinements + determinant inequalities; {fixed_point} fixed points", ok)
    assert ok, [f for r in results + orth for f in r.failures[:2]]


def test_criterion_09_conditional_suite():
    configs = [
        GeneratorConfig(seed=SEED, trials=2500, dim=dim, n=dim - 2, field=field,
                        conditioning=100.0, intervals=True)
        for field in (Field.REAL, Field.COMPLEX)
        for dim in (5, 7)
    ]
    results = [sd.run_campaign(cfg, checks=("conditional_bounds",)) for cfg in configs]

    # constructed equality case for the reverse inequality
    system = sd.VectorSystem.from_rows(np.eye(2)[:1])
    x = sd.vector([1.0, 1.0])
    iv = sd.IntervalData(gammas=(0.0,), Gammas=(2.0,))
    verdict = sd.reverse_bessel_gap(system, x, iv)
    sharp = abs(verdict.bessel_gap - verdict.quarter_width_sq) <= 1e-12

    ok = all(r.passed for r in results) and sharp
    _line(9, "two-sided condition suite + sharpness equality", ok)
    assert ok, ([f for r in results for f in r.failures[:2]], verdict)


def test_criterion_10_determinism_and_replay():
    cfg = GeneratorConfig(seed=SEED, trials=1000, dim=4, n=2, field=Field.COMPLEX,
                          conditioning=10.0, intervals=True)
    first = sd.run_campaign(cfg)
    second = sd.run_campaign(cfg)
    parallel = sd.run_campaign(cfg, jobs=4)
    reports = [sd.render_campaign(r, fmt) for r in (first, second, parallel)
               for fmt in ("json", "csv")]
    identical = (reports[0::2] == [reports[0]] * 3) and (reports[1::2] == [reports[1]] * 3)

    def planted(instance, tol):
        bad = instance.trial == 617
        return [sd.CheckOutcome(check_id="planted/poison", ok=not bad,
                                margin=-1.0 if bad else 1.0,
                                values=(("trial", float(instance.trial)),))]

    REGISTRY["planted"] = planted
    try:
        broken = sd.run_campaign(cfg, checks=("planted",), jobs=4)
        replayed = sd.replay_trial(cfg, 617, checks=("planted",))
    finally:
        del REGISTRY["planted"]
    injected_ok = (
        not broken.passed
        and len(broken.failures) == 1
        and broken.failures[0].trial == 617
        and len(replayed) == 1
        and not replayed[0].ok
        and replayed[0].margin == broken.failures[0].margin
        and replayed[0].values == broken.failures[0].values
    )

    ok = first.passed and identical and injected_ok
    _line(10, "byte-identical reports (reruns, serial vs parallel) + exact replay", ok)
    assert ok
