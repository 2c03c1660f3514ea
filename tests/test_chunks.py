"""Chunked campaign evaluation against one trial at a time.

A campaign generates and checks its trials in chunks of stacked arrays.
Each trial's numbers must be the same bits whichever chunk evaluates it, so
the comparisons here are exact (==): a chunk against ``run_checks`` on each
trial alone, serial against split runs, and a stacked factorization
against one matrix at a time.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest

import spandist as sd
from spandist import Field, GeneratorConfig
from spandist import campaign as sd_campaign
from spandist import gram as sd_gram
from spandist.checks import REGISTRY, applicable_checks, resolve_check, run_checks, run_stacked
from spandist.distance import PointStack
from spandist.generator import generate_chunk

TOL = sd.DEFAULT_TOL

STREAMS = {
    "complex_d7_n5_k1e2_intervals": dict(dim=7, n=5, field=Field.COMPLEX, conditioning=1e2, intervals=True),
    "real_d4_n3_orthonormal_intervals": dict(dim=4, n=3, field=Field.REAL, orthonormal=True, intervals=True),
    "real_d6_n4_k1e3_dependent": dict(dim=6, n=4, field=Field.REAL, conditioning=1e3, dependent_fraction=0.2),
    "real_d40_n20_k1e4_intervals": dict(dim=40, n=20, field=Field.REAL, conditioning=1e4, intervals=True),
}
TRIALS = 37  # not a multiple of the chunk size


@pytest.fixture(autouse=True)
def chunks_of_16(monkeypatch):
    # chunks smaller than the streams, so that every run here spans several
    monkeypatch.setattr(sd_campaign, "CHUNK_TRIALS", 16)


def _config(name, trials=TRIALS, seed=41):
    return GeneratorConfig(seed=seed, trials=trials, **STREAMS[name])


@pytest.fixture(params=sorted(STREAMS))
def config(request):
    return _config(request.param)


def test_the_streams_fill_whole_chunks(config):
    assert sd_campaign._chunk_trials(config) == sd_campaign.CHUNK_TRIALS < TRIALS


def test_chunk_outcomes_equal_run_checks_on_each_trial(config):
    names = applicable_checks(config)
    checks = [resolve_check(name) for name in names]
    # chunks that start off the campaign's own boundaries
    for trials in (range(3, 19), range(30, 37), range(11, 12)):
        chunk = generate_chunk(config, trials, TOL)
        columns = run_stacked(checks, chunk)
        for k, trial in enumerate(trials):
            alone = run_checks(sd.generate_instance(config, trial, TOL), names, TOL)
            assert alone, trial
            assert sd.checks.outcomes_of(columns, k) == alone, trial


def test_campaign_aggregates_equal_run_checks_on_each_trial(config):
    result = sd.run_campaign(config)
    counts, worst, failures = {}, {}, []
    for trial in range(config.trials):
        for oc in sd.replay_trial(config, trial):
            counts[oc.check_id] = counts.get(oc.check_id, 0) + 1
            worst[oc.check_id] = min(worst.get(oc.check_id, oc.margin), oc.margin)
            if not oc.ok:
                failures.append((trial, oc.check_id, oc.margin, oc.values))
    assert result.counts == dict(sorted(counts.items()))
    assert result.worst_margin == dict(sorted(worst.items()))
    assert [(f.trial, f.check_id, f.margin, f.values) for f in result.failures] == sorted(failures)


def test_serial_and_split_reports_are_identical(config):
    serial = sd.run_campaign(config)
    for jobs in (2, 3):
        split = sd.run_campaign(config, jobs=jobs)
        for fmt in ("json", "csv"):
            assert sd.render_campaign(split, fmt) == sd.render_campaign(serial, fmt), (jobs, fmt)


# the streams of the campaign_small benchmark workload
SMALL_STREAMS = ("complex_d7_n5_k1e2_intervals", "real_d4_n3_orthonormal_intervals", "real_d6_n4_k1e3_dependent")


@pytest.mark.parametrize("name", SMALL_STREAMS)
def test_the_library_reads_the_campaigns_numbers(name):
    config = _config(name, trials=sd_campaign.CHUNK_TRIALS)
    chunk = generate_chunk(config, range(config.trials), TOL)
    checks = [resolve_check(family) for family in ("representation_agreement", "bound_dominance")]
    rows = {check_id: (stack, c) for stack in run_stacked(checks, chunk) for c, check_id in enumerate(stack.ids)}

    def row(array, c, k):  # a (C, T) array gives row c, a (T,) one is every row's
        return array[c, k] if array.ndim == 2 else array[k]

    def value(check_id, key, k):
        stack, c = rows[check_id]
        return float(row(dict(stack.values)[key], c, k))

    compared = 0
    for k in np.flatnonzero(chunk.systems.factor.complete).tolist():
        instance = sd.generate_instance(config, k, TOL)
        alone = PointStack.of(instance.system, instance.x)
        for name in ("xx", "beta", "s", "in_orth", "orthonormal", "d2", "ratio", "projection", "oracle"):
            assert np.array_equal(getattr(alone, name)[0], getattr(chunk, name)[k]), name
        result = sd.exact_distance(instance.system, instance.x)
        assert result.d2_quadratic == value("representation_agreement/ratio_vs_quadratic", "quadratic", k)
        assert result.d2_gram_ratio == value("representation_agreement/ratio_vs_quadratic", "ratio", k)
        assert result.d2_projection == value("representation_agreement/projection_is_upper", "projection", k)
        oracle = sd.distance_sq_oracle(instance.system, instance.x)
        assert oracle == value("representation_agreement/oracle_vs_quadratic", "oracle", k)
        if not row(rows["bound_dominance/total_norm"][0].mask, rows["bound_dominance/total_norm"][1], k):
            continue  # x orthogonal to the span: the report raises
        report = sd.full_bound_report(instance.system, instance.x)
        assert len(report.entries) == 5
        for entry in report.entries:
            assert entry.value == value(f"bound_dominance/{entry.method.value}", "bound", k), entry.method
        compared += 1
    assert compared >= config.trials // 2


# sha256 of the newline-joined check ids that run_checks gives on trial 0
# of each small stream (seed 41), and their count: the outcome order
PINNED_ORDER = {
    "complex_d7_n5_k1e2_intervals": (69, "d3668069b269dd6b6daa4e86a9e431a8efad5c9e75cd5bc8f2f7204ae8b5de0c"),
    "real_d4_n3_orthonormal_intervals": (79, "25c8e825497b67959567ce8272b42ff8941046acba768ee8d384be4ac76e9f83"),
    "real_d6_n4_k1e3_dependent": (63, "9eff6e67ce77f7644f7f2a1613dbcfb475a0f74153bec1f30b4623874994e080"),
}


@pytest.mark.parametrize("name", SMALL_STREAMS)
def test_the_outcome_order_is_pinned(name):
    config = _config(name)
    instance = sd.generate_instance(config, 0, TOL)
    ids = [oc.check_id for oc in run_checks(instance, applicable_checks(config), TOL)]
    assert (len(ids), hashlib.sha256("\n".join(ids).encode()).hexdigest()) == PINNED_ORDER[name]
    assert ids == [oc.check_id for oc in sd.replay_trial(config, 0)]
    # the two families whose ids interleave two stacks
    sweep = [i for i in ids if i.startswith("combination_sweep/")]
    assert sweep[:2] == [
        "combination_sweep/cauchy_schwarz/holds", "combination_sweep/diag_offdiag[max_coeff,max_coeff]/holds",
    ]
    for label in ("selection_max", "selection_frobenius", "row_sum[max_coeff]", "row_sum[holder](p=3)"):
        at = sweep.index(f"combination_sweep/{label}/holds")
        assert sweep[at + 1] == f"combination_sweep/{label}/chain", label
    variants, kinds = [v.value for v in sd.ChainVariant], ["lower", "upper", "orthonormal_fixed_point"]
    chains = [i.split("/")[1:] for i in ids if i.startswith("hadamard_chains/")]
    order = [(variants.index(variant), kinds.index(kind)) for variant, kind in chains]
    assert len(order) >= 2 * len(variants) and order == sorted(order)


def _bits(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("name", [*SMALL_STREAMS, "complex_d12_n9_k1e3"])
def test_the_stacked_sweep_equals_the_per_method_api(name):
    stream = STREAMS.get(name, dict(dim=12, n=9, field=Field.COMPLEX, conditioning=1e3))
    config = GeneratorConfig(seed=41, trials=16, **stream)
    chunk = generate_chunk(config, range(config.trials), TOL)
    stacks = run_stacked([resolve_check("combination_sweep")], chunk)
    coeffs = chunk.coeffs(sd.checks._SALT_COMBINATION)
    for k in range(config.trials):
        system = sd.generate_instance(config, k, TOL).system
        outcomes = {oc.check_id: dict(oc.values) for oc in sd.checks.outcomes_of(stacks, k)}
        assert len(outcomes) == len(sd.checks.outcomes_of(stacks, k))
        for label, method in sd.checks.COMBINATION_SWEEP:
            result = sd.evaluate_combination(coeffs[k], system, method)
            holds, chain = f"combination_sweep/{label}/holds", f"combination_sweep/{label}/chain"
            assert _bits(result.chain[0]) == _bits(outcomes.pop(holds)["bound"]), (k, label)
            if len(result.chain) > 1:
                assert _bits(result.chain[-1]) == _bits(outcomes.pop(chain)["coarse"]), (k, label)
        assert not outcomes, k  # every /chain id belongs to a method with a chain


def test_runtime_check_runs_per_instance_beside_stacked_ones(monkeypatch):
    config = _config("complex_d7_n5_k1e2_intervals")
    seen = []

    def planted(instance, tol):
        seen.append((instance.seed, instance.trial))
        assert instance.system.n == config.n and instance.intervals is not None
        margin = -1.0 if instance.trial == 20 else float(instance.trial)
        return [sd.CheckOutcome("planted/twenty", margin >= 0.0, margin, (("n", float(instance.system.n)),))]

    monkeypatch.setitem(REGISTRY, "planted", planted)
    builtin = applicable_checks(config)
    plain = sd.run_campaign(config, checks=builtin)
    mixed = sd.run_campaign(config, checks=("planted", *builtin))
    assert seen == [(config.seed, t) for t in range(config.trials)]
    split = sd.run_campaign(config, checks=("planted", *builtin), jobs=2)
    assert sd.render_campaign(split, "json") == sd.render_campaign(mixed, "json")
    assert mixed.counts == {**plain.counts, "planted/twenty": config.trials}
    assert {k: v for k, v in mixed.worst_margin.items() if k != "planted/twenty"} == plain.worst_margin
    assert [(f.trial, f.check_id) for f in mixed.failures] == [(20, "planted/twenty")]
    replayed = sd.replay_trial(config, 20, checks=("planted", "lagrange_identity"))
    assert [o.check_id for o in replayed] == ["planted/twenty", "lagrange_identity/residual"]
    assert replayed[0].values == mixed.failures[0].values


def test_a_wrapped_builtin_runs_per_instance_with_the_same_numbers(monkeypatch):
    config = _config("real_d6_n4_k1e3_dependent")
    calls = []
    original = REGISTRY["gram_inequalities"]

    def wrapped(instance, tol):
        calls.append(instance.trial)
        return original(instance, tol)

    stacked = sd.run_campaign(config, checks=("gram_inequalities",))
    monkeypatch.setitem(REGISTRY, "gram_inequalities", wrapped)
    per_instance = sd.run_campaign(config, checks=("gram_inequalities",))
    assert calls == list(range(config.trials))
    assert sd.render_campaign(per_instance, "json") == sd.render_campaign(stacked, "json")


@pytest.mark.parametrize("name", SMALL_STREAMS)
def test_every_check_wrapped_as_a_plain_function_runs_once_per_trial(name, monkeypatch):
    # as a benchmark's traced run does: every REGISTRY value wrapped in a
    # plain per-instance function, and the campaign's generate_instance
    # counted. The check list does not read the values, and each wrapper
    # runs once per trial on the trial's instance, to the same report.
    config = _config(name)
    names = applicable_checks(config)
    stacked = sd.run_campaign(config)
    calls, generated = [], []
    original = sd_campaign.generate_instance

    def generate(config, trial, tol):
        generated.append(trial)
        return original(config, trial, tol)

    def plain(family, fn):
        def check(instance, tol):
            calls.append((instance.trial, family))
            return fn(instance, tol)

        return check

    for family, fn in list(REGISTRY.items()):
        monkeypatch.setitem(REGISTRY, family, plain(family, fn))
    monkeypatch.setattr(sd_campaign, "generate_instance", generate)
    assert applicable_checks(config) == names
    wrapped = sd.run_campaign(config)
    assert generated == list(range(config.trials))
    assert calls == [(trial, family) for trial in range(config.trials) for family in names]
    assert sd.render_campaign(wrapped, "json") == sd.render_campaign(stacked, "json")


def _gram(rows):
    g = rows @ rows.conj().T
    return (g + g.conj().T) / 2.0


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_one_dependent_matrix_leaves_the_others_to_lapack(field, monkeypatch):
    rng = np.random.default_rng(5)
    mats = []
    for k in range(9):
        rows = rng.standard_normal((4, 6)) + (1j * rng.standard_normal((4, 6)) if field is Field.COMPLEX else 0.0)
        if k == 4:
            rows[3] = rows[1]  # exactly singular: LAPACK meets a zero pivot
        mats.append(_gram(rows))
    stack = np.stack(mats)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(stack)
    calls = []
    original = sd_gram._pivoted

    def counted(a, *args, **kwargs):
        calls.extend([1] * a.shape[0])  # one entry per matrix entering the stacked fallback
        return original(a, *args, **kwargs)

    monkeypatch.setattr(sd_gram, "_pivoted", counted)
    factor = sd_gram.factor_stack(stack)
    assert len(calls) == 1  # only the dependent matrix takes the reference path
    alone = [sd_gram.factor_stack(g[np.newaxis]) for g in mats]
    assert factor.rank.tolist() == [int(f.rank[0]) for f in alone] == [4] * 4 + [3] + [4] * 4
    assert factor.complete.tolist() == [bool(f.complete[0]) for f in alone]
    assert factor.det.tolist() == [float(f.det[0]) for f in alone]
    for k, f in enumerate(alone):
        for name in ("perm", "pivots", "inverse", "condition"):
            assert np.array_equal(getattr(factor, name)[k], getattr(f, name)[0], equal_nan=True), name
    assert np.isinf(factor.condition[4]) and np.isfinite(np.delete(factor.condition, 4)).all()


def _lapack_log(monkeypatch):
    """A log of each factor_stack and bordered-ratio call, each LAPACK gufunc
    call and each entry into the stacked fallback, in call order."""
    from spandist import distance as sd_distance

    log = []

    def logged(owner, name, entry):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            log.append(entry(*args))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    logged(sd_gram, "factor_stack", lambda *_: "stack")
    logged(sd_distance, "gram_ratio_stack", lambda *_: "stack")
    for owner in (sd_gram, sd_distance):
        logged(owner, "_lapack", lambda gufunc, stack: gufunc.__name__)
    logged(sd_gram, "_pivoted", lambda *_: "fallback")
    return log


@pytest.mark.parametrize("fraction", [0.2, 1.0])
def test_each_stack_makes_one_cholesky_call_and_enters_the_fallback_at_most_once(fraction, monkeypatch):
    logs = {}
    for frac in (fraction, 0.0):  # the dependent stream and its twin
        stream = {**STREAMS["real_d6_n4_k1e3_dependent"], "dependent_fraction": frac}
        config = GeneratorConfig(seed=41, trials=16, **stream)
        checks = [resolve_check(name) for name in applicable_checks(config)]
        with monkeypatch.context() as patch:
            log = _lapack_log(patch)
            run_stacked(checks, generate_chunk(config, range(config.trials), TOL))
        stacks = []
        for entry in log:
            if entry == "stack":
                stacks.append([])
            else:
                stacks[-1].append(entry)
        assert stacks and all(s.count("cholesky_lo") == 1 and s.count("fallback") <= 1 for s in stacks), stacks
        logs[frac] = log
    dependent, twin = logs[fraction], logs[0.0]
    assert "fallback" in dependent and "fallback" not in twin
    assert dependent.count("cholesky_lo") <= twin.count("cholesky_lo")


def _singular_stack(count, singular, field):
    # a zero row makes an exactly singular Gram matrix: LAPACK meets a zero pivot
    rng = np.random.default_rng(count)
    rows = rng.standard_normal((count, 4, 6)) + (
        1j * rng.standard_normal((count, 4, 6)) if field is Field.COMPLEX else 0.0
    )
    rows[sorted(singular), 2] = 0.0
    return np.stack([_gram(r) for r in rows])


def _per_matrix(fn, stack):
    out, ok = np.zeros_like(stack), []
    for k in range(stack.shape[0]):
        try:
            out[k] = fn(stack[k : k + 1])[0]
            ok.append(True)
        except np.linalg.LinAlgError:
            ok.append(False)
    return out, ok


_GUFUNCS = (
    (sd_gram._umath_linalg.cholesky_lo, np.linalg.cholesky),
    (sd_gram._umath_linalg.inv, np.linalg.inv),
)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("count", [1, 2, 7, 48])
@pytest.mark.parametrize("where", ["first", "middle", "last", "everywhere"])
def test_the_lapack_gufuncs_flag_and_nan_fill_exactly_the_failed_matrices(field, count, where):
    # the private numpy gufuncs behind np.linalg.cholesky and inv: one call
    # over the stack, a failed matrix all NaN, every other one np.linalg's
    # bits without a NaN, and no warning or exception
    singular = {"first": {0}, "middle": {count // 2}, "last": {count - 1}, "everywhere": set(range(count))}[where]
    stack = _singular_stack(count, singular, field)
    for gufunc, public in _GUFUNCS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sd_gram._lapack(gufunc, stack)
        ok = ~np.isnan(out).any(axis=(-2, -1))
        ref, ref_ok = _per_matrix(public, stack)
        assert ok.tolist() == ref_ok == [k not in singular for k in range(count)]
        assert np.isnan(out[~ok]).all()
        assert out[ok].tobytes() == ref[ok].tobytes()
        regular = np.delete(stack, sorted(singular), axis=0)
        out = sd_gram._lapack(gufunc, regular)
        assert not np.isnan(out).any() and out.tobytes() == public(regular).tobytes()


def _rows_of(stacks):
    """Each row of ``stacks`` as (check_id, margin, mask, values), its own
    (T,) arrays: row c of a (C, T) array, or the shared (T,) one."""
    def row(array, c):
        return array if array is None or array.ndim == 1 else array[c]

    return [
        (check_id, stack.margin[c], row(stack.mask, c), tuple((name, row(v, c)) for name, v in stack.values))
        for stack in stacks
        for c, check_id in enumerate(stack.ids)
    ]


def _tally_reference(trials, stacks):
    """Counts, worst margins and failures of ``stacks``, one row and one trial at a time."""
    counts, worst, failures = {}, {}, []
    for check_id, margin, mask, values in _rows_of(stacks):
        ks = [k for k in range(len(trials)) if mask is None or mask[k]]
        if not ks:
            continue
        margins = [float(margin[k]) for k in ks]
        counts[check_id] = counts.get(check_id, 0) + len(ks)
        low = math.nan if any(math.isnan(m) for m in margins) else min(margins)
        prev = worst.get(check_id, math.inf)
        worst[check_id] = low if math.isnan(low) or low < prev else prev
        failures += [
            sd_campaign.FailureRecord(trials[k], check_id, m, tuple((name, float(v[k])) for name, v in values))
            for k, m in zip(ks, margins)
            if not m >= 0.0
        ]
    return counts, worst, failures


def test_the_tally_reduces_a_chunk_as_each_column_alone():
    nan, inf = math.nan, math.inf
    recorded = np.array([1.5, -2.0, 3.25, 0.0])

    def stack(ids, margin, mask=None, values=(("a", recorded), ("b", -recorded))):
        return sd.checks.CheckStack(tuple(ids), np.array(margin), values, mask)

    # no mask and (T,) masks, one stack per mask; and a (C, T) recorded value
    stacks = [
        stack(["all/passing", "all/failing_twice"], [[1.0, 2.0, 0.5, 3.0], [-1.0, 2.0, -0.5, 3.0]],
              values=(("a", np.array([recorded, recorded])), ("b", -recorded))),
        stack(["masked/empty"], [[-1.0, nan, -inf, 2.0]], np.zeros(4, bool)),
        stack(["masked/nan_and_inf_outside"], [[nan, inf, -inf, 0.25]], np.array([False, False, False, True])),
        stack(["masked/nan_inside"], [[0.5, nan, 1.0, -2.0]], np.array([True, True, False, False])),
        stack(["masked/inf_inside"], [[inf, -1.0, -inf, 0.75]], np.array([True, False, False, True])),
        stack(["masked/failing_thrice"], [[-3.0, -inf, 4.0, -0.0]], np.array([True, True, True, False])),
    ]
    trials = range(40, 44)
    tally = sd_campaign._Tally()
    tally.stacks(trials, stacks)
    counts, worst, failures = _tally_reference(trials, stacks)
    assert tally.counts == counts and "masked/empty" not in counts
    assert repr(tally.worst) == repr(worst)
    assert math.isnan(tally.worst["masked/nan_inside"])
    assert repr(tally.failures) == repr(failures)
    assert [(f.trial, f.check_id) for f in tally.failures] == [
        (40, "all/failing_twice"), (42, "all/failing_twice"), (41, "masked/nan_inside"),
        (40, "masked/failing_thrice"), (41, "masked/failing_thrice"),
    ]
    # each trial's outcomes, row by row in stack order
    for k in range(len(trials)):
        expected = [
            (check_id, repr(float(margin[k])), tuple((name, float(v[k])) for name, v in values))
            for check_id, margin, mask, values in _rows_of(stacks)
            if mask is None or mask[k]
        ]
        got = [(oc.check_id, repr(oc.margin), oc.values) for oc in sd.checks.outcomes_of(stacks, k)]
        assert repr(got) == repr(expected), k


def test_a_chunk_takes_any_nonempty_range_inside_the_stream():
    config = _config("real_d6_n4_k1e3_dependent", trials=10)
    chunk = generate_chunk(config, range(0, 14, 7), TOL)
    assert chunk.trials == (0, 7)
    for k, trial in enumerate(chunk.trials):
        assert np.array_equal(chunk.systems.rows[k], sd.generate_instance(config, trial, TOL).system.rows)
    assert generate_chunk(config, range(9, -1, -3), TOL).trials == (9, 6, 3, 0)
    for trials in (range(0, 0), range(5, 3), range(4, 4, 2)):
        with pytest.raises(ValueError, match=r"trial range range\(.*\) is empty"):
            generate_chunk(config, trials, TOL)
    for trials in (range(0, 11), range(8, 15, 3), range(-1, 3), range(9, -2, -5)):
        with pytest.raises(ValueError, match="outside the configured range"):
            generate_chunk(config, trials, TOL)


def test_the_dependent_stream_has_dependent_trials_in_its_chunks():
    config = _config("real_d6_n4_k1e3_dependent")
    chunk = generate_chunk(config, range(0, 16), TOL)
    complete = chunk.systems.factor.complete
    assert 0 < np.count_nonzero(~complete) < chunk.size
    for k in range(chunk.size):
        system = sd.generate_instance(config, k, TOL).system
        assert system.rank == chunk.systems.factor.rank[k]
        assert np.array_equal(system.rows, chunk.systems.rows[k])


def _rejected(xx):
    return np.modf(xx * 1e3)[0] < 0.5


def _reject_about_half(monkeypatch):
    # also count as orthogonal to its system about every other point (by the
    # digits of ||x||^2), so that many trials redraw x from their own streams
    from spandist import generator as sd_gen

    original = sd_gen.orth_complement_stack

    def strict(xx, beta, norm_max, tol):
        return original(xx, beta, norm_max, tol) | _rejected(xx)

    monkeypatch.setattr(sd_gen, "orth_complement_stack", strict)


@pytest.mark.parametrize("name", ["complex_d7_n5_k1e2_intervals", "real_d6_n4_k1e3_dependent"])
def test_redrawn_points_do_not_depend_on_the_chunk(name, monkeypatch):
    from spandist import generator as sd_gen

    config = _config(name, trials=20)
    first = [sd.generate_instance(config, t, TOL).x.coords for t in range(config.trials)]
    _reject_about_half(monkeypatch)
    chunk = generate_chunk(config, range(0, config.trials), TOL)
    assert not _rejected(sd.space.sq_norms(chunk.x)).any()
    redrawn = 0
    for k in range(config.trials):
        alone = sd.generate_instance(config, k, TOL)
        assert np.array_equal(alone.x.coords, chunk.x[k])
        if chunk.lo is None:
            assert alone.intervals is None
        else:
            lo, hi = chunk.lo[k].tolist(), chunk.hi[k].tolist()
            assert alone.intervals == sd.IntervalData(gammas=tuple(lo), Gammas=tuple(hi))
        redrawn += not np.array_equal(first[k], chunk.x[k])
    assert redrawn > 0

    monkeypatch.setattr(sd_gen, "orth_complement_stack", lambda xx, beta, norm_max, tol: np.ones(len(xx), bool))
    original = sd_gen._normals
    points = {}  # the draws of dim normals, by the trial word of their Philox key

    def normals(rng, out):
        original(rng, out)
        if out.shape[-1] == config.dim:
            trial = int(rng.bit_generator.state["state"]["key"][1])
            points[trial] = points.get(trial, 0) + 1

    monkeypatch.setattr(sd_gen, "_normals", normals)
    with pytest.raises(sd.NumericalInstabilityError):
        generate_chunk(config, range(0, 4), TOL)
    # trial 0 gives up after 100 draws of x (its first pass's and 99
    # redraws') and the one replay of its first pass
    assert points == {0: 101, 1: 1, 2: 1, 3: 1}


# the generator's bits, pinned: sha256 of a 16-trial chunk's rows, x, lo, hi
# and auxiliary coefficients, as drawn and with about half the points redrawn
PINNED_STREAMS = {
    "real_d6_n4_k1e3": dict(dim=6, n=4, field=Field.REAL, conditioning=1e3),
    "real_d5_n3_k1e2_intervals": dict(dim=5, n=3, field=Field.REAL, conditioning=1e2, intervals=True),
    "real_d4_n3_orthonormal_intervals": dict(dim=4, n=3, field=Field.REAL, orthonormal=True, intervals=True),
    "complex_d7_n5_k1e2": dict(dim=7, n=5, field=Field.COMPLEX, conditioning=1e2),
    "complex_d7_n5_k1e2_intervals": dict(dim=7, n=5, field=Field.COMPLEX, conditioning=1e2, intervals=True),
    "complex_d6_n4_k1e3_intervals_dependent": dict(
        dim=6, n=4, field=Field.COMPLEX, conditioning=1e3, intervals=True, dependent_fraction=0.5
    ),
}
PINNED_DIGESTS = {
    ("complex_d6_n4_k1e3_intervals_dependent", False): "4ac69cc91d9964caa04588e57fffcd81666a45ef03ec8f49e8a2df6c16154247",
    ("complex_d6_n4_k1e3_intervals_dependent", True): "63a34d8918ac23c3efc5818b586fd67c001bd13b02c004510c9d4fcf63d81414",
    ("complex_d7_n5_k1e2", False): "cc58ace782360a56f2ad625e1b3d9f02ace80d8a6fb1381331c61b201e9cc880",
    ("complex_d7_n5_k1e2", True): "3ec5d24f3fc67c2f718bc4d062ffe1f94ca87043cbe3074719b769556d12195e",
    ("complex_d7_n5_k1e2_intervals", False): "3d9791058cb411f850aecfc22f44e6a99f21085938c5477977e418dad08f6d69",
    ("complex_d7_n5_k1e2_intervals", True): "2781f5114ca6f120c3ed5635d5dd411a116f6fa413f08ef7d11d15b19a5cc8f4",
    ("real_d4_n3_orthonormal_intervals", False): "19f02ae1c7955eebb7d58029ed27fb86b47c3790f8dc3bc11e0cf822fb1608a9",
    ("real_d4_n3_orthonormal_intervals", True): "a8f00a465dfdffb25f81f849323b469df5e231a73cf824bca29d0936fcdeed7e",
    ("real_d5_n3_k1e2_intervals", False): "5c143505c6ac9497ccf1f34b8350630efed81f70cce60eacc89c79085461d5e3",
    ("real_d5_n3_k1e2_intervals", True): "d60afacc12611b6934cca7f6c3a2452460bb299ed9734ca69edf906cc710b71f",
    ("real_d6_n4_k1e3", False): "523bdc02bef8fd4ffd9a016c312f04d2fc07cc85943eb55a3a06f08510bc7a06",
    ("real_d6_n4_k1e3", True): "720cef7ca9efbda87e3d5d7e8f092e36192a4f543e7ea139876e39a6152f28d6",
}


def _digest(*arrays):
    """sha256 of the dtype, shape and bytes of each array given (None skipped)."""
    h = hashlib.sha256()
    for a in arrays:
        if a is not None:
            h.update(repr((a.dtype.str, a.shape)).encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _chunk_digest(chunk):
    coeffs = [chunk.coeffs(salt) for salt in (1, 2, 3)] + [chunk.coeffs(3, chunk.systems.dim)]
    return _digest(chunk.systems.rows, chunk.x, chunk.lo, chunk.hi, *coeffs)


@pytest.mark.parametrize("redrawn", [False, True], ids=["drawn", "redrawn"])
@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
def test_the_generators_bits_are_pinned(name, redrawn, monkeypatch):
    if redrawn:
        _reject_about_half(monkeypatch)
    config = GeneratorConfig(seed=41, trials=16, **PINNED_STREAMS[name])
    chunk = generate_chunk(config, range(config.trials), TOL)
    assert _chunk_digest(chunk) == PINNED_DIGESTS[name, redrawn]


# the bits of the QR oracle and of the combination sweep, pinned on the same
# chunks as drawn: sha256 of ``chunk.oracle``, and of the sweep's margins and
# recorded values, stack by stack
PINNED_ROUTE_DIGESTS = {
    "complex_d6_n4_k1e3_intervals_dependent": (
        "4a677d10a25be3c1ad1b6e5d4337b12c33b352ffbd7fa85d83bb43bd1826e339",
        "949df9800b493f7d7c6be3dfedd0912b4666959143069aafb9016acc4f39c260",
    ),
    "complex_d7_n5_k1e2": (
        "bc2f41c5c5038b20aa49ab19ccfcc11198cda68b70e336d406e8080dd1222583",
        "241bb799707f67fcd1e0c97af5de84bb7aa33a3c9262a432ec82f6f14dab3ebf",
    ),
    "complex_d7_n5_k1e2_intervals": (
        "70a2ec7004d118a848b04de6a0dd0e4e7b7d96e10e52c3723cee73419185dc58",
        "241bb799707f67fcd1e0c97af5de84bb7aa33a3c9262a432ec82f6f14dab3ebf",
    ),
    "real_d4_n3_orthonormal_intervals": (
        "363e7c531839e926748984b7631ab57f280735c7a8807b5af3ea8b55690aa5b7",
        "5279f4edf8090356ce78dfd9b6f7752f0141aa0d753eba1a2124ed3723803253",
    ),
    "real_d5_n3_k1e2_intervals": (
        "0679e7c5f3faff7df5a0e55fa53c5fba34484935b028ae8ec900ec7893c9b31b",
        "f8df015ced365f2cd8cd0300e4d3bdafd78b9772d4a533000b8b6f095208746f",
    ),
    "real_d6_n4_k1e3": (
        "40debf654473f7c7a3754d9e3a8d77977902aa0f55a612a57f3a0916c1b1ea46",
        "19ae855d91b4614e3554bbd7746fc9623de49947c4382654d1e3b1b84a2d3797",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
def test_the_qr_and_sweep_bits_are_pinned(name):
    config = GeneratorConfig(seed=41, trials=16, **PINNED_STREAMS[name])
    chunk = generate_chunk(config, range(config.trials), TOL)
    sweep = run_stacked([resolve_check("combination_sweep")], chunk)
    arrays = [a for stack in sweep for a in (stack.margin, *(v for _, v in stack.values))]
    assert (_digest(chunk.oracle), _digest(*arrays)) == PINNED_ROUTE_DIGESTS[name]


def test_a_zero_direction_is_redrawn_from_the_trials_own_stream(monkeypatch):
    # the first direction drawn for x in the ball of chosen trials comes out
    # zero; the draw still consumes its random numbers. Each trial is told
    # apart by the trial half of its Philox key, and its first direction by
    # being the first draw of dim normals from that key in one generation.
    from spandist import generator as sd_gen

    config = _config("complex_d7_n5_k1e2_intervals", trials=20)
    first = [sd.generate_instance(config, t, TOL).x.coords for t in range(config.trials)]
    original = sd_gen._normals
    zeroed = {1, 6, 17}
    hit = []  # the zeroed trials, once per generation
    drawn = set()  # the trials whose first direction this generation drew

    def normals(rng, out):
        original(rng, out)
        trial = int(rng.bit_generator.state["state"]["key"][1])
        if out.shape[-1] == config.dim and trial in zeroed and trial not in drawn:
            drawn.add(trial)
            hit.append(trial)
            out[...] = 0.0

    monkeypatch.setattr(sd_gen, "_normals", normals)
    chunk = generate_chunk(config, range(0, config.trials), TOL)
    assert len(hit) == len(zeroed)
    for k in range(config.trials):
        drawn.clear()
        alone = sd.generate_instance(config, k, TOL)
        assert np.array_equal(alone.x.coords, chunk.x[k])
        lo, hi = chunk.lo[k].tolist(), chunk.hi[k].tolist()
        assert alone.intervals == sd.IntervalData(gammas=tuple(lo), Gammas=tuple(hi))
        assert np.array_equal(alone.x.coords, first[k]) == (k not in zeroed), k
        assert sd.condition_verdict(alone.system, alone.x, alone.intervals).holds, k
    assert len(hit) == 2 * len(zeroed)

    def always_zero(rng, out):
        original(rng, out)
        if out.shape[-1] == config.dim:
            out[...] = 0.0

    monkeypatch.setattr(sd_gen, "_normals", always_zero)
    with pytest.raises(sd.NumericalInstabilityError):
        generate_chunk(config, range(0, 4), TOL)
    with pytest.raises(sd.NumericalInstabilityError):
        sd.generate_instance(config, 0, TOL)
