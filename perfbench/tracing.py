"""Traced run: per-layer metrics, one layer per ``spandist`` module.

Spans are recorded from the benchmark side only, around calls into each
module's public functions. For the campaign workloads the benchmark calls
the real ``run_campaign`` serially with its generator binding and the
``REGISTRY`` entries wrapped, so each trial records one span for generation
and one per check family, keyed by the call index and the trial index.
``gram.pivoted_cholesky`` is wrapped only to count calls. For
``library_calls`` each request records one span per step. Spans stay in
memory and are written to one JSON-lines file when the run ends.

Traced rounds alternate with untraced ones, which gives
``trace_overhead_frac``. Then every public function without a span timing
is timed directly on the workload's own instances, so that each ``_us``
metric is measured on every workload. Only counts can read 0: a workload
that runs no check family has no outcomes, and a serial workload reports
``campaign.parallel_speedup`` as 0.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from itertools import product
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import spandist as sd
from spandist import campaign as sd_campaign
from spandist import checks as sd_checks
from spandist import combination as sd_combination
from spandist import gram as sd_gram
from spandist.orthonormalize import distance_sq_by_orthonormalization

from workloads import (
    CAMPAIGN_CALL,
    CAMPAIGNS,
    REQUEST,
    TOL,
    Measured,
    Tally,
    campaign_configs,
    campaign_reference,
    campaign_round,
    library_files,
    library_reference,
    library_round,
    warm_library,
    warm_pool,
)

FAMILIES = (
    "representation_agreement",
    "bound_dominance",
    "orthonormal_collapse",
    "bessel_refinements",
    "lagrange_identity",
    "combination_sweep",
    "hadamard_chains",
    "gram_inequalities",
    "conditional_bounds",
)

# nested public functions timed directly on the workload's instances
NESTED = (
    "generator.generate_instance",
    "gram.from_rows",
    "gram.pivoted_cholesky",
    "gram.check_gram_triangle",
    "orthonormalize.distance_sq_by_orthonormalization",
    "distance.distance_sq_quadratic",
    "distance.distance_sq_gram_ratio",
    "distance.exact_distance",
    "bounds.full_bound_report",
    "bounds.condition_verdict",
    "combination.lagrange_identity_parts",
    "combination.diag_offdiag_bound",
    "hadamard.hadamard_chain",
)
NESTED_INSTANCES = 64
NESTED_REPEATS = 3
LIBRARY_CAMPAIGN_CONFIGS = 16

PER_LAYER_UNITS = {
    **{f"{name}_us": "us" for name in NESTED},
    "gram.pivoted_cholesky.calls_per_instance": "count",
    **{f"checks.{family}_us": "us" for family in FAMILIES},
    **{f"checks.{family}.outcomes_per_instance": "count" for family in FAMILIES},
    "campaign.self_us_per_instance": "us",
    "campaign.parallel_speedup": "x",
    "instances.load_instance_us": "us",
    "reports.render_distance_us": "us",
    "reports.render_campaign_us": "us",
    "trace_overhead_frac": "ratio",
}

CHOLESKY_CALLS = "gram.pivoted_cholesky.calls"


@dataclass(frozen=True)
class Span:
    name: str
    call: int  # index of the top-level call: a run_campaign call or a library request
    trial: int  # trial index inside a campaign call; -1 where there is none
    parent: str | None
    start: float
    end: float


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.call = -1
        self.top: str | None = None

    def timed(self, name: str, trial: int, parent: str | None, fn: Callable, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append(Span(name, self.call, trial, parent, start, time.perf_counter()))

    def step(self, name: str, fn: Callable, *args):
        """The ``step`` hook of the round functions: a top-level call opens a new trace."""
        if name in (CAMPAIGN_CALL, REQUEST):
            self.call += 1
            self.top = name
            return self.timed(name, -1, None, fn, *args)
        return self.timed(name, -1, self.top, fn, *args)

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            out[span.name].append(span.end - span.start)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


@contextmanager
def counting_cholesky(tracer: Tracer) -> Iterator[None]:
    original = sd_gram.pivoted_cholesky

    def counted(*args, **kwargs):
        tracer.counts[CHOLESKY_CALLS] += 1
        return original(*args, **kwargs)

    sd_gram.pivoted_cholesky = counted
    try:
        yield
    finally:
        sd_gram.pivoted_cholesky = original


@contextmanager
def traced_campaign_layers(tracer: Tracer) -> Iterator[None]:
    """Wrap what ``campaign._run_range`` calls: the generator and each check family."""
    original_generate = sd_campaign.generate_instance
    original_registry = dict(sd_checks.REGISTRY)

    def generate(config, trial, tol):
        return tracer.timed("generator.generate_instance", trial, CAMPAIGN_CALL, original_generate, config, trial, tol)

    def family(name: str, fn: Callable) -> Callable:
        def traced(instance, tol):
            outcomes = tracer.timed(f"checks.{name}", instance.trial, CAMPAIGN_CALL, fn, instance, tol)
            tracer.counts[f"checks.{name}.outcomes"] += len(outcomes)
            return outcomes

        return traced

    sd_campaign.generate_instance = generate
    sd_checks.REGISTRY.update({name: family(name, fn) for name, fn in original_registry.items()})
    try:
        with counting_cholesky(tracer):
            yield
    finally:
        sd_campaign.generate_instance = original_generate
        sd_checks.REGISTRY.update(original_registry)


# -- nested functions ------------------------------------------------------------


def _random_coords(rng: np.random.Generator, size: int, field: sd.Field) -> np.ndarray:
    if field is sd.Field.REAL:
        return rng.standard_normal(size)
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _layer_calls(
    instance: sd.Instance, path: Path, rng: np.random.Generator
) -> Iterator[tuple[str, Callable, tuple]]:
    """(layer, function, arguments) for each public function that applies to
    the instance, which is also saved at ``path``."""
    s, x = instance.system, instance.x
    # condition_verdict costs the same for any interval data of the right length
    iv = instance.intervals or sd.IntervalData(gammas=(-1.0,) * s.n, Gammas=(1.0,) * s.n)
    yield "instances.load_instance", sd.load_instance, (path, TOL)
    yield "gram.from_rows", sd.VectorSystem.from_rows, (s.rows, s.field, TOL)
    yield "gram.pivoted_cholesky", sd_gram.pivoted_cholesky, (s.gram.entries, TOL.rank_rel_tol)
    yield "bounds.condition_verdict", sd.condition_verdict, (s, x, iv, TOL)
    alphas = _random_coords(rng, s.n, s.field)
    yield "combination.lagrange_identity_parts", sd.lagrange_identity_parts, (alphas, s)
    for db, ob in product(sd_combination.DIAG_BRANCHES, sd_combination.OFFDIAG_BRANCHES):
        exps = (2.0 if db == "holder" else None, 2.0 if ob == "holder" else None)
        yield "combination.diag_offdiag_bound", sd.diag_offdiag_bound, (alphas, s, db, ob, *exps, TOL)
    if s.n >= 2:
        y1 = sd.Vector(_random_coords(rng, s.dim, s.field), s.field)
        rest = s.subsystem(range(1, s.n))
        yield "gram.check_gram_triangle", sd.check_gram_triangle, (s.vectors[0], y1, rest, TOL)
    for family in FAMILIES:
        yield f"checks.{family}", sd_checks.REGISTRY[family], (instance, TOL)
    if not s.independent:
        return
    yield "orthonormalize.distance_sq_by_orthonormalization", distance_sq_by_orthonormalization, (s.rows, x.coords, TOL)
    yield "distance.distance_sq_quadratic", sd.distance_sq_quadratic, (s, x)
    yield "distance.distance_sq_gram_ratio", sd.distance_sq_gram_ratio, (s, x)
    yield "distance.exact_distance", sd.exact_distance, (s, x, TOL)
    yield "bounds.full_bound_report", sd.full_bound_report, (s, x, instance.intervals, TOL)
    result = sd.exact_distance(s, x, TOL)
    report = sd.full_bound_report(s, x, instance.intervals, TOL)
    yield "reports.render_distance", sd.render_distance, (result, report, "json")
    if s.n >= 2:
        for variant in sd.ChainVariant:
            yield "hadamard.hadamard_chain", sd.hadamard_chain, (s, variant, TOL)


def time_nested(
    instances: list[sd.Instance],
    sources: list[tuple[sd.GeneratorConfig, int]],
    workdir: Path,
    seed: int,
    skip: frozenset[str],
) -> dict[str, float]:
    """Median µs per call of each public function on the given instances.

    ``sources`` are the (config, trial) pairs to time the generator on;
    layers in ``skip`` already have span timings and are not called again.
    """
    rng = np.random.default_rng(seed)
    samples: dict[str, list[float]] = defaultdict(list)

    def run(layer: str, fn: Callable, args: tuple) -> None:
        if layer in skip:
            return
        for _ in range(NESTED_REPEATS):
            t0 = time.perf_counter()
            fn(*args)
            samples[layer].append(time.perf_counter() - t0)

    for config, trial in sources:
        run("generator.generate_instance", sd.generate_instance, (config, trial, TOL))
    workdir.mkdir(parents=True, exist_ok=True)
    for k, instance in enumerate(instances):
        path = workdir / f"nested{k:03d}.json"
        sd.save_instance(path, instance)
        for layer, fn, args in _layer_calls(instance, path, rng):
            run(layer, fn, args)
    return {f"{layer}_us": _median_us(values) for layer, values in samples.items()}


def _busy(times: list[tuple[float, float]]) -> float:
    return sum(t for t, _ in times)


def _median_us(values: list[float]) -> float:
    return statistics.median(values) * 1e6


def _campaign_layers(
    configs: list[sd.GeneratorConfig], refs: list, rounds: int, tally: Tally, tracer: Tracer
) -> list[float]:
    """Traced serial campaign rounds; returns the busy time of each round."""
    busy = []
    for _ in range(rounds):
        with traced_campaign_layers(tracer):
            busy.append(_busy(campaign_round(configs, refs, 1, tally, tracer.step)))
    return busy


def _campaign_self_us(tracer: Tracer, instances: int) -> float:
    """run_campaign span time minus its generation and check spans, per instance."""
    spans = tracer.durations()
    inner = sum(spans["generator.generate_instance"]) + sum(sum(spans[f"checks.{f}"]) for f in FAMILIES)
    return (sum(spans[CAMPAIGN_CALL]) - inner) / instances * 1e6


# -- campaign workloads ------------------------------------------------------------


def trace_campaign(workload: str, seed: int, seconds: float, workdir: Path, spans_path: Path) -> Measured:
    """Traced serial rounds, alternated with untraced (and, for a pool, pooled) rounds."""
    spec = CAMPAIGNS[workload]
    configs = campaign_configs(workload, seed)
    refs = [campaign_reference(c) for c in configs]
    if spec.jobs > 1:
        warm_pool()
    tracer = Tracer()
    tally = Tally()
    traced: list[float] = []
    untraced: list[float] = []
    pooled: list[float] = []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        traced += _campaign_layers(configs, refs, 1, tally, tracer)
        untraced.append(_busy(campaign_round(configs, refs, 1, tally)))
        if spec.jobs > 1:
            pooled.append(_busy(campaign_round(configs, refs, spec.jobs, tally)))
    tracer.write(spans_path)

    spans = tracer.durations()
    instances = len(traced) * sum(c.trials for c in configs)
    metrics = {
        "generator.generate_instance_us": _median_us(spans["generator.generate_instance"]),
        "gram.pivoted_cholesky.calls_per_instance": tracer.counts[CHOLESKY_CALLS] / instances,
        "campaign.self_us_per_instance": _campaign_self_us(tracer, instances),
        "campaign.parallel_speedup": statistics.median(untraced) / statistics.median(pooled) if pooled else 0.0,
        "reports.render_campaign_us": _median_us(spans["reports.render_campaign"]),
        "trace_overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
    }
    for family in FAMILIES:
        if spans.get(f"checks.{family}"):
            metrics[f"checks.{family}_us"] = _median_us(spans[f"checks.{family}"])
        metrics[f"checks.{family}.outcomes_per_instance"] = tracer.counts[f"checks.{family}.outcomes"] / instances

    # the other public functions on the round's instances, taken across configs in turn
    sample = [(c, t) for t in range(spec.trials) for c in configs][:NESTED_INSTANCES]
    instances_sample = [sd.generate_instance(c, t, TOL) for c, t in sample]
    skip = frozenset(m[:-3] for m in metrics if m.endswith("_us"))
    nested = time_nested(instances_sample, [], workdir, seed, skip)
    return Measured(_complete({**nested, **metrics}), tally)


# -- library calls ---------------------------------------------------------------


def trace_library(seed: int, seconds: float, workdir: Path, spans_path: Path) -> Measured:
    """Traced request rounds alternated with untraced ones."""
    files = library_files(seed, workdir / "files")
    refs = [library_reference(f) for f in files]
    warm_library(files)
    tracer = Tracer()
    tally = Tally()
    traced: list[float] = []
    untraced: list[float] = []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        with counting_cholesky(tracer):
            traced.append(_busy(library_round(files, refs, tally, tracer.step)))
        untraced.append(_busy(library_round(files, refs, tally)))
    tracer.write(spans_path)

    spans = tracer.durations()
    requests = len(traced) * len(files)
    metrics = {
        "gram.pivoted_cholesky.calls_per_instance": tracer.counts[CHOLESKY_CALLS] / requests,
        "campaign.parallel_speedup": 0.0,
        "trace_overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
    }
    for layer in frozenset(spans) - {REQUEST}:
        metrics[f"{layer}_us"] = _median_us(spans[layer])
    for family in FAMILIES:
        metrics[f"checks.{family}.outcomes_per_instance"] = 0.0

    # The library never runs a campaign; a short one over the files' own
    # configs (one trial each) gives run_campaign's self time and render cost.
    configs = [f.config for f in files[:LIBRARY_CAMPAIGN_CONFIGS]]
    campaign_tracer = Tracer()
    _campaign_layers(configs, [campaign_reference(c) for c in configs], 1, tally, campaign_tracer)
    metrics["campaign.self_us_per_instance"] = _campaign_self_us(campaign_tracer, len(configs))
    metrics["reports.render_campaign_us"] = _median_us(campaign_tracer.durations()["reports.render_campaign"])

    instances = [sd.load_instance(f.path, TOL) for f in files[:NESTED_INSTANCES]]
    sources = [(f.config, 0) for f in files]
    skip = frozenset(m[:-3] for m in metrics if m.endswith("_us"))
    nested = time_nested(instances, sources, workdir / "nested", seed, skip)
    return Measured(_complete({**nested, **metrics}), tally)


def _complete(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric with its unit, in a fixed order; a missing one is a bug."""
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER_UNITS.items()}
