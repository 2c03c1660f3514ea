"""Workload definitions, set-up, output checks and the untraced runs.

Every input is derived from the benchmark seed; spandist only ever sees the
generated ``GeneratorConfig`` objects and instance files. Each run is split
into rounds, and a round repeats the same fixed list of calls, so a
median over rounds compares like with like.
"""

from __future__ import annotations

import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import spandist as sd
from spandist import DEFAULT_TOL, ChainVariant, Field, GeneratorConfig

from calibration import NUMPY_IMPORT_REFERENCE_S, SpeedScale

TOL = DEFAULT_TOL
SETUP_REPEATS = 5

# Three small streams that between them select all nine check families and
# reach every "not applicable" early return (orthonormal-only, interval-only
# and independence-only checks on a stream that lacks the property).
SMALL_STREAMS = (
    dict(dim=7, n=5, field=Field.COMPLEX, conditioning=1e2, intervals=True),
    dict(dim=4, n=3, field=Field.REAL, orthonormal=True, intervals=True),
    dict(dim=6, n=4, field=Field.REAL, conditioning=1e3, dependent_fraction=0.2),
)
WIDE_STREAMS = (dict(dim=256, n=64, field=Field.REAL, conditioning=1e4),)


@dataclass(frozen=True)
class CampaignSpec:
    streams: tuple[dict, ...]
    trials: int  # trials per run_campaign call
    configs_per_stream: int  # distinct seeds per stream in one round
    jobs: int


CAMPAIGNS = {
    "campaign_small": CampaignSpec(SMALL_STREAMS, trials=16, configs_per_stream=4, jobs=1),
    "campaign_wide": CampaignSpec(WIDE_STREAMS, trials=2, configs_per_stream=4, jobs=1),
    "campaign_parallel": CampaignSpec(SMALL_STREAMS, trials=32, configs_per_stream=2, jobs=2),
}
LIBRARY = "library_calls"

# A campaign round makes 4-12 calls, a library round 216 requests.
CAMPAIGN_TAIL_PERCENTILE = 90.0
LIBRARY_TAIL_PERCENTILE = 99.0

# library_calls: a fixed grid of shapes, so that every seed sends the same
# mix and only the numbers (coordinates, conditioning, request order) change.
LIBRARY_DIMS = (3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 28, 32)
LIBRARY_REPLICATES = 3  # replicate 0 of each shape carries interval data
LIBRARY_MAX_LOG10_CONDITIONING = 4.0
LIBRARY_SECTION = 54  # requests per calibration section, a quarter of a round
LIBRARY_SETUP_SECTION = 27  # files written per calibration section in set-up


# -- set-up ------------------------------------------------------------------


def _unscaled() -> float:
    return 1.0


def _seed_stream(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def campaign_configs(workload: str, seed: int) -> list[GeneratorConfig]:
    """The round of one campaign workload: ``configs_per_stream`` seeds per stream."""
    spec = CAMPAIGNS[workload]
    rng = _seed_stream(workload, seed)
    return [
        GeneratorConfig(seed=rng.getrandbits(63), trials=spec.trials, **stream)
        for _ in range(spec.configs_per_stream)
        for stream in spec.streams
    ]


@dataclass(frozen=True)
class LibraryFile:
    path: Path
    config: GeneratorConfig  # the file holds trial 0 of this config


def library_files(seed: int, directory: Path, section_end: Callable[[], float] = _unscaled) -> list[LibraryFile]:
    """Write the library_calls instance files, in the seeded request order,
    calling ``section_end`` after every LIBRARY_SETUP_SECTION files."""
    rng = _seed_stream(LIBRARY, seed)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for dim in LIBRARY_DIMS:
        for field in (Field.REAL, Field.COMPLEX):
            for n in (2, max(2, dim // 2), dim - 1):
                for rep in range(LIBRARY_REPLICATES):
                    config = GeneratorConfig(
                        seed=rng.getrandbits(63),
                        trials=1,
                        dim=dim,
                        n=n,
                        field=field,
                        conditioning=10.0 ** rng.uniform(0.0, LIBRARY_MAX_LOG10_CONDITIONING),
                        intervals=rep == 0,
                    )
                    path = directory / f"inst{len(files):03d}.json"
                    sd.save_instance(path, sd.generate_instance(config, 0, TOL))
                    files.append(LibraryFile(path, config))
                    if len(files) % LIBRARY_SETUP_SECTION == 0:
                        section_end()
    rng.shuffle(files)
    return files


def import_seconds(src: Path) -> float:
    """Time ``import spandist``, numpy included, in a fresh interpreter (this
    one has it cached), scaled so that numpy's own import reads
    NUMPY_IMPORT_REFERENCE_S.

    Import times drift with the machine's file and memory load, which the
    calibration kernel does not see; numpy's import in the same interpreter
    does the same kind of work and drifts with them.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
        "import numpy; t1 = time.perf_counter(); import spandist; t2 = time.perf_counter(); "
        "print(t1 - t0, t2 - t0)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    numpy_s, total_s = map(float, out.stdout.split())
    return total_s * NUMPY_IMPORT_REFERENCE_S / numpy_s


def measure_setup(src: Path, build: Callable[[int, Callable[[], float]], object]) -> tuple[float, object]:
    """Median over SETUP_REPEATS of import time plus ``build(k, section_end)``,
    both on a calibrated scale; returns the last build.

    A long build calls ``section_end`` between parts of its work, so that
    calibration kernels bracket each part closely: set-up's file writing
    follows the machine's speed from one fraction of a second to the next.
    """
    totals = []
    built = None
    with SpeedScale() as scale:
        for k in range(SETUP_REPEATS):
            imported = import_seconds(src)
            scale.after_section()  # the build's first section starts at a kernel, not at the import
            sections: list[float] = []
            t0 = time.perf_counter()

            def section_end() -> float:
                nonlocal t0
                elapsed = time.perf_counter() - t0
                factor = scale.after_section()
                sections.append(elapsed * factor)
                t0 = time.perf_counter()
                return factor

            built = build(k, section_end)
            section_end()
            totals.append(imported + sum(sections))
    return statistics.median(totals), built


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


# -- output checks -------------------------------------------------------------


@dataclass(frozen=True)
class CampaignReference:
    counts: dict[str, int]
    json: str
    outcomes: int


def campaign_reference(config: GeneratorConfig) -> CampaignReference:
    """The serial run of one stream, which every later run of it must reproduce."""
    result = sd.run_campaign(config, jobs=1, tol=TOL)
    return CampaignReference(result.counts, sd.render_campaign(result, "json"), result.total_outcomes)


@dataclass(frozen=True)
class LibraryReference:
    oracle_d2: float


def library_reference(file: LibraryFile) -> LibraryReference:
    instance = sd.load_instance(file.path, TOL)
    return LibraryReference(sd.distance_sq_oracle(instance.system, instance.x))


class Tally:
    """Attempted and failed operations: check outcomes for campaigns, requests for library calls."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def campaign(self, result: sd.CampaignResult | None, ref: CampaignReference, rendered: str | None) -> None:
        self.attempted += ref.outcomes
        if result is None:
            self.failed += ref.outcomes
            return
        self.failed += len(result.failures)
        if result.counts != ref.counts or rendered != ref.json:
            self.failed += 1
            print(f"mismatch against the serial run of {result.config}", file=sys.stderr)

    def request(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def library_request_ok(d2: float, chains: list[sd.HadamardChainResult], text: str, ref: LibraryReference) -> bool:
    close = abs(d2 - ref.oracle_d2) <= TOL.compare_rel_tol * (1.0 + abs(ref.oracle_d2))
    return close and all(c.lower_ok and c.upper_ok for c in chains) and text.startswith("{")


CAMPAIGN_CALL = "campaign.run_campaign"
REQUEST = "library.request"


def _call(_layer: str, fn: Callable, *args):
    return fn(*args)


def library_request(path: Path, step: Callable = _call) -> tuple[float, list[sd.HadamardChainResult], str]:
    """What ``spandist distance --format json`` and ``spandist hadamard`` do for one file.

    ``step(layer, fn, *args)`` makes each call; the traced run passes one that
    records a span around it.
    """
    instance = step("instances.load_instance", sd.load_instance, path, TOL)
    system, x = instance.system, instance.x
    result = step("distance.exact_distance", sd.exact_distance, system, x, TOL)
    report = step("bounds.full_bound_report", sd.full_bound_report, system, x, instance.intervals, TOL)
    chains = [step("hadamard.hadamard_chain", sd.hadamard_chain, system, v, TOL) for v in ChainVariant]
    return result.d2, chains, step("reports.render_distance", sd.render_distance, result, report, "json")


def report_exception(what: str) -> None:
    print(f"{what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# -- rounds ------------------------------------------------------------------------


def campaign_round(
    configs: list[GeneratorConfig],
    refs: list[CampaignReference],
    jobs: int,
    tally: Tally,
    step: Callable = _call,
    section_end: Callable[[], float] = _unscaled,
) -> list[tuple[float, float]]:
    """One checked pass over the campaign round.

    Returns (wall time, speed factor) for each run_campaign call; every call
    is one calibration section, closed by ``section_end``.
    """
    times = []
    for config, ref in zip(configs, refs):
        result = None
        t0 = time.perf_counter()
        try:
            result = step(CAMPAIGN_CALL, sd.run_campaign, config, None, jobs, TOL)
        except Exception:
            report_exception(f"run_campaign({config})")
        elapsed = time.perf_counter() - t0
        times.append((elapsed, section_end()))
        rendered = None if result is None else step("reports.render_campaign", sd.render_campaign, result, "json")
        tally.campaign(result, ref, rendered)
    return times


def library_round(
    files: list[LibraryFile],
    refs: list[LibraryReference],
    tally: Tally,
    step: Callable = _call,
    section_end: Callable[[], float] = _unscaled,
) -> list[tuple[float, float]]:
    """One checked pass over every instance file.

    Returns (wall time, speed factor) for each request; every
    LIBRARY_SECTION requests form one calibration section.
    """
    times = []
    section: list[float] = []
    for i, (file, ref) in enumerate(zip(files, refs), 1):
        out = None
        t0 = time.perf_counter()
        try:
            out = step(REQUEST, library_request, file.path, step)
        except Exception:
            report_exception(f"request on {file.path.name}")
        section.append(time.perf_counter() - t0)
        tally.request(out is not None and library_request_ok(*out, ref))
        if i % LIBRARY_SECTION == 0 or i == len(files):
            factor = section_end()
            times += [(t, factor) for t in section]
            section = []
    return times


def warm_pool() -> None:
    """Pay the once-per-process lazy imports of the process-pool machinery."""
    sd.run_campaign(GeneratorConfig(seed=0, trials=2, dim=3, n=2), jobs=2, tol=TOL)


def warm_library(files: list[LibraryFile]) -> None:
    """First-call dispatch for both fields, with and without interval data."""
    for file in files[:12]:
        library_request(file.path)


# -- untraced runs -------------------------------------------------------------


@dataclass
class Measured:
    metrics: dict[str, tuple[float, str]]
    tally: Tally
    notes: dict[str, float] = field(default_factory=dict)  # printed, not reported


def _end_to_end(
    run_round: Callable[[Callable[[], float]], list[tuple[float, float]]],
    items_per_round: int,
    seconds: float,
    tail: float,
    cores: int = 1,
) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Whole rounds until ``seconds`` have passed, with each call's time on the
    calibrated scale; rates are medians over rounds, the median latency is
    over all calls, and the tail latency is the median over rounds of each
    round's ``tail`` percentile, so that a burst of load from other
    processes moves only the rounds it falls in.

    ``cores`` is how many cores a call loads.
    """
    latencies: list[float] = []
    round_tails: list[float] = []
    item_rates: list[float] = []
    call_rates: list[float] = []
    raw_rates: list[float] = []
    started = time.perf_counter()
    with SpeedScale(cores) as scale:
        while not latencies or time.perf_counter() - started < seconds:
            times = run_round(scale.after_section)
            scaled = [t * factor for t, factor in times]
            latencies += scaled
            round_tails.append(float(np.percentile(scaled, tail)))
            item_rates.append(items_per_round / sum(scaled))
            call_rates.append(len(scaled) / sum(scaled))
            raw_rates.append(items_per_round / sum(t for t, _ in times))
    metrics = {
        "instances_per_s": (statistics.median(item_rates), "1/s"),
        "calls_per_s": (statistics.median(call_rates), "1/s"),
        "call_p50_us": (float(np.percentile(latencies, 50)) * 1e6, "us"),
        "call_tail_us": (statistics.median(round_tails) * 1e6, "us"),
    }
    notes = {
        "call_tail_us percentile": tail,
        "calls": len(latencies),
        "rounds": len(item_rates),
        "uncalibrated instances_per_s": statistics.median(raw_rates),
        "calibration kernel median ms": scale.median_kernel_s() * 1e3,
    }
    return metrics, notes


def run_campaign_workload(workload: str, seed: int, seconds: float, src: Path) -> Measured:
    spec = CAMPAIGNS[workload]
    setup_s, configs = measure_setup(src, lambda _k, _section_end: campaign_configs(workload, seed))
    # the serial references double as warm-up: every stream runs before timing
    refs = [campaign_reference(c) for c in configs]
    if spec.jobs > 1:
        warm_pool()
    tally = Tally()
    metrics, notes = _end_to_end(
        lambda section_end: campaign_round(configs, refs, spec.jobs, tally, section_end=section_end),
        sum(c.trials for c in configs),
        seconds,
        tail=CAMPAIGN_TAIL_PERCENTILE,
        cores=spec.jobs,
    )
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(with_children=spec.jobs > 1), "MB")
    return Measured(metrics, tally, notes)


def run_library_workload(seed: int, seconds: float, src: Path, workdir: Path) -> Measured:
    setup_s, files = measure_setup(
        src, lambda k, section_end: library_files(seed, workdir / f"setup{k}", section_end)
    )
    refs = [library_reference(f) for f in files]
    warm_library(files)
    tally = Tally()
    # one request handles one instance, so instances_per_s equals calls_per_s here
    metrics, notes = _end_to_end(
        lambda section_end: library_round(files, refs, tally, section_end=section_end),
        len(files),
        seconds,
        tail=LIBRARY_TAIL_PERCENTILE,
    )
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(with_children=False), "MB")
    return Measured(metrics, tally, notes)
