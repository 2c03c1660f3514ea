"""Campaign driver: run checks over a trial stream, serially or in parallel.

Trials are generated and checked in chunks (:data:`CHUNK_TRIALS` at most,
fewer for large systems): one set of array operations serves every trial
of a chunk, and each built-in check returns per-trial arrays of margins
that are merged as they are, building a record only for a failure. A
trial's numbers do not depend on the chunk it is evaluated in, so how a
range is split into chunks, or across workers, changes nothing. A check
registered at runtime (a plain per-instance function) is called once per
trial with that trial's :func:`generate_instance`.

With ``jobs > 1`` each trial range runs in its own forked worker, which
sends its tally, or its exception and traceback, back through a pipe. All
replies are read before any worker is joined: a large one blocks its exit.

Aggregation is order-independent by construction — counts are sums, worst
margins are minima, and failures are sorted by (trial, check_id) — so a
parallel run merges to exactly the same result as a serial one, and the
machine-readable reports are byte-identical across repeats.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .checks import STACKED, CheckOutcome, Column, applicable_checks, resolve_check, run_checks, run_stacked
from .generator import GeneratorConfig, generate_chunk, generate_instance
from .space import DEFAULT_TOL, ToleranceConfig

__all__ = ["FailureRecord", "CampaignResult", "run_campaign", "replay_trial"]

# Trials per chunk, and the budget on trials * n * dim that caps it for
# large systems (a few arrays of that many entries live at once).
CHUNK_TRIALS = 16
_CHUNK_ENTRIES = 1 << 15

# Workers are forked where the platform can fork: a forked worker inherits the
# checks registered at runtime, which a spawn or forkserver worker would lack.
_MP_CONTEXT = multiprocessing.get_context("fork" if "fork" in multiprocessing.get_all_start_methods() else None)


@dataclass(frozen=True)
class FailureRecord:
    """One failed check outcome, addressable for replay."""

    trial: int
    check_id: str
    margin: float
    values: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class CampaignResult:
    config: GeneratorConfig
    checks: tuple[str, ...]
    counts: dict[str, int]
    worst_margin: dict[str, float]
    failures: tuple[FailureRecord, ...]
    runtime: float

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def total_outcomes(self) -> int:
        return sum(self.counts.values())


def _chunk_trials(config: GeneratorConfig) -> int:
    return max(1, min(CHUNK_TRIALS, _CHUNK_ENTRIES // (config.n * config.dim)))


class _Tally:
    """Outcome counts, worst margins and failures of one trial range."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.worst: dict[str, float] = {}
        self.failures: list[FailureRecord] = []

    def _count(self, check_id: str, count: int, low: float) -> None:
        self.counts[check_id] = self.counts.get(check_id, 0) + count
        prev = self.worst.get(check_id)
        if prev is None or low < prev:
            self.worst[check_id] = low

    def columns(self, trials: Sequence[int], columns: list[Column]) -> None:
        for col in columns:
            if col.mask is None:
                idx, margins = None, col.margin
            else:
                idx = np.flatnonzero(col.mask)
                if not idx.size:
                    continue
                margins = col.margin[idx]
            low = float(margins.min())
            self._count(col.check_id, margins.size, low)
            if low >= 0.0:
                continue
            bad = np.flatnonzero(~(margins >= 0.0))
            for k in (bad if idx is None else idx[bad]).tolist():
                self.failures.append(FailureRecord(
                    trial=trials[k],
                    check_id=col.check_id,
                    margin=float(col.margin[k]),
                    values=tuple((name, float(v[k])) for name, v in col.values),
                ))

    def outcomes(self, trial: int, outcomes: list[CheckOutcome]) -> None:
        for oc in outcomes:
            self._count(oc.check_id, 1, oc.margin)
            if not oc.ok:
                self.failures.append(
                    FailureRecord(trial=trial, check_id=oc.check_id, margin=oc.margin, values=oc.values)
                )


def _run_range(
    config: GeneratorConfig,
    names: tuple[str, ...],
    start: int,
    stop: int,
    tol: ToleranceConfig,
) -> tuple[dict[str, int], dict[str, float], list[FailureRecord]]:
    tally = _Tally()
    checks = [resolve_check(name) for name in names] if start < stop else []
    stacked = [fn for fn in checks if fn in STACKED]
    plain = [fn for fn in checks if fn not in STACKED]
    step = _chunk_trials(config)
    for lo in range(start, stop, step):
        trials = range(lo, min(lo + step, stop))
        if stacked:
            tally.columns(trials, run_stacked(stacked, generate_chunk(config, trials, tol), tol))
        if plain:
            for trial in trials:
                instance = generate_instance(config, trial, tol)
                for fn in plain:
                    tally.outcomes(trial, fn(instance, tol))
    return tally.counts, tally.worst, tally.failures


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a worker."""


def _worker(send, config: GeneratorConfig, names: tuple[str, ...], start: int, stop: int, tol: ToleranceConfig) -> None:
    try:
        send.send((True, _run_range(config, names, start, stop, tol)))
    except BaseException as exc:
        send.send((False, (exc, "".join(traceback.format_exception(exc)))))


def run_campaign(
    config: GeneratorConfig,
    checks: tuple[str, ...] | list[str] | None = None,
    jobs: int = 1,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CampaignResult:
    """Run ``config.trials`` independent trials of the named checks.

    ``checks=None`` selects every check applicable to the config. With
    ``jobs > 1`` the trial range is split across worker processes; results
    are identical to a serial run.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    names = tuple(checks) if checks is not None else applicable_checks(config)
    started = time.perf_counter()
    counts: dict[str, int] = {}
    worst: dict[str, float] = {}
    failures: list[FailureRecord] = []
    trials = config.trials
    if jobs <= 1 or trials < 2:
        counts, worst, failures = _run_range(config, names, 0, trials, tol)
    else:
        jobs = min(jobs, trials)
        edges = [trials * i // jobs for i in range(jobs + 1)]
        procs, conns, parts = [], [], []
        try:
            for lo, hi in zip(edges, edges[1:]):
                recv, send = _MP_CONTEXT.Pipe(duplex=False)
                conns.append(recv)
                with send:  # closed before the next fork, so that this worker's exit ends the pipe
                    proc = _MP_CONTEXT.Process(target=_worker, args=(send, config, names, lo, hi, tol))
                    proc.start()
                procs.append(proc)
            for proc, recv, lo, hi in zip(procs, conns, edges, edges[1:]):
                try:
                    ok, reply = recv.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(f"worker for trials {lo}-{hi - 1} exited with code {proc.exitcode}") from None
                if not ok:
                    raise reply[0] from _WorkerTraceback(reply[1])
                parts.append(reply)
        finally:
            for proc in procs:
                if len(parts) < len(procs):  # a share has no reply: stop the rest
                    proc.terminate()
                proc.join()
            for conn in conns:
                conn.close()
        for part_counts, part_worst, part_failures in parts:
            for key, value in part_counts.items():
                counts[key] = counts.get(key, 0) + value
            for key, value in part_worst.items():
                if key not in worst or value < worst[key]:
                    worst[key] = value
            failures.extend(part_failures)
    failures.sort(key=lambda f: (f.trial, f.check_id))
    runtime = time.perf_counter() - started
    return CampaignResult(
        config=config,
        checks=names,
        counts=dict(sorted(counts.items())),
        worst_margin=dict(sorted(worst.items())),
        failures=tuple(failures),
        runtime=runtime,
    )


def replay_trial(
    config: GeneratorConfig,
    trial: int,
    checks: tuple[str, ...] | list[str] | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[CheckOutcome]:
    """Re-run one trial exactly as the campaign saw it and return every outcome."""
    if not (0 <= trial):
        raise ValueError("trial index must be >= 0")
    names = tuple(checks) if checks is not None else applicable_checks(config)
    instance = generate_instance(config, trial, tol)
    return run_checks(instance, names, tol)
