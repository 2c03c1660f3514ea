"""Campaign driver: run checks over a trial stream, serially or in parallel.

Trials are generated and checked in chunks (:data:`CHUNK_TRIALS` at most,
fewer where the chunk's trials * n * dim would pass its entry budget): one
set of array operations serves every trial of a chunk, and each built-in
check returns (C, T) stacks of margins, one row per check id.
The tally joins a chunk's stacks and reduces all of them in one pass,
building a record only for a failure. A trial's numbers do not
depend on the chunk it is evaluated in, so how a range is split into
chunks, or across workers, changes nothing. A check registered at runtime
(a plain per-instance function) is called once per trial with that
trial's :func:`generate_instance`.

The check names are resolved once, in the caller, before any trial. With
``jobs = k > 1`` the trials are split into k ranges: the caller runs the
first itself, and k - 1 workers run the rest with the functions the caller
resolved, each sending its tally, or its exception and traceback, back
through a pipe. All replies are read before any worker is joined: a large
one blocks its exit.

Aggregation is order-independent by construction — counts are sums, worst
margins are minima (NaN where any margin is NaN), and failures are sorted
by (trial, check_id) — so a parallel run merges to exactly the same result
as a serial one, and the machine-readable reports are byte-identical
across repeats.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .checks import (
    CheckFn, CheckOutcome, CheckStack, _Family, _run_resolved, applicable_checks, resolve_checks, run_stacked,
)
from .generator import GeneratorConfig, generate_chunk, generate_instance
from .space import DEFAULT_TOL, ToleranceConfig, checked_int

__all__ = ["FailureRecord", "CampaignResult", "run_campaign", "replay_trial"]

# Trials per chunk, and the budget on trials * n * dim that caps it for
# large systems (a few arrays of that many entries live at once).
CHUNK_TRIALS = 256
_CHUNK_ENTRIES = 1 << 15


def _mp_context():
    """Fork where the platform can fork, for its start cost: a forked worker
    starts in milliseconds, a spawned one in about half a second. Forked, it
    still copies the pages it writes: on a complex 7/5 split of 32 trials it
    took about 425 minor page faults before its share and 700 in it, and ran
    its 16 trials in 5.4-9.2 ms against 3.6 ms unforked (README, ``jobs``).
    Under any method a worker runs the caller's check functions, pickled
    where it is not forked (:func:`_check_pickles`). A split run alone
    imports multiprocessing."""
    import multiprocessing
    return multiprocessing.get_context("fork" if "fork" in multiprocessing.get_all_start_methods() else None)


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
    """Outcome counts, worst margins and failures of trial ranges (:meth:`merge` adds one)."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.worst: dict[str, float] = {}
        self.failures: list[FailureRecord] = []

    def _count(self, ids: Iterable[str], counts: Iterable[int], lows: Iterable[float]) -> None:
        """Add each id's count of outcomes and their lowest margin (an id with no outcome is skipped)."""
        for check_id, count, low in zip(ids, counts, lows):
            if count:
                self.counts[check_id] = self.counts.get(check_id, 0) + count
                prev = self.worst.get(check_id)
                if prev is None or low < prev or low != low:  # a NaN, once seen, stays the worst
                    self.worst[check_id] = low

    def stacks(self, trials: Sequence[int], stacks: list[CheckStack]) -> None:
        """Tally a chunk's stacks: the counts and masked minima of every row
        in one pass over their joined (R, T) margins, then a record per failure."""
        if not stacks:
            return
        everyone = np.ones(len(trials), dtype=bool)
        masks = np.repeat(  # each stack's (T,) mask once per row
            np.array([everyone if stack.mask is None else stack.mask for stack in stacks]),
            [len(stack.ids) for stack in stacks], axis=0,
        )
        margins = np.concatenate([stack.margin for stack in stacks])
        failed = masks & ~(margins >= 0.0)
        lows = np.where(masks, margins, np.inf).min(axis=1).tolist()
        ids = [check_id for stack in stacks for check_id in stack.ids]
        self._count(ids, masks.sum(axis=1).tolist(), lows)
        if not failed.any():
            return
        rows = [(stack, c) for stack in stacks for c in range(len(stack.ids))]
        for r in np.flatnonzero(failed.any(axis=1)).tolist():
            stack, c = rows[r]
            for k in np.flatnonzero(failed[r]).tolist():
                margin, values = stack.outcome(c, k)
                self.failures.append(FailureRecord(trial=trials[k], check_id=ids[r], margin=margin, values=values))

    def merge(self, other: "_Tally") -> None:
        self._count(other.counts, other.counts.values(), [other.worst[check_id] for check_id in other.counts])
        self.failures.extend(other.failures)

    def outcomes(self, trial: int, outcomes: list[CheckOutcome]) -> None:
        self._count([oc.check_id for oc in outcomes], [1] * len(outcomes), [oc.margin for oc in outcomes])
        for oc in outcomes:
            if not oc.ok:
                self.failures.append(
                    FailureRecord(trial=trial, check_id=oc.check_id, margin=oc.margin, values=oc.values)
                )


def _run_range(
    config: GeneratorConfig,
    checks: Sequence[CheckFn],
    start: int,
    stop: int,
    tol: ToleranceConfig,
) -> _Tally:
    tally = _Tally()
    stacked = [fn for fn in checks if isinstance(fn, _Family)]
    plain = [fn for fn in checks if not isinstance(fn, _Family)]
    step = _chunk_trials(config)
    for lo in range(start, stop, step):
        trials = range(lo, min(lo + step, stop))
        if stacked:
            tally.stacks(trials, run_stacked(stacked, generate_chunk(config, trials, tol)))
        if plain:
            for trial in trials:
                instance = generate_instance(config, trial, tol)
                for fn in plain:
                    tally.outcomes(trial, fn(instance, tol))
    return tally


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a worker."""


def _worker(send, config: GeneratorConfig, checks: list[CheckFn], start: int, stop: int, tol: ToleranceConfig) -> None:
    try:
        send.send((True, _run_range(config, checks, start, stop, tol)))
    except BaseException as exc:
        from multiprocessing.reduction import ForkingPickler
        text = "".join(traceback.format_exception(exc))
        try:  # one that does not round-trip would be lost in send or in the caller's recv
            ForkingPickler.loads(ForkingPickler.dumps(exc))
        except Exception:
            summary = "".join(traceback.format_exception_only(exc)).strip()
            exc = RuntimeError(f"a worker raised an exception that does not pickle: {summary}")
        send.send((False, (exc, text)))


def _check_pickles(resolved: dict[str, CheckFn], method: str) -> None:
    """Unless workers fork, raise ValueError naming a check that does not pickle."""
    if method != "fork":
        from multiprocessing.reduction import ForkingPickler
        for name, fn in resolved.items():
            try:
                ForkingPickler.dumps(fn)
            except Exception as exc:
                raise ValueError(f"check {name!r} does not pickle, which a {method} worker needs: {exc}") from exc


def run_campaign(
    config: GeneratorConfig,
    checks: tuple[str, ...] | list[str] | None = None,
    jobs: int = 1,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CampaignResult:
    """Run ``config.trials`` independent trials of the named checks.

    ``checks=None`` selects every check applicable to the config; a bare
    str, a name given twice or an unknown name raises ValueError before any
    trial. With ``jobs > 1`` the trial range is split into ``jobs`` shares:
    the caller runs the first, a worker each of the others; results are
    identical to a serial run.
    """
    jobs = checked_int("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    resolved = resolve_checks(applicable_checks(config) if checks is None else checks)  # before any trial or fork
    names, fns = tuple(resolved), list(resolved.values())
    started = time.perf_counter()
    trials = config.trials
    if jobs <= 1 or trials < 2:
        tally = _run_range(config, fns, 0, trials, tol)
    else:
        jobs = min(jobs, trials)
        edges = [trials * i // jobs for i in range(jobs + 1)]
        procs, conns, parts, context = [], [], [], _mp_context()
        _check_pickles(resolved, context.get_start_method())  # before any process starts
        try:
            for lo, hi in zip(edges[1:], edges[2:]):
                recv, send = context.Pipe(duplex=False)
                conns.append(recv)
                with send:  # closed before the next fork, so that this worker's exit ends the pipe
                    proc = context.Process(target=_worker, args=(send, config, fns, lo, hi, tol))
                    proc.start()
                procs.append(proc)
            tally = _run_range(config, fns, 0, edges[1], tol)  # the first share, while the workers run
            for proc, recv, lo, hi in zip(procs, conns, edges[1:], edges[2:]):
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
        for part in parts:
            tally.merge(part)
    runtime = time.perf_counter() - started
    return CampaignResult(
        config=config,
        checks=names,
        counts=dict(sorted(tally.counts.items())),
        worst_margin=dict(sorted(tally.worst.items())),
        failures=tuple(sorted(tally.failures, key=lambda f: (f.trial, f.check_id))),
        runtime=runtime,
    )


def replay_trial(
    config: GeneratorConfig,
    trial: int,
    checks: tuple[str, ...] | list[str] | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[CheckOutcome]:
    """Re-run one trial exactly as the campaign saw it and return every outcome."""
    trial = checked_int("trial index", trial)
    if not (0 <= trial):
        raise ValueError("trial index must be >= 0")
    resolved = resolve_checks(applicable_checks(config) if checks is None else checks)  # before the trial
    return _run_resolved(generate_instance(config, trial, tol), resolved.values(), tol)
