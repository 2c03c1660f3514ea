"""Deterministic random instance generation for the verification harness.

Every trial draws from a counter-based Philox stream keyed by
(seed, trial), so trial t of a campaign is reproducible in isolation —
replay never needs to fast-forward through earlier trials, and parallel
workers produce bit-identical draws regardless of scheduling. Auxiliary
randomness inside checks uses the same key with a distinct counter block
(see :func:`child_rng` and :meth:`InstanceChunk.coeffs`), keeping streams
independent without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .bounds import BoundMethod, IntervalData, bound_values
from .distance import PointStack, beta_stack, orth_complement_stack
from .errors import NumericalInstabilityError
from .gram import SystemStack, VectorSystem
from .space import DEFAULT_TOL, Field, ToleranceConfig, Vector, checked_int, checked_real, sq_norms

__all__ = [
    "GeneratorConfig",
    "Instance",
    "InstanceChunk",
    "trial_rng",
    "child_rng",
    "generate_chunk",
    "generate_instance",
]

MAX_DIM = 512
_MAX_REDRAWS = 100


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape, field, conditioning, and size of one instance stream.

    ``conditioning`` is the target condition number of the Gram matrix
    (ratio of extreme eigenvalues); the coordinate matrix is built with
    singular-value ratio sqrt(conditioning) to achieve it exactly.
    ``dependent_fraction`` makes that share of trials linearly dependent by
    replacing one vector with a combination of the others (for exercising
    bounds that do not need independence). Both are stored as given.
    """

    seed: int = 0
    trials: int = 100
    dim: int = 4
    n: int = 2
    field: Field = Field.REAL
    conditioning: float = 1.0
    orthonormal: bool = False
    intervals: bool = False
    dependent_fraction: float = 0.0

    def __post_init__(self) -> None:
        for name in ("seed", "trials", "dim", "n"):
            object.__setattr__(self, name, checked_int(name, getattr(self, name)))
        for name in ("conditioning", "dependent_fraction"):
            checked_real(name, getattr(self, name))
        for name in ("orthonormal", "intervals"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if not isinstance(self.field, Field):
            raise ValueError(f"field must be a Field, got {self.field!r}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        if not (1 <= self.dim <= MAX_DIM):
            raise ValueError(f"dim must be in 1..{MAX_DIM}, got {self.dim}")
        if not (1 <= self.n <= self.dim):
            raise ValueError(f"n must be in 1..dim={self.dim}, got {self.n}")
        if not self.conditioning >= 1.0:
            raise ValueError("conditioning must be finite and >= 1")
        if not (0.0 <= self.dependent_fraction <= 1.0):
            raise ValueError("dependent_fraction must lie in [0, 1]")
        if self.orthonormal and self.conditioning != 1.0:
            raise ValueError("orthonormal systems have conditioning 1; do not request both")
        if self.orthonormal and self.dependent_fraction > 0.0:
            raise ValueError("orthonormal and dependent_fraction are mutually exclusive")
        if self.dependent_fraction > 0.0 and self.n < 2:
            raise ValueError("dependent systems need n >= 2")


@dataclass(frozen=True)
class Instance:
    """One generated (or loaded) problem instance.

    ``seed``/``trial`` are retained when the instance came from the
    generator so checks can derive auxiliary deterministic randomness;
    file-loaded instances carry None.
    """

    system: VectorSystem
    x: Vector
    intervals: IntervalData | None = None
    seed: int | None = None
    trial: int | None = None


class InstanceChunk(PointStack):
    """Consecutive instances of one stream as stacked arrays, a chunk of T
    trials: the :class:`~spandist.distance.PointStack` of the (T, dim)
    vectors ``x`` against the T ``systems`` at ``tol``, which also holds the
    unconditional bounds and draws each trial's auxiliary coefficients.

    ``lo`` and ``hi`` are the (T, n) interval data (None without it;
    ``widths`` is hi - lo), and ``trials`` the trial index of each entry.
    Each trial's numbers are the same bits in a chunk of one as in any
    larger chunk, so :func:`generate_instance` (a chunk of one) gives trial
    k exactly as any chunk holds it, and :meth:`of` turns any instance into
    a chunk of one.
    """

    def __init__(
        self,
        systems: SystemStack,
        x: np.ndarray,
        tol: ToleranceConfig,
        lo: np.ndarray | None,
        hi: np.ndarray | None,
        seed: int | None,
        trials: tuple[int | None, ...],
    ) -> None:
        super().__init__(systems, x, tol)
        self.lo = lo
        self.hi = hi
        self.widths = None if lo is None else hi - lo
        self.seed = seed
        self.trials = trials
        self.size = len(trials)

    @classmethod
    def of(cls, instance: Instance, tol: ToleranceConfig) -> "InstanceChunk":
        """One instance as a chunk of one, at ``tol``."""
        system, iv = instance.system, instance.intervals
        p = PointStack.of(system, instance.x, tol)
        lo = hi = None
        if iv is not None:
            lo, hi = (a[np.newaxis] for a in iv.arrays(system.field, system.n))
        return cls(p.systems, p.x, p.tol, lo, hi, instance.seed, (instance.trial,))

    @cached_property
    def unconditional(self) -> dict[BoundMethod, np.ndarray]:
        """The five unconditional bounds (:func:`~spandist.bounds.bound_values`)."""
        return bound_values(self.xx, self.s, self.systems.aggregates)

    def coeffs(self, salt: int, count: int | None = None) -> np.ndarray:
        """(T, count) coefficients (count n by default), each trial's from
        its own auxiliary stream (:func:`child_rng` with ``salt``)."""
        count = self.systems.n if count is None else count
        rngs = [_child_rng(self.seed, trial, salt) for trial in self.trials]
        return _per_trial(rngs, lambda rng: _standard(rng, (count,), self.systems.field))


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Primary stream for one trial: Philox keyed by (seed, trial)."""
    return np.random.Generator(np.random.Philox(key=[seed, trial]))


def child_rng(instance: Instance, salt: int) -> np.random.Generator:
    """Auxiliary stream for a check, independent of the primary draws.

    Uses the same (seed, trial) key with the counter advanced into a
    disjoint block selected by ``salt``.
    """
    return _child_rng(instance.seed, instance.trial, salt)


def _child_rng(seed: int | None, trial: int | None, salt: int) -> np.random.Generator:
    key = [seed if seed is not None else 0, trial if trial is not None else 0]
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, int(salt), 0]))


def _standard(rng: np.random.Generator, shape: tuple[int, ...], field: Field) -> np.ndarray:
    if field is Field.REAL:
        return rng.standard_normal(shape)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _per_trial(rngs: Sequence[np.random.Generator], draw: Callable[[np.random.Generator], np.ndarray]) -> np.ndarray:
    """A (T, ...) array of one ``draw`` from each trial's generator."""
    if len(rngs) == 1:
        return draw(rngs[0])[np.newaxis]
    return np.stack([draw(rng) for rng in rngs])


def _orthonormal_frames(
    rngs: Sequence[np.random.Generator], rows: int, dim: int, field: Field
) -> np.ndarray:
    """(T, rows, dim) stack of matrices with orthonormal rows (Haar-ish via
    QR), one from each generator."""
    q, r = np.linalg.qr(_per_trial(rngs, lambda rng: _standard(rng, (dim, rows), field)))
    # fix the QR sign/phase ambiguity so the draw is a pure function of the data
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mags = np.abs(d)
    safe = np.where(mags == 0.0, 1.0, mags)
    phases = np.where(mags == 0.0, 1.0, (d / safe).conj())
    return np.swapaxes(q * phases[:, np.newaxis, :], -1, -2)


def _conditioned_rows(rngs: Sequence[np.random.Generator], cfg: GeneratorConfig) -> np.ndarray:
    """(T, n, dim) rows whose Gram matrices have condition number exactly
    cfg.conditioning."""
    n, dim, field = cfg.n, cfg.dim, cfg.field
    if cfg.orthonormal:
        return _orthonormal_frames(rngs, n, dim, field)
    left = np.swapaxes(_orthonormal_frames(rngs, n, n, field), -1, -2)  # n x n unitaries
    right = _orthonormal_frames(rngs, n, dim, field)  # n x dim, orthonormal rows
    if n == 1:
        sigmas = np.ones(1)
    else:
        sigmas = np.geomspace(1.0, 1.0 / math.sqrt(cfg.conditioning), n)
    scale = np.array([math.exp(rng.uniform(-0.5, 0.5)) for rng in rngs])
    return scale[:, np.newaxis, np.newaxis] * ((left * sigmas) @ right)


def _off_complement(
    points: np.ndarray,
    systems: SystemStack,
    tol: ToleranceConfig,
    redraw: Callable[[int], np.ndarray | None],
    what: str,
    failed: np.ndarray | None = None,
) -> np.ndarray:
    """Keep each point outside the orthogonal complement of its system.

    ``points`` holds each trial's first attempt; ``failed`` marks the
    trials whose first attempt failed already. A trial whose point is
    orthogonal to its system draws again from its own generator,
    ``redraw(k)`` giving one attempt (None for a failed one), up to
    _MAX_REDRAWS attempts in all.
    """
    norm_max = systems.aggregates.norm_max

    def orthogonal(p: np.ndarray, k: slice) -> np.ndarray:
        return orth_complement_stack(sq_norms(p), beta_stack(systems.rows[k], p), norm_max[k], tol)

    bad = orthogonal(points, slice(None))
    if failed is not None:
        bad |= failed
    for k in np.flatnonzero(bad).tolist():
        for _ in range(_MAX_REDRAWS - 1):
            p = redraw(k)
            if p is not None and not orthogonal(p[np.newaxis], slice(k, k + 1))[0]:
                points[k] = p
                break
        else:
            raise NumericalInstabilityError(f"could not draw {what} outside the orthogonal complement")
    return points


def _draw_points(
    rngs: Sequence[np.random.Generator], systems: SystemStack, tol: ToleranceConfig
) -> np.ndarray:
    field, dim = systems.field, systems.dim
    points = _per_trial(rngs, lambda rng: _standard(rng, (dim,), field))
    return _off_complement(points, systems, tol, lambda k: _standard(rngs[k], (dim,), field), "x")


def _ball_attempt(
    rng: np.random.Generator, center: np.ndarray, radius: np.ndarray, field: Field
) -> np.ndarray | None:
    """One draw of a point of the ball: center + rho * radius * unit direction
    for (1, dim) center and (1,) radius; None when the direction is zero."""
    direction = _standard(rng, (center.shape[-1],), field)[np.newaxis]
    if not np.any(direction):
        return None
    rho = np.array([rng.uniform(0.0, 0.9)])
    return _ball_points(center, radius, direction, rho)[0]


def _ball_points(center: np.ndarray, radius: np.ndarray, direction: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return center + (rho * radius)[:, np.newaxis] * direction / np.sqrt(sq_norms(direction))[:, np.newaxis]


def _draw_ball_points(
    rngs: Sequence[np.random.Generator], systems: SystemStack, tol: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interval data plus an x inside the ball the condition describes.

    gamma/Gamma are midpoint +- half-width; x = (midpoint combination)
    + rho * radius * unit, rho <= 0.9, which satisfies the two-sided
    condition by construction. Returns (x, gamma, Gamma) stacks.
    """
    field, n, rows = systems.field, systems.n, systems.rows
    mids = _per_trial(rngs, lambda rng: _standard(rng, (n,), field))
    mags = _per_trial(rngs, lambda rng: 0.25 + rng.uniform(0.0, 1.0, n))
    if field is Field.COMPLEX:
        widths = mags * _per_trial(rngs, lambda rng: np.exp(2j * math.pi * rng.uniform(0.0, 1.0, n)))
    else:
        widths = mags
    center = (mids[:, np.newaxis, :] @ rows)[:, 0, :]
    radius = np.sqrt(sq_norms((widths[:, np.newaxis, :] @ rows)[:, 0, :]))
    directions = _per_trial(rngs, lambda rng: _standard(rng, (systems.dim,), field))
    live = np.any(directions != 0.0, axis=-1)
    rho = np.array([rng.uniform(0.0, 0.9) if ok else 0.0 for rng, ok in zip(rngs, live.tolist())])
    failed = None
    if not live.all():
        failed = ~live
        directions[failed] = 1.0  # a placeholder point, replaced by the redraws
    points = _ball_points(center, radius, directions, rho)

    def redraw(k: int) -> np.ndarray | None:
        return _ball_attempt(rngs[k], center[k : k + 1], radius[k : k + 1], field)

    points = _off_complement(points, systems, tol, redraw, "a ball point", failed)
    return points, mids - widths, mids + widths


def generate_chunk(
    config: GeneratorConfig, trials: range, tol: ToleranceConfig = DEFAULT_TOL
) -> InstanceChunk:
    """Build the instances of consecutive trials as one chunk. Each trial
    draws from its own Philox stream and its numbers do not depend on the
    other trials of the chunk, so this is pure and replayable per trial."""
    if not trials:
        raise ValueError(f"trial range {trials} is empty")
    for trial in (trials[0], trials[-1]):
        if not 0 <= trial < config.trials:
            raise ValueError(f"trial index {trial} outside the configured range [0, {config.trials})")
    rngs = [trial_rng(config.seed, t) for t in trials]
    rows = _conditioned_rows(rngs, config)
    if config.dependent_fraction > 0.0:
        for k, rng in enumerate(rngs):
            if rng.uniform() < config.dependent_fraction:
                victim = int(rng.integers(config.n))
                coeffs = _standard(rng, (config.n,), config.field)
                coeffs[victim] = 0.0
                rows[k, victim] = (coeffs[np.newaxis] @ rows[k])[0]
    systems = SystemStack(rows, config.field, tol)
    if config.intervals:
        x, lo, hi = _draw_ball_points(rngs, systems, tol)
    else:
        x, lo, hi = _draw_points(rngs, systems, tol), None, None
    for a in (x, lo, hi):
        if a is not None:
            a.setflags(write=False)
    return InstanceChunk(systems, x, tol, lo, hi, config.seed, tuple(trials))


def generate_instance(
    config: GeneratorConfig, trial: int, tol: ToleranceConfig = DEFAULT_TOL
) -> Instance:
    """Build the instance for one (config, trial) pair: a chunk of one,
    whose stack becomes the instance's system. Pure and replayable, and the
    same bits as trial ``trial`` of any chunk."""
    trial = checked_int("trial index", trial)
    chunk = generate_chunk(config, range(trial, trial + 1), tol)
    intervals = None
    if chunk.lo is not None:
        intervals = IntervalData(gammas=tuple(chunk.lo[0].tolist()), Gammas=tuple(chunk.hi[0].tolist()))
    return Instance(
        system=VectorSystem._of(chunk.systems),
        x=Vector(chunk.x[0], config.field),
        intervals=intervals,
        seed=config.seed,
        trial=trial,
    )
