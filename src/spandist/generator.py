"""Deterministic random instance generation for the verification harness.

Every trial draws from a counter-based Philox stream keyed by
(seed, trial), so trial t of a campaign is reproducible in isolation —
replay never needs to fast-forward through earlier trials, and parallel
workers produce bit-identical draws regardless of scheduling. Auxiliary
randomness inside checks reads the same key with ``salt`` in counter word
2, a block of its own (see :func:`child_rng` and
:meth:`InstanceChunk.coeffs`), keeping streams independent without
coordination. A stream is a pure function of its key and counter, so one
Philox serves a whole chunk, re-keyed for each trial;
:func:`trial_rng` and :func:`child_rng` build the same streams afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
        """One instance as a chunk of one, at ``tol``; ValueError unless its
        seed and trial are None or integers in [0, 2**64)."""
        for name in ("seed", "trial"):
            if getattr(instance, name) is not None:
                _word(name, getattr(instance, name))
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
        its own auxiliary stream: key (seed, trial) with ``salt`` in counter
        word 2, the stream of :func:`child_rng`, read from one generator
        re-keyed for each trial (a None seed or trial reads as 0)."""
        count = self.systems.n if count is None else count
        field = self.systems.field
        out = _normal_stack(self.size, (count,), field)
        rng = np.random.Generator(np.random.Philox(key=0))  # re-keyed for each trial
        for k, trial in enumerate(self.trials):
            _normals(_rekey(rng, self.seed or 0, trial or 0, salt), out[k])
        return _values(out, field)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Primary stream for one trial: a new Philox keyed by (seed, trial).
    ValueError unless both are integers in [0, 2**64)."""
    return _fresh(seed, trial, 0)


def child_rng(instance: Instance, salt: int) -> np.random.Generator:
    """Auxiliary stream for a check, independent of the primary draws: a
    new Philox with the same (seed, trial) key (0 for None) and ``salt`` in
    counter word 2, a disjoint block. ValueError unless seed, trial and
    salt are integers in [0, 2**64)."""
    seed, trial = (0 if v is None else v for v in (instance.seed, instance.trial))
    return _fresh(seed, trial, salt)


def _fresh(seed: object, trial: object, salt: object) -> np.random.Generator:
    words = (_word("seed", seed), _word("trial", trial), _word("salt", salt))
    return _rekey(np.random.Generator(np.random.Philox(key=0)), *words)


def _word(name: str, value: object) -> int:
    """``value`` as one 64-bit word of a Philox key or counter."""
    value = checked_int(name, value)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    return value


def _rekey(rng: np.random.Generator, seed: int, trial: int, salt: int = 0) -> np.random.Generator:
    """``rng`` set to the start of the stream keyed by (seed, trial) with
    ``salt`` in counter word 2: the draws of a new :func:`child_rng`, with
    no buffered bits, for the cost of a state assignment."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, salt, 0], "key": [seed, trial]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # the buffer is spent: the next draw runs the counter
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _normals(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out`` with standard normals from ``rng``; every normal the
    generator draws comes through here."""
    rng.standard_normal(out=out)


def _normal_stack(size: int, shape: tuple[int, ...], field: Field) -> np.ndarray:
    """An empty (size, ...) buffer for the normals of ``size`` draws of
    ``shape`` field values: a complex draw takes the normals of its real
    parts, then those of its imaginary parts."""
    return np.empty((size, 2, *shape) if field is Field.COMPLEX else (size, *shape))


def _values(normals: np.ndarray, field: Field) -> np.ndarray:
    """The (size, ...) field values of a :func:`_normal_stack` buffer."""
    if field is Field.REAL:
        return normals
    return (normals[:, 0] + 1j * normals[:, 1]) / math.sqrt(2.0)


class _FirstPass:
    """Each trial's first draws as preallocated (T, ...) stacks, filled one
    trial at a time in its stream's order: the left frame, the right frame
    and the scale (:func:`_conditioned_rows`; an orthonormal system draws
    its frame alone), the dependence draws, then the ball's midpoints,
    width magnitudes and phases, and last x (:meth:`fill_point`)."""

    def __init__(self, config: GeneratorConfig, size: int) -> None:
        n, dim, field = config.n, config.dim, config.field
        self.config = config
        self.left = None if config.orthonormal else _normal_stack(size, (n, n), field)
        self.right = _normal_stack(size, (dim, n), field)
        self.scale = np.empty(size)
        self.dependent: list[tuple[int, int, np.ndarray]] = []  # (k, victim, coefficients)
        if config.intervals:
            self.mids = _normal_stack(size, (n,), field)
            self.mags = np.empty((size, n))
            self.phases = np.empty((size, n)) if field is Field.COMPLEX else None
            self.rho = np.zeros(size)
        self.points = _normal_stack(size, (dim,), field)

    def fill(self, rng: np.random.Generator, k: int) -> None:
        """Draw trial ``k``'s first pass from ``rng``."""
        cfg = self.config
        if self.left is not None:
            _normals(rng, self.left[k])
        _normals(rng, self.right[k])
        if self.left is not None:
            self.scale[k] = math.exp(rng.random() - 0.5)  # the bits of uniform(-0.5, 0.5)
        if cfg.dependent_fraction > 0.0 and rng.random() < cfg.dependent_fraction:
            victim = int(rng.integers(cfg.n))
            coeffs = _normal_stack(1, (cfg.n,), cfg.field)
            _normals(rng, coeffs[0])
            self.dependent.append((k, victim, _values(coeffs, cfg.field)[0]))
        if cfg.intervals:
            _normals(rng, self.mids[k])
            rng.random(out=self.mags[k])
            if self.phases is not None:
                rng.random(out=self.phases[k])
        self.fill_point(rng, k)

    def fill_point(self, rng: np.random.Generator, k: int) -> None:
        """Draw trial ``k``'s x from ``rng``: its normals, the point or the
        ball's direction, then the ball's radius fraction ``rho`` when the
        direction is nonzero. A redraw repeats this step alone."""
        _normals(rng, self.points[k])
        if self.config.intervals and np.count_nonzero(self.points[k]):
            self.rho[k] = 0.9 * rng.random()  # the bits of uniform(0.0, 0.9)


def _orthonormal_frames(normals: np.ndarray) -> np.ndarray:
    """(T, rows, dim) stack of matrices with orthonormal rows (Haar-ish via
    QR) from the (T, dim, rows) stack of ``normals``."""
    q, r = np.linalg.qr(normals)
    # fix the QR sign/phase ambiguity so the draw is a pure function of the data
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mags = np.abs(d)
    safe = np.where(mags == 0.0, 1.0, mags)
    phases = np.where(mags == 0.0, 1.0, (d / safe).conj())
    return np.swapaxes(q * phases[:, np.newaxis, :], -1, -2)


def _conditioned_rows(first: _FirstPass, cfg: GeneratorConfig) -> np.ndarray:
    """(T, n, dim) rows whose Gram matrices have condition number exactly
    cfg.conditioning."""
    right = _orthonormal_frames(_values(first.right, cfg.field))  # n x dim, orthonormal rows
    if cfg.orthonormal:
        return right
    left = np.swapaxes(_orthonormal_frames(_values(first.left, cfg.field)), -1, -2)  # n x n unitaries
    if cfg.n == 1:
        sigmas = np.ones(1)
    else:
        sigmas = np.geomspace(1.0, 1.0 / math.sqrt(cfg.conditioning), cfg.n)
    return first.scale[:, np.newaxis, np.newaxis] * ((left * sigmas) @ right)


def _ball(first: _FirstPass, systems: SystemStack) -> tuple[np.ndarray, ...]:
    """The interval data gamma/Gamma = midpoint -+ half-width, and the centre
    (the midpoint combination) and radius of the ball of the points that
    satisfy the two-sided condition. Returns (gamma, Gamma, centre, radius)
    stacks."""
    field, rows = systems.field, systems.rows
    mids = _values(first.mids, field)
    widths = 0.25 + first.mags
    if field is Field.COMPLEX:
        widths = widths * np.exp(2j * math.pi * first.phases)
    center = (mids[:, np.newaxis, :] @ rows)[:, 0, :]
    radius = np.sqrt(sq_norms((widths[:, np.newaxis, :] @ rows)[:, 0, :]))
    return mids - widths, mids + widths, center, radius


def _points(
    first: _FirstPass, systems: SystemStack, tol: ToleranceConfig, ball: list[np.ndarray] | None, k: slice
) -> tuple[np.ndarray, np.ndarray]:
    """x for the trials ``k`` of the first pass, and which of them to
    redraw: those orthogonal to their system and, with a ball (its centres
    and radii), those whose direction is zero. A ball point is centre +
    rho * radius * unit direction, rho <= 0.9, inside the ball."""
    x = _values(first.points[k], systems.field)
    with np.errstate(invalid="ignore"):  # a zero direction divides 0 by 0
        if ball is None:
            redraw = np.zeros(len(x), bool)
        else:
            center, radius = ball
            norm = np.sqrt(sq_norms(x))
            redraw = norm == 0.0
            x = center[k] + (first.rho[k] * radius[k])[:, np.newaxis] * x / norm[:, np.newaxis]
        rows, norm_max = systems.rows[k], systems.aggregates.norm_max[k]
        redraw |= orth_complement_stack(sq_norms(x), beta_stack(rows, x), norm_max, tol)
    return x, redraw


def generate_chunk(
    config: GeneratorConfig, trials: range, tol: ToleranceConfig = DEFAULT_TOL
) -> InstanceChunk:
    """Build the instances of consecutive trials as one chunk. Each trial
    draws from its own Philox stream, keyed by (seed, trial) on one
    generator, and its numbers do not depend on the other trials of the
    chunk, so this is pure and replayable per trial."""
    if not trials:
        raise ValueError(f"trial range {trials} is empty")
    for trial in (trials[0], trials[-1]):
        if not 0 <= trial < config.trials:
            raise ValueError(f"trial index {trial} outside the configured range [0, {config.trials})")
    first = _FirstPass(config, len(trials))
    rng = np.random.Generator(np.random.Philox(key=0))  # re-keyed for each trial
    for k, trial in enumerate(trials):
        first.fill(_rekey(rng, config.seed, trial), k)

    rows = _conditioned_rows(first, config)
    for k, victim, coeffs in first.dependent:
        coeffs[victim] = 0.0
        rows[k, victim] = (coeffs[np.newaxis] @ rows[k])[0]
    systems = SystemStack(rows, config.field, tol)
    lo = hi = ball = None
    if config.intervals:
        lo, hi, *ball = _ball(first, systems)
    x, redraw = _points(first, systems, tol, ball, slice(None))
    for k in np.flatnonzero(redraw).tolist():
        # the rare redraw replays trial k's first pass, into a throwaway one,
        # and draws x again where it stopped: _MAX_REDRAWS draws of x in all
        _FirstPass(config, 1).fill(_rekey(rng, config.seed, trials[k]), 0)
        for _ in range(_MAX_REDRAWS - 1):
            first.fill_point(rng, k)
            point, again = _points(first, systems, tol, ball, slice(k, k + 1))
            if not again[0]:
                x[k] = point[0]
                break
        else:
            raise NumericalInstabilityError("could not draw x outside the orthogonal complement of its system")
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
    return Instance(
        system=VectorSystem._of(chunk.systems),
        x=Vector._of(chunk.x[0]),
        intervals=None if chunk.lo is None else IntervalData._of(chunk.lo[0], chunk.hi[0]),
        seed=config.seed,
        trial=trial,
    )
