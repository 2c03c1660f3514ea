"""Fingerprint the campaign reports of a fixed, seeded grid of streams.

    python tools/campaign_digest.py

Runs ``run_campaign`` serially on each stream below and prints, per
stream, the sha256 of ``render_campaign(result, "json")`` and of
``render_campaign(result, "csv")``, and a structure digest: the sha256 of
the check ids, the outcome count per id and the (trial, check_id) pair of
every failure, leaving out margins and recorded values. Then it prints one
combined digest over the json and csv lines and one over the structure
lines. A refactor that must not change any result is checked by running
this on the commit before it and on the change: the printed lines must be
identical. A change that may move only float rounding (a new kernel for
the same arithmetic) must leave every structure line identical: the same
checks ran, as often, and failed on the same trials.

Each stream is also run with ``jobs=2`` and ``jobs=3``, which split its
trials off the boundaries of the serial run's chunks: the caller runs the
first share, so ``jobs=2`` starts one worker and ``jobs=3`` two. Their json
and csv digests must equal the serial ones: a line
``MISMATCH <stream> jobs=<k> <fmt>`` is printed for each that differs.
Both splits are run again under every other method of
``multiprocessing.get_all_start_methods()``, with ``campaign._mp_context``
patched to return that method's context: a line ``START <method> <stream>
jobs=<k>`` is printed for each whose json or csv digest differs from the
serial one. Spawned workers import spandist afresh, about 0.45 s per split
call, so these runs take most of the script's time.
After each of these runs every worker must be gone: a line ``LEFTOVER
<stream> jobs=<k> <count>`` is printed when ``multiprocessing.active_children()``
still lists any. The script exits with status 1 if any ``MISMATCH``,
``START`` or ``LEFTOVER`` (or ``ORDER`` or ``SCALE``, below) line was
printed, 0 otherwise.

The per-instance API is fingerprinted too. For the first
:data:`LIBRARY_TRIALS` trials of each stream, the ``library`` line hashes
``render_distance(exact_distance(...), full_bound_report(...), "json")``
and ``render_hadamard`` of the four ``hadamard_chain`` variants with
``check_hadamard_strict``, in json, or the type of the exception a call
raises instead (``LinearDependenceError`` for a dependent system,
``ValueError`` for the chains of a single vector, ...). The ``replay`` line
hashes, for the same trials, every outcome of ``replay_trial(config, t)``
(check id, ``ok``, ``repr`` of the margin and the recorded values), or the
type of what it raises: the per-instance check path of
``generate_instance``, ``InstanceChunk.of`` and ``run_checks``. A
``combined library`` and a ``combined replay`` digest over these lines
close the output.

A system keeps the numbers of the last vector it was asked about, so the
per-instance results must not depend on the order of the calls. For each
of these trials the script also generates the instance afresh and calls
``full_bound_report`` before ``exact_distance``, and, on another fresh
instance, the calls of the ``point`` line below from last to first (so
``POINT_FUNCTIONS`` from last to first). Each document and each ``repr``
must equal the one of the forward pass: a line ``ORDER <stream> trial
<t>`` is printed for each trial where any differs, and the script then
exits with status 1.

Each function of the per-instance API that reads a (system, x) pair is
fingerprinted on its own as well. For the same trials, the ``point`` line
hashes, in this order and at the default tolerance, the ``repr`` of what
each call returns (arrays through ``.tolist()``) or the type of what it
raises: ``coefficients``, ``in_orthogonal_complement``, the five
``distance_sq_*`` functions, the five ``bound_*`` functions, the three
``bessel_rhs_*`` functions, the three functions over bare rows
(``orthonormal_rows`` of the system's rows, ``residual_after_projection``
and ``distance_sq_by_orthonormalization`` of its rows and x's
coordinates) and, on streams with interval data, ``condition_verdict``,
``bound_cond_half_width``, ``bound_cond_relaxed`` for each of the three
relaxations and ``reverse_bessel_gap``. A ``combined point`` digest over
these lines follows.

The norm-of-combination API is fingerprinted the same way. For the same
trials, the ``combination`` line draws one coefficient per vector of the
system from a generator seeded by (:data:`SEED`, trial), real or complex
with the stream's field, and hashes the ``repr`` of what each call returns
or the type of what it raises: ``evaluate_combination`` for every method of
``checks.COMBINATION_SWEEP``, the named bound function of each of those
methods (``cauchy_schwarz_bound`` through ``holder_gram_p2_bound``, seven
in all), ``combination_norm_sq`` and ``lagrange_identity_parts``. A
``combined combination`` digest over these lines follows.

The Gram-determinant API is fingerprinted the same way. For the same
trials, the ``gram`` line hashes the ``repr`` of what each call returns or
the type of what it raises: ``is_orthonormal``, ``gram_determinant``, the
system's ``gram_condition()``, ``check_gram_hadamard``,
``check_gram_product_split`` at every split position k = 1 .. n - 1 and
``check_gram_triangle`` of the instance's x and a second vector ``y1``
drawn from a generator seeded by (:data:`SEED`, trial), complex on complex
streams. A ``combined gram`` digest over these lines follows.

Results must not depend on how the rows are scaled. For the same trials,
the ``scale`` line rescales row i of the system by 2^k_i, with k_i in
[-60, 60] drawn from a generator seeded by (:data:`SEED`, trial), and
hashes the rank and the factor's condition number kappa_E
(``as_stack().factor.condition``) of the rescaled system and the ``repr``
of its ``distance_sq_gram_ratio`` and ``distance_sq_quadratic`` (or the
type of what each raises). Scaling by a power of two is exact, so all four
must equal the unscaled system's: a line ``SCALE <stream> <trial>`` is printed
for each trial where any differs, and the script then exits with status 1.
A ``combined scale`` digest over these lines follows.

The ill-conditioned end of the generator is fingerprinted by a second grid
(:data:`GRID`): both fields, dim/n 7/5, 8/7 and 12/6, Gram condition 1e8,
1e10, 1e11, 1e12, 1e13 and 1e14, seed 404, 200 trials, each run serially.
Its ``grid`` line per stream hashes the structure text only (what ran and
which trials failed), or the type of the exception the campaign raises.
Rounding moves nothing there unless it moves a decision: a rank, a clamp,
an abort or a check's verdict. A ``combined grid`` digest over these lines
is printed last.

spandist is imported from ``src/`` of the checkout this script sits in.
BLAS runs on one thread: the script sets ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` to 1 before numpy is imported, as ``perfbench/run.py``
does, and its workers inherit them. A multithreaded BLAS splits the wide
stream's matrix products by the machine's core count, which moves their
last bits: with the default thread count on a 2-core machine, the
``real_d256_n64_k1e4`` json, csv, replay and combination lines and the
combined, combined replay and combined combination digests differed from
the single-thread ones.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported (see above)
os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import spandist as sd  # noqa: E402
from spandist import Field, GeneratorConfig  # noqa: E402
from spandist import campaign as sd_campaign  # noqa: E402

SEED = 7

# name -> (trials, GeneratorConfig keyword arguments)
STREAMS = {
    # the three streams of the campaign_small benchmark workload: between
    # them they run all nine check families and every not-applicable skip
    "complex_d7_n5_k1e2_intervals": (200, dict(dim=7, n=5, field=Field.COMPLEX, conditioning=1e2, intervals=True)),
    "real_d4_n3_orthonormal_intervals": (200, dict(dim=4, n=3, field=Field.REAL, orthonormal=True, intervals=True)),
    "real_d6_n4_k1e3_dependent": (200, dict(dim=6, n=4, field=Field.REAL, conditioning=1e3, dependent_fraction=0.2)),
    "real_d40_n20_k1e4_intervals": (16, dict(dim=40, n=20, field=Field.REAL, conditioning=1e4, intervals=True)),
    "real_d3_n1_intervals": (64, dict(dim=3, n=1, field=Field.REAL, intervals=True)),
    "complex_d4_n1": (64, dict(dim=4, n=1, field=Field.COMPLEX)),
    "complex_d8_n7_k1e6": (64, dict(dim=8, n=7, field=Field.COMPLEX, conditioning=1e6)),
    "complex_d5_n4_k1e2_dependent": (64, dict(dim=5, n=4, field=Field.COMPLEX, conditioning=1e2, dependent_fraction=0.5)),
    # the shape of the campaign_wide benchmark workload, in chunks of 2: the
    # row passes of the Lagrange pair sum and a dim 256 QR; jobs=2 splits
    # it at trial 3, inside a serial chunk
    "real_d256_n64_k1e4": (6, dict(dim=256, n=64, field=Field.REAL, conditioning=1e4)),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _structure(result: sd.CampaignResult) -> str:
    """What ran and what failed, without any margin or value."""
    lines = ["checks " + " ".join(result.checks)]
    lines += [f"count {check_id} {count}" for check_id, count in result.counts.items()]
    lines += [f"failure {f.trial} {f.check_id}" for f in result.failures]
    return "\n".join(lines) + "\n"


# the ill-conditioned grid: name -> GeneratorConfig, each run serially
GRID = {
    f"grid_{field.value}_d{dim}_n{n}_k1e{e}": GeneratorConfig(
        seed=404, trials=200, dim=dim, n=n, field=field, conditioning=10.0**e)
    for field in Field
    for dim, n in ((7, 5), (8, 7), (12, 6))
    for e in (8, 10, 11, 12, 13, 14)
}

SPLITS = (2, 3)
LIBRARY_TRIALS = 16


def _or_error(call) -> str:
    """The document ``call()`` renders, or the type of what it raises."""
    try:
        return call()
    except (sd.SpandistError, ValueError) as exc:
        return type(exc).__name__ + "\n"


def _distance(inst: sd.Instance, reverse: bool) -> str:
    """The json of ``exact_distance`` and ``full_bound_report`` of an
    instance, called in this order or, with ``reverse``, the other way round."""

    def call() -> str:
        s, x = inst.system, inst.x
        if reverse:
            report = sd.full_bound_report(s, x, inst.intervals)
            result = sd.exact_distance(s, x)
        else:
            result = sd.exact_distance(s, x)
            report = sd.full_bound_report(s, x, inst.intervals)
        return sd.render_distance(result, report, "json")

    return _or_error(call)


def _library(config: GeneratorConfig) -> tuple[str, list[int]]:
    """What the per-instance API reports on the first trials of a stream,
    and the trials where calling it in reverse order reports otherwise."""
    out, disordered = [], []
    for trial in range(min(LIBRARY_TRIALS, config.trials)):
        inst = sd.generate_instance(config, trial)
        s = inst.system
        text = _distance(inst, reverse=False)
        if _distance(sd.generate_instance(config, trial), reverse=True) != text:
            disordered.append(trial)
        out.append(f"trial {trial} distance\n" + text)
        out.append(f"trial {trial} hadamard\n" + _or_error(lambda: sd.render_hadamard(
            [sd.hadamard_chain(s, variant) for variant in sd.ChainVariant], sd.check_hadamard_strict(s), "json")))
    return "".join(out), disordered


def _replay(config: GeneratorConfig) -> str:
    """What the per-instance check path reports on the first trials of a stream."""
    out = []
    for trial in range(min(LIBRARY_TRIALS, config.trials)):
        out.append(f"trial {trial} replay\n" + _or_error(lambda: "".join(
            f"{o.check_id} {o.ok} {o.margin!r} {o.values!r}\n" for o in sd.replay_trial(config, trial))))
    return "".join(out)


POINT_FUNCTIONS = (
    sd.coefficients,
    sd.in_orthogonal_complement,
    sd.distance_sq_gram_ratio,
    sd.distance_sq_quadratic,
    sd.distance_sq_projection,
    sd.distance_sq_orthonormal,
    sd.distance_sq_oracle,
    sd.bound_total_norm,
    sd.bound_offdiag_frobenius,
    sd.bound_offdiag_max,
    sd.bound_row_sums,
    sd.bound_frobenius,
    sd.bessel_rhs_offdiag_frobenius,
    sd.bessel_rhs_offdiag_max,
    sd.bessel_rhs_row_sums,
)
ROW_FUNCTIONS = (sd.residual_after_projection, sd.distance_sq_by_orthonormalization)
RELAXATIONS = sd.bounds.CONDITIONAL_METHODS[1:]  # every conditional method but the half-width bound


def _repr_or_error(call) -> str:
    """The ``repr`` of what ``call()`` returns, or the type of what it raises."""
    try:
        value = call()
    except (sd.SpandistError, ValueError) as exc:
        return type(exc).__name__ + "\n"
    return repr(value.tolist() if isinstance(value, np.ndarray) else value) + "\n"


def _point_calls(inst: sd.Instance) -> list:
    """Each per-instance call of an instance's (system, x) pair, in the
    order the ``point`` line hashes them."""
    s, x, iv = inst.system, inst.x, inst.intervals
    calls = [lambda fn=fn: fn(s, x) for fn in POINT_FUNCTIONS]
    calls.append(lambda: sd.orthonormal_rows(s.rows))
    calls += [lambda fn=fn: fn(s.rows, x.coords) for fn in ROW_FUNCTIONS]
    if iv is not None:
        calls.append(lambda: sd.condition_verdict(s, x, iv))
        calls.append(lambda: sd.bound_cond_half_width(s, x, iv))
        calls += [lambda m=m: sd.bound_cond_relaxed(s, x, iv, m) for m in RELAXATIONS]
        calls.append(lambda: sd.reverse_bessel_gap(s, x, iv))
    return calls


def _point(config: GeneratorConfig) -> tuple[str, list[int]]:
    """What each per-instance function of a (system, x) pair returns on the
    first trials of a stream, and the trials where calling them from last
    to first returns otherwise."""
    out, disordered = [], []
    for trial in range(min(LIBRARY_TRIALS, config.trials)):
        forward = [_repr_or_error(call) for call in _point_calls(sd.generate_instance(config, trial))]
        backward = [_repr_or_error(call) for call in reversed(_point_calls(sd.generate_instance(config, trial)))]
        if backward[::-1] != forward:
            disordered.append(trial)
        out.append(f"trial {trial} point\n" + "".join(forward))
    return "".join(out), disordered


# the named bound function of each combination kind, called with a method's choices
NAMED_BOUNDS = {
    sd.CombinationKind.CAUCHY_SCHWARZ: lambda a, s, m: sd.cauchy_schwarz_bound(a, s),
    sd.CombinationKind.DIAG_OFFDIAG: lambda a, s, m: sd.diag_offdiag_bound(
        a, s, m.diag_branch, m.offdiag_branch, m.diag_exp, m.offdiag_exp),
    sd.CombinationKind.SELECTION_MAX: lambda a, s, m: sd.selection_max_bound(a, s),
    sd.CombinationKind.SELECTION_FROBENIUS: lambda a, s, m: sd.selection_frobenius_bound(a, s),
    sd.CombinationKind.ROW_SUM: lambda a, s, m: sd.row_sum_bound(a, s, m.branch, m.p),
    sd.CombinationKind.HOLDER_GRAM: lambda a, s, m: sd.holder_gram_bound(a, s, m.p),
    sd.CombinationKind.HOLDER_GRAM_P2: lambda a, s, m: sd.holder_gram_p2_bound(a, s),
}


def _combination(config: GeneratorConfig) -> str:
    """What each norm-of-combination function returns on the first trials
    of a stream, for coefficients drawn from a fixed seed."""
    out = []
    for trial in range(min(LIBRARY_TRIALS, config.trials)):
        s = sd.generate_instance(config, trial).system
        rng = np.random.default_rng([SEED, trial])
        alphas = rng.standard_normal(s.n)
        if s.field is Field.COMPLEX:
            alphas = alphas + 1j * rng.standard_normal(s.n)
        calls = [lambda m=m: sd.evaluate_combination(alphas, s, m) for _, m in sd.checks.COMBINATION_SWEEP]
        calls += [lambda m=m: NAMED_BOUNDS[m.kind](alphas, s, m) for _, m in sd.checks.COMBINATION_SWEEP]
        calls.append(lambda: sd.combination_norm_sq(alphas, s))
        calls.append(lambda: sd.lagrange_identity_parts(alphas, s))
        out.append(f"trial {trial} combination\n" + "".join(_repr_or_error(call) for call in calls))
    return "".join(out)


def _gram(config: GeneratorConfig) -> str:
    """What each Gram-determinant function returns on the first trials of
    a stream."""
    out = []
    for trial in range(min(LIBRARY_TRIALS, config.trials)):
        inst = sd.generate_instance(config, trial)
        s = inst.system
        rng = np.random.default_rng([SEED, trial])
        y1 = rng.standard_normal(s.dim)
        if s.field is Field.COMPLEX:
            y1 = y1 + 1j * rng.standard_normal(s.dim)
        y1 = sd.Vector(y1, s.field)
        calls = [lambda: sd.is_orthonormal(s), lambda: sd.gram_determinant(s), s.gram_condition,
                 lambda: sd.check_gram_hadamard(s)]
        calls += [lambda k=k: sd.check_gram_product_split(s, k) for k in range(1, s.n)]
        calls.append(lambda: sd.check_gram_triangle(inst.x, y1, s))
        out.append(f"trial {trial} gram\n" + "".join(_repr_or_error(call) for call in calls))
    return "".join(out)


def _scale(config: GeneratorConfig) -> tuple[str, list[int]]:
    """The rank, condition number kappa_E, determinant-ratio distance and
    quadratic-form distance of the first trials of a stream with each row
    rescaled by a power of two, and the trials where any of them differs
    from the unscaled system's."""

    def fingerprint(system: sd.VectorSystem, x: sd.Vector) -> str:
        return f"{system.rank} {system.as_stack().factor.condition[0]!r} " + "".join(
            _repr_or_error(lambda: fn(system, x)) for fn in (sd.distance_sq_gram_ratio, sd.distance_sq_quadratic)
        )

    out, moved = [], []
    for trial in range(min(LIBRARY_TRIALS, config.trials)):
        inst = sd.generate_instance(config, trial)
        s, x = inst.system, inst.x
        k = np.random.default_rng([SEED, trial]).integers(-60, 61, s.n)
        scaled = sd.VectorSystem.from_rows(s.rows * np.exp2(k)[:, np.newaxis], s.field)
        text = fingerprint(scaled, x)
        if text != fingerprint(s, x):
            moved.append(trial)
        out.append(f"trial {trial} scale\n" + text)
    return "".join(out), moved


def _split_runs(config: GeneratorConfig):
    """Each run of the stream under :data:`SPLITS`, as (method, jobs, result):
    first with the process context ``run_campaign`` picks (method None), then
    with each other start method patched in as that context."""
    default = sd_campaign._mp_context
    others = [m for m in multiprocessing.get_all_start_methods() if m != default().get_start_method()]
    try:
        for method in [None, *others]:
            if method is not None:
                context = multiprocessing.get_context(method)
                sd_campaign._mp_context = lambda: context
            for jobs in SPLITS:
                yield method, jobs, sd.run_campaign(config, jobs=jobs)
    finally:
        sd_campaign._mp_context = default


def main() -> int:
    combined = hashlib.sha256()
    structure = hashlib.sha256()
    library = hashlib.sha256()
    replay = hashlib.sha256()
    point = hashlib.sha256()
    combination = hashlib.sha256()
    gram = hashlib.sha256()
    scale = hashlib.sha256()
    problems = 0
    for name, (trials, kwargs) in STREAMS.items():
        config = GeneratorConfig(seed=SEED, trials=trials, **kwargs)
        result = sd.run_campaign(config)
        serial = {}
        for fmt in ("json", "csv"):
            digest = serial[fmt] = _sha(sd.render_campaign(result, fmt))
            combined.update(f"{name} {fmt} {digest}\n".encode("ascii"))
            print(f"{name:<34} {fmt:<6} {digest}")
        digest = _sha(_structure(result))
        structure.update(f"{name} struct {digest}\n".encode("ascii"))
        print(f"{name:<34} {'struct':<6} {digest}")
        text, disordered = _library(config)
        digest = _sha(text)
        library.update(f"{name} library {digest}\n".encode("ascii"))
        print(f"{name:<34} library {digest}")
        digest = _sha(_replay(config))
        replay.update(f"{name} replay {digest}\n".encode("ascii"))
        print(f"{name:<34} replay {digest}")
        text, backward = _point(config)
        digest = _sha(text)
        point.update(f"{name} point {digest}\n".encode("ascii"))
        print(f"{name:<34} point  {digest}")
        for trial in sorted(set(disordered + backward)):
            problems += 1
            print(f"ORDER {name} trial {trial}")
        digest = _sha(_combination(config))
        combination.update(f"{name} combination {digest}\n".encode("ascii"))
        print(f"{name:<34} combination {digest}")
        digest = _sha(_gram(config))
        gram.update(f"{name} gram {digest}\n".encode("ascii"))
        print(f"{name:<34} gram   {digest}")
        text, moved = _scale(config)
        digest = _sha(text)
        scale.update(f"{name} scale {digest}\n".encode("ascii"))
        print(f"{name:<34} scale  {digest}")
        for trial in moved:
            problems += 1
            print(f"SCALE {name} {trial}")
        for method, jobs, split in _split_runs(config):
            differs = [fmt for fmt in ("json", "csv") if _sha(sd.render_campaign(split, fmt)) != serial[fmt]]
            if method is None:
                lines = [f"MISMATCH {name} jobs={jobs} {fmt}" for fmt in differs]
            else:
                lines = [f"START {method} {name} jobs={jobs}"] if differs else []
            leftover = len(multiprocessing.active_children())
            if leftover:
                lines.append(f"LEFTOVER {name} jobs={jobs} {leftover}")
            problems += len(lines)
            for line in lines:
                print(line)
    grid = hashlib.sha256()
    for name, config in GRID.items():
        digest = _sha(_or_error(lambda: _structure(sd.run_campaign(config))))
        grid.update(f"{name} grid {digest}\n".encode("ascii"))
        print(f"{name:<34} grid   {digest}")
    print(f"{'combined':<41} {combined.hexdigest()}")
    print(f"{'combined struct':<41} {structure.hexdigest()}")
    print(f"{'combined library':<41} {library.hexdigest()}")
    print(f"{'combined replay':<41} {replay.hexdigest()}")
    print(f"{'combined point':<41} {point.hexdigest()}")
    print(f"{'combined combination':<41} {combination.hexdigest()}")
    print(f"{'combined gram':<41} {gram.hexdigest()}")
    print(f"{'combined scale':<41} {scale.hexdigest()}")
    print(f"{'combined grid':<41} {grid.hexdigest()}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
