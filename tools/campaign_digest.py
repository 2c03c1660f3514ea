"""Fingerprint the campaign reports of a fixed, seeded grid of streams.

    python tools/campaign_digest.py

Runs ``run_campaign`` serially on each stream below and prints, per
stream, the sha256 of ``render_campaign(result, "json")`` and of
``render_campaign(result, "csv")``, and a structure digest: the sha256 of
the check ids, the outcome count per id and the (trial, check_id) pair of
every failure, leaving out margins and recorded values. At the end it
prints one combined digest over the json and csv lines, one over the
structure lines and one over the lines of each kind below, in the order
they are described here (``combined grid`` last). A refactor that must
not change any result is checked by running this on the commit before it
and on the change: the printed lines must be identical. A change that may
move only float rounding (a new kernel for the same arithmetic) must leave
every structure line identical: the same checks ran, as often, and failed
on the same trials.

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
``START`` or ``LEFTOVER`` (or ``ORDER``, ``SCALE`` or ``THREADS``, below)
line was printed, 0 otherwise.

Each per-instance line (``library``, ``replay``, ``point``,
``combination``, ``gram`` and ``scale``) is one entry of
:data:`SECTIONS`: its label, a per-trial function that returns the trial's
text and whether the trial is flagged, and the gate line a flagged trial
prints. One loop runs the first :data:`LIBRARY_TRIALS` trials of each
stream through every entry, then prints and hashes the entry's line and
its gate lines: the union of the trials that the entries sharing a gate
flag, after the last of them. A new section or gate is one entry.

The per-instance API is fingerprinted first. For the first
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
follow.

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
does, and its workers inherit them. Real reports at these sizes must not
depend on the thread count, which a BLAS reduction would bring in: it
splits its sum by the machine's core count, and so moves the last bits
(as the Lagrange pair sum's row dot once moved the ``real_d256_n64_k1e4``
json, csv, replay and combination lines). So the streams of
:data:`THREAD_STREAMS` are run again in a child interpreter with both
variables set to 2. A line ``THREADS <stream> <fmt>`` is printed for each
json or csv digest that differs from the single-thread run, and the
script then exits with status 1. Larger streams are left out: LAPACK's
bits move with the thread count from about n = 128 at dim 512, and the
generator's complex QR moves complex reports from dim 256, n 64 on. So the
one complex stream there is dim 128, n 32, with interval data, below that
size: complex reports were the same bytes under 1 and 2 threads up to dim
128, n 48.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

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

# the streams run again under two BLAS threads: the campaign_wide shape, a
# larger real one below the size where LAPACK's bits move, and a complex one
# below the size where the generator's complex QR moves them
THREAD_STREAMS = {
    "real_d256_n64_k1e4": STREAMS["real_d256_n64_k1e4"],
    "real_d512_n96_k1e4": (4, dict(dim=512, n=96, field=Field.REAL, conditioning=1e4)),
    "complex_d128_n32_k1e4_intervals": (
        4, dict(dim=128, n=32, field=Field.COMPLEX, conditioning=1e4, intervals=True)),
}
THREADS = 2

# the child of the THREADS gate: numpy, and with it BLAS, is loaded under
# the child's thread count before this script's top pins it to 1
_THREAD_CHILD = """import runpy, sys
import numpy
for key, digest in runpy.run_path(sys.argv[1])["_report_digests"]().items():
    print(key, digest)
"""

FORMATS = ("json", "csv")


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


def _repr(value) -> str:
    return repr(value.tolist() if isinstance(value, np.ndarray) else value) + "\n"


def _or_error(call, render: Callable[[object], str] = _repr) -> str:
    """``render`` of what ``call()`` returns (by default its ``repr``, arrays
    through ``.tolist()``), or the type of what it raises."""
    try:
        value = call()
    except (sd.SpandistError, ValueError) as exc:
        return type(exc).__name__ + "\n"
    return render(value)


def _draw(trial: int, size: int, field: Field) -> np.ndarray:
    """``size`` normal draws from a generator seeded by (:data:`SEED`,
    ``trial``), with an imaginary part drawn after them on a complex field."""
    rng = np.random.default_rng([SEED, trial])
    values = rng.standard_normal(size)
    return values + 1j * rng.standard_normal(size) if field is Field.COMPLEX else values


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

    return _or_error(call, str)


def _library(config: GeneratorConfig, trial: int) -> tuple[str, bool]:
    """What the per-instance API reports on a trial, and whether calling it
    in reverse order reports otherwise."""
    inst = sd.generate_instance(config, trial)
    s = inst.system
    text = _distance(inst, reverse=False)
    hadamard = _or_error(lambda: sd.render_hadamard(
        [sd.hadamard_chain(s, variant) for variant in sd.ChainVariant], sd.check_hadamard_strict(s), "json"), str)
    return (f"trial {trial} distance\n{text}trial {trial} hadamard\n{hadamard}",
            _distance(sd.generate_instance(config, trial), reverse=True) != text)


def _replay(config: GeneratorConfig, trial: int) -> tuple[str, bool]:
    """What the per-instance check path reports on a trial."""
    text = _or_error(lambda: "".join(
        f"{o.check_id} {o.ok} {o.margin!r} {o.values!r}\n" for o in sd.replay_trial(config, trial)), str)
    return f"trial {trial} replay\n" + text, False


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


def _point(config: GeneratorConfig, trial: int) -> tuple[str, bool]:
    """What each per-instance function of a trial's (system, x) pair
    returns, and whether calling them from last to first returns otherwise."""
    forward = [_or_error(call) for call in _point_calls(sd.generate_instance(config, trial))]
    backward = [_or_error(call) for call in reversed(_point_calls(sd.generate_instance(config, trial)))]
    return f"trial {trial} point\n" + "".join(forward), backward[::-1] != forward


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


def _combination(config: GeneratorConfig, trial: int) -> tuple[str, bool]:
    """What each norm-of-combination function returns on a trial, for
    coefficients drawn from a fixed seed."""
    s = sd.generate_instance(config, trial).system
    alphas = _draw(trial, s.n, s.field)
    calls = [lambda m=m: sd.evaluate_combination(alphas, s, m) for _, m in sd.checks.COMBINATION_SWEEP]
    calls += [lambda m=m: NAMED_BOUNDS[m.kind](alphas, s, m) for _, m in sd.checks.COMBINATION_SWEEP]
    calls.append(lambda: sd.combination_norm_sq(alphas, s))
    calls.append(lambda: sd.lagrange_identity_parts(alphas, s))
    return f"trial {trial} combination\n" + "".join(map(_or_error, calls)), False


def _gram(config: GeneratorConfig, trial: int) -> tuple[str, bool]:
    """What each Gram-determinant function returns on a trial."""
    inst = sd.generate_instance(config, trial)
    s = inst.system
    y1 = sd.Vector(_draw(trial, s.dim, s.field), s.field)
    calls = [lambda: sd.is_orthonormal(s), lambda: sd.gram_determinant(s), s.gram_condition,
             lambda: sd.check_gram_hadamard(s)]
    calls += [lambda k=k: sd.check_gram_product_split(s, k) for k in range(1, s.n)]
    calls.append(lambda: sd.check_gram_triangle(inst.x, y1, s))
    return f"trial {trial} gram\n" + "".join(map(_or_error, calls)), False


def _scaled(system: sd.VectorSystem, x: sd.Vector) -> str:
    """The rank, condition number kappa_E, determinant-ratio distance and
    quadratic-form distance of a system."""
    return f"{system.rank} {system.as_stack().factor.condition[0]!r} " + "".join(
        _or_error(lambda: fn(system, x)) for fn in (sd.distance_sq_gram_ratio, sd.distance_sq_quadratic)
    )


def _scale(config: GeneratorConfig, trial: int) -> tuple[str, bool]:
    """:func:`_scaled` of a trial with each row rescaled by a power of two,
    and whether it differs from the unscaled system's."""
    inst = sd.generate_instance(config, trial)
    s, x = inst.system, inst.x
    k = np.random.default_rng([SEED, trial]).integers(-60, 61, s.n)
    text = _scaled(sd.VectorSystem.from_rows(s.rows * np.exp2(k)[:, np.newaxis], s.field), x)
    return f"trial {trial} scale\n" + text, text != _scaled(s, x)


class Section(NamedTuple):
    """A per-instance line: its label, what it hashes of one trial (and
    whether the trial is flagged), and the line a flagged trial prints."""

    label: str
    trial: Callable[[GeneratorConfig, int], tuple[str, bool]]
    gate: str | None = None


ORDER = "ORDER {name} trial {trial}"
SECTIONS = (
    Section("library", _library, ORDER),
    Section("replay", _replay),
    Section("point", _point, ORDER),
    Section("combination", _combination),
    Section("gram", _gram),
    Section("scale", _scale, "SCALE {name} {trial}"),
)
_GATED_BY = {section.gate: section for section in SECTIONS if section.gate}  # gate -> the last section with it


def _title(label: str) -> str:
    """The combined line that a line of this label feeds: json and csv share one."""
    return "combined" if label in FORMATS else f"combined {label}"


def _combined() -> dict:
    """A fresh digest per combined line, in the order they close the output."""
    labels = ("json", "struct", *(section.label for section in SECTIONS), "grid")
    return {_title(label): hashlib.sha256() for label in labels}


def _line(combined: dict, name: str, label: str, text: str) -> str:
    """Print the digest line of ``text``, add it to its combined digest and return the digest."""
    digest = _sha(text)
    combined[_title(label)].update(f"{name} {label} {digest}\n".encode("ascii"))
    print(f"{name:<34} {label:<6} {digest}")
    return digest


def _gate(lines: list[str]) -> list[str]:
    """Print each gate line and return them."""
    for line in lines:
        print(line)
    return lines


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


def _stream(name: str, config: GeneratorConfig, combined: dict) -> list[str]:
    """Print the lines of one stream, each gate line in its place, and
    return the gate lines."""
    result = sd.run_campaign(config)
    serial = {fmt: _line(combined, name, fmt, sd.render_campaign(result, fmt)) for fmt in FORMATS}
    _line(combined, name, "struct", _structure(result))
    gates, flagged = [], {section.gate: set() for section in SECTIONS}
    for section in SECTIONS:
        texts = []
        for trial in range(min(LIBRARY_TRIALS, config.trials)):
            text, flag = section.trial(config, trial)
            texts.append(text)
            if flag:
                flagged[section.gate].add(trial)
        _line(combined, name, section.label, "".join(texts))
        if _GATED_BY.get(section.gate) is section:
            gates += _gate([section.gate.format(name=name, trial=trial) for trial in sorted(flagged[section.gate])])
    for method, jobs, split in _split_runs(config):
        differs = [fmt for fmt in FORMATS if _sha(sd.render_campaign(split, fmt)) != serial[fmt]]
        if method is None:
            lines = [f"MISMATCH {name} jobs={jobs} {fmt}" for fmt in differs]
        else:
            lines = [f"START {method} {name} jobs={jobs}"] if differs else []
        leftover = len(multiprocessing.active_children())
        if leftover:
            lines.append(f"LEFTOVER {name} jobs={jobs} {leftover}")
        gates += _gate(lines)
    return gates


def _report_digests() -> dict[str, str]:
    """The json and csv digest of a serial run of each of :data:`THREAD_STREAMS`,
    keyed by "<stream> <fmt>"."""
    out = {}
    for name, (trials, kwargs) in THREAD_STREAMS.items():
        result = sd.run_campaign(GeneratorConfig(seed=SEED, trials=trials, **kwargs))
        for fmt in FORMATS:
            out[f"{name} {fmt}"] = _sha(sd.render_campaign(result, fmt))
    return out


def _threads() -> list[str]:
    """A ``THREADS`` line for each report digest that a child under
    :data:`THREADS` BLAS threads computes otherwise than this process."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(THREADS), "OMP_NUM_THREADS": str(THREADS)}
    child = subprocess.run([sys.executable, "-c", _THREAD_CHILD, __file__], env=env, capture_output=True,
                           text=True, check=True, timeout=600).stdout
    theirs = dict(line.rsplit(" ", 1) for line in child.splitlines())
    return [f"THREADS {key}" for key, digest in _report_digests().items() if theirs.get(key) != digest]


def main() -> int:
    combined = _combined()
    gates = []
    for name, (trials, kwargs) in STREAMS.items():
        gates += _stream(name, GeneratorConfig(seed=SEED, trials=trials, **kwargs), combined)
    gates += _gate(_threads())
    for name, config in GRID.items():
        _line(combined, name, "grid", _or_error(lambda: _structure(sd.run_campaign(config)), str))
    for title, digest in combined.items():
        print(f"{title:<41} {digest.hexdigest()}")
    return 1 if gates else 0


if __name__ == "__main__":
    sys.exit(main())
