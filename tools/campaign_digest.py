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
trials across worker processes off the boundaries of the serial run's
chunks. Their json and csv digests must equal the serial ones: a line
``MISMATCH <stream> jobs=<k> <fmt>`` is printed for each that differs.
After each of these runs every worker must be gone: a line ``LEFTOVER
<stream> jobs=<k> <count>`` is printed when ``multiprocessing.active_children()``
still lists any. The script exits with status 1 if any ``MISMATCH`` or
``LEFTOVER`` line was printed, 0 otherwise.

The per-instance API is fingerprinted too. For the first
:data:`LIBRARY_TRIALS` trials of each stream, the ``library`` line hashes
``render_distance(exact_distance(...), full_bound_report(...), "json")``
and ``render_hadamard`` of the four ``hadamard_chain`` variants with
``check_hadamard_strict``, in json, or the type of the exception a call
raises instead (``LinearDependenceError`` for a dependent system,
``ValueError`` for the chains of a single vector, ...). A ``combined
library`` digest over these lines closes the output.

spandist is imported from ``src/`` of the checkout this script sits in.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spandist as sd  # noqa: E402
from spandist import Field, GeneratorConfig  # noqa: E402

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


SPLITS = (2, 3)
LIBRARY_TRIALS = 16


def _or_error(call) -> str:
    """The document ``call()`` renders, or the type of what it raises."""
    try:
        return call()
    except (sd.SpandistError, ValueError) as exc:
        return type(exc).__name__ + "\n"


def _library(config: GeneratorConfig) -> str:
    """What the per-instance API reports on the first trials of a stream."""
    out = []
    for trial in range(min(LIBRARY_TRIALS, config.trials)):
        inst = sd.generate_instance(config, trial)
        s, x = inst.system, inst.x
        out.append(f"trial {trial} distance\n" + _or_error(lambda: sd.render_distance(
            sd.exact_distance(s, x), sd.full_bound_report(s, x, inst.intervals), "json")))
        out.append(f"trial {trial} hadamard\n" + _or_error(lambda: sd.render_hadamard(
            [sd.hadamard_chain(s, variant) for variant in sd.ChainVariant], sd.check_hadamard_strict(s), "json")))
    return "".join(out)


def main() -> int:
    combined = hashlib.sha256()
    structure = hashlib.sha256()
    library = hashlib.sha256()
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
        digest = _sha(_library(config))
        library.update(f"{name} library {digest}\n".encode("ascii"))
        print(f"{name:<34} library {digest}")
        for jobs in SPLITS:
            split = sd.run_campaign(config, jobs=jobs)
            for fmt in ("json", "csv"):
                if _sha(sd.render_campaign(split, fmt)) != serial[fmt]:
                    problems += 1
                    print(f"MISMATCH {name} jobs={jobs} {fmt}")
            leftover = len(multiprocessing.active_children())
            if leftover:
                problems += 1
                print(f"LEFTOVER {name} jobs={jobs} {leftover}")
    print(f"{'combined':<41} {combined.hexdigest()}")
    print(f"{'combined struct':<41} {structure.hexdigest()}")
    print(f"{'combined library':<41} {library.hexdigest()}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
