"""Interleaved A/B timing of one benchmark workload on two checkouts.

    python tools/ab_rounds.py BASE CHANGE [--workload campaign_small] [--seed 1] [--rounds 60]

BASE and CHANGE are the roots of two checkouts of this repository. The
script starts one long-lived interpreter per checkout; each imports
``spandist`` from its own ``src/`` and the workload from its own
``perfbench/workloads.py`` (read as it is), runs one untimed round to warm
up, and then waits. For a campaign workload a round is every
``run_campaign`` call of the workload's configs (``campaign_configs``),
once, at the workload's ``jobs``. For ``library_calls`` a round is the
set-up build: one ``library_files`` call that writes the instance files
into a fresh temporary directory, which is removed after the round. The
two interpreters take turns, one round each, and which of them goes first
alternates from round to round, so slow drifts of the machine fall on both
sides alike.

It prints each side's median and quartiles of the round time, the median
and quartiles of the per-round ratio BASE time / CHANGE time (above 1: the
change is faster), and the rounds each side won. The warm-up round also
hashes its output: the JSON reports of every campaign call, or the bytes
of every instance file in name order. The script exits with status 1 when
the two sides' hashes differ. Both interpreters are ended before it exits.

Separate benchmark runs of the same code on a shared machine can differ by
more than the change being measured; taking turns round by round within
two running interpreters cancels most of that drift.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def serve(root: Path, workload: str, seed: int) -> None:
    """The interpreter of one checkout: answer each line on stdin with one
    round's wall time, until stdin closes."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import spandist as sd
    import workloads

    if Path(sd.__file__).resolve().parent != (root / "src" / "spandist").resolve():
        sys.exit(f"error: imported spandist from {sd.__file__}, expected {root / 'src'}")
    digest = hashlib.sha256()
    if workload == workloads.LIBRARY:

        def run_round(digest=None) -> tuple[float, int]:
            with tempfile.TemporaryDirectory() as tmp:
                started = time.perf_counter()
                files = workloads.library_files(seed, Path(tmp))
                elapsed = time.perf_counter() - started
                if digest is not None:
                    for path in sorted(f.path for f in files):
                        digest.update(path.read_bytes())
            return elapsed, len(files)

        unit, output = "files", "instance files"
    elif workload in workloads.CAMPAIGNS:
        jobs = workloads.CAMPAIGNS[workload].jobs
        configs = workloads.campaign_configs(workload, seed)

        def run_round(digest=None) -> tuple[float, int]:
            started = time.perf_counter()
            results = [sd.run_campaign(config, jobs=jobs) for config in configs]
            elapsed = time.perf_counter() - started
            if digest is not None:
                for result in results:
                    digest.update(sd.render_campaign(result, "json").encode())
            return elapsed, sum(c.trials for c in configs)

        unit, output = "instances", "reports"
    else:
        sys.exit(f"error: {workload!r} is not one of the workloads {sorted(workloads.CAMPAIGNS) + [workloads.LIBRARY]}")
    _, count = run_round(digest)
    print(json.dumps({"digest": digest.hexdigest(), "count": count, "unit": unit, "output": output}), flush=True)
    for _ in sys.stdin:
        print(run_round()[0], flush=True)


def _reply(name: str, proc: subprocess.Popen) -> str:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"the {name} interpreter exited with code {proc.wait()}")
    return line


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", default="campaign_small")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=60)
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    # one BLAS thread, as the benchmark runs it
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    sides = {}
    try:
        for name, root in (("base", args.base), ("change", args.change)):
            sides[name] = subprocess.Popen(
                [sys.executable, __file__, "--serve", str(root.resolve()), args.workload, str(args.seed)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
            )
        warm = {name: json.loads(_reply(name, proc)) for name, proc in sides.items()}
        times: dict[str, list[float]] = {name: [] for name in sides}
        for r in range(args.rounds):
            for name in sorted(sides, reverse=r % 2 == 1):
                sides[name].stdin.write("round\n")
                sides[name].stdin.flush()
                times[name].append(float(_reply(name, sides[name])))
    finally:
        for proc in sides.values():
            proc.stdin.close()
        for proc in sides.values():
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    count, unit, output = warm["base"]["count"], warm["base"]["unit"], warm["base"]["output"]
    print(f"workload {args.workload}, seed {args.seed}, {args.rounds} rounds of {count} {unit}")
    for name in sides:
        q1, q2, q3 = _quartiles(times[name])
        print(f"{name:>6}: round {q2 * 1e3:.2f} ms (quartiles {q1 * 1e3:.2f}-{q3 * 1e3:.2f}), "
              f"{count / q2:.0f} {unit}/s")
    ratios = [b / c for b, c in zip(times["base"], times["change"])]
    q1, q2, q3 = _quartiles(ratios)
    wins = sum(r > 1.0 for r in ratios)
    losses = sum(r < 1.0 for r in ratios)
    print(f"ratio base/change: median {q2:.3f} (quartiles {q1:.3f}-{q3:.3f}); "
          f"change faster in {wins}, slower in {losses} of {len(ratios)} rounds")
    if warm["base"]["digest"] != warm["change"]["digest"]:
        print(f"{output.upper()} DIFFER: base {warm['base']['digest']} change {warm['change']['digest']}")
        return 1
    print(f"{output} equal: {warm['base']['digest']}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--serve":
        serve(Path(sys.argv[2]), sys.argv[3], int(sys.argv[4]))
    else:
        sys.exit(main())
