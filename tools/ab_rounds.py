"""Interleaved A/B timing of one benchmark workload on two checkouts.

    python tools/ab_rounds.py BASE CHANGE [--workload campaign_small] [--seed 1] [--rounds 60]

BASE and CHANGE are the roots of two checkouts of this repository. The
script starts one long-lived interpreter per checkout; each imports
``spandist`` from its own ``src/`` and the workload from its own
``perfbench/workloads.py`` (read as it is), runs one untimed round to warm
up, and then waits. For a campaign workload a round is every
``run_campaign`` call of the workload's configs (``campaign_configs``),
once, at the workload's ``jobs``. For ``library_calls`` a round is one
``library_request`` per instance file, in the workload's request order:
the requests that the benchmark's ``calls_per_s`` counts. Each interpreter
writes the files once (``library_files``), before its warm-up round, into
a temporary directory that it removes when it exits. The two interpreters
take turns, one round each, and which of them goes first alternates from
round to round, so slow drifts of the machine fall on both sides alike.

It prints each side's median and quartiles of the round time, the median
and quartiles of the per-round ratio BASE time / CHANGE time (above 1: the
change is faster), and the rounds each side won. It also times each call
(each ``run_campaign`` call, or each library request) and prints, per
side, the median call time over all calls and the median over rounds of
each round's tail percentile of its call times (the workload's
``CAMPAIGN_TAIL_PERCENTILE`` or ``LIBRARY_TAIL_PERCENTILE``: the
benchmark's ``call_p50_us`` and ``call_tail_us``, on the unscaled clock),
and in how many rounds each side had the lower tail percentile. The
warm-up round also hashes its output: the JSON reports of every campaign
call, or, per request, the instance file's bytes, the rendered distance
JSON and the ``repr`` of the four Hadamard chains (so a moved ``lower_ok``
or ``upper_ok`` shows). The script exits with status 1 when the two
sides' hashes differ, and with status 2 (a usage error naming the known
workloads) when a checkout does not know ``--workload``. Both interpreters
are ended before it exits.

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
    round's wall time and the wall time of each of its calls as a JSON
    list, until stdin closes. For a workload it does not know it prints the
    known ones instead and exits."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import spandist as sd
    import workloads

    if Path(sd.__file__).resolve().parent != (root / "src" / "spandist").resolve():
        sys.exit(f"error: imported spandist from {sd.__file__}, expected {root / 'src'}")
    if workload != workloads.LIBRARY and workload not in workloads.CAMPAIGNS:
        print(json.dumps({"known": sorted([*workloads.CAMPAIGNS, workloads.LIBRARY])}), flush=True)
        return
    with tempfile.TemporaryDirectory() as tmp:  # the instance files of library_calls
        digest = hashlib.sha256()
        if workload == workloads.LIBRARY:
            files = workloads.library_files(seed, Path(tmp))

            def run_round(digest=None) -> tuple[float, list[float], int]:
                outs, calls = [], []
                started = time.perf_counter()
                for file in files:
                    outs.append(workloads.library_request(file.path))
                    calls.append(time.perf_counter())
                if digest is not None:
                    for file, (_, chains, text) in zip(files, outs):
                        digest.update(file.path.read_bytes() + text.encode() + repr(chains).encode())
                return calls[-1] - started, [b - a for a, b in zip([started] + calls, calls)], len(files)

            unit, output, tail = "requests", "instance files, reports and chains", workloads.LIBRARY_TAIL_PERCENTILE
        else:
            jobs = workloads.CAMPAIGNS[workload].jobs
            configs = workloads.campaign_configs(workload, seed)

            def run_round(digest=None) -> tuple[float, list[float], int]:
                results, calls = [], []
                started = time.perf_counter()
                for config in configs:
                    results.append(sd.run_campaign(config, jobs=jobs))
                    calls.append(time.perf_counter())
                elapsed = calls[-1] - started
                if digest is not None:
                    for result in results:
                        digest.update(sd.render_campaign(result, "json").encode())
                return elapsed, [b - a for a, b in zip([started] + calls, calls)], sum(c.trials for c in configs)

            unit, output, tail = "instances", "reports", workloads.CAMPAIGN_TAIL_PERCENTILE
        _, _, count = run_round(digest)
        warm = {"digest": digest.hexdigest(), "count": count, "unit": unit, "output": output, "tail": tail}
        print(json.dumps(warm), flush=True)
        for _ in sys.stdin:
            elapsed, calls, _ = run_round()
            print(json.dumps([elapsed, calls]), flush=True)


def _reply(name: str, proc: subprocess.Popen) -> str:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"the {name} interpreter exited with code {proc.wait()}")
    return line


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _percentile(values: list[float], q: float) -> float:
    """The q-th percentile by linear interpolation, numpy.percentile's default."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


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
        for name, first in warm.items():
            if "known" in first:
                parser.error(f"unknown workload {args.workload!r}; the {name} checkout knows "
                             f"{', '.join(first['known'])}")
        times: dict[str, list[float]] = {name: [] for name in sides}
        calls: dict[str, list[list[float]]] = {name: [] for name in sides}
        for r in range(args.rounds):
            for name in sorted(sides, reverse=r % 2 == 1):
                sides[name].stdin.write("round\n")
                sides[name].stdin.flush()
                elapsed, round_calls = json.loads(_reply(name, sides[name]))
                times[name].append(elapsed)
                calls[name].append(round_calls)
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
    tail = warm["base"]["tail"]
    tails = {name: [_percentile(c, tail) for c in calls[name]] for name in sides}
    for name in sides:
        p50 = statistics.median(t for c in calls[name] for t in c)
        p_tail = statistics.median(tails[name])
        print(f"{name:>6}: call p50 {p50 * 1e6:.0f} us, call p{tail:g} {p_tail * 1e6:.0f} us (median over rounds)")
    lower = sum(b > c for b, c in zip(tails["base"], tails["change"]))
    higher = sum(b < c for b, c in zip(tails["base"], tails["change"]))
    print(f"call p{tail:g} per round: change lower in {lower}, higher in {higher} of {len(ratios)} rounds")
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
