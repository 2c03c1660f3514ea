"""spandist benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload campaign_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that gives the per-layer metrics. Each metric is printed on its
own line with its unit, and the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed. See README.md.
"""

import os

# One BLAS thread per process, set before numpy is imported: the pooled
# workload runs two workers on a two-core box, and threaded BLAS would
# oversubscribe it. Worker processes inherit the setting.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("campaign_small", "campaign_wide", "campaign_parallel", "library_calls")


def import_spandist():
    """Import spandist from this checkout's sources, never from an installed copy."""
    if not (SRC / "spandist" / "__init__.py").is_file():
        sys.exit(f"error: no spandist sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spandist

    if Path(spandist.__file__).resolve().parent != SRC / "spandist":
        sys.exit(f"error: imported spandist from {spandist.__file__}, expected {SRC / 'spandist'}")
    return spandist


def environment() -> dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    import tracing
    import workloads

    work = WORK / f"{workload}-{os.getpid()}"
    spans = SPANS / f"spans_{workload}_seed{seed}.jsonl"
    try:
        if workload == workloads.LIBRARY:
            if trace:
                return tracing.trace_library(seed, seconds, work, spans)
            return workloads.run_library_workload(seed, seconds, SRC, work)
        if trace:
            return tracing.trace_campaign(workload, seed, seconds, work, spans)
        return workloads.run_campaign_workload(workload, seed, seconds, SRC)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass


def stop_helper_processes() -> None:
    """Stop and reap the helper processes multiprocessing keeps for a whole
    interpreter (the resource tracker, the fork server), should anything in
    this run have started them: left alone they outlive the benchmark."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (resource_tracker._resource_tracker, forkserver._forkserver):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def print_result(metrics: dict[str, tuple[float, str]], attempted: int, failed: int) -> bool:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    print(f"  {'failed_fraction':<52} {failed / max(attempted, 1):>14.6g} ({failed} of {attempted})")
    correct = failed == 0 and attempted > 0
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(line), flush=True)
    return correct


def run_all(args: argparse.Namespace) -> bool:
    """Each workload in its own process, so that set-up and peak memory stay per workload."""
    metrics: dict[str, tuple[float, str]] = {}
    attempted = failed = 0
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.exit(f"error: workload {workload} exited {proc.returncode} without a result")
        attempted += result["attempted"]
        failed += result["failed"] + (not result["correct"])
        for name, metric in result["metrics"].items():
            metrics[f"{workload}.{name}"] = (metric["value"], metric["unit"])
    print("# all workloads")
    return print_result(metrics, attempted, failed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_spandist()
    if args.workload == "all":
        return 0 if run_all(args) else 1
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment {json.dumps(environment())}")
    try:
        measured = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_helper_processes()
    for name, value in measured.notes.items():
        print(f"# {name}: {value:.6g}")
    ok = print_result(measured.metrics, measured.tally.attempted, measured.tally.failed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
