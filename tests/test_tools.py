"""The repository's tools: ``tools/line_trace.py`` walks exactly the
statements that ``tools/src_size.py`` counts, ``tools/ab_rounds.py``
runs a checkout against itself, and each gate of
``tools/campaign_digest.py`` fails on a planted fault."""

import ast
import dataclasses
import importlib.util
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import line_trace  # noqa: E402
import src_size  # noqa: E402

MODULES = sorted((ROOT / "src" / "spandist").rglob("*.py"))


def test_every_module_is_listed():
    assert len(MODULES) > 10 and ROOT / "src" / "spandist" / "gram.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_line_trace_walks_the_statements_src_size_counts(path):
    source = path.read_text(encoding="utf-8")
    assert len(list(line_trace._statements(ast.parse(source)))) == src_size.measure(source)[2]


def _serving(seed):
    """The pids of live ab_rounds interpreters started with ``seed``, read from /proc."""
    pids = []
    for entry in Path("/proc").iterdir():
        try:
            argv = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:  # not a process, or one that has just exited
            continue
        if b"--serve" in argv and str(seed).encode() in argv:
            pids.append(int(entry.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="reads live processes from /proc")
def test_ab_rounds_runs_a_checkout_against_itself():
    # the A/B tool that performance claims rest on: both sides import this
    # checkout, so their reports are equal, and both interpreters are gone
    # when it exits
    seed = 7_000_000 + os.getpid()  # names this run's interpreters in /proc
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_rounds.py"), str(ROOT), str(ROOT),
         "--workload", "campaign_small", "--rounds", "2", "--seed", str(seed)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith(f"workload campaign_small, seed {seed}, 2 rounds of ")
    assert any(line.startswith("reports equal: ") for line in lines), done.stdout
    assert _serving(seed) == []


def _digest(monkeypatch):
    """``tools/campaign_digest.py`` loaded in-process, running its split
    runs under fork only. The BLAS variables it sets and the path it
    extends are restored after the test, so that no later subprocess
    inherits them."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            monkeypatch.setenv(var, os.environ[var])
        else:
            monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("campaign_digest", ROOT / "tools" / "campaign_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork"])
    return digest


def _order_dependent_report(monkeypatch, sd):
    """full_bound_report adds 1e-9 to exact_d2 when it runs before exact_distance on a system."""
    exact, report, seen = sd.exact_distance, sd.full_bound_report, []  # seen keeps each system alive

    def planted_exact(system, *args, **kwargs):
        seen.append(system)
        return exact(system, *args, **kwargs)

    def planted_report(system, *args, **kwargs):
        out = report(system, *args, **kwargs)
        return out if any(s is system for s in seen) else dataclasses.replace(out, exact_d2=out.exact_d2 + 1e-9)

    monkeypatch.setattr(sd, "exact_distance", planted_exact)
    monkeypatch.setattr(sd, "full_bound_report", planted_report)


def _scale_dependent_quadratic(monkeypatch, sd):
    """distance_sq_quadratic adds a term that grows with the rows' scale."""
    quadratic = sd.distance_sq_quadratic
    monkeypatch.setattr(sd, "distance_sq_quadratic",
                        lambda system, *args: quadratic(system, *args) + 1e-9 * float(abs(system.rows).max()))


def _worker_drops_its_last_trial(monkeypatch, sd):
    """A split run's workers each leave out the last trial of their share."""
    run_range, caller = sd.campaign._run_range, os.getpid()

    def planted(config, checks, start, stop, tol):
        return run_range(config, checks, start, stop - (os.getpid() != caller), tol)

    monkeypatch.setattr(sd.campaign, "_run_range", planted)


STREAM = "complex_d7_n5_k1e2_intervals"


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="runs its split runs under fork")
@pytest.mark.parametrize("plant, at, gates", [
    (None, 9, []),
    (_order_dependent_report, 6, [f"ORDER {STREAM} trial {t}" for t in range(4)]),
    (_scale_dependent_quadratic, 9, [f"SCALE {STREAM} {t}" for t in range(4)]),
    (_worker_drops_its_last_trial, 9, [f"MISMATCH {STREAM} jobs={k} {fmt}" for k in (2, 3) for fmt in ("json", "csv")]),
], ids=["clean", "ORDER", "SCALE", "MISMATCH"])
def test_each_gate_of_the_digest_fails_on_a_planted_fault(monkeypatch, capsys, plant, at, gates):
    # the refactor gate is only as good as its gates: clean code flags no
    # trial, and each planted fault prints its gate lines after the line
    # that found it (ORDER after point, SCALE after scale, MISMATCH last)
    digest = _digest(monkeypatch)
    if plant is not None:
        plant(monkeypatch, digest.sd)
    config = digest.GeneratorConfig(seed=digest.SEED, trials=4, **digest.STREAMS[STREAM][1])
    assert digest._stream(STREAM, config, digest._combined()) == gates
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in out[:at] + out[at + len(gates):]] == [
        "json", "csv", "struct", *(section.label for section in digest.SECTIONS)]
    assert out[at:at + len(gates)] == gates
