"""The repository's tools: ``tools/line_trace.py`` walks exactly the
statements that ``tools/src_size.py`` counts, and ``tools/ab_rounds.py``
runs a checkout against itself."""

import ast
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
