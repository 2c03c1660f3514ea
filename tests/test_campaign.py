"""Campaign determinism: serial == parallel, replay reproduces failures."""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import spandist as sd
from spandist import CheckOutcome, Field, GeneratorConfig
from spandist import campaign as sd_campaign
from spandist.checks import REGISTRY
from spandist.errors import NumericalInstabilityError


CFG = GeneratorConfig(seed=2024, trials=30, dim=5, n=3, field=Field.COMPLEX,
                      conditioning=100.0, intervals=True)


def test_campaign_passes_and_counts_everything():
    res = sd.run_campaign(CFG)
    assert res.passed
    assert res.failures == ()
    assert res.total_outcomes == sum(res.counts.values())
    assert set(res.counts) == set(res.worst_margin)
    assert min(res.worst_margin.values()) >= 0.0
    assert res.runtime > 0.0


def test_two_runs_are_identical_apart_from_runtime():
    a = sd.run_campaign(CFG)
    b = sd.run_campaign(CFG)
    assert a.counts == b.counts
    assert a.worst_margin == b.worst_margin
    assert a.failures == b.failures
    assert sd.render_campaign(a, "json") == sd.render_campaign(b, "json")
    assert sd.render_campaign(a, "csv") == sd.render_campaign(b, "csv")


def test_parallel_equals_serial():
    serial = sd.run_campaign(CFG, jobs=1)
    parallel = sd.run_campaign(CFG, jobs=4)
    assert sd.render_campaign(serial, "json") == sd.render_campaign(parallel, "json")
    assert sd.render_campaign(serial, "csv") == sd.render_campaign(parallel, "csv")


def test_more_jobs_than_trials():
    small = GeneratorConfig(seed=1, trials=3, dim=4, n=2)
    res = sd.run_campaign(small, jobs=8)
    assert res.passed
    assert res.total_outcomes > 0


@pytest.mark.parametrize("jobs", [0, -3])
def test_a_nonpositive_jobs_is_rejected(jobs):
    with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
        sd.run_campaign(GeneratorConfig(seed=0, trials=4, dim=3, n=2), jobs=jobs)


@pytest.mark.parametrize("jobs", [2.5, "2", None])
def test_a_non_integer_jobs_is_rejected(jobs):
    with pytest.raises(ValueError, match="^jobs must be an integer"):
        sd.run_campaign(GeneratorConfig(seed=0, trials=4, dim=3, n=2), jobs=jobs)


def test_zero_trials():
    empty = GeneratorConfig(seed=1, trials=0, dim=4, n=2)
    res = sd.run_campaign(empty)
    assert res.passed
    assert res.total_outcomes == 0
    assert res.counts == {}


def test_check_subset_restricts_outcomes():
    res = sd.run_campaign(CFG, checks=("lagrange_identity",))
    assert set(res.counts) == {"lagrange_identity/residual"}
    assert res.counts["lagrange_identity/residual"] == CFG.trials


def test_replay_matches_campaign_outcomes():
    outcomes = sd.replay_trial(CFG, 7)
    again = sd.replay_trial(CFG, 7)
    assert outcomes == again
    assert all(o.ok for o in outcomes)


def test_replay_validates_the_trial_index():
    with pytest.raises(ValueError, match="^trial index must be >= 0$"):
        sd.replay_trial(CFG, -1)
    for trial in (True, 1.0, 2.0, 2.5, "3", None):
        with pytest.raises(ValueError, match="^trial index must be an integer"):
            sd.replay_trial(CFG, trial)
        with pytest.raises(ValueError, match="^trial index must be an integer"):
            sd.generate_instance(CFG, trial)
    assert sd.replay_trial(CFG, np.int64(7)) == sd.replay_trial(CFG, 7)
    assert type(sd.generate_instance(CFG, np.int64(7)).trial) is int


def _failing_check(instance, tol):
    # fail exactly on trial 11 with a recognizable margin
    margin = -0.5 if instance.trial == 11 else 1.0
    return [CheckOutcome(check_id="planted/fails_on_11", ok=margin >= 0.0,
                         margin=margin, values=(("trial", float(instance.trial)),))]


def test_injected_failure_is_reported_and_replays(monkeypatch):
    monkeypatch.setitem(REGISTRY, "planted", _failing_check)
    res = sd.run_campaign(CFG, checks=("planted", "lagrange_identity"))
    assert not res.passed
    assert len(res.failures) == 1
    failure = res.failures[0]
    assert failure.trial == 11
    assert failure.check_id == "planted/fails_on_11"
    assert failure.margin == -0.5

    replayed = sd.replay_trial(CFG, failure.trial, checks=("planted", "lagrange_identity"))
    bad = [o for o in replayed if not o.ok]
    assert len(bad) == 1
    assert bad[0].check_id == failure.check_id
    assert bad[0].margin == failure.margin
    assert bad[0].values == failure.values


def test_failures_sorted_by_trial_then_check(monkeypatch):
    def messy(instance, tol):
        if instance.trial in (3, 12):
            return [
                CheckOutcome("zzz/b", False, -1.0, ()),
                CheckOutcome("aaa/a", False, -2.0, ()),
            ]
        return []

    monkeypatch.setitem(REGISTRY, "messy", messy)
    res = sd.run_campaign(CFG, checks=("messy",), jobs=2)
    keys = [(f.trial, f.check_id) for f in res.failures]
    assert keys == sorted(keys)
    assert res.counts["zzz/b"] == 2


def _nan_on_trial_1(instance, tol):
    margin = 0.5 if instance.trial == 0 else math.nan
    return [CheckOutcome("planted/nan_on_1", margin >= 0.0, margin, ())]


def test_a_nan_margin_is_the_worst_in_any_order_or_split(monkeypatch):
    monkeypatch.setitem(REGISTRY, "planted", _nan_on_trial_1)
    config = GeneratorConfig(seed=3, trials=2, dim=3, n=2)
    for jobs in (1, 2):
        res = sd.run_campaign(config, checks=("planted",), jobs=jobs)
        assert math.isnan(res.worst_margin["planted/nan_on_1"]), jobs
        assert [f.trial for f in res.failures] == [1]
    parts = [sd_campaign._run_range(config, [_nan_on_trial_1], t, t + 1, sd.DEFAULT_TOL) for t in (0, 1)]
    for order in (parts, parts[::-1]):
        tally = sd_campaign._Tally()
        for part in order:
            tally.merge(part)
        assert tally.counts == {"planted/nan_on_1": 2}
        assert math.isnan(tally.worst["planted/nan_on_1"])


# jobs=2 splits it into trials 0-2, run by the caller, and 3-5, run by a
# worker; jobs=3 into 0-1 (the caller), 2-3 and 4-5 (two workers)
SHARED = GeneratorConfig(seed=5, trials=6, dim=3, n=2)


@pytest.mark.parametrize("config,jobs", [(GeneratorConfig(trials=0), 1), (SHARED, 2)])
def test_an_unknown_check_name_raises_before_any_trial_or_worker(config, jobs):
    with pytest.raises(ValueError) as info:
        sd.run_campaign(config, checks=("nope",), jobs=jobs)
    assert str(info.value) == "unknown check name: 'nope'"
    assert not isinstance(info.value.__cause__, sd_campaign._WorkerTraceback)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("checks,message", [
    (("planted", "planted"), "check name given twice: 'planted'"),
    ("planted", "checks must be a sequence of names, not the str 'planted'"),
    ((), "no checks to run"),
])
@pytest.mark.parametrize("call", ["run_campaign/1", "run_campaign/2", "replay_trial", "run_checks"])
def test_a_repeated_name_or_a_bare_str_raises_before_any_trial_or_fork(monkeypatch, checks, message, call):
    ran = []

    def planted(instance, tol):
        ran.append(instance.trial)
        return []

    def refuse(*args):
        raise AssertionError("a trial or a fork came before the check list was resolved")

    monkeypatch.setitem(REGISTRY, "planted", planted)
    instance = sd.generate_instance(SHARED, 0)
    for name in ("generate_instance", "generate_chunk", "_mp_context"):
        monkeypatch.setattr(sd_campaign, name, refuse)
    with pytest.raises(ValueError) as info:
        if call == "replay_trial":
            sd.replay_trial(SHARED, 0, checks=checks)
        elif call == "run_checks":
            sd.run_checks(instance, checks, sd.DEFAULT_TOL)
        else:
            sd.run_campaign(SHARED, checks=checks, jobs=int(call[-1]))
    assert str(info.value) == message
    assert ran == []
    assert multiprocessing.active_children() == []


def test_a_worker_exception_reaches_the_caller_with_its_traceback(monkeypatch):
    def planted(instance, tol):
        if instance.trial == 3:
            raise NumericalInstabilityError("planted at trial 3")
        return []

    monkeypatch.setitem(REGISTRY, "planted", planted)
    with pytest.raises(NumericalInstabilityError) as info:
        sd.run_campaign(SHARED, checks=("planted",), jobs=2)
    assert str(info.value) == "planted at trial 3"
    remote = str(info.value.__cause__)
    assert "Traceback (most recent call last)" in remote
    assert "in planted" in remote
    assert "NumericalInstabilityError: planted at trial 3" in remote
    assert multiprocessing.active_children() == []


def test_a_worker_that_exits_without_a_reply_raises_runtime_error(monkeypatch):
    def planted(instance, tol):
        if instance.trial == 4:
            os._exit(3)
        return []

    monkeypatch.setitem(REGISTRY, "planted", planted)
    with pytest.raises(RuntimeError, match="worker for trials 3-5 exited with code 3"):
        sd.run_campaign(SHARED, checks=("planted",), jobs=2)
    assert multiprocessing.active_children() == []


def test_a_dying_worker_is_seen_while_its_sibling_still_runs(monkeypatch):
    # the second worker sleeps for a minute: the first worker's exit must end
    # its pipe at once, and the second must be terminated
    def planted(instance, tol):
        if instance.trial == 2:
            os._exit(3)
        deadline = time.monotonic() + 60.0
        while instance.trial == 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        return []

    monkeypatch.setitem(REGISTRY, "planted", planted)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="worker for trials 2-3 exited with code 3"):
        sd.run_campaign(SHARED, checks=("planted",), jobs=3)
    assert time.monotonic() - started < 30.0
    assert multiprocessing.active_children() == []


def test_both_workers_are_joined_when_both_raise(monkeypatch, tmp_path):
    # the second worker raises first, and the first waits for it, so both
    # workers have raised by the time the first reply is read
    second_raised = tmp_path / "second_raised"

    def planted(instance, tol):
        (tmp_path / f"pid_{os.getpid()}").touch()
        if instance.trial == 4:
            second_raised.touch()
            raise ValueError("planted at trial 4")
        if instance.trial == 2:
            deadline = time.monotonic() + 60.0
            while not second_raised.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise ValueError("planted at trial 2")
        return []

    monkeypatch.setitem(REGISTRY, "planted", planted)
    with pytest.raises(ValueError, match="^planted at trial 2$"):
        sd.run_campaign(SHARED, checks=("planted",), jobs=3)
    pids = {int(path.name.split("_")[1]) for path in tmp_path.glob("pid_*")} - {os.getpid()}
    assert len(pids) == 2
    for pid in pids:
        # a worker that was joined is no child left to wait for
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert multiprocessing.active_children() == []


SEVEN = GeneratorConfig(seed=9, trials=7, dim=3, n=2)


@pytest.mark.parametrize("jobs", [2, 3, 4])
def test_the_caller_runs_the_first_share_and_jobs_minus_one_workers_the_rest(monkeypatch, tmp_path, jobs):
    def planted(instance, tol):
        (tmp_path / f"{instance.trial}_{os.getpid()}").touch()
        return [CheckOutcome("planted/ok", True, float(instance.trial))]

    monkeypatch.setitem(REGISTRY, "planted", planted)
    checks = ("planted", "lagrange_identity")
    split = sd.run_campaign(SEVEN, checks=checks, jobs=jobs)
    pid_of = dict(map(int, path.name.split("_")) for path in tmp_path.iterdir())
    assert sorted(pid_of) == list(range(SEVEN.trials))
    first = SEVEN.trials // jobs
    assert {pid_of[t] for t in range(first)} == {os.getpid()}
    workers = {pid_of[t] for t in range(first, SEVEN.trials)}
    assert os.getpid() not in workers and len(workers) == jobs - 1
    assert multiprocessing.active_children() == []
    serial = sd.run_campaign(SEVEN, checks=checks)
    assert sd.render_campaign(split, "json") == sd.render_campaign(serial, "json")
    assert sd.render_campaign(split, "csv") == sd.render_campaign(serial, "csv")


@pytest.mark.parametrize("raised", [ValueError, KeyboardInterrupt])
def test_an_exception_in_the_callers_share_stops_the_sleeping_worker(monkeypatch, raised):
    # trial 1 is the caller's, trial 3 the worker's, which sleeps for a
    # minute: the caller's exception must terminate it
    def planted(instance, tol):
        if instance.trial == 1:
            raise raised("planted at trial 1")
        deadline = time.monotonic() + 60.0
        while instance.trial == 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        return []

    monkeypatch.setitem(REGISTRY, "planted", planted)
    started = time.monotonic()
    with pytest.raises(raised, match="^planted at trial 1$") as info:
        sd.run_campaign(SHARED, checks=("planted",), jobs=2)
    assert info.value.__cause__ is None
    assert time.monotonic() - started < 30.0
    assert multiprocessing.active_children() == []


class _TwoArgumentError(Exception):
    # pickled as its type and args, which one argument cannot rebuild
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _error_with_a_lock():
    exc = ValueError("planted with a lock")
    exc.lock = threading.Lock()  # a lock does not pickle
    return exc


@pytest.mark.parametrize("make,summary", [
    (lambda: _TwoArgumentError(1, 2), "_TwoArgumentError: 1 and 2"),
    (_error_with_a_lock, "ValueError: planted with a lock"),
])
def test_a_worker_exception_that_does_not_pickle_arrives_as_a_runtime_error(monkeypatch, make, summary):
    def planted(instance, tol):
        if instance.trial == 4:
            raise make()
        return []

    monkeypatch.setitem(REGISTRY, "planted", planted)
    with pytest.raises(RuntimeError, match="^a worker raised an exception that does not pickle: ") as info:
        sd.run_campaign(SHARED, checks=("planted",), jobs=2)
    assert str(info.value).endswith(summary)
    assert isinstance(info.value.__cause__, sd_campaign._WorkerTraceback)
    remote = str(info.value.__cause__)
    assert "in planted" in remote
    assert remote.rstrip().endswith(summary)
    assert multiprocessing.active_children() == []


def test_a_campaign_at_gram_condition_1e13_completes():
    # the rank is decided once, on the equilibrated Gram matrix, and the
    # determinant ratio reads that decision: no trial aborts the campaign,
    # and what fails is the agreement of the representations
    config = GeneratorConfig(seed=11, trials=64, dim=7, n=5, conditioning=1e13)
    result = sd.run_campaign(config)
    assert result.total_outcomes == sum(result.counts.values()) > 0
    assert all(f.check_id.startswith("representation_agreement/") for f in result.failures)


def _run_child(tmp_path, script, *args):
    """Run ``script`` in a child interpreter with its own process group,
    and its output once every process of that group (workers, a fork
    server) has exited."""
    path = tmp_path / "repro.py"
    path.write_text(script)
    src = str(Path(sd.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, str(path), *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
        deadline = time.monotonic() + 10.0
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "the campaign left a process running"
            time.sleep(0.05)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert proc.returncode == 0, err
    return out


_START_METHOD_SCRIPT = textwrap.dedent("""
    import multiprocessing as mp
    import sys

    import spandist as sd
    from spandist import campaign
    from spandist.checks import REGISTRY


    def planted(instance, tol):
        # the check id names the start method of the process it runs in
        method = getattr(mp.current_process(), "_start_method", None) or "caller"
        return [sd.CheckOutcome(f"planted/{method}", True, 1.0)]


    if __name__ == "__main__":
        context = mp.get_context(sys.argv[1])
        campaign._mp_context = lambda: context
        REGISTRY["planted"] = planted
        config = sd.GeneratorConfig(seed=1, trials=4, dim=3, n=2)
        for check_id, count in sd.run_campaign(config, checks=("planted",), jobs=2).counts.items():
            print(check_id, count)
""")


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_a_runtime_check_runs_in_the_pool_under_any_start_method(tmp_path, method):
    # in a child interpreter, so that the process context is patched there
    # alone and every helper process the child leaves can be found and reaped
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} is not available on this platform")
    out = _run_child(tmp_path, _START_METHOD_SCRIPT, method)
    assert out.split() == ["planted/caller", "2", f"planted/{method}", "2"]


_UNPICKLABLE_SCRIPT = textwrap.dedent("""
    import multiprocessing as mp

    import spandist as sd
    from spandist import campaign
    from spandist.checks import REGISTRY

    if __name__ == "__main__":
        context = mp.get_context("spawn")
        campaign._mp_context = lambda: context
        REGISTRY["planted"] = lambda instance, tol: []
        config = sd.GeneratorConfig(seed=1, trials=4, dim=3, n=2)
        try:
            sd.run_campaign(config, checks=("lagrange_identity", "planted"), jobs=2)
        except Exception as exc:
            print(type(exc).__name__, len(mp.active_children()))
            print(exc)
""")


def test_an_unpicklable_runtime_check_raises_in_the_caller_under_spawn(tmp_path):
    # the caller pickles every check before it starts any process, and names
    # the one that fails; the built-in checks before it pickle by name
    if "spawn" not in multiprocessing.get_all_start_methods():
        pytest.skip("spawn is not available on this platform")
    kind, message = _run_child(tmp_path, _UNPICKLABLE_SCRIPT).splitlines()
    assert kind.split() == ["ValueError", "0"]
    assert message.startswith("check 'planted' does not pickle, which a spawn worker needs: ")


def test_check_pickles_passes_a_family_and_names_a_lambda_and_the_method():
    # in this interpreter: only a method other than fork pickles the checks
    sd_campaign._check_pickles({"lagrange_identity": REGISTRY["lagrange_identity"]}, "spawn")
    with pytest.raises(ValueError, match="^check 'planted' does not pickle, which a forkserver worker needs: "):
        sd_campaign._check_pickles({"planted": lambda instance, tol: []}, "forkserver")


def test_importing_spandist_leaves_the_executor_machinery_out():
    # in a fresh interpreter, since this session may have imported it already
    src = str(Path(sd.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", "import sys, spandist; print('concurrent.futures' in sys.modules)"],
                         capture_output=True, text=True, env=env, timeout=120, check=True).stdout
    assert out.split() == ["False"]


def test_importing_spandist_leaves_multiprocessing_out():
    # in a fresh interpreter: only a split run imports multiprocessing, and
    # a split run after the import equals the serial one
    src = str(Path(sd.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, spandist as sd; print('multiprocessing' in sys.modules); "
            "c = sd.GeneratorConfig(seed=3, trials=6, dim=4, n=2, intervals=True); "
            "print(sd.render_campaign(sd.run_campaign(c, jobs=2), 'json') == sd.render_campaign(sd.run_campaign(c), 'json')); "
            "print('multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
                         check=True).stdout
    assert out.split() == ["False", "True", "True"]


def test_only_a_split_run_asks_for_the_process_context(monkeypatch):
    asked = []
    original = sd_campaign._mp_context

    def context():
        asked.append(True)
        return original()

    monkeypatch.setattr(sd_campaign, "_mp_context", context)
    config = GeneratorConfig(seed=2, trials=4, dim=3, n=2)
    serial = sd.run_campaign(config, jobs=1)
    assert asked == []
    split = sd.run_campaign(config, jobs=2)
    assert asked == [True]
    assert sd.render_campaign(split, "json") == sd.render_campaign(serial, "json")
    assert multiprocessing.active_children() == []
