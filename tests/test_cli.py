"""End-to-end runs of the command-line entry point (in-process)."""

import json

import numpy as np
import pytest

import spandist as sd
from spandist.checks import REGISTRY
from spandist.cli import EXIT_BAD_INPUT, EXIT_CHECK_FAILED, EXIT_OK, EXIT_PRECONDITION, build_parser, main
from spandist.cli import _config_from_args, _tol_from_args


def test_gen_then_distance(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--seed", "5", "--dim", "5", "--n", "3", "--field", "complex",
                 "--conditioning", "100", "--out", str(out)]) == EXIT_OK
    assert out.exists()
    capsys.readouterr()

    assert main(["distance", str(out), "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["bound_report"]["exact_d2"] >= 0.0
    assert obj["distance"]["agreement_ok"] is True


def test_distance_human_output(tmp_path, capsys):
    out = tmp_path / "inst.json"
    main(["gen", "--seed", "1", "--out", str(out)])
    capsys.readouterr()
    assert main(["distance", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "d^2" in text or "distance" in text.lower()


def test_hadamard_subcommand(tmp_path, capsys):
    out = tmp_path / "inst.json"
    main(["gen", "--seed", "2", "--dim", "4", "--n", "3", "--out", str(out)])
    capsys.readouterr()
    assert main(["hadamard", str(out), "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["chains"]) == 4


def test_hadamard_fails_on_chains_that_overflow(tmp_path, capsys):
    # det G, every refined product and the norm product overflow: inf <= inf is no verdict
    path = tmp_path / "big.json"
    rows = [[1e150, 0.0, 0.0], [0.0, 1e150, 0.0]]
    path.write_text(json.dumps({"field": "real", "vectors": rows, "x": [0.0, 0.0, 1.0]}))
    with np.errstate(over="ignore"):
        assert main(["hadamard", str(path), "--format", "json"]) == EXIT_CHECK_FAILED
    chains = json.loads(capsys.readouterr().out)["chains"]
    assert [(c["gram_det"], c["lower_ok"], c["upper_ok"]) for c in chains] == [(float("inf"), False, False)] * 4


def test_verify_passes(capsys):
    code = main(["verify", "--seed", "3", "--trials", "10", "--dim", "5", "--n", "3",
                 "--intervals", "--format", "json"])
    assert code == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is True


def test_verify_restricted_checks(capsys):
    code = main(["verify", "--seed", "3", "--trials", "5", "--checks", "lagrange_identity"])
    assert code == EXIT_OK
    assert "lagrange_identity" in capsys.readouterr().out


def test_verify_unknown_check(capsys):
    code = main(["verify", "--trials", "2", "--checks", "nope"])
    assert code == EXIT_BAD_INPUT
    assert "unknown check" in capsys.readouterr().err


def test_verify_a_repeated_check(capsys):
    code = main(["verify", "--trials", "3", "--checks", "lagrange_identity,lagrange_identity"])
    assert code == EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: check name given twice: 'lagrange_identity'\n"


@pytest.mark.parametrize("command", ["verify", "replay"])
@pytest.mark.parametrize("raw", [",", "", " , "])
def test_an_empty_check_list_is_bad_input(command, raw, capsys):
    trial = ["--trials", "3"] if command == "verify" else ["--trial", "1"]
    assert main([command, *trial, "--checks", raw]) == EXIT_BAD_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err == "error: no checks to run\n"


def test_verify_failure_exit_code(monkeypatch, capsys):
    def bad(instance, tol):
        return [sd.CheckOutcome("bad/always", False, -1.0, ())]

    monkeypatch.setitem(REGISTRY, "bad", bad)
    code = main(["verify", "--seed", "3", "--trials", "4", "--checks", "bad"])
    assert code == EXIT_CHECK_FAILED
    assert "FAIL" in capsys.readouterr().out


def test_replay_subcommand(capsys, monkeypatch):
    def bad(instance, tol):
        ok = instance.trial != 2
        return [sd.CheckOutcome("bad/on_two", ok, 1.0 if ok else -2.0, ())]

    monkeypatch.setitem(REGISTRY, "bad", bad)
    assert main(["replay", "--seed", "3", "--trial", "1", "--checks", "bad"]) == EXIT_OK
    capsys.readouterr()
    assert main(["replay", "--seed", "3", "--trial", "2", "--checks", "bad"]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "bad/on_two" in out
    assert "margin=-2" in out


def test_missing_instance_file(tmp_path, capsys):
    assert main(["distance", str(tmp_path / "nope.json")]) == EXIT_BAD_INPUT


def test_malformed_instance_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    assert main(["distance", str(path)]) == EXIT_BAD_INPUT


def test_deeply_nested_instance_file_exit_code(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000)
    assert main(["distance", str(path)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: ")


def test_integer_beyond_the_float_range_exit_code(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"field": "real", "vectors": [[10**400, 0.0]], "x": [1.0, 1.0]}))
    assert main(["distance", str(path)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: ")


def test_dependent_system_exit_code(tmp_path, capsys):
    path = tmp_path / "dep.json"
    path.write_text(json.dumps({
        "field": "real",
        "vectors": [[1.0, 0.0], [2.0, 0.0]],
        "x": [0.0, 1.0],
    }))
    assert main(["distance", str(path)]) == EXIT_PRECONDITION


def test_orthogonal_x_exit_code(tmp_path, capsys):
    path = tmp_path / "orth.json"
    path.write_text(json.dumps({
        "field": "real",
        "vectors": [[1.0, 0.0, 0.0]],
        "x": [0.0, 0.0, 1.0],
    }))
    assert main(["distance", str(path)]) == EXIT_PRECONDITION


def test_bad_config_flags(capsys):
    assert main(["verify", "--trials", "5", "--dim", "3", "--n", "7"]) == EXIT_BAD_INPUT


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_a_nonpositive_jobs(capsys, jobs):
    code = main(["verify", "--seed", "0", "--trials", "4", "--dim", "3", "--n", "2", "--jobs", jobs])
    assert code == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: jobs must be at least 1, got {jobs}\n"


def test_argparse_rejects_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["distance", "x.json", "--format", "yaml"])
    assert exc.value.code == 2


def test_custom_tolerances_accepted(tmp_path, capsys):
    out = tmp_path / "inst.json"
    main(["gen", "--seed", "9", "--out", str(out)])
    capsys.readouterr()
    assert main(["distance", str(out), "--tol-compare", "1e-6"]) == EXIT_OK


def test_the_flags_default_to_the_library_defaults():
    args = build_parser().parse_args(["verify"])
    assert _tol_from_args(args) == sd.DEFAULT_TOL
    assert _config_from_args(args) == sd.GeneratorConfig()


def test_replay_prints_each_failing_outcomes_values(capsys):
    # a comparison tolerance of 1e-300 fails the rounding-level agreement checks
    args = ["replay", "--seed", "0", "--trial", "3", "--dim", "4", "--n", "3", "--tol-compare", "1e-300"]
    assert main(args) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    parsed = build_parser().parse_args(args)
    outcomes = sd.replay_trial(_config_from_args(parsed, trials=4), 3, tol=_tol_from_args(parsed))
    failed = [oc for oc in outcomes if not oc.ok]
    assert failed and lines[-1] == f"{len(outcomes)} outcomes, {len(failed)} failures"
    expected = []
    for oc in outcomes:
        expected.append(f"{'ok  ' if oc.ok else 'FAIL'} {oc.check_id}  margin={oc.margin:.6e}")
        if not oc.ok:
            expected += [f"       {key} = {value!r}" for key, value in oc.values]
    assert lines[:-1] == expected
    assert any(line.startswith("       ") for line in lines)
