"""Command-line interface.

Subcommands:
  gen       write a random instance file
  distance  exact distance + bound report for an instance file
  hadamard  determinant chain refinements for an instance file
  verify    run a check campaign over generated instances
  replay    re-run a single campaign trial and show every outcome

Exit codes: 0 success, 1 a verification check failed, 2 bad input
(arguments or instance file), 3 a mathematical precondition failed
(dependent system, orthogonal x, unsatisfied two-sided condition, ...).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .bounds import full_bound_report
from .campaign import replay_trial, run_campaign
from .checks import REGISTRY
from .distance import exact_distance
from .errors import InstanceFormatError, PreconditionError
from .generator import GeneratorConfig, generate_instance
from .hadamard import ChainVariant, check_hadamard_strict, hadamard_chain
from .instances import load_instance, save_instance
from .reports import FORMATS, render_campaign, render_distance, render_hadamard
from .space import DEFAULT_TOL, Field, ToleranceConfig

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_PRECONDITION = 3


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-compare", type=float, default=DEFAULT_TOL.compare_rel_tol, metavar="REL",
                        help="relative comparison tolerance (default %(default)s)")
    parser.add_argument("--tol-rank", type=float, default=DEFAULT_TOL.rank_rel_tol, metavar="REL",
                        help="relative rank/pivot tolerance (default %(default)s)")
    parser.add_argument("--tol-orth", type=float, default=DEFAULT_TOL.orth_rel_tol, metavar="REL",
                        help="relative orthogonality tolerance (default %(default)s)")


def _add_config_flags(parser: argparse.ArgumentParser, with_trials: bool) -> None:
    parser.add_argument("--seed", type=int, default=GeneratorConfig.seed, help="campaign seed (default %(default)s)")
    if with_trials:
        parser.add_argument("--trials", type=int, default=GeneratorConfig.trials,
                            help="number of trials (default %(default)s)")
    parser.add_argument("--dim", type=int, default=GeneratorConfig.dim, help="ambient dimension (default %(default)s)")
    parser.add_argument("--n", type=int, default=GeneratorConfig.n,
                        help="number of system vectors (default %(default)s)")
    parser.add_argument("--field", choices=[f.value for f in Field], default=GeneratorConfig.field.value)
    parser.add_argument("--conditioning", type=float, default=GeneratorConfig.conditioning,
                        help="target Gram condition number (default %(default)s)")
    parser.add_argument("--orthonormal", action="store_true", help="generate orthonormal systems")
    parser.add_argument("--intervals", action="store_true",
                        help="attach two-sided coefficient data satisfying the ball condition")
    parser.add_argument("--dependent-fraction", type=float, default=GeneratorConfig.dependent_fraction, metavar="P",
                        help="probability of degrading a trial to a dependent system (default %(default)s)")


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="human")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spandist",
                                     description="Distances to spans: bounds and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    _add_config_flags(p_gen, with_trials=False)
    p_gen.add_argument("--trial", type=int, default=0, help="trial index within the seed stream")
    p_gen.add_argument("--out", required=True, help="output path for the JSON instance")
    _add_tolerance_flags(p_gen)

    p_dist = sub.add_parser("distance", help="distance and bound report for an instance file")
    p_dist.add_argument("instance", help="path to a JSON instance")
    _add_format_flag(p_dist)
    _add_tolerance_flags(p_dist)

    p_had = sub.add_parser("hadamard", help="determinant chain refinements for an instance file")
    p_had.add_argument("instance", help="path to a JSON instance")
    _add_format_flag(p_had)
    _add_tolerance_flags(p_had)

    p_verify = sub.add_parser("verify", help="run a verification campaign")
    _add_config_flags(p_verify, with_trials=True)
    p_verify.add_argument("--checks", default=None,
                          help=f"comma-separated check names (default: all applicable; "
                               f"known: {', '.join(REGISTRY)})")
    p_verify.add_argument("--jobs", type=int, default=1, help="processes, the caller's included (default 1)")
    _add_format_flag(p_verify)
    _add_tolerance_flags(p_verify)

    p_replay = sub.add_parser("replay", help="re-run one campaign trial verbosely")
    _add_config_flags(p_replay, with_trials=False)
    p_replay.add_argument("--trial", type=int, required=True, help="trial index to replay")
    p_replay.add_argument("--checks", default=None, help="comma-separated check names")
    _add_tolerance_flags(p_replay)

    return parser


def _tol_from_args(args: argparse.Namespace) -> ToleranceConfig:
    return ToleranceConfig(
        rank_rel_tol=args.tol_rank,
        orth_rel_tol=args.tol_orth,
        compare_rel_tol=args.tol_compare,
    )


def _config_from_args(args: argparse.Namespace, trials: int | None = None) -> GeneratorConfig:
    return GeneratorConfig(
        seed=args.seed,
        trials=trials if trials is not None else getattr(args, "trials", 0),
        dim=args.dim,
        n=args.n,
        field=Field(args.field),
        conditioning=args.conditioning,
        orthonormal=args.orthonormal,
        intervals=args.intervals,
        dependent_fraction=args.dependent_fraction,
    )


def _parse_checks(raw: str | None) -> tuple[str, ...] | None:
    """The names of a --checks flag; run_campaign and replay_trial validate them."""
    return None if raw is None else tuple(name.strip() for name in raw.split(",") if name.strip())


def _cmd_gen(args: argparse.Namespace) -> int:
    tol = _tol_from_args(args)
    config = _config_from_args(args, trials=max(args.trial + 1, 1))
    instance = generate_instance(config, args.trial, tol)
    save_instance(args.out, instance)
    print(f"wrote {args.out} (n={instance.system.n}, dim={instance.system.dim}, "
          f"field={instance.system.field.value})")
    return EXIT_OK


def _cmd_distance(args: argparse.Namespace) -> int:
    tol = _tol_from_args(args)
    instance = load_instance(args.instance, tol)
    result = exact_distance(instance.system, instance.x, tol)
    report = full_bound_report(instance.system, instance.x, instance.intervals, tol)
    sys.stdout.write(render_distance(result, report, args.format))
    return EXIT_OK


def _cmd_hadamard(args: argparse.Namespace) -> int:
    tol = _tol_from_args(args)
    instance = load_instance(args.instance, tol)
    chains = [hadamard_chain(instance.system, variant, tol) for variant in ChainVariant]
    strict = check_hadamard_strict(instance.system, tol)
    sys.stdout.write(render_hadamard(chains, strict, args.format))
    if not all(c.lower_ok and c.upper_ok for c in chains):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    tol = _tol_from_args(args)
    config = _config_from_args(args)
    checks = _parse_checks(args.checks)
    result = run_campaign(config, checks=checks, jobs=args.jobs, tol=tol)
    sys.stdout.write(render_campaign(result, args.format))
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


def _cmd_replay(args: argparse.Namespace) -> int:
    tol = _tol_from_args(args)
    config = _config_from_args(args, trials=args.trial + 1)
    checks = _parse_checks(args.checks)
    outcomes = replay_trial(config, args.trial, checks=checks, tol=tol)
    failed = 0
    for oc in outcomes:
        status = "ok  " if oc.ok else "FAIL"
        print(f"{status} {oc.check_id}  margin={oc.margin:.6e}")
        if not oc.ok:
            failed += 1
            for key, value in oc.values:
                print(f"       {key} = {value!r}")
    print(f"{len(outcomes)} outcomes, {failed} failures")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


_COMMANDS = {
    "gen": _cmd_gen,
    "distance": _cmd_distance,
    "hadamard": _cmd_hadamard,
    "verify": _cmd_verify,
    "replay": _cmd_replay,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
