"""Command-line front end.

Every command reads an optional JSON config, runs one pipeline stage,
writes its outputs to files, and prints a single JSON summary line to
stdout.  Exit codes: 0 success, 2 configuration error, 3 data or format
error, 4 statistical degeneracy escalated by --strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .container import ContainerError
from .grids import encode
from .metrics import GATE_SCORES, check_targets
from .pipeline import (
    CALIBRATORS,
    ConfigError,
    PipelineConfig,
    run_calibrate,
    run_evaluate,
    run_project,
    run_simulate,
    run_sweep,
)
from .synth import GenerationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DEGENERATE = 4

# name aliases accepted by per-class flags for the default 5-class scene
DEFAULT_CLASS_NAMES = {"empty": 1, "ground": 2, "building": 3, "car": 4, "person": 5}


def _parse_class_key(key: str) -> int:
    if key in DEFAULT_CLASS_NAMES:
        return DEFAULT_CLASS_NAMES[key]
    try:
        return int(key)
    except ValueError:
        raise ConfigError(
            f"unknown class {key!r} in per-class flag (use an index or one of "
            f"{sorted(DEFAULT_CLASS_NAMES)})"
        ) from None


def _parse_rate_pairs(pairs, flag: str) -> dict[int, float]:
    rates = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"{flag} expects key=value pairs, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            rates[_parse_class_key(key)] = float(value)
        except ValueError:
            raise ConfigError(f"{flag}: {value!r} is not a number") from None
    return rates


def _apply_overrides(cfg: PipelineConfig, args) -> PipelineConfig:
    changes = {}
    if getattr(args, "split", None) is not None:
        changes["split_fraction"] = args.split

    alpha_target = _parse_rate_pairs(getattr(args, "alpha_target", None), "--alpha-target")
    alpha_o = _parse_rate_pairs(getattr(args, "alpha_o", None), "--alpha-o")
    rare = getattr(args, "rare", None)
    epsilon = getattr(args, "epsilon", None)
    method = getattr(args, "method", "hcp")
    for flag, given in (("--rare", rare), ("--alpha-o", alpha_o), ("--epsilon", epsilon)):
        if method != "hcp" and given not in (None, {}):
            raise ConfigError(f"{flag} applies only to --method hcp, not {method}")
    if alpha_target or alpha_o or rare or epsilon is not None:
        hcp = cfg.hcp
        rare_set = frozenset(_parse_class_key(k) for k in rare.split(",")) if rare else hcp.rare_set
        # a new rare set drops the config's rates for classes outside it
        alpha_o = {y: a for y, a in hcp.alpha_o.items() if y in rare_set} | alpha_o
        changes["hcp"] = dataclasses.replace(
            hcp,
            rare_set=rare_set,
            alpha_o=alpha_o,
            alpha_target={**hcp.alpha_target, **alpha_target},
            epsilon=hcp.epsilon if epsilon is None else epsilon,
        )
    return dataclasses.replace(cfg, **changes)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    parser.add_argument("--seed", type=int, help="override the config seed")


def _add_threads(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads for ray traversal; results are identical for any value",
    )


def _add_strict(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit with status 4 when calibration degeneracies are detected",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sscuq",
        description="Probabilistic occupancy projection and hierarchical "
        "conformal prediction on voxel grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic world, depths, softmax")
    _add_common(p)
    _add_threads(p)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("project", help="project a depth file into a voxel grid")
    _add_common(p)
    _add_threads(p)
    p.add_argument("--depth", required=True, help="SSCG depth_estimate (or depth) file")
    p.add_argument("--out", required=True)
    p.add_argument("--binary", action="store_true", help="point-count grid of the means")

    p = sub.add_parser("calibrate", help="fit scp/cccp/hcp on the calibration split")
    _add_common(p)
    _add_strict(p)
    p.add_argument("--softmax", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--method", choices=tuple(CALIBRATORS), default="hcp")
    p.add_argument("--out", required=True)
    p.add_argument("--split", type=float, help="calibration fraction (default 0.3)")
    p.add_argument(
        "--alpha-target",
        action="append",
        metavar="CLASS=RATE",
        help="per-class target error rate, repeatable",
    )
    p.add_argument(
        "--alpha-o",
        action="append",
        metavar="CLASS=RATE",
        help="per-rare-class occupied error rate, repeatable",
    )
    p.add_argument("--rare", help="comma-separated rare classes")
    p.add_argument("--epsilon", type=float, help="empty-class floor of the KL reference")

    p = sub.add_parser("evaluate", help="apply a saved model to the test split")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--softmax", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out-json")
    p.add_argument("--out-csv")

    p = sub.add_parser("sweep", help="recall/IoU table for a gate score function")
    _add_common(p)
    _add_strict(p)
    p.add_argument("--softmax", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--score", choices=tuple(GATE_SCORES), default="kl")
    p.add_argument("--targets", required=True, help="comma-separated recalls in (0, 1)")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--split", type=float, help="calibration fraction (default 0.3)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        threads = getattr(args, "threads", 1)
        if threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {threads}")
        try:
            cfg = _apply_overrides(PipelineConfig.load(args.config, seed_override=args.seed), args)
        except ValueError as exc:  # a value of the config file or of a flag: exit 2
            raise ConfigError(str(exc)) from None

        if args.command == "simulate":
            summary = run_simulate(cfg, args.out_dir, threads=threads)
        elif args.command == "project":
            summary = run_project(args.depth, cfg, args.out, binary=args.binary, threads=threads)
        elif args.command == "calibrate":
            summary = run_calibrate(args.softmax, args.labels, cfg, args.method, args.out)
        elif args.command == "evaluate":
            summary = run_evaluate(
                args.model,
                args.softmax,
                args.labels,
                out_json=args.out_json,
                out_csv=args.out_csv,
            )
        else:
            try:
                targets = check_targets(args.targets.split(","))
            except ValueError as exc:
                raise ConfigError(f"--targets {args.targets!r}: {exc}") from None
            summary = run_sweep(args.softmax, args.labels, cfg, args.score, targets, args.out)
    except ConfigError as exc:
        print(json.dumps({"error": str(exc), "exit": EXIT_CONFIG}), file=sys.stderr)
        return EXIT_CONFIG
    except (ContainerError, GenerationError, MemoryError, OSError, ValueError) as exc:
        print(json.dumps({"error": str(exc), "exit": EXIT_DATA}), file=sys.stderr)
        return EXIT_DATA

    print(json.dumps(encode(summary), sort_keys=True))
    if getattr(args, "strict", False) and summary["warnings"]:
        return EXIT_DEGENERATE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
