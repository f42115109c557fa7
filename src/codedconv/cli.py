"""Command-line front end for the simulation experiments.

Subcommands mirror the four experiments (sweep-b, compare, stress,
success-rate) plus `run`, which executes a config file.  Both front ends
build the same ExperimentSpec, and `run_experiment` executes it: all
output is CSV plus a manifest sidecar in the output directory, and tables
are echoed to stdout.
Exit codes: 0 success, 2 bad usage or config, 3 runtime failure.
"""

import argparse
import sys
from dataclasses import dataclass

from . import __version__
from .experiments import (
    ConfigError,
    auto,
    default_sweep_grid,
    emit,
    format_value,
    load_config,
    manifest_entries,
    preset_scale,
    scenario_from_config,
    stress_test,
    success_rate,
    sweep_b,
)
from .models import FAILURE_MODES, STRAGGLER_MODES
from .scenarios import DEFAULT_SCALE, ScenarioConfig, benchmark_scenario

# Defaults shared by the subcommand flags and the [experiment] keys.
DEFAULTS = {"seed": 1234, "reps": 25, "runs": 2000, "out_dir": "results",
            "ratios": "0,0.25,0.5,0.75,1"}

# Per experiment kind: output file stem, table columns, the option that
# counts episodes, and the grid option with the type of its values.
_KINDS = {
    "sweep-b": ("sweep_b", ("b", "mean_time_s", "std_time_s"),
                "reps", ("b_values", int)),
    "compare": ("compare", ("strategy", "mean_time_s", "std_time_s"),
                "reps", None),
    "stress": ("stress", ("ratio", "strategy", "mean_time_s", "std_time_s"),
               "reps", ("ratios", float)),
    "success-rate": ("success_rate",
                     ("strategy", "success_rate", "successes", "runs"),
                     "runs", None),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, whether asked for by flags or by a config file."""

    kind: str
    scenario: ScenarioConfig    # straggler ratio already applied
    seed: int
    count: int                  # reps, or runs for success-rate
    grid: list | None           # b values or ratios; None: default b grid
    mode: str                   # straggler mode for compare/stress/success-rate
    scale: float | None         # preset scale; None for explicit sizes
    out_dir: str


def parse_list(text: str, convert, option: str) -> list:
    """Comma-separated numbers; an empty list is an error naming `option`."""
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"{option} needs at least one value, got {text!r}")
    try:
        return [convert(item) for item in items]
    except ValueError as exc:
        raise ConfigError(
            f"{option}: expected comma-separated numbers, got {text!r}") from exc


def _make_spec(kind: str, scenario: ScenarioConfig, options: dict, *,
               mode: str, scale, name) -> ExperimentSpec:
    """Validate `options` (keys as in [experiment]); `name` spells a key."""
    _, _, count_key, grid = _KINDS[kind]
    count = options.get(count_key, DEFAULTS[count_key])
    if count < 1:
        raise ConfigError(f"{name(count_key)} must be >= 1")
    values = None
    if grid is not None:
        key, convert = grid
        text = options.get(key, DEFAULTS.get(key))
        if text is not None:
            values = parse_list(text, convert, name(key))
    out_dir = options.get("out_dir", DEFAULTS["out_dir"])
    if not out_dir:
        raise ConfigError(f"{name('out_dir')} must name a directory")
    return ExperimentSpec(kind, scenario, options.get("seed", DEFAULTS["seed"]),
                          count, values, mode, scale, out_dir)


def _spec_from_args(args) -> ExperimentSpec:
    ratio = {"straggler_ratio": args.ratio} if "ratio" in args else {}
    scenario = benchmark_scenario(args.scenario, args.scale, **ratio)
    options = {key: value for key, value in vars(args).items()
               if value is not None}
    return _make_spec(args.command, scenario, options,
                      mode=getattr(args, "mode", scenario.straggler_mode),
                      scale=args.scale,
                      name=lambda key: "--out" if key == "out_dir"
                      else "--" + key.replace("_", "-"))


def _spec_from_config(path: str) -> ExperimentSpec:
    config = load_config(path)
    scenario = scenario_from_config(config)
    options = config.get("experiment", {})
    kind = options.get("kind")
    if kind not in _KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; valid kinds: "
                          + ", ".join(_KINDS))
    return _make_spec(kind, scenario, options, mode=scenario.straggler_mode,
                      scale=preset_scale(config), name=str)


def _print_table(fieldnames, rows) -> None:
    print(",".join(fieldnames))
    for row in rows:
        print(",".join(format_value(row[name]) for name in fieldnames))


def run_experiment(spec: ExperimentSpec) -> None:
    """Run `spec`, echo its table and write its CSV and manifest."""
    scn = spec.scenario
    if spec.kind == "sweep-b":
        b_values = (spec.grid if spec.grid is not None
                    else default_sweep_grid(scn.n2))
        rows, argmin_b = sweep_b(scn, b_values, spec.count, spec.seed)
        extra = {"reps": spec.count, "argmin_b": argmin_b,
                 "b_values": " ".join(map(str, b_values))}
    elif spec.kind == "compare":
        # Stress at one ratio; the table drops the ratio column (_KINDS).
        rows = stress_test(scn, [scn.straggler_ratio], spec.count, spec.seed,
                           mode=spec.mode)
        extra = {"reps": spec.count, "ratio": scn.straggler_ratio,
                 "mode": spec.mode, "b": auto(scn.dynamic_b),
                 "s": auto(scn.traditional_s)}
    elif spec.kind == "stress":
        rows = stress_test(scn, spec.grid, spec.count, spec.seed,
                           mode=spec.mode)
        extra = {"reps": spec.count, "mode": spec.mode,
                 "ratios": " ".join(format_value(r) for r in spec.grid),
                 "b": auto(scn.dynamic_b)}
    else:
        # A config file without a straggler mode leaves "delayed", which
        # success-rate has no use for; it counts failures then.
        mode = "fail" if spec.mode == "delayed" else spec.mode
        rows, _ = success_rate(scn, spec.count, spec.seed, mode=mode)
        extra = {"runs": spec.count, "mode": mode, "b": auto(scn.dynamic_b)}
    if spec.scale is not None:
        extra["scale"] = spec.scale

    name, fields, _, _ = _KINDS[spec.kind]
    _print_table(fields, rows)
    if "argmin_b" in extra:
        print(f"argmin_b={extra['argmin_b']}")
    manifest = manifest_entries(scn, spec.kind, spec.seed, **extra)
    csv_path, _ = emit(spec.out_dir, name, fields, rows, manifest)
    print(f"wrote {csv_path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codedconv",
        description="Distributed-convolution strategy simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, reps=True):
        p.add_argument("--scenario", type=int, default=1, metavar="N",
                       help="benchmark scenario index 1-4 (default 1)")
        p.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                       metavar="FACTOR",
                       help="divide operand lengths by FACTOR (default 8; "
                            "1 = full size)")
        p.add_argument("--seed", type=int, default=DEFAULTS["seed"],
                       help="base seed (default 1234)")
        p.add_argument("--out", dest="out_dir", default=DEFAULTS["out_dir"],
                       metavar="DIR",
                       help="output directory (default results/)")
        if reps:
            p.add_argument("--reps", type=int, default=DEFAULTS["reps"],
                           help="repetitions per point (default 25)")

    p = sub.add_parser("sweep-b", help="mean time of the dynamic strategy "
                                       "over a grid of piece lengths")
    add_common(p)
    p.add_argument("--b-values", metavar="LIST",
                   help="comma-separated piece lengths "
                        "(default: geometric grid up to n2)")
    p.add_argument("--ratio", type=float, default=0.0,
                   help="delayed-straggler ratio during the sweep (default 0)")

    p = sub.add_parser("compare", help="all three strategies at one "
                                       "straggler ratio, paired seeds")
    add_common(p)
    p.add_argument("--ratio", type=float, default=0.5,
                   help="straggler ratio (default 0.5)")
    p.add_argument("--mode", choices=STRAGGLER_MODES,
                   default="delayed", help="straggler behaviour")

    p = sub.add_parser("stress", help="strategy comparison over a grid of "
                                      "straggler ratios")
    add_common(p)
    p.add_argument("--ratios", metavar="LIST", default=DEFAULTS["ratios"],
                   help="comma-separated ratios (default 0,0.25,0.5,0.75,1)")
    p.add_argument("--mode", choices=STRAGGLER_MODES,
                   default="delayed", help="straggler behaviour")

    p = sub.add_parser("success-rate", help="success fraction under uniform "
                                            "0..P worker failures")
    add_common(p, reps=False)
    p.add_argument("--runs", type=int, default=DEFAULTS["runs"],
                   help="episodes per strategy (default 2000)")
    p.add_argument("--mode", choices=FAILURE_MODES, default="fail",
                   help="failure behaviour")

    p = sub.add_parser("run", help="run the experiment described by a "
                                   "config file")
    p.add_argument("config", help="path to the INI-style config file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            spec = _spec_from_config(args.config)
        else:
            spec = _spec_from_args(args)
        run_experiment(spec)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # noqa: BLE001 - report and signal runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
