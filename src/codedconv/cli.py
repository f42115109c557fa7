"""Command-line front end for the simulation experiments.

Subcommands mirror the four experiments (sweep-b, compare, stress,
success-rate) plus `run`, which executes a config file.  A config runs the
subcommand its `kind` names: its options are that subcommand's defaults
with the config's [experiment] keys, and its [straggler] ratio and mode
where the subcommand has that flag, on top.  One `run_experiment` runs
every kind through its row in `_KINDS`.  `main` may be called many times
in one process.  Exit codes: 0 success, 2 bad usage or config, 3 runtime
failure.
"""

import argparse
import functools
import sys

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
from .scenarios import DEFAULT_SCALE, benchmark_scenario

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


# Kind runners: (scenario, grid, count, seed, mode) -> (table rows, the
# manifest entries only that kind writes).  Each calls its experiment through
# the name bound in this module; grid is None for kinds without one.


def _sweep_b(scn, b_values, reps, seed, mode):
    """Dynamic strategy over piece lengths; None sweeps the default grid."""
    b_values = default_sweep_grid(scn.n2) if b_values is None else b_values
    rows, argmin_b = sweep_b(scn, b_values, reps, seed)
    return rows, {"argmin_b": argmin_b,
                  "b_values": " ".join(map(str, b_values))}


def _compare(scn, grid, reps, seed, mode):
    """Stress at the scenario's one ratio; the table drops the ratio column."""
    rows = stress_test(scn, [scn.straggler_ratio], reps, seed, mode=mode)
    return rows, {"ratio": scn.straggler_ratio, "mode": mode,
                  "b": auto(scn.dynamic_b), "s": auto(scn.traditional_s)}


def _stress(scn, ratios, reps, seed, mode):
    """All three strategies over a grid of straggler ratios."""
    rows = stress_test(scn, ratios, reps, seed, mode=mode)
    return rows, {"mode": mode, "ratios": " ".join(map(format_value, ratios)),
                  "b": auto(scn.dynamic_b)}


def _success_rate(scn, grid, runs, seed, mode):
    """Success fraction under uniform failure counts."""
    rows, _ = success_rate(scn, runs, seed, mode=mode)
    return rows, {"mode": mode, "b": auto(scn.dynamic_b)}


# Per kind: its runner, output file stem, table columns, the option that
# counts episodes, and the grid option (None: no grid) and its value type.
_KINDS = {
    "sweep-b": (_sweep_b, "sweep_b", ("b", "mean_time_s", "std_time_s"),
                "reps", "b_values", int),
    "compare": (_compare, "compare", ("strategy", "mean_time_s", "std_time_s"),
                "reps", None, None),
    "stress": (_stress, "stress",
               ("ratio", "strategy", "mean_time_s", "std_time_s"),
               "reps", "ratios", float),
    "success-rate": (_success_rate, "success_rate",
                     ("strategy", "success_rate", "successes", "runs"),
                     "runs", None, None),
}


def _flag(key: str) -> str:
    """The subcommand flag that sets [experiment] key `key`."""
    return "--out" if key == "out_dir" else "--" + key.replace("_", "-")


def run_experiment(kind: str, scenario, options: dict, *, name) -> None:
    """Run one experiment, echo its table and write its CSV and manifest.

    `options` holds the parsed flags of subcommand `kind`; `name(key)`
    spells a key in errors, and a bad one raises ConfigError before any
    episode runs.  A `ratio` option sets the scenario's straggler ratio,
    `mode` is the kind's straggler mode and `scale` the preset scale, None
    for explicit sizes.
    """
    runner, stem, fields, count_key, grid_key, convert = _KINDS[kind]
    count = options[count_key]
    if count < 1:
        raise ConfigError(f"{name(count_key)} must be >= 1")
    text = options.get(grid_key)
    grid = None if text is None else parse_list(text, convert, name(grid_key))
    if not options["out_dir"]:
        raise ConfigError(f"{name('out_dir')} must name a directory")
    if "ratio" in options:
        scenario = scenario.replace(straggler_ratio=options["ratio"])
    seed = options["seed"]
    rows, extra = runner(scenario, grid, count, seed, options.get("mode"))
    extra[count_key] = count
    if options["scale"] is not None:
        extra["scale"] = options["scale"]
    print(",".join(fields))
    for row in rows:
        print(",".join(format_value(row[field]) for field in fields))
    if "argmin_b" in extra:
        print(f"argmin_b={extra['argmin_b']}")
    manifest = manifest_entries(scenario, kind, seed, **extra)
    csv_path, _ = emit(options["out_dir"], stem, fields, rows, manifest)
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
        p.add_argument("--seed", type=int, default=1234,
                       help="base seed (default 1234)")
        p.add_argument("--out", dest="out_dir", default="results",
                       metavar="DIR",
                       help="output directory (default results/)")
        if reps:
            p.add_argument("--reps", type=int, default=25,
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
    p.add_argument("--ratios", metavar="LIST", default="0,0.25,0.5,0.75,1",
                   help="comma-separated ratios (default 0,0.25,0.5,0.75,1)")
    p.add_argument("--mode", choices=STRAGGLER_MODES,
                   default="delayed", help="straggler behaviour")

    p = sub.add_parser("success-rate", help="success fraction under uniform "
                                            "0..P worker failures")
    add_common(p, reps=False)
    p.add_argument("--runs", type=int, default=2000,
                   help="episodes per strategy (default 2000)")
    p.add_argument("--mode", choices=FAILURE_MODES, default="fail",
                   help="failure behaviour")

    p = sub.add_parser("run", help="run the experiment described by a "
                                   "config file")
    p.add_argument("config", help="path to the INI-style config file")
    return parser


# The parser `main` reuses: built at the first call, not at import, and
# never mutated, so every call parses with the flags `build_parser` defines.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            scenario = scenario_from_config(config)
            experiment = config.get("experiment", {})
            kind = experiment.get("kind")
            if kind not in _KINDS:
                raise ConfigError(f"unknown experiment kind {kind!r}; "
                                  "valid kinds: " + ", ".join(_KINDS))
            options = vars(_parser().parse_args([kind])) | experiment
            straggler = config.get("straggler", {})
            options.update((key, straggler[key]) for key in ("ratio", "mode")
                           if key in straggler and key in options)
            options["scale"], name = preset_scale(config), str
        else:
            kind, options, name = args.command, vars(args), _flag
            scenario = benchmark_scenario(args.scenario, args.scale)
        run_experiment(kind, scenario, options, name=name)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report and signal runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
