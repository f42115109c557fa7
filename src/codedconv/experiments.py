"""Experiment harness: paired-seed episode batches and CSV emission.

Every experiment derives one seed per (scenario, repetition) and reuses
it for all strategies and sweep points, so rows within a table share
worker parameter draws and straggler selections.  Repetitions are the
outer loop (`run_paired`), so a seed's streams are drawn and its pilots
run once.  Output is CSV with a key=value manifest sidecar;
nothing in either file depends on the clock, so identical configurations
reproduce byte-identical files.
"""

import configparser
import math
import os
import zlib

import numpy as np

from . import __version__
from .coding import MAX_SQUARE_PIECES, shortest_piece
from .engine import Draws, run_episode
from .models import FAILURE_MODES, CommParams
from .scenarios import (
    DEFAULT_SCALE,
    ScenarioConfig,
    benchmark_scenario,
)

STRATEGY_ORDER = ("uncoded", "traditional", "dynamic")


class ConfigError(ValueError):
    """Invalid experiment configuration (bad key, value, or range)."""


def episode_seed(base_seed: int, scenario_name: str, rep: int) -> int:
    """Stable episode seed shared by every strategy at (scenario, rep)."""
    tag = zlib.crc32(scenario_name.encode("utf-8"))
    return (base_seed * 1_000_003 + tag * 97 + rep) & ((1 << 63) - 1)


def run_paired(episodes, reps: int, base_seed: int, value) -> list[list]:
    """`value` of every episode at every rep, one list per episode in rep order.

    `episodes` lists (scenario, strategy, run_episode keywords); the
    scenarios differ at most in their straggler fields, so they share a
    name and a fleet, and the name derives the seeds.  All episodes of a
    rep share its seed and one `Draws`, which is dropped before the next
    rep, so memory does not grow with `reps`.  The seeds of successive
    reps are successive ints, so the stream keys a `Draws` reads ahead
    serve the next reps too, and it reads ahead only the reps left; no key
    is seen here.
    """
    first = episodes[0][0]
    values: list[list] = [[] for _ in episodes]
    for rep in range(reps):
        seed = episode_seed(base_seed, first.name, rep)
        draws = Draws(seed, first, readahead=reps - rep)
        for out, (scenario, strategy, kwargs) in zip(values, episodes):
            out.append(value(run_episode(scenario, strategy, seed,
                                         keep_result=False, draws=draws,
                                         **kwargs)))
    return values


def _time_rows(labels, episodes, reps: int, base_seed: int) -> list[dict]:
    """One row per episode of `run_paired`: `labels[i]`'s columns, then the
    mean and std of `episodes[i]`'s completion time over `reps` seeds.

    The times are reduced as one (rows, reps) array, one `mean` and one
    `std` along the reps axis; each row's numbers equal its own 1-D
    reduction bit for bit.  One rep gives std 0.0.  A failed episode
    without a horizon costs inf, so its row has mean inf and an undefined
    spread: std nan, from inf - inf, whose warning numpy is told to skip.
    """
    times = np.array(run_paired(episodes, reps, base_seed,
                                lambda metrics: metrics.completion_time),
                     dtype=float)
    if reps == 1:
        stds = np.zeros(len(times))
    else:
        with np.errstate(invalid="ignore"):
            stds = times.std(axis=1, ddof=1)
    return [{**label, "mean_time_s": mean, "std_time_s": std}
            for label, mean, std in zip(labels, times.mean(axis=1).tolist(),
                                        stds.tolist())]


# -- the four experiments ------------------------------------------------------


def sweep_b(scenario: ScenarioConfig, b_values, reps: int, base_seed: int):
    """Dynamic-strategy mean/std completion time for each piece length.

    Returns (rows, argmin_b); rows keep the given b order, argmin ties go
    to the earliest row.  A b that cuts n2 into more pieces than the cap,
    MAX_SQUARE_PIECES, is refused.
    """
    b_values = list(b_values)
    if not b_values:
        raise ConfigError("b_values must not be empty")
    lo = shortest_piece(scenario.n2)
    for b in b_values:
        if not lo <= b <= scenario.n2:
            raise ConfigError(
                f"b_values: b={b} out of range [{lo}, {scenario.n2}], the "
                f"lengths that cut n2 into <= {MAX_SQUARE_PIECES} pieces")
    rows = _time_rows([{"b": b} for b in b_values],
                      [(scenario, "dynamic", {"b": b}) for b in b_values],
                      reps, base_seed)
    argmin_b = min(rows, key=lambda r: r["mean_time_s"])["b"]
    return rows, argmin_b


def default_sweep_grid(n2: int) -> list[int]:
    """Five roughly geometric piece lengths ending at n2 (whole vector)."""
    grid = [max(1, n2 // 16), max(1, n2 // 8), max(1, n2 // 4),
            max(1, n2 // 2), n2]
    return sorted(set(grid))


def stress_test(scenario: ScenarioConfig, ratios, reps: int, base_seed: int,
                mode: str = "delayed"):
    """Paired-seed sweep of straggler ratio for all three strategies."""
    ratios = list(ratios)
    if not ratios:
        raise ConfigError("ratios must not be empty")
    for r in ratios:
        if not 0.0 <= r <= 1.0:
            raise ConfigError(f"straggler ratio {r} out of range [0, 1]")
    scenarios = [scenario.replace(straggler_ratio=ratio, straggler_mode=mode)
                 for ratio in ratios]
    return _time_rows([{"ratio": ratio, "strategy": strategy}
                       for ratio in ratios for strategy in STRATEGY_ORDER],
                      [(scn, strategy, {}) for scn in scenarios
                       for strategy in STRATEGY_ORDER],
                      reps, base_seed)


def success_rate(scenario: ScenarioConfig, runs: int, base_seed: int,
                 mode: str = "fail"):
    """Fraction of successful episodes under uniformly drawn failure counts.

    Each run draws a failure count uniformly from 0..P and fails that many
    workers at t=0.  Fail/leave episodes terminate on their own when the
    event queue drains, so no pilot episode or horizon is needed.

    Returns (rows, details) where details[strategy] is a list of
    (failure_count, success) pairs, one per run.
    """
    if mode not in FAILURE_MODES:
        raise ConfigError("success-rate mode must be "
                          + " or ".join(map(repr, FAILURE_MODES)))
    scn = scenario.replace(failure_count_uniform=True, straggler_mode=mode,
                           straggler_ratio=0.0)
    outcomes = run_paired(
        [(scn, strategy, {"horizon": math.inf}) for strategy in STRATEGY_ORDER],
        runs, base_seed, lambda m: (m.n_stragglers, m.success))
    rows = []
    details: dict[str, list[tuple[int, bool]]] = {}
    for strategy, detail in zip(STRATEGY_ORDER, outcomes):
        details[strategy] = detail
        successes = sum(ok for _, ok in detail)
        rows.append({"strategy": strategy,
                     "success_rate": successes / runs,
                     "successes": successes, "runs": runs})
    return rows, details


# -- output emission ------------------------------------------------------------


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_csv(path: str, fieldnames, rows) -> None:
    """Plain comma-separated UTF-8 with a header row; 6 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(fieldnames) + "\n")
        for row in rows:
            cells = [format_value(row[name]) for name in fieldnames]
            for cell in cells:
                if "," in cell or "\n" in cell:
                    raise ValueError(f"cell value {cell!r} needs quoting; "
                                     "keep values delimiter-free")
            fh.write(",".join(cells) + "\n")


def write_manifest(path: str, entries: dict) -> None:
    """key=value sidecar, sorted by key; contains no timestamps."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(entries):
            fh.write(f"{key}={format_value(entries[key])}\n")


def auto(value):
    """Manifest spelling for parameters resolved at run time."""
    return "auto" if value is None else value


def manifest_entries(scenario: ScenarioConfig, kind: str, base_seed: int,
                     **extra) -> dict:
    entries = {
        "version": __version__,
        "experiment": kind,
        "scenario": scenario.name,
        "n1": scenario.n1,
        "n2": scenario.n2,
        "workers": scenario.n_workers,
        "seed": base_seed,
        "straggler_mode": scenario.straggler_mode,
        "delay_factor": scenario.delay_factor,
    }
    entries.update(extra)
    return entries


def emit(out_dir: str, name: str, fieldnames, rows, manifest: dict):
    """Write <name>.csv and <name>.manifest.txt; returns both paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    manifest_path = os.path.join(out_dir, f"{name}.manifest.txt")
    write_csv(csv_path, fieldnames, rows)
    write_manifest(manifest_path, manifest)
    return csv_path, manifest_path


# -- config-file front end -------------------------------------------------------


_SCENARIO_KEYS = {
    "index": int, "scale": float, "n1": int, "n2": int, "workers": int,
    "mu_low": float, "mu_high": float, "compute_coeff": float,
    "init_box_m": float, "speed_limit_mps": float, "horizon_factor": float,
    "dynamic_b": int, "traditional_s": int,
}
_STRAGGLER_KEYS = {
    "ratio": float, "mode": str, "delay_factor": float,
    "failure_count_uniform": bool,
}
_COMM_KEYS = {
    "bandwidth_hz": float, "noise_w": float, "payload_bytes": int,
    "rx_offset_dbm": float,
}
_EXPERIMENT_KEYS = {
    "kind": str, "reps": int, "seed": int, "out_dir": str,
    "b_values": str, "ratios": str, "runs": int,
}
_SECTIONS = {
    "scenario": _SCENARIO_KEYS,
    "straggler": _STRAGGLER_KEYS,
    "comm": _COMM_KEYS,
    "experiment": _EXPERIMENT_KEYS,
}
# [scenario] and [straggler] keys whose `ScenarioConfig` field has another
# name; every other key but index and scale names its field.
_FIELD_NAMES = {"workers": "n_workers", "ratio": "straggler_ratio",
                "mode": "straggler_mode"}
_SIZES = {"n1", "n2", "workers"}


def load_config(path: str) -> dict:
    """Parse and validate an experiment config file into plain sections.

    Unknown sections or keys are errors that list the valid names.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file: {path}")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc

    config: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"unknown section [{section}]; valid sections: "
                + ", ".join(sorted(_SECTIONS)))
        known = _SECTIONS[section]
        values = {}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; valid keys: "
                    + ", ".join(sorted(known)))
            kind = known[key]
            try:
                if kind is bool:
                    values[key] = parser.getboolean(section, key)
                elif kind is str:
                    values[key] = raw.strip()
                else:
                    values[key] = kind(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key} in [{section}]: {raw!r}") from exc
        config[section] = values
    return config


def preset_scale(config: dict) -> float | None:
    """The preset scale a loaded config runs at; None for explicit sizes."""
    scn = config.get("scenario", {})
    return scn.get("scale", DEFAULT_SCALE) if "index" in scn else None


def scenario_from_config(config: dict) -> ScenarioConfig:
    """Scenario described by a loaded config.

    [scenario] and [straggler] keys set the fields they name, through
    _FIELD_NAMES where the names differ, and [comm] sets `comm`.
    [straggler] ratio and mode are also the options of the subcommands
    with a --ratio or --mode flag, which `cli.main` applies.  The sizes'
    problems (a preset index with explicit sizes, neither of them, or a
    scale without an index), a bad [comm] key and the scenario's own
    problems are reported in one message; the scenario is built and
    checked only when its sizes are sound.
    """
    scn = config.get("scenario", {})
    sections = (scn, config.get("straggler", {}))
    fields = {_FIELD_NAMES.get(key, key): value
              for section in sections for key, value in section.items()
              if key not in ("index", "scale")}
    sizes = _SIZES & scn.keys()
    problems = []
    if "index" in scn and sizes:
        problems.append("give either index or explicit n1/n2/workers, "
                        "not both")
    if "index" not in scn and sizes != _SIZES:
        problems.append("scenario needs either index=1..4 or all of n1, n2, "
                        "workers")
    if "index" not in scn and "scale" in scn:
        problems.append("scale applies to a preset index, not to explicit "
                        "n1/n2/workers")
    sound = not problems
    try:
        fields["comm"] = CommParams(**config.get("comm", {}))
    except ValueError as exc:
        # The scenario is checked too, on the default link.
        problems.append(str(exc))
    if sound:
        try:
            if "index" in scn:
                scenario = benchmark_scenario(scn["index"],
                                              preset_scale(config), **fields)
            else:
                scenario = ScenarioConfig(name="custom", **fields)
        except ValueError as exc:
            problems.append(str(exc))
    if problems:
        raise ConfigError("; ".join(problems))
    return scenario
