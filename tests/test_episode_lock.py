"""Behaviour lock per episode: single episodes and distances match committed bytes.

The tables in tests/golden/ keep only means and standard deviations, so a
change that moves single episodes but keeps the means would pass them.
`episodes.csv` holds one row per (preset, mode, strategy, seed) episode at
`--scale 64`; `distances.csv` holds master-worker distances read off a
`Draws`' position tapes across whole-second mobility ticks, which no
`--scale 64` episode reaches.
`ticks.csv` holds the episodes that do: every episode of a small grid at
scales 8 and 1 that runs past one second, plus episodes whose workers
depart mid-task or join late, which no CLI experiment can ask for.

The files are never regenerated quietly.  After a change that is meant to
alter them, rewrite all three with

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
import test_episode_lock as t; t.write_lock()"

and say so where the change is recorded.
"""

import math
from pathlib import Path

from codedconv import engine
from codedconv.engine import (
    Draws,
    SimEngine,
    run_episode,
)
from codedconv.models import Behavior
from codedconv.scenarios import benchmark_scenario
from codedconv.strategies import STRATEGIES as RUNNERS

GOLDEN = Path(__file__).parent / "golden"
SCALE = 64
SEEDS = range(5)
STRATEGIES = ("uncoded", "traditional", "dynamic")
# Mode label -> (scenario overrides, horizon).  A ratio with the default
# horizon runs the straggler-free pilot; a uniform failure count with an
# infinite horizon is the success-rate path.
MODES = {
    "delayed": ({"straggler_mode": "delayed", "straggler_ratio": 0.5}, None),
    "fail": ({"straggler_mode": "fail", "straggler_ratio": 0.5}, None),
    "leave": ({"straggler_mode": "leave", "straggler_ratio": 0.25}, None),
    "fail-uniform": ({"straggler_mode": "fail",
                      "failure_count_uniform": True}, math.inf),
    "leave-uniform": ({"straggler_mode": "leave",
                       "failure_count_uniform": True}, math.inf),
}
DISTANCE_PRESET = 1
DISTANCE_SEEDS = (0, 1, 2)
DISTANCE_WORKERS = (0, 3, 7)
DISTANCE_TIMES = (0.0, 0.5, 1.0, 2.5, 7.0, 30.0)
# (scale, presets, seeds) of the tick grid, run in every TICK_MODES entry;
# a row is kept when the episode runs past one second.
TICK_GRIDS = ((8, (3, 4), range(3)), (1, (1, 2, 3, 4), range(2)))
TICK_MODES = {**{mode: MODES[mode] for mode in ("delayed", "fail", "leave")},
              "delayed-all": ({"straggler_mode": "delayed",
                               "straggler_ratio": 1.0}, None)}
# Hand-built fleets on preset 3 at full size, every worker slowed 15x so
# that dynamic episodes keep dispatching for several seconds: worker ->
# (joins, departs).  "depart-at-result" is filled in by `tick_lines`.
TICK_PRESET = 3
TICK_SEEDS = (0, 1)
SLOW = 15.0
ROSTERS = {
    "depart-mid": {0: (0.0, 2.5), 1: (0.0, 4.0)},
    "join-late": {6: (1.5, math.inf), 7: (3.0, math.inf)},
    "join-then-depart": {5: (1.2, 5.0), 4: (0.0, 1.7)},
}
RESULT_WORKER = 2
ROW_HEADER = ("success,completion_time,pieces_dispatched,redundancy_used,"
              "per_worker_results")


def outcome_fields(m, n_workers: int) -> str:
    counts = " ".join(str(m.per_worker_results.get(w, 0))
                      for w in range(n_workers))
    return (f"{m.success},{m.completion_time!r},{m.pieces_dispatched},"
            f"{m.redundancy_used},{counts}")


def episode_lines() -> list[str]:
    lines = ["preset,mode,strategy,seed," + ROW_HEADER]
    for preset in (1, 2, 3, 4):
        for mode, (overrides, horizon) in MODES.items():
            scn = benchmark_scenario(preset, SCALE, **overrides)
            for strategy in STRATEGIES:
                for seed in SEEDS:
                    m = run_episode(scn, strategy, seed, horizon=horizon,
                                    keep_result=False)
                    lines.append(f"{preset},{mode},{strategy},{seed},"
                                 + outcome_fields(m, scn.n_workers))
    return lines


def run_roster(scn, strategy: str, seed: int, roster: dict,
               collect_log: bool = False):
    """`strategy` on `scn` with every worker slowed, `roster` overriding
    the (joins, departs) of some; no horizon."""
    behaviors = [Behavior(SLOW, *roster.get(w, (0.0, math.inf)))
                 for w in range(scn.n_workers)]
    eng = SimEngine(Draws(seed, scn), behaviors, collect_log=collect_log)
    return RUNNERS[strategy](scn.n1, scn.n2, eng), eng


def result_departure(scn, seed: int) -> dict:
    # RESULT_WORKER departs at the instant its first dynamic result past
    # one second arrives: the result (queued later) and the departure tie
    # in time, and the departure must pop first.
    _, eng = run_roster(scn, "dynamic", seed, {}, collect_log=True)
    t = min(rec.time for rec in eng.log if rec.kind == "result_arrives"
            and rec.worker == RESULT_WORKER and rec.time > 1.0)
    return {RESULT_WORKER: (0.0, t)}


def tick_lines() -> list[str]:
    lines = ["case,scale,preset,strategy,seed," + ROW_HEADER]
    for scale, presets, seeds in TICK_GRIDS:
        for preset in presets:
            for mode, (overrides, horizon) in TICK_MODES.items():
                scn = benchmark_scenario(preset, scale, **overrides)
                for seed in seeds:
                    draws = Draws(seed, scn)
                    for strategy in STRATEGIES:
                        m = run_episode(scn, strategy, seed, horizon=horizon,
                                        keep_result=False, draws=draws)
                        if m.completion_time > 1.0:
                            lines.append(f"{mode},{scale},{preset},{strategy},"
                                         f"{seed}," + outcome_fields(
                                             m, scn.n_workers))
    scn = benchmark_scenario(TICK_PRESET, 1)
    for seed in TICK_SEEDS:
        rosters = {**ROSTERS, "depart-at-result": result_departure(scn, seed)}
        for case, roster in rosters.items():
            for strategy in STRATEGIES:
                m, _ = run_roster(scn, strategy, seed, roster)
                lines.append(f"{case},1,{TICK_PRESET},{strategy},{seed},"
                             + outcome_fields(m, scn.n_workers))
    return lines


def distance_lines() -> list[str]:
    # One Draws per seed, read in increasing time as an episode would.
    scn = benchmark_scenario(DISTANCE_PRESET, SCALE)
    lines = ["seed,worker,t,distance"]
    for seed in DISTANCE_SEEDS:
        paths = Draws(seed, scn).paths
        for t in DISTANCE_TIMES:
            for w in DISTANCE_WORKERS:
                d = engine._distance(paths, w, int(t))
                lines.append(f"{seed},{w},{t!r},{d!r}")
    return lines


def as_bytes(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def write_lock() -> None:
    (GOLDEN / "episodes.csv").write_bytes(as_bytes(episode_lines()))
    (GOLDEN / "distances.csv").write_bytes(as_bytes(distance_lines()))
    (GOLDEN / "ticks.csv").write_bytes(as_bytes(tick_lines()))


def test_single_episodes_match_lock():
    assert as_bytes(episode_lines()) == (GOLDEN / "episodes.csv").read_bytes()


def test_distances_across_mobility_ticks_match_lock():
    assert as_bytes(distance_lines()) == (GOLDEN / "distances.csv").read_bytes()


def test_episodes_past_one_second_match_lock():
    assert as_bytes(tick_lines()) == (GOLDEN / "ticks.csv").read_bytes()
