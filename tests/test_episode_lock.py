"""Behaviour lock per episode: single episodes and distances match committed bytes.

The tables in tests/golden/ keep only means and standard deviations, so a
change that moves single episodes but keeps the means would pass them.
`episodes.csv` holds one row per (preset, mode, strategy, seed) episode at
`--scale 64`; `distances.csv` holds direct `SimEngine.distance` reads
across whole-second mobility ticks, which no preset episode reaches.

The files are never regenerated quietly.  After a change that is meant to
alter them, rewrite both with

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
import test_episode_lock as t; t.write_lock()"

and say so where the change is recorded.
"""

import math
from pathlib import Path

from codedconv.engine import (
    SimEngine,
    episode_behaviors,
    episode_profiles,
    run_episode,
)
from codedconv.scenarios import benchmark_scenario

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


def episode_lines() -> list[str]:
    lines = ["preset,mode,strategy,seed,success,completion_time,"
             "pieces_dispatched,redundancy_used,per_worker_results"]
    for preset in (1, 2, 3, 4):
        for mode, (overrides, horizon) in MODES.items():
            scn = benchmark_scenario(preset, SCALE, **overrides)
            for strategy in STRATEGIES:
                for seed in SEEDS:
                    m = run_episode(scn, strategy, seed, horizon=horizon,
                                    keep_result=False)
                    counts = " ".join(str(m.per_worker_results.get(w, 0))
                                      for w in range(scn.n_workers))
                    lines.append(
                        f"{preset},{mode},{strategy},{seed},{m.success},"
                        f"{m.completion_time!r},{m.pieces_dispatched},"
                        f"{m.redundancy_used},{counts}")
    return lines


def distance_lines() -> list[str]:
    # One engine per seed, read in increasing time as an episode would.
    scn = benchmark_scenario(DISTANCE_PRESET, SCALE)
    lines = ["seed,worker,t,distance"]
    for seed in DISTANCE_SEEDS:
        eng = SimEngine(episode_profiles(scn, seed),
                        episode_behaviors(scn, seed), scn.comm, seed,
                        init_box_m=scn.init_box_m,
                        speed_limit_mps=scn.speed_limit_mps)
        for t in DISTANCE_TIMES:
            for w in DISTANCE_WORKERS:
                lines.append(f"{seed},{w},{t!r},{eng.distance(w, t)!r}")
    return lines


def as_bytes(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def write_lock() -> None:
    (GOLDEN / "episodes.csv").write_bytes(as_bytes(episode_lines()))
    (GOLDEN / "distances.csv").write_bytes(as_bytes(distance_lines()))


def test_single_episodes_match_lock():
    assert as_bytes(episode_lines()) == (GOLDEN / "episodes.csv").read_bytes()


def test_distances_across_mobility_ticks_match_lock():
    assert as_bytes(distance_lines()) == (GOLDEN / "distances.csv").read_bytes()
