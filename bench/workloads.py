"""The three benchmark workloads and the CLI calls that make up one pass.

A pass is a fixed list of `codedconv.cli.main` calls; the benchmark repeats
whole passes until its time budget is spent, so every run measures the same
mix of presets.  `--seed` and `--out` are appended to every call by the
process that runs the pass.  README.md says why each workload was chosen.
"""

import math
from dataclasses import dataclass, field

# Seed for which `reference.json` holds the table digests.
DEFAULT_SEED = 1234

STRATEGY_COUNT = 3
STRESS_RATIO_COUNT = 5  # cli default --ratios 0,0.25,0.5,0.75,1
SWEEP_POINT_COUNT = 5   # experiments.default_sweep_grid

SUCCESS_RUNS = 50
STRESS_REPS = 4
SWEEP_REPS = 10


@dataclass(frozen=True)
class Call:
    """One `cli.main` call; its tables go to the subdirectory `scenario<preset>`."""

    preset: int
    scale: float
    argv: tuple[str, ...]
    episodes: int           # user-requested episodes, pilots not counted

    @property
    def label(self) -> str:
        return f"scenario{self.preset}"


@dataclass(frozen=True)
class Workload:
    """A fixed pass of CLI calls plus the episode that warms a process up.

    The warm-up episode runs the dynamic strategy, the one strategy every
    workload uses, on the first call's scenario with `warmup_overrides`
    applied and `warmup_horizon` passed through to `run_episode`.
    """

    name: str
    calls: tuple[Call, ...]
    warmup_overrides: dict = field(default_factory=dict)
    warmup_horizon: float | None = None

    @property
    def episodes_per_pass(self) -> int:
        return sum(call.episodes for call in self.calls)


def _success_rate(preset: int) -> Call:
    return Call(preset, 8.0,
                ("success-rate", "--scenario", str(preset), "--mode", "fail",
                 "--runs", str(SUCCESS_RUNS)),
                SUCCESS_RUNS * STRATEGY_COUNT)


def _stress(preset: int) -> Call:
    return Call(preset, 8.0,
                ("stress", "--scenario", str(preset), "--mode", "delayed",
                 "--reps", str(STRESS_REPS)),
                STRESS_REPS * STRESS_RATIO_COUNT * STRATEGY_COUNT)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="success-fail-s8",
        calls=tuple(_success_rate(i) for i in (1, 2, 3, 4)),
        warmup_overrides={"failure_count_uniform": True,
                          "straggler_mode": "fail", "straggler_ratio": 0.0},
        warmup_horizon=math.inf,
    ),
    Workload(
        name="stress-delayed-s8",
        calls=(_stress(1), _stress(4)),
        warmup_overrides={"straggler_mode": "delayed", "straggler_ratio": 0.5},
    ),
    Workload(
        name="sweep-b-s1",
        calls=(Call(3, 1.0,
                    ("sweep-b", "--scenario", "3", "--scale", "1",
                     "--reps", str(SWEEP_REPS)),
                    SWEEP_REPS * SWEEP_POINT_COUNT),),
    ),
)}
