"""Benchmark scenario definitions and validation.

Four standard scenarios pair two problem sizes with worker counts 8/4 and
8/6.  The full sizes make single episodes expensive, so the factories
default to scale=8 (both operand lengths divided by 8), which keeps a
complete comparison study in the minutes range; scale=1 gives the full
size.  Scales without a tuned dynamic piece length fall back to the
built-in piece-count rule.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass, field

from .coding import MAX_SQUARE_PIECES, shortest_piece
from .models import STRAGGLER_MODES, CommParams

SCENARIO_SIZES = {
    1: (4096, 2048, 8),
    2: (4096, 2048, 4),
    3: (20000, 30000, 8),
    4: (20000, 30000, 6),
}

DEFAULT_SCALE = 8

# The most workers a fleet may have: memory grows with the fleet, and
# README's Config files section measures it up to this size.
MAX_WORKERS = 20_000

# Best dynamic piece length per scenario at the default scale, from the
# b sweep at 25 reps.  Keyed by (scenario index, scale).
TUNED_DYNAMIC_B = {
    (1, 8): 128,
    (2, 8): 128,
    (3, 8): 1250,
    (4, 8): 1875,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulated fleet configuration plus task size."""

    name: str
    n1: int
    n2: int
    n_workers: int
    mu_low: float = 3e6
    mu_high: float = 6e6
    straggler_ratio: float = 0.0
    straggler_mode: str = "delayed"
    delay_factor: float = 15.0
    failure_count_uniform: bool = False
    comm: CommParams = field(default_factory=CommParams)
    compute_coeff: float = 1.0
    init_box_m: float = 1500.0
    speed_limit_mps: float = 10.0
    horizon_factor: float = 50.0
    dynamic_b: int | None = None
    traditional_s: int | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        problems = []
        if self.n1 < 1 or self.n2 < 1:
            problems.append("n1 and n2 must be >= 1")
        if not 1 <= self.n_workers <= MAX_WORKERS:
            problems.append(f"n_workers must be in [1, {MAX_WORKERS}]")
        # Written so that NaN fails every test; inf is a legal delay or
        # horizon factor (the latter never gives up) and nothing else.
        if not 0 < self.mu_low <= self.mu_high < math.inf:
            problems.append("need 0 < mu_low <= mu_high < inf")
        if not 0.0 <= self.straggler_ratio <= 1.0:
            problems.append("straggler_ratio must be in [0, 1]")
        if self.straggler_mode not in STRAGGLER_MODES:
            problems.append(f"straggler_mode must be one of {STRAGGLER_MODES}")
        if not self.delay_factor >= 1.0:
            problems.append("delay_factor must be >= 1")
        if not 0 < self.compute_coeff < math.inf:
            problems.append("compute_coeff must be positive and finite")
        # Positions and velocities are drawn on [-limit, limit), a range of
        # twice the limit, which must be finite too.
        if not (0 < self.init_box_m and 2 * self.init_box_m < math.inf
                and 0 <= self.speed_limit_mps
                and 2 * self.speed_limit_mps < math.inf):
            problems.append("init_box_m must be positive, speed_limit_mps "
                            ">= 0, and twice each finite")
        if not self.horizon_factor > 1.0:
            problems.append("horizon_factor must be > 1")
        # No column is cut into more than MAX_SQUARE_PIECES pieces.
        b = self.dynamic_b
        if b is not None and not shortest_piece(self.n2) <= b <= self.n2:
            problems.append("dynamic_b must be in [1, n2] and cut n2 into "
                            f"<= {MAX_SQUARE_PIECES} pieces")
        s = self.traditional_s
        if s is not None and not (shortest_piece(max(self.n1, self.n2)) <= s
                                  <= min(self.n1, self.n2)):
            problems.append("traditional_s must be in [1, min(n1, n2)] and cut "
                            f"max(n1, n2) into <= {MAX_SQUARE_PIECES} pieces")
        if problems:
            raise ValueError("invalid scenario config: " + "; ".join(problems))

    def replace(self, **changes) -> "ScenarioConfig":
        return dataclasses.replace(self, **changes)

    @functools.cached_property
    def straggler_free(self) -> "ScenarioConfig":
        """This scenario with its straggler fields at their defaults.

        It is the fleet an `engine.Draws` is made for, built once per
        object: every episode of a scenario looks it up.
        """
        return self.replace(**_STRAGGLER_DEFAULTS)

    @functools.cached_property
    def straggler_key(self) -> tuple:
        """The values of the straggler fields, built once per object.

        They are all that the scenarios sharing a `straggler_free` fleet
        can differ in, so they key the behaviours an `engine.Draws` keeps.
        """
        return tuple(getattr(self, name) for name in _STRAGGLER_DEFAULTS)


# The fields that choose which workers straggle and how; nothing else in a
# scenario depends on them.
_STRAGGLER_DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(ScenarioConfig)
    if f.name in ("straggler_ratio", "straggler_mode", "delay_factor",
                  "failure_count_uniform")}


def scaled_size(full: int, scale: float) -> int:
    return max(1, round(full / scale))


def benchmark_scenario(index: int, scale: float = DEFAULT_SCALE,
                       **overrides) -> ScenarioConfig:
    """Standard scenario `index` in 1..4, operand lengths divided by `scale`."""
    if index not in SCENARIO_SIZES:
        raise ValueError(f"scenario index must be in {sorted(SCENARIO_SIZES)}")
    if not (isinstance(scale, (int, float)) and math.isfinite(scale) and scale > 0):
        raise ValueError("scale must be a positive number")
    n1_full, n2_full, p = SCENARIO_SIZES[index]
    fields = {
        "name": f"scenario{index}",
        "n1": scaled_size(n1_full, scale),
        "n2": scaled_size(n2_full, scale),
        "n_workers": p,
        "dynamic_b": TUNED_DYNAMIC_B.get((index, scale)),
    }
    fields.update(overrides)
    return ScenarioConfig(**fields)
