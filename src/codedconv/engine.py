"""Deterministic discrete-event engine for one distribution episode.

Events are ordered by (time, insertion sequence) so identical inputs replay
identically.  Randomness comes from counter-based Philox streams keyed per
(seed, node, purpose), which keeps every worker's draws independent of the
others and of the event interleaving: changing one worker's behaviour never
perturbs another worker's compute times or trajectory.

An engine reads its randomness through a `Draws`, which holds everything
one episode seed reads.  Per-node draws are kept on tapes: values in
draw order, drawn ahead a few at a time on first read and kept, so every
episode of a seed (every strategy, sweep point and straggler ratio of a
rep) reads the same values without rebuilding a stream.  A node's
position tape holds its position at each whole second: the start position
is drawn at the node's first distance read and the velocity stream at its
first read past second 0.  A worker's compute tape starts at the first
piece it accepts.  Streams that no episode reads (failed workers, mobility
in episodes shorter than a second) are never built, and since each stream
is keyed on its own, the draws do not depend on when or whether the
others are made.  The `Draws` also holds the seed's profiles, behaviours
and operands, one straggler-free pilot completion time per (scenario,
strategy, b), and the link rates: the rate of a (worker, second) link for
given link parameters and fleet, priced at its first read, so every
strategy and straggler ratio of a rep prices each link once.  An episode
given no `Draws` makes a private one, so sharing one changes no value;
one of another seed is refused.

Node positions advance on a one-second mobility clock (velocities are
redrawn each whole second); distance reads between ticks see the most
recent tick position.  The engine keeps only the latest tick any read has
reached, and a position tape is integrated a chunk at a time as far as
reads reach, so an episode that finishes within a second never pays for
tick events.

Each worker's `Behavior` is read in three places: its slowdown multiplies
the compute and return-transfer time of every piece, the master can reach
it from its join time, and no piece is delivered past its departure time.
Late joins and departures are also announced to the master as roster
events.
"""
import heapq
import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from .models import (
    FAILURE_MODES,
    Behavior,
    CommParams,
    WorkerProfile,
    comm_time,
    compute_load,
    data_rate,
    sample_compute_time,
)
from .strategies import STRATEGIES, StrategyOutcome

_MASK64 = (1 << 64) - 1

# Stream purposes.  Per worker:
_POSITION, _VELOCITY, _COMPUTE = 1, 2, 3
# Per episode (scenario level):
_MU, _STRAGGLER, _TASK = 4, 5, 6
# Node tag for the master and for scenario-level streams.
_MASTER_TAG = 0x6D737472
_SCENARIO_TAG = 0x7363656E


def _splitmix64(z: int) -> int:
    """One splitmix64 step; the documented key-derivation mix function."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class _PhiloxKey(ISpawnableSeedSequence):
    """Seed sequence whose only state is a ready 128-bit Philox key.

    `Philox(key=...)` still seeds a throwaway SeedSequence from OS entropy;
    `Philox(_PhiloxKey(key))` asks this object for its key instead and
    ends in the same state (zero counter, this key) at about a third of
    the cost.
    """

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or (dtype is not np.uint64
                            and np.dtype(dtype) != np.uint64):
            raise ValueError("a Philox key is two uint64 words; got "
                             f"{n_words} words of {np.dtype(dtype)}")
        return self.key

    def spawn(self, n_children):
        raise TypeError("keyed substreams do not spawn; derive a new "
                        "substream with more tags instead")


def philox_key(seed: int, *tags: int) -> np.ndarray:
    """128-bit Philox key for (seed, *tags): splitmix64 chained over both."""
    state = _splitmix64(seed & _MASK64)
    for tag in tags:
        state = _splitmix64(state ^ (int(tag) & _MASK64))
    return np.array([_splitmix64(state), _splitmix64(state ^ 0xA5A5A5A5A5A5A5A5)],
                    dtype=np.uint64)


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Independent Philox stream for (seed, *tags).

    The stream is `Generator(Philox(key=philox_key(seed, *tags)))`, so
    streams for different (node, purpose) pairs never collide in practice
    and can be created in any order.
    """
    key = _PhiloxKey(philox_key(seed, *tags))
    return np.random.Generator(np.random.Philox(key))


# Values a tape draws at a time.  Chunked draws equal sequential ones on
# Philox; a small chunk keeps episodes that read one or two values cheap.
_CHUNK = 8


class Tape(dict):
    """One keyed stream's values by draw index, kept once drawn.

    Reading `tape[k]` past the end takes chunks from `chunks`, an iterator
    of lists, until the tape holds k + 1 values.  The chunks are made on
    demand, so a stream nothing reads past is never built.  It is a dict
    so that reading a value already drawn runs no Python code.
    """

    __slots__ = ("_chunks",)

    def __init__(self, chunks):
        self._chunks = chunks

    def __missing__(self, k: int):
        while len(self) <= k:
            self.update(enumerate(next(self._chunks), len(self)))
        return self[k]


class Memo(dict):
    """Values by key, each made by `make(key)` at its first lookup."""

    __slots__ = ("_make",)

    def __init__(self, make):
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


def _path(seed: int, tag: int, box: float, speed_limit: float) -> Tape:
    """Node `tag`'s position tape, one position per whole second.

    Index 0 is the start position in the +-box square; index k adds the
    velocity of second k (dt = 1 s).  The velocity stream is built at the
    first read past the start and drawn _CHUNK seconds at a time.
    """
    pos = substream(seed, tag, _POSITION).uniform(-box, box, 2)
    tape = Tape(_moves(seed, tag, pos, speed_limit))
    tape[0] = pos
    return tape


def _moves(seed: int, tag: int, pos: np.ndarray, speed_limit: float):
    """Chunks of the positions that follow `pos`, one per second."""
    stream = substream(seed, tag, _VELOCITY)
    while True:
        chunk = []
        for velocity in stream.uniform(-speed_limit, speed_limit, (_CHUNK, 2)):
            pos = pos + velocity
            chunk.append(pos)
        yield chunk


def _distance(paths: Memo, worker: int, second: int) -> float:
    """Master-worker distance at whole second `second` of `paths`."""
    delta = paths[worker][second] - paths[_MASTER_TAG][second]
    return float(np.hypot(delta[0], delta[1]))


def _rates(paths: Memo, comm: CommParams) -> Memo:
    """Link rates over `comm` by (worker, second) of `paths`."""
    return Memo(lambda key: data_rate(_distance(paths, *key), comm))


def _exponentials(seed: int, worker: int):
    """Chunks of standard-exponential draws for `worker`'s pieces."""
    stream = substream(seed, worker, _COMPUTE)
    while True:
        yield stream.standard_exponential(_CHUNK).tolist()


class Draws:
    """Everything the episodes of one seed read, each drawn once.

    Each field but `pilot_times` is a `Memo`, so a value is drawn at its
    first lookup:
    - `paths[box, speed_limit][tag]`: the position tape of node `tag` (a
      worker index, or _MASTER_TAG); do not write to a position;
    - `rates[comm, box, speed_limit][worker, second]`: the master-worker
      link rate over `comm` at whole second `second` of those paths, made
      by `data_rate` from the distance `SimEngine.distance` reads, so
      every episode of the seed prices a (worker, second) link once;
    - `compute[worker]`: the worker's compute tape, standard exponentials
      that `sample_compute_time` scales, in accept order;
    - `profiles[scenario.straggler_free]`, `behaviors[scenario]` and
      `operands[scenario.straggler_free]`: the episode draws of
      `episode_profiles`, `episode_behaviors` and `episode_task`.
    `pilot_times` is the memo `run_episode` keeps of straggler-free pilot
    completion times (`inf` for a pilot that cannot finish), keyed by
    (scenario.straggler_free, strategy, b).  Episodes of different seeds
    must not share one, and `run_episode` refuses one of another seed.
    """

    def __init__(self, seed: int):
        # The closures hold `seed`, not `self`: a cycle through them would
        # keep a dropped Draws alive until the cycle collector runs.
        self.seed = seed
        paths = self.paths = Memo(lambda fleet: Memo(
            lambda tag: _path(seed, tag, *fleet)))
        self.rates = Memo(lambda link: _rates(paths[link[1:]], link[0]))
        self.compute = Memo(lambda worker: Tape(_exponentials(seed, worker)))
        self.profiles = Memo(lambda scn: episode_profiles(scn, seed))
        self.behaviors = Memo(lambda scn: episode_behaviors(scn, seed))
        self.operands = Memo(lambda scn: episode_task(scn, seed))
        self.pilot_times: dict = {}


@dataclass
class SimEvent:
    """One event-log record; export order is (time, seq)."""

    time: float
    seq: int
    kind: str
    worker: int
    row: int
    payload_numbers: int


EVENT_LOG_COLUMNS = ("time", "kind", "worker", "row", "payload_numbers")


def export_event_log(records, fh) -> None:
    """Write log records as comma-delimited text, one event per line."""
    fh.write(",".join(EVENT_LOG_COLUMNS) + "\n")
    for rec in sorted(records, key=lambda r: (r.time, r.seq)):
        fh.write(f"{rec.time:.9f},{rec.kind},{rec.worker},{rec.row},{rec.payload_numbers}\n")


@dataclass
class EngineEvent:
    """Master-visible event yielded to the strategy loop."""

    kind: str                   # result_arrives | worker_joins | worker_leaves | wakeup
    time: float
    worker: int
    row: int = -1
    t_sent: float = 0.0
    rtt: float = 0.0


class SimEngine:
    """Event queue plus fleet state for a single episode."""

    def __init__(self, profiles, behaviors, comm: CommParams, draws: Draws, *,
                 init_box_m: float = 1500.0, speed_limit_mps: float = 10.0,
                 compute_coeff: float = 1.0, collect_log: bool = False):
        if len(profiles) != len(behaviors) or not profiles:
            raise ValueError("need matching, non-empty profiles and behaviors")
        self.profiles = list(profiles)
        self.behaviors = list(behaviors)
        self.comm = comm
        self.compute_coeff = compute_coeff
        self.n_workers = len(profiles)
        self._now = 0.0
        self._heap: list = []
        self._seq = 0
        self._busy = [0.0] * self.n_workers
        self.dispatched = 0         # send() calls, delivered or lost
        self._collect_log = collect_log
        self.log: list[SimEvent] = []
        self._log_seq = 0

        # Position tapes by node tag (a worker index, or _MASTER_TAG), and
        # link rates by (worker, second).
        self._paths = draws.paths[init_box_m, speed_limit_mps]
        self._rates = draws.rates[comm, init_box_m, speed_limit_mps]
        self._mobility_second = 0
        self._compute = draws.compute
        self._compute_read = [0] * self.n_workers

        # Master-visible roster changes; a worker that departs before it
        # joins is never announced as joining.
        for w, beh in enumerate(self.behaviors):
            if 0.0 < beh.joins < beh.departs:
                self._push(beh.joins, EngineEvent("worker_joins", beh.joins, w))
            if beh.departs < math.inf:
                self._push(beh.departs, EngineEvent("worker_leaves", beh.departs, w))

    # -- time and mobility ---------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    def _tick(self, t: float) -> int:
        """Advance the mobility clock to time `t`; the latest tick reached."""
        self._mobility_second = max(self._mobility_second, int(math.floor(t)))
        return self._mobility_second

    def distance(self, worker: int, t: float) -> float:
        """Master-worker distance using the most recent mobility tick."""
        return _distance(self._paths, worker, self._tick(t))

    # -- roster --------------------------------------------------------------

    def initial_roster(self) -> list[int]:
        """Workers the master can address at t=0 (late joiners excluded)."""
        return [w for w, b in enumerate(self.behaviors) if not b.joins]

    # -- scheduling ----------------------------------------------------------

    def _push(self, time: float, ev: EngineEvent) -> None:
        heapq.heappush(self._heap, (time, self._seq, ev))
        self._seq += 1

    def _log_event(self, kind: str, time: float, worker: int, row, payload: int) -> None:
        if self._collect_log:
            self.log.append(SimEvent(time, self._log_seq, kind, worker,
                                     -1 if row is None else int(row), int(payload)))
            self._log_seq += 1

    def schedule_wakeup(self, time: float, worker: int) -> None:
        """Ask for a wakeup event at `time` tagged with `worker`."""
        self._push(max(time, self._now), EngineEvent("wakeup", time, worker))

    def send(self, worker: int, row, n_in: int,
             load_pair: tuple[int, int]) -> None:
        """Dispatch work item `row` to a worker at the current time.

        The worker receives `n_in` values and convolves operands of the
        `load_pair` lengths, so its result has sum(load_pair) - 1 values.
        Transfer times for both directions are priced at the dispatch-time
        distance.  The piece is silently lost when the worker has departed
        or not yet joined, or departs before the result is back; the master
        has no failure detection beyond roster-change events.
        """
        now = self._now
        n_out = load_pair[0] + load_pair[1] - 1
        beh = self.behaviors[worker]
        self.dispatched += 1
        self._log_event("dispatch", now, worker, row, n_in)
        dead_t = beh.departs
        if now < beh.joins or now >= dead_t:
            return
        rate = self._rates[worker, self._tick(now)]
        t_in = comm_time(n_in, rate, self.comm.payload_bytes)
        arrive = now + t_in
        if arrive > dead_t:
            return
        self._log_event("piece_arrives", arrive, worker, row, n_in)
        # Pieces queue at the worker and compute one at a time.
        start = max(arrive, self._busy[worker])
        load = compute_load(load_pair[0], load_pair[1], self.compute_coeff)
        k = self._compute_read[worker]
        self._compute_read[worker] = k + 1
        # Slowdown covers the work and the return transfer.
        t_comp = (sample_compute_time(self._compute[worker][k], load,
                                      self.profiles[worker]) * beh.slowdown)
        t_out = comm_time(n_out, rate, self.comm.payload_bytes) * beh.slowdown
        done = start + t_comp
        self._busy[worker] = done
        if done > dead_t:
            return
        self._log_event("compute_done", done, worker, row, 0)
        t_recv = done + t_out
        if t_recv > dead_t:
            return
        self._log_event("result_arrives", t_recv, worker, row, n_out)
        self._push(t_recv, EngineEvent("result_arrives", t_recv, worker, row=row,
                                       t_sent=now, rtt=t_in + t_out))

    def events(self, until: float = math.inf):
        """Pop events in (time, seq) order, stopping past `until`."""
        while self._heap:
            if self._heap[0][0] > until:
                break
            t, _, ev = heapq.heappop(self._heap)
            self._now = max(self._now, t)
            yield ev


@dataclass(kw_only=True)
class EpisodeMetrics(StrategyOutcome):
    """The strategy's outcome for one episode, plus the episode's own fields."""

    scenario_name: str
    strategy: str
    seed: int
    horizon: float
    n_stragglers: int
    result: np.ndarray | None = None
    event_log: list | None = None


def episode_profiles(scenario, seed: int) -> list[WorkerProfile]:
    """Draw per-worker compute profiles for one episode."""
    stream = substream(seed, _SCENARIO_TAG, _MU)
    mus = stream.uniform(scenario.mu_low, scenario.mu_high, scenario.n_workers)
    return [WorkerProfile(mu=float(mu)) for mu in mus]


def episode_behaviors(scenario, seed: int) -> list[Behavior]:
    """Draw the straggler assignment for one episode.

    Stragglers of the failure modes depart at t=0; "delayed" stragglers
    are slowed by the scenario's delay factor for the whole episode.  The
    straggler draw has its own stream, so changing the ratio or mode never
    changes the workers' compute or mobility draws.
    """
    p = scenario.n_workers
    stream = substream(seed, _SCENARIO_TAG, _STRAGGLER)
    if scenario.failure_count_uniform:
        count = int(stream.integers(0, p + 1))
    else:
        count = int(round(scenario.straggler_ratio * p))
    behaviors = [Behavior()] * p
    if count:
        straggler = (Behavior(departs=0.0)
                     if scenario.straggler_mode in FAILURE_MODES
                     else Behavior(slowdown=scenario.delay_factor))
        for w in stream.choice(p, size=count, replace=False):
            behaviors[w] = straggler
    return behaviors


def episode_task(scenario, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw the operand vectors for one episode."""
    stream = substream(seed, _SCENARIO_TAG, _TASK)
    a = stream.uniform(-1.0, 1.0, scenario.n1)
    x = stream.uniform(-1.0, 1.0, scenario.n2)
    return a, x


def run_episode(scenario, strategy: str, seed: int, *, b=None,
                horizon: float | None = None, collect_log: bool = False,
                keep_result: bool = True, draws: Draws | None = None,
                _behaviors=None) -> EpisodeMetrics:
    """Run one episode of `strategy` against `scenario` with `seed`.

    When the episode contains stragglers and no horizon is given, a
    straggler-free pilot episode with the same seed sets the give-up
    horizon at horizon_factor times the pilot completion time.  A pilot
    that cannot finish sets none: the horizon stays infinite.

    `draws` is a `Draws` of `seed` (one of another seed is a ValueError);
    episodes that share one read each stream once and run each pilot once
    per (scenario without its straggler fields, strategy, b).  By default
    the episode makes its own.

    The strategy schedules from the operand lengths.  Only with
    `keep_result` does a successful episode read the operands from `draws`
    and assemble the convolution into `result`.
    """
    runner = STRATEGIES.get(strategy)
    if runner is None:
        raise ValueError(f"unknown strategy {strategy!r}; "
                         f"choose from {sorted(STRATEGIES)}")
    if draws is None:
        draws = Draws(seed)
    elif draws.seed != seed:
        raise ValueError(f"the Draws are of seed {draws.seed}, "
                         f"not of the episode seed {seed}")
    profiles = draws.profiles[scenario.straggler_free]
    behaviors = (_behaviors if _behaviors is not None
                 else draws.behaviors[scenario])
    normal = Behavior()
    n_stragglers = sum(beh != normal for beh in behaviors)

    if horizon is None:
        horizon = math.inf
        if n_stragglers:
            key = (scenario.straggler_free, strategy, b)
            pilot_time = draws.pilot_times.get(key)
            if pilot_time is None:
                pilot = run_episode(scenario, strategy, seed, b=b,
                                    horizon=math.inf, keep_result=False,
                                    draws=draws,
                                    _behaviors=[normal] * len(behaviors))
                pilot_time = draws.pilot_times[key] = (
                    pilot.completion_time if pilot.success else math.inf)
            horizon = scenario.horizon_factor * pilot_time

    eng = SimEngine(profiles, behaviors, scenario.comm, draws,
                    init_box_m=scenario.init_box_m,
                    speed_limit_mps=scenario.speed_limit_mps,
                    compute_coeff=scenario.compute_coeff,
                    collect_log=collect_log)
    knobs = {}
    if strategy == "dynamic":
        knobs["b"] = b if b is not None else scenario.dynamic_b
    elif strategy == "traditional":
        knobs["s"] = scenario.traditional_s
    outcome = runner(scenario.n1, scenario.n2, eng, horizon=horizon, **knobs)
    result = None
    if keep_result and outcome.plan is not None:
        result = outcome.plan.assemble(
            *draws.operands[scenario.straggler_free])

    return EpisodeMetrics(
        **vars(outcome),
        scenario_name=scenario.name,
        strategy=strategy,
        seed=seed,
        horizon=horizon,
        n_stragglers=n_stragglers,
        result=result,
        event_log=eng.log if collect_log else None,
    )
