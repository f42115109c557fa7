"""Deterministic discrete-event engine for one distribution episode.

Events are ordered by (time, insertion sequence) so identical inputs replay
identically.  Randomness comes from counter-based Philox streams keyed per
(seed, node, purpose), which keeps every worker's draws independent of the
others and of the event interleaving: changing one worker's behaviour never
perturbs another worker's compute times or trajectory.

A stream is its key.  `substream` derives the key, and a draw loads it at
counter zero into the one Philox generator that all streams share, which
gives the draws of a generator built from that key.  The engine is
single-threaded by design: one stream's session ends before the next one
starts.  The one thing a stream keeps of what it drew is its tape, so no
generator state is ever saved.

An engine reads its randomness and its fleet through a `Draws`, made for
one episode seed and one fleet: a scenario without its straggler fields.
Per-node draws are kept on tapes: values in draw order, drawn on first
read and kept, so every episode of a seed (every strategy, sweep point
and straggler ratio of a rep) reads the same values without drawing
again.  A tape that runs out draws its stream again from the start to at
least twice its length.  A node's position tape holds its position at
each whole second: the start position is drawn at the node's first
distance read and the velocity stream at its first read past second 0.
A worker's compute tape starts at the first piece it accepts.  Streams
that no episode reads (failed workers, mobility in episodes shorter than
a second) are never opened, and since each stream is keyed on its own,
the draws do not depend on when or whether the others are made.  The
`Draws` also holds the fleet's profiles and operands, the behaviours of
each straggler setting, each pilot's completion time and each (worker,
second) link rate, so a rep prices each link once.  An episode given no
`Draws` makes a private one, so sharing one changes no value; one of
another seed or fleet is refused.

Node positions advance on a one-second mobility clock (velocities are
redrawn each whole second); a distance read at time t sees the position
at whole second int(t).  A position tape is integrated as far as reads
reach, so an episode that finishes within a second never pays for tick
events.

Each worker's `Behavior` is read in three places: its slowdown multiplies
the compute and return-transfer time of every piece, the master can reach
it from its join time, and no piece is delivered past its departure time.
Late joins and departures are also announced to the master as roster
events.
"""
import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .models import (
    FAILURE_MODES,
    Behavior,
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


class Memo(dict):
    """Values by key, each made by `make(key)` at its first lookup."""

    __slots__ = ("_make",)

    def __init__(self, make):
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


class Seed(int):
    """A seed that mixes itself and each node tag into a key prefix once.

    It is the int it was made from, so it goes wherever a seed goes.
    `prefix` is the splitmix64 state of the seed alone and `nodes[tag]` the
    state after node `tag`; `substream` starts from these instead of
    mixing them again for every stream.  A `Draws` holds one, so the memo
    is dropped with it and never outlives a rep.
    """

    def __new__(cls, seed: int):
        self = super().__new__(cls, seed)
        prefix = self.prefix = _splitmix64(seed & _MASK64)
        self.nodes = Memo(lambda tag: _splitmix64(prefix ^ (int(tag) & _MASK64)))
        return self


# The one generator every stream draws through, and the state a session
# loads into it: a stream's key at counter zero with an empty buffer.
_GENERATOR = np.random.Generator(np.random.Philox(0))
_START = {"bit_generator": "Philox",
          "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
          "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0,
          "uinteger": 0}
_in_session = False


class Stream:
    """One keyed Philox stream; draw from it in `with stream as rng: ...`.

    A stream is its 128-bit key, two ints.  A session loads the key at
    counter zero into the one generator all streams share and yields that
    generator, so the draws in every session are those of
    `Generator(Philox(key=key))` from its first value: Philox output is a
    pure function of key and counter.  A session starts at the same place
    whatever ran before it, so streams cannot see each other's state.
    Sessions do not nest, and `rng` is not read after its session ends:
    the engine is single-threaded by design.
    """

    __slots__ = ("key",)

    def __init__(self, key: list):
        self.key = key

    def __enter__(self) -> np.random.Generator:
        global _in_session
        if _in_session:
            raise RuntimeError("all streams draw through one generator; "
                               "end one stream's session before starting "
                               "another")
        _in_session = True
        _START["state"]["key"] = self.key
        _GENERATOR.bit_generator.state = _START
        return _GENERATOR

    def __exit__(self, *exc) -> None:
        global _in_session
        _in_session = False


def substream(seed: int, *tags: int) -> Stream:
    """Independent Philox stream for (seed, *tags).

    The key is splitmix64 chained over the seed and the tags, so streams
    for different (node, purpose) pairs never collide in practice and can
    be made in any order.  Opening one builds no generator.  Given a
    `Seed`, the chain starts from its memo of the seed and the first tag;
    given an int, from a `Seed` made for this stream alone.
    """
    if not isinstance(seed, Seed):
        seed = Seed(seed)
    if tags:
        state = seed.nodes[tags[0]]
        for tag in tags[1:]:
            state = _splitmix64(state ^ (int(tag) & _MASK64))
    else:
        state = seed.prefix
    return Stream([_splitmix64(state),
                   _splitmix64(state ^ 0xA5A5A5A5A5A5A5A5)])


def philox_key(seed: int, *tags: int) -> np.ndarray:
    """128-bit Philox key of `substream(seed, *tags)`, as two uint64 words."""
    return np.array(substream(seed, *tags).key, dtype=np.uint64)


# Values a tape draws at its first fill.
_CHUNK = 8


class Tape(list):
    """One keyed stream's values in draw order, kept once drawn.

    Read value k as `tape[k]` after `tape.fill(k)` when `k >= len(tape)`,
    so reading a value already drawn runs no Python code.  `fill` opens
    the stream at its first call and draws it again from its start to at
    least twice the tape's length: a tape of n values has drawn fewer than
    2n, and no generator state is kept between fills.  A subclass's
    `_draw(rng, n)` appends values len(tape) to n - 1 from `rng` at the
    start of the stream.
    """

    __slots__ = ("_seed", "_tags", "_stream")

    def __init__(self, seed: int, *tags: int):
        super().__init__()
        self._seed, self._tags, self._stream = seed, tags, None

    def fill(self, k: int) -> None:
        """Draw until the tape holds value k."""
        if self._stream is None:
            self._stream = substream(self._seed, *self._tags)
        with self._stream as rng:
            self._draw(rng, max(k + 1, 2 * len(self), _CHUNK))


class _Exponentials(Tape):
    """A worker's compute tape: standard exponentials in accept order."""

    __slots__ = ()

    def _draw(self, rng, n: int) -> None:
        self.extend(rng.standard_exponential(n)[len(self):].tolist())


class _Path(Tape):
    """Node `tag`'s position tape, one position per whole second.

    Index 0 is the start position in the +-box square, drawn when the tape
    is made; index k adds the velocity of second k (dt = 1 s).  The
    velocity stream is opened at the first read past the start.
    """

    __slots__ = ("_speed_limit",)

    def __init__(self, seed: int, tag: int, box: float, speed_limit: float):
        super().__init__(seed, tag, _VELOCITY)
        self._speed_limit = speed_limit
        with substream(seed, tag, _POSITION) as rng:
            self.append(rng.uniform(-box, box, 2))

    def _draw(self, rng, n: int) -> None:
        # Position k follows velocity row k - 1.
        limit = self._speed_limit
        pos = self[-1]
        for velocity in rng.uniform(-limit, limit, (n - 1, 2))[len(self) - 1:]:
            pos = pos + velocity
            self.append(pos)


def _distance(paths: Memo, worker: int, second: int) -> float:
    """Master-worker distance at whole second `second` of `paths`."""
    here, master = paths[worker], paths[_MASTER_TAG]
    if second >= len(here):
        here.fill(second)
    if second >= len(master):
        master.fill(second)
    delta = here[second] - master[second]
    return float(np.hypot(delta[0], delta[1]))


class Draws:
    """Everything the episodes of one seed on one fleet read, each drawn once.

    `fleet` is `scenario.straggler_free`: the episodes that may share the
    `Draws` differ from it at most in their straggler fields.  A value is
    drawn at its first read:
    - `paths[tag]`: the position tape of node `tag` (a worker index, or
      _MASTER_TAG); do not write to a position;
    - `rates[worker, second]`: the master-worker link rate at whole second
      `second`, made by `data_rate` from the distance `SimEngine.distance`
      reads;
    - `compute[worker]`: the worker's compute tape, standard exponentials
      that `sample_compute_time` scales, in accept order;
    - `profiles` (a list not to write to), `behaviors[scenario]` and
      `operands`: the draws of `episode_profiles`, `episode_behaviors`
      and `episode_task`.
    Every stream is opened through `substream` with the `Draws`' own
    `Seed`, so the seed and each node are mixed into a key prefix once per
    `Draws`; a tape keeps its stream's key to draw it again.
    `pilot_times` keeps `run_episode`'s straggler-free pilot completion
    times by (strategy, b), `inf` for a pilot that cannot finish.
    """

    def __init__(self, seed: int, scenario):
        # No closure holds `self`, so a dropped Draws is freed at once.
        seed = self.seed = Seed(seed)
        fleet = self.fleet = scenario.straggler_free
        paths = self.paths = Memo(lambda tag: _Path(
            seed, tag, fleet.init_box_m, fleet.speed_limit_mps))
        self.rates = Memo(lambda link: data_rate(_distance(paths, *link),
                                                 fleet.comm))
        self.compute = Memo(lambda worker: _Exponentials(seed, worker, _COMPUTE))
        self.behaviors = Memo(lambda scn: episode_behaviors(scn, seed))
        self.pilot_times: dict = {}

    @functools.cached_property
    def profiles(self) -> list[WorkerProfile]:
        return episode_profiles(self.fleet, self.seed)

    @functools.cached_property
    def operands(self) -> tuple[np.ndarray, np.ndarray]:
        return episode_task(self.fleet, self.seed)


@dataclass
class SimEvent:
    """One event-log record; the log holds them in the order they were made."""

    time: float
    kind: str
    worker: int
    row: int
    payload_numbers: int


EVENT_LOG_COLUMNS = ("time", "kind", "worker", "row", "payload_numbers")


def export_event_log(records, fh) -> None:
    """Write log records by time, one event per line; ties keep log order."""
    fh.write(",".join(EVENT_LOG_COLUMNS) + "\n")
    for rec in sorted(records, key=lambda r: r.time):
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

    def __init__(self, draws: Draws, behaviors, *, collect_log: bool = False):
        fleet = draws.fleet
        if len(behaviors) != fleet.n_workers:
            raise ValueError(f"need one behavior per worker: the fleet has "
                             f"{fleet.n_workers}, got {len(behaviors)}")
        self.profiles = draws.profiles
        self.behaviors = list(behaviors)
        self.comm = fleet.comm
        self.compute_coeff = fleet.compute_coeff
        self.n_workers = fleet.n_workers
        self._now = 0.0
        self._heap: list = []
        self._seq = 0
        self._busy = [0.0] * self.n_workers
        self.dispatched = 0         # send() calls, delivered or lost
        self._collect_log = collect_log
        self.log: list[SimEvent] = []

        self._paths = draws.paths
        self._rates = draws.rates
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

    def distance(self, worker: int, t: float) -> float:
        """Master-worker distance at the last mobility tick by time `t`."""
        return _distance(self._paths, worker, int(t))

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
            self.log.append(SimEvent(time, kind, worker, row, payload))

    def schedule_wakeup(self, time: float, worker: int) -> None:
        """Ask for a wakeup event at `time` tagged with `worker`."""
        self._push(max(time, self._now), EngineEvent("wakeup", time, worker))

    def send(self, worker: int, row: int, n_in: int,
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
        rate = self._rates[worker, int(now)]
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
        compute = self._compute[worker]
        if k >= len(compute):
            compute.fill(k)
        # Slowdown covers the work and the return transfer.
        t_comp = (sample_compute_time(compute[k], load,
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
    with substream(seed, _SCENARIO_TAG, _MU) as rng:
        mus = rng.uniform(scenario.mu_low, scenario.mu_high, scenario.n_workers)
    return [WorkerProfile(mu=float(mu)) for mu in mus]


def episode_behaviors(scenario, seed: int) -> list[Behavior]:
    """Draw the straggler assignment for one episode.

    Stragglers of the failure modes depart at t=0; "delayed" stragglers
    are slowed by the scenario's delay factor for the whole episode.  The
    straggler draw has its own stream, so changing the ratio or mode never
    changes the workers' compute or mobility draws.
    """
    p = scenario.n_workers
    with substream(seed, _SCENARIO_TAG, _STRAGGLER) as rng:
        if scenario.failure_count_uniform:
            count = int(rng.integers(0, p + 1))
        else:
            count = int(round(scenario.straggler_ratio * p))
        chosen = rng.choice(p, size=count, replace=False) if count else ()
    behaviors = [Behavior()] * p
    if count:
        straggler = (Behavior(departs=0.0)
                     if scenario.straggler_mode in FAILURE_MODES
                     else Behavior(slowdown=scenario.delay_factor))
        for w in chosen:
            behaviors[w] = straggler
    return behaviors


def episode_task(scenario, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw the operand vectors for one episode."""
    with substream(seed, _SCENARIO_TAG, _TASK) as rng:
        a = rng.uniform(-1.0, 1.0, scenario.n1)
        x = rng.uniform(-1.0, 1.0, scenario.n2)
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

    `draws` is a `Draws` of `seed` and of `scenario.straggler_free` (one
    of another seed or fleet is a ValueError); episodes that share one
    read each stream once and run each pilot once per (strategy, b).  By
    default the episode makes its own.

    The strategy schedules from the operand lengths.  Only with
    `keep_result` does a successful episode read the operands from `draws`
    and assemble the convolution into `result`.
    """
    runner = STRATEGIES.get(strategy)
    if runner is None:
        raise ValueError(f"unknown strategy {strategy!r}; "
                         f"choose from {sorted(STRATEGIES)}")
    if draws is None:
        draws = Draws(seed, scenario)
    elif draws.seed != seed:
        raise ValueError(f"the Draws are of seed {draws.seed}, "
                         f"not of the episode seed {seed}")
    elif draws.fleet != scenario.straggler_free:
        raise ValueError("the Draws are of another fleet than the scenario")
    behaviors = (_behaviors if _behaviors is not None
                 else draws.behaviors[scenario])
    normal = Behavior()
    n_stragglers = sum(beh != normal for beh in behaviors)

    if horizon is None:
        horizon = math.inf
        if n_stragglers:
            key = (strategy, b)
            pilot_time = draws.pilot_times.get(key)
            if pilot_time is None:
                pilot = run_episode(scenario, strategy, seed, b=b,
                                    horizon=math.inf, keep_result=False,
                                    draws=draws,
                                    _behaviors=[normal] * len(behaviors))
                pilot_time = draws.pilot_times[key] = (
                    pilot.completion_time if pilot.success else math.inf)
            horizon = scenario.horizon_factor * pilot_time

    eng = SimEngine(draws, behaviors, collect_log=collect_log)
    knobs = {}
    if strategy == "dynamic":
        knobs["b"] = b if b is not None else scenario.dynamic_b
    elif strategy == "traditional":
        knobs["s"] = scenario.traditional_s
    outcome = runner(scenario.n1, scenario.n2, eng, horizon=horizon, **knobs)
    result = None
    if keep_result and outcome.plan is not None:
        result = outcome.plan.assemble(*draws.operands)

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
