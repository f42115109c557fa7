"""Deterministic discrete-event engine for one distribution episode.

Events are ordered by (time, insertion sequence) so identical inputs replay
identically.  Randomness comes from counter-based Philox streams keyed per
(seed, node, purpose), which keeps every worker's draws independent of the
others and of the event interleaving: changing one worker's behaviour never
perturbs another worker's compute times or trajectory.

Node positions advance on a one-second mobility clock (velocities are
redrawn each whole second); distance reads between ticks see the most
recent tick position.  The mobility clock is integrated lazily, so an
episode that finishes within a second never pays for tick events.
"""

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import models
from .models import (
    Behavior,
    CommParams,
    WorkerProfile,
    comm_time,
    compute_load,
    data_rate,
    sample_compute_time,
)

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


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Independent Philox stream for (seed, *tags).

    The 128-bit Philox key is derived by chaining splitmix64 over the seed
    and tags, so streams for different (node, purpose) pairs never collide
    in practice and can be created in any order.
    """
    state = _splitmix64(seed & _MASK64)
    for tag in tags:
        state = _splitmix64(state ^ (int(tag) & _MASK64))
    key = np.array([_splitmix64(state), _splitmix64(state ^ 0xA5A5A5A5A5A5A5A5)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    n_in: int = 0
    n_out: int = 0


class SimEngine:
    """Event queue plus fleet state for a single episode."""

    def __init__(self, profiles, behaviors, comm: CommParams, seed: int, *,
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
        self._collect_log = collect_log
        self.log: list[SimEvent] = []
        self._log_seq = 0

        # Node 0..P-1 are workers, node P is the master.
        nodes = self.n_workers + 1
        self._vel_streams = []
        self._pos = np.zeros((nodes, 2))
        self._vel = np.zeros((nodes, 2))
        self._speed_limit = speed_limit_mps
        for node in range(nodes):
            tag = node if node < self.n_workers else _MASTER_TAG
            pos_stream = substream(seed, tag, _POSITION)
            self._pos[node] = pos_stream.uniform(-init_box_m, init_box_m, 2)
            vel_stream = substream(seed, tag, _VELOCITY)
            self._vel[node] = vel_stream.uniform(-speed_limit_mps, speed_limit_mps, 2)
            self._vel_streams.append(vel_stream)
        self._mobility_second = 0

        self._compute_streams = [substream(seed, w, _COMPUTE)
                                 for w in range(self.n_workers)]

        # Master-visible roster changes.
        for w, beh in enumerate(self.behaviors):
            if beh.kind == models.JOINS:
                self._push(beh.time, EngineEvent("worker_joins", beh.time, w))
            elif beh.kind in (models.FAILED, models.LEAVES):
                self._push(beh.time, EngineEvent("worker_leaves", beh.time, w))

    # -- time and mobility ---------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    def _advance_mobility(self, t: float) -> None:
        target = int(math.floor(t))
        while self._mobility_second < target:
            self._pos += self._vel  # dt = 1 s
            self._mobility_second += 1
            for node, stream in enumerate(self._vel_streams):
                self._vel[node] = stream.uniform(-self._speed_limit,
                                                 self._speed_limit, 2)

    def distance(self, worker: int, t: float) -> float:
        """Master-worker distance using the most recent mobility tick."""
        self._advance_mobility(t)
        delta = self._pos[worker] - self._pos[self.n_workers]
        return float(np.hypot(delta[0], delta[1]))

    # -- roster --------------------------------------------------------------

    def initial_roster(self) -> list[int]:
        """Workers the master can address at t=0 (late joiners excluded)."""
        return [w for w, b in enumerate(self.behaviors) if b.kind != models.JOINS]

    def departure_time(self, worker: int) -> float:
        beh = self.behaviors[worker]
        if beh.kind in (models.FAILED, models.LEAVES):
            return beh.time
        return math.inf

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

    def send(self, worker: int, row, n_in: int, n_out: int,
             load_pair: tuple[int, int]) -> None:
        """Dispatch work item `row` to a worker at the current time.

        Transfer times for both directions are priced at the dispatch-time
        distance.  The piece is silently lost when the worker has failed,
        departed, or not yet joined; the master has no failure detection
        beyond roster-change events.
        """
        now = self._now
        beh = self.behaviors[worker]
        self._log_event("dispatch", now, worker, row, n_in)
        if beh.kind == models.JOINS and now < beh.time:
            return
        dead_t = self.departure_time(worker)
        if now >= dead_t:
            return
        rate = data_rate(self.distance(worker, now), self.comm)
        t_in = comm_time(n_in, rate, self.comm.payload_bytes)
        arrive = now + t_in
        if arrive > dead_t:
            return
        self._log_event("piece_arrives", arrive, worker, row, n_in)
        # Pieces queue at the worker and compute one at a time.
        start = max(arrive, self._busy[worker])
        load = compute_load(load_pair[0], load_pair[1], self.compute_coeff)
        t_comp = sample_compute_time(self._compute_streams[worker], load,
                                     self.profiles[worker])
        t_out = comm_time(n_out, rate, self.comm.payload_bytes)
        if beh.kind == models.DELAYED:
            # Slowdown covers the work and the return transfer.
            t_comp *= beh.factor
            t_out *= beh.factor
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
                                       t_sent=now, rtt=t_in + t_out,
                                       n_in=n_in, n_out=n_out))

    def events(self, until: float = math.inf):
        """Pop events in (time, seq) order, stopping past `until`."""
        while self._heap:
            if self._heap[0][0] > until:
                break
            t, _, ev = heapq.heappop(self._heap)
            self._now = max(self._now, t)
            yield ev


@dataclass
class EpisodeMetrics:
    """Summary of one strategy episode."""

    scenario_name: str
    strategy: str
    seed: int
    success: bool
    completion_time: float
    horizon: float
    pieces_dispatched: int
    redundancy_used: int
    per_worker_results: dict
    n_stragglers: int
    params: dict = field(default_factory=dict)
    result: np.ndarray | None = None
    event_log: list | None = None


def episode_profiles(scenario, seed: int) -> list[WorkerProfile]:
    """Draw per-worker compute profiles for one episode."""
    stream = substream(seed, _SCENARIO_TAG, _MU)
    mus = stream.uniform(scenario.mu_low, scenario.mu_high, scenario.n_workers)
    return [WorkerProfile(mu=float(mu), alpha=1.0 / float(mu)) for mu in mus]


def episode_behaviors(scenario, seed: int) -> list[Behavior]:
    """Draw the straggler assignment for one episode.

    The straggler draw has its own stream, so changing the ratio or mode
    never changes the workers' compute or mobility draws.
    """
    p = scenario.n_workers
    stream = substream(seed, _SCENARIO_TAG, _STRAGGLER)
    if scenario.failure_count_uniform:
        count = int(stream.integers(0, p + 1))
    else:
        count = int(round(scenario.straggler_ratio * p))
    behaviors = [Behavior() for _ in range(p)]
    if count:
        chosen = stream.choice(p, size=count, replace=False)
        for w in chosen:
            if scenario.straggler_mode == "delayed":
                behaviors[w] = Behavior(models.DELAYED, factor=scenario.delay_factor)
            elif scenario.straggler_mode == "fail":
                behaviors[w] = Behavior(models.FAILED, time=0.0)
            elif scenario.straggler_mode == "leave":
                behaviors[w] = Behavior(models.LEAVES, time=0.0)
            else:
                raise ValueError(f"unknown straggler mode {scenario.straggler_mode!r}")
    return behaviors


def episode_task(scenario, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw the operand vectors for one episode."""
    stream = substream(seed, _SCENARIO_TAG, _TASK)
    a = stream.uniform(-1.0, 1.0, scenario.n1)
    x = stream.uniform(-1.0, 1.0, scenario.n2)
    return a, x


def run_episode(scenario, strategy: str, seed: int, *, b=None, s=None,
                horizon: float | None = None, collect_log: bool = False,
                keep_result: bool = True, _behaviors=None) -> EpisodeMetrics:
    """Run one episode of `strategy` against `scenario` with `seed`.

    When the episode contains stragglers and no horizon is given, a
    straggler-free pilot episode with the same seed sets the give-up
    horizon at horizon_factor times the pilot completion time.
    """
    from . import strategies as _strategies

    runner = _strategies.STRATEGIES.get(strategy)
    if runner is None:
        raise ValueError(f"unknown strategy {strategy!r}; "
                         f"choose from {sorted(_strategies.STRATEGIES)}")
    profiles = episode_profiles(scenario, seed)
    behaviors = _behaviors if _behaviors is not None else episode_behaviors(scenario, seed)
    n_stragglers = sum(1 for beh in behaviors if beh.kind != models.NORMAL)

    if horizon is None:
        if n_stragglers:
            pilot = run_episode(scenario, strategy, seed, b=b, s=s,
                                horizon=math.inf, keep_result=False,
                                _behaviors=[Behavior() for _ in behaviors])
            if not pilot.success:
                raise RuntimeError("straggler-free pilot episode did not complete")
            horizon = scenario.horizon_factor * pilot.completion_time
        else:
            horizon = math.inf

    a, x = episode_task(scenario, seed)
    eng = SimEngine(profiles, behaviors, scenario.comm, seed,
                    init_box_m=scenario.init_box_m,
                    speed_limit_mps=scenario.speed_limit_mps,
                    compute_coeff=scenario.compute_coeff,
                    collect_log=collect_log)
    knobs = {}
    if strategy == "dynamic":
        knobs["b"] = b if b is not None else scenario.dynamic_b
    elif strategy == "traditional":
        knobs["s"] = s if s is not None else scenario.traditional_s
    outcome = runner(a, x, eng, horizon=horizon, **knobs)

    return EpisodeMetrics(
        scenario_name=scenario.name,
        strategy=strategy,
        seed=seed,
        success=outcome.success,
        completion_time=outcome.completion_time,
        horizon=horizon,
        pieces_dispatched=outcome.pieces_dispatched,
        redundancy_used=outcome.redundancy_used,
        per_worker_results=outcome.per_worker_results,
        n_stragglers=n_stragglers,
        params=outcome.params,
        result=outcome.result if keep_result else None,
        event_log=eng.log if collect_log else None,
    )
