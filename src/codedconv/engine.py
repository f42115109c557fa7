"""Deterministic discrete-event engine for one distribution episode.

Events pop in (time, push order), so identical inputs replay identically
(`SimEngine`, `EngineEvent`).  Every draw comes from a counter-based
Philox stream keyed per (seed, node, purpose) (`substream`, `Stream`), so
a worker's draws do not depend on the other workers' or on the event
interleaving: changing one worker's behaviour never perturbs another
worker's compute times or trajectory.  Since each stream is keyed on its
own, one that no episode reads (a failed worker's, mobility in an episode
shorter than a second, the straggler stream of a setting that chooses no
worker by draw) is never opened, and no draw depends on when or whether the
others are made.  An engine reads its randomness and its fleet through a
`Draws`, which keeps each stream's values on a `Tape`.  A draw of one
numpy call (a start position, a tape's chunk, the profile mus) reads its
stream through `Stream.load`; the straggler and operand draws, of several
calls, hold a `with` session.  The straggler draw computes numpy's
`integers` and `choice` from the stream's raw words (`_below`,
`_choice`), and a link distance is C's `hypot`, as `np.hypot` computes
it, so the values depend on no `Generator` method but `random`,
`uniform` and `standard_exponential`.  A worker's compute profile is its
mu, a float; its alpha = 1 / mu is computed where it is read.  Node
positions advance on a one-second mobility clock (`_Path`), and the
clock stops at CLOCK_LIMIT_S.  How a worker's `Behavior` acts is in `SimEngine.send` and
`Roster`.
"""
import functools
import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# `send` inlines `comm_time` and `sample_compute_time`; both stay engine
# globals, the names the benchmark's tracer wraps.
from .models import (  # noqa: F401
    FAILURE_MODES,
    Behavior,
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
# The behaviour of a normal worker: anything else is a straggler.  Every
# straggler of the failure modes shares `_FAILED`.
_NORMAL = Behavior()
_FAILED = Behavior(departs=0.0)
# The episode clock stops at an hour: no event later than this is pushed,
# so an episode ends in bounded time and memory even when its links are
# all but dead, and fails rather than succeeding years later.  The golden
# episodes all end within 30 s.
CLOCK_LIMIT_S = 3600.0


class Memo(dict):
    """Values by key, each made by `make(key)` at its first lookup."""

    __slots__ = ("_make",)

    def __init__(self, make):
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


# The splitmix64 constants of the key chain and the xor of each key word,
# as uint64 arrays: numpy scalars warn on the overflow the mix relies on,
# and a Python int operand can promote uint64 to float under numpy 1.x.
_GAMMA, _MIX1, _MIX2 = np.array(
    [0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB],
    dtype=np.uint64)[:, None]
_SHIFT30, _SHIFT27, _SHIFT31 = np.array([30, 27, 31], dtype=np.uint64)[:, None]
_WORDS = np.array([0, 0xA5A5A5A5A5A5A5A5], dtype=np.uint64)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """One splitmix64 step on every entry of a uint64 array."""
    z = z + _GAMMA
    z ^= z >> _SHIFT30
    z *= _MIX1
    z ^= z >> _SHIFT27
    z *= _MIX2
    z ^= z >> _SHIFT31
    return z


def _derive(seeds, nodes, purposes) -> np.ndarray:
    """The keys of `seeds` x the streams (nodes[i], purposes[i]).

    A uint64 array of shape (seeds, streams, 2), the key words of stream i
    under seed j at [j, i]: splitmix64 chained over the seed, the node and
    the purpose, then once more for each key word, the second xor-ed with
    0xA5A5A5A5A5A5A5A5.  Seeds are taken mod 2**64; nodes and purposes are
    uint64 already.
    """
    seed = np.array([int(s) & _MASK64 for s in seeds], dtype=np.uint64)
    state = _splitmix64(_splitmix64(_splitmix64(seed[:, None])
                                    ^ np.asarray(nodes, dtype=np.uint64))
                        ^ np.asarray(purposes, dtype=np.uint64))
    return _splitmix64(state[..., None] ^ _WORDS)


def _key_index(node: int, purpose: int) -> int:
    """Where stream (node, purpose) sits in a row of keys, -1 if in none.

    The master's position and velocity streams sit at 0 and 1, the
    scenario's profile, straggler and operand streams at 2, 3 and 4, then
    worker w's purpose q at 5 + 3w + q - 1: a row of 3p + 5 keys holds
    every stream a fleet of p workers, or of fewer, can open.
    """
    # Worker nodes, the most opened, come first; both tags exceed them all.
    if 0 <= node < _MASTER_TAG and _POSITION <= purpose <= _COMPUTE:
        # Python ints: a numpy scalar's arithmetic could overflow.
        return 5 + 3 * int(node) + int(purpose) - _POSITION
    if node == _MASTER_TAG:
        return purpose - _POSITION if purpose in (_POSITION, _VELOCITY) else -1
    if node == _SCENARIO_TAG:
        return purpose - _MU + 2 if purpose in (_MU, _STRAGGLER, _TASK) else -1
    return -1


# Rows of stream keys by seed (`_derive_rows`): flat memoryviews of one
# uint64 block, which read as Python ints; stream i's key words are at 2i
# and 2i + 1, with i its `_key_index`.
KEY_ROWS_KEPT = 16
_KEY_ROWS: dict = {}


def _derive_rows(seed: int, n_workers: int,
                 count: int = KEY_ROWS_KEPT) -> None:
    """Replace the kept rows by those of `count` seeds from `seed` on, at
    most KEY_ROWS_KEPT, each of the 3 * n_workers + 5 keys of a fleet of
    `n_workers` (`_key_index`), derived in one evaluation as one block.

    The old rows are dropped before the new ones are made, so no more than
    KEY_ROWS_KEPT rows are ever held.
    """
    _KEY_ROWS.clear()
    seeds = range(seed, seed + min(count, KEY_ROWS_KEPT))
    nodes = np.concatenate([[_MASTER_TAG] * 2 + [_SCENARIO_TAG] * 3,
                            np.arange(n_workers).repeat(3)])
    purposes = np.concatenate([[_POSITION, _VELOCITY, _MU, _STRAGGLER, _TASK],
                               np.tile([_POSITION, _VELOCITY, _COMPUTE],
                                       n_workers)])
    block = _derive(seeds, nodes, purposes).reshape(len(seeds), -1)
    _KEY_ROWS.update(zip(seeds, map(memoryview, block)))


# The generator all streams share, and the state a session loads into it.
_GENERATOR = np.random.Generator(np.random.Philox(0))
_START = {"bit_generator": "Philox",
          "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
          "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0,
          "uinteger": 0}
_in_session = False


class Stream:
    """One keyed Philox stream; draw from it in `with stream as rng: ...`,
    or in one call as `stream.load().random(n)`.

    A stream is its 128-bit key, two ints.  `load` puts the key at counter
    zero into the one generator all streams share and returns that
    generator, so its draws are those of `Generator(Philox(key=key))` from
    its first value, whatever ran before: Philox output is a pure function
    of key and counter.  A draw of one call (a start position, a tape's
    chunk, the profile mus) reads the generator `load` returns at once; a
    draw of several calls (the straggler draw, the operands) holds a
    session, `load` plus a mark: sessions do not nest, no stream loads
    inside one, and the generator is not read after its session or its
    one call, since the engine is single-threaded by design.
    """

    __slots__ = ("key",)

    def __init__(self, key: list):
        self.key = key

    def load(self) -> np.random.Generator:
        """The shared generator at this stream's first value, for one call."""
        if _in_session:
            raise RuntimeError("all streams draw through one generator; "
                               "end one stream's session before starting "
                               "another")
        _START["state"]["key"] = self.key
        _GENERATOR.bit_generator.state = _START
        return _GENERATOR

    def __enter__(self) -> np.random.Generator:
        global _in_session
        rng = self.load()
        _in_session = True
        return rng

    def __exit__(self, *exc) -> None:
        global _in_session
        _in_session = False


def substream(seed: int, node: int, purpose: int) -> Stream:
    """Independent Philox stream for (seed, node, purpose); opening one
    builds no generator, and every stream is opened here.

    The key (`_derive`) never collides with another stream's in practice,
    so streams can be made in any order.  It is read from the row of
    `seed` that a `Draws` derived ahead (`_derive_rows`), at the stream's
    `_key_index`.  A stream outside the kept rows, of a node outside the
    fleet, of a seed whose row was replaced, or drawn with no `Draws`
    made, gets its one key from the same derivation, so no value depends
    on the readahead.
    """
    row = _KEY_ROWS.get(seed)
    if row is not None:
        i = 2 * _key_index(node, purpose)
        if 0 <= i < len(row):
            return Stream([row[i], row[i + 1]])
    return Stream(_derive((seed,), (int(node) & _MASK64,),
                          (int(purpose) & _MASK64,))[0, 0].tolist())


# Values a tape draws at its first fill.
_CHUNK = 8


class Tape(list):
    """A (seed, node, purpose) stream's values in draw order, kept once drawn.

    Read value k as `tape[k]` after `tape.fill(k)` when `k >= len(tape)`,
    so reading a value already drawn runs no Python code.  `fill` opens
    the stream `_key` names if the tape has none yet, and draws it again
    from its start, in one call on `load`'s generator, to at least twice
    the tape's length: a tape of n values has drawn fewer than 2n, and no
    generator state is kept between fills.  A subclass's `_draw(rng, n)`
    appends values len(tape) to n - 1 from `rng` at the start of the
    stream, in one call.
    """

    __slots__ = ("_key", "_stream")

    def fill(self, k: int) -> None:
        """Draw until the tape holds value k."""
        if self._stream is None:
            self._stream = substream(*self._key)
        self._draw(self._stream.load(), max(k + 1, 2 * len(self), _CHUNK))


class _Exponentials(Tape):
    """A worker's compute tape: standard exponentials in accept order.

    It opens its stream and draws the first _CHUNK values when it is
    made, which a `Draws` does at the worker's first priced send.
    """

    __slots__ = ()

    def __init__(self, seed: int, worker: int):
        stream = self._stream = substream(seed, worker, _COMPUTE)
        self.extend(stream.load().standard_exponential(_CHUNK).tolist())

    def _draw(self, rng, n: int) -> None:
        self.extend(rng.standard_exponential(n)[len(self):].tolist())


class _Path(Tape):
    """Node `tag`'s position tape, one (x, y) float pair per whole second.

    Index 0 is the start position in the +-box square, drawn when the tape
    is made; index k adds the velocity of second k (dt = 1 s).  A distance
    read at time t sees the position at whole second int(t), and the tape
    is integrated only as far as reads reach: the velocity stream is
    opened at the first read past the start, so an episode that ends
    within a second pays for no mobility.  At a speed limit of 0 every
    velocity drawn is 0, so the node stays at its start position.
    """

    __slots__ = ("_speed_limit",)

    def __init__(self, seed: int, tag: int, box: float, speed_limit: float):
        self._key, self._stream = (seed, tag, _VELOCITY), None
        self._speed_limit = speed_limit
        x, y = substream(seed, tag, _POSITION).load().random(2).tolist()
        # rng.uniform(-box, box, 2), bit for bit (see `episode_profiles`).
        span = box - -box
        self.append((-box + span * x, -box + span * y))

    def _draw(self, rng, n: int) -> None:
        # Position k follows velocity row k - 1.  No read is past the
        # clock limit, so neither is the tape.
        n = min(n, int(CLOCK_LIMIT_S) + 1)
        limit = self._speed_limit
        x, y = self[-1]
        velocities = rng.uniform(-limit, limit, (n - 1, 2))
        if len(self) > 1:
            velocities = velocities[len(self) - 1:]
        for vx, vy in velocities.tolist():
            x += vx
            y += vy
            self.append((x, y))


def _distance(paths: Memo, worker: int, second: int) -> float:
    """Master-worker distance at whole second `second` of `paths`."""
    here, master = paths[worker], paths[_MASTER_TAG]
    if second >= len(here):
        here.fill(second)
    if second >= len(master):
        master.fill(second)
    (x, y), (mx, my) = here[second], master[second]
    # C's hypot, as np.hypot computes it, without its per-call cost: the
    # absolute value of a complex is hypot(real, imag).  Not math.hypot,
    # which differs in the last bit.  Where np.hypot overflows to inf,
    # abs raises instead.
    try:
        return abs(complex(x - mx, y - my))
    except OverflowError:
        return math.inf


class Draws:
    """Everything the episodes of one seed on one fleet read, each drawn once.

    `fleet` is `scenario.straggler_free`: the episodes that may share the
    `Draws` differ from it at most in their straggler fields.  A value is
    drawn at its first read:
    - `paths[tag]`: the `_Path` of node `tag`, a worker or _MASTER_TAG;
    - `rates[worker, second]`: the master-worker link rate at whole second
      `second`, by `data_rate` from the distance between the two paths;
    - `compute[worker]`: the worker's `_Exponentials` compute tape, made,
      with its stream opened and its first _CHUNK values drawn, at the
      worker's first priced send;
    - `profiles` (the workers' mus, a list not to write to) and
      `operands`: the draws of `episode_profiles` and `episode_task`;
    - `behaviors[scenario.straggler_key]`: the `Roster` of a scenario of
      the fleet (`_roster`); pilots run with the fleet's own.
    `seed` is the plain int episode seed.  A `Draws` whose seed has no
    kept key row, or one too short for its fleet, derives the rows of its
    seed and the next `readahead` - 1 (`_derive_rows`) for the `Draws` of
    the following reps; it is the one place that derives a block, and a
    row derived for a larger fleet serves it too.  `pilot_times`
    keeps `run_episode`'s straggler-free pilot completion times by
    (strategy, b), `inf` for a pilot that cannot finish.
    """

    def __init__(self, seed: int, scenario, readahead: int = KEY_ROWS_KEPT):
        # No closure holds `self`, so a dropped Draws is freed at once.
        self.seed = seed
        fleet = self.fleet = scenario.straggler_free
        row = _KEY_ROWS.get(seed)
        if row is None or len(row) < 2 * (3 * fleet.n_workers + 5):
            _derive_rows(seed, fleet.n_workers, readahead)
        paths = self.paths = Memo(lambda tag: _Path(
            seed, tag, fleet.init_box_m, fleet.speed_limit_mps))
        self.rates = Memo(lambda link: data_rate(_distance(paths, *link),
                                                 fleet.comm))
        self.compute = Memo(lambda worker: _Exponentials(seed, worker))
        self.behaviors: dict = {}
        self.pilot_times: dict = {}

    @functools.cached_property
    def profiles(self) -> list[float]:
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


class EngineEvent(NamedTuple):
    """A popped event: the queue entry it was pushed as, with named fields.

    `time` is when the event happens, the clock once it is popped.  `seq`
    is its push order, which breaks ties in time.  `kind` is
    result_arrives, worker_joins, worker_leaves or wakeup.  A result
    carries its `row`, the time `t_sent` it was sent and its round trip
    `rtt`; the other kinds keep -1, 0.0 and 0.0.
    """

    time: float
    seq: int
    kind: str
    worker: int
    row: int
    t_sent: float
    rtt: float


class Roster:
    """One straggler setting: its behaviours and what an engine reads of
    them before the first event.

    `behaviors` has one `Behavior` per worker and `stragglers` counts
    those that are not a normal worker's.  `initial` lists the workers the
    master can address at t=0 (late joiners excluded).  `events` lists
    the roster changes an engine pushes before the first event, as
    (time, kind, worker) triples in push order: a worker that departs
    before it joins is never announced as joining, and one that departs
    at t=0 is never announced at all, since it returns no result and gets
    no wakeup, so no strategy could act on its departure.  A roster is
    not written to: the episodes of a `Draws` share one per straggler
    setting.
    """

    __slots__ = ("behaviors", "stragglers", "initial", "events")

    def __init__(self, behaviors):
        self.behaviors = behaviors = list(behaviors)
        self.initial = initial = []
        self.events = events = []
        stragglers = 0
        for w, beh in enumerate(behaviors):
            if beh is _NORMAL:
                initial.append(w)
                continue
            stragglers += beh is _FAILED or beh != _NORMAL
            if not beh.joins:
                initial.append(w)
            if 0.0 < beh.joins < beh.departs:
                events.append((beh.joins, "worker_joins", w))
            if 0.0 < beh.departs < math.inf:
                events.append((beh.departs, "worker_leaves", w))
        self.stragglers = stragglers


class SimEngine:
    """Event queue plus fleet state for a single episode.

    `now` is the clock: the time of the event popped last, 0 before the
    first.  Only `events()` sets it.  `fleet` and `profiles` are the
    `Draws`' own.  `behaviors` is one `Behavior` per worker, or a `Roster`
    made of them, whose `initial` roster the engine shares.
    """

    def __init__(self, draws: Draws, behaviors, *, collect_log: bool = False):
        fleet = self.fleet = draws.fleet
        roster = behaviors if isinstance(behaviors, Roster) else Roster(behaviors)
        behaviors = self.behaviors = roster.behaviors
        if len(behaviors) != fleet.n_workers:
            raise ValueError(f"need one behavior per worker: the fleet has "
                             f"{fleet.n_workers}, got {len(behaviors)}")
        self.profiles = draws.profiles
        self.comm = fleet.comm
        self.n_workers = fleet.n_workers
        self.now = 0.0
        self.initial = roster.initial
        self._heap: list = []
        self._seq = 0
        self._busy = [0.0] * self.n_workers
        self.dispatched = 0         # send() calls, delivered or lost
        self._collect_log = collect_log
        self.log: list[SimEvent] = []

        self._rates = draws.rates
        self._compute = draws.compute
        self._compute_read = [0] * self.n_workers
        # The piece shape `send` priced last: its load pair, compute load
        # and result length, priced again only when the load pair differs.
        self._shape = None
        self._load = 0.0
        self._n_out = 0
        for time, kind, worker in roster.events:
            self._push(time, kind, worker)

    def _push(self, time: float, kind: str, worker: int, row: int = -1,
              t_sent: float = 0.0, rtt: float = 0.0) -> None:
        # The queue entry is the flat tuple an `EngineEvent` names.  An
        # event past the clock limit would never be popped, so it is not
        # pushed, and takes no sequence number: the (time, seq) order of
        # the events that are pushed is the same either way.
        if time <= CLOCK_LIMIT_S:
            heapq.heappush(self._heap,
                           (time, self._seq, kind, worker, row, t_sent, rtt))
            self._seq += 1

    def schedule_wakeup(self, time: float, worker: int) -> None:
        """Ask for a wakeup event tagged with `worker` at `time`, or now if
        `time` has passed; one past CLOCK_LIMIT_S is not pushed."""
        now = self.now
        self._push(time if time > now else now, "wakeup", worker)

    def send(self, worker: int, row: int, n_in: int,
             load_pair: tuple[int, int]) -> None:
        """Dispatch work item `row` to a worker at the current time.

        The worker receives `n_in` values and convolves operands of the
        `load_pair` lengths, so its result has sum(load_pair) - 1 values.
        Transfer times for both directions are priced at the dispatch-time
        distance, by the formulas of `comm_time` and `sample_compute_time`
        written inline in the same operation order, so every time is bit
        for bit theirs.  The piece is silently lost when the worker has
        departed or not yet joined, when the link's rate is 0 (far enough
        out, the Shannon rate underflows), or when the worker departs
        before the result is back; the master has no failure detection
        beyond roster-change events.  A result due past CLOCK_LIMIT_S is
        not pushed, but the piece still takes its place on the worker's
        compute tape and keeps the worker busy.
        """
        now = self.now
        beh = self.behaviors[worker]
        self.dispatched += 1
        log = self.log.append if self._collect_log else None
        if log:
            log(SimEvent(now, "dispatch", worker, row, n_in))
        dead_t = beh.departs
        if now < beh.joins or now >= dead_t:
            return
        payload_bytes = self.comm.payload_bytes
        rate = self._rates[worker, int(now)]
        if not rate:
            return
        t_in = n_in * payload_bytes * 8.0 / rate
        arrive = now + t_in
        if arrive > dead_t:
            return
        if log:
            log(SimEvent(arrive, "piece_arrives", worker, row, n_in))
        if load_pair != self._shape:
            n1, n2 = load_pair
            self._shape = load_pair
            self._load = compute_load(n1, n2, self.fleet.compute_coeff)
            self._n_out = n1 + n2 - 1
        load, n_out = self._load, self._n_out
        k = self._compute_read[worker]
        self._compute_read[worker] = k + 1
        compute = self._compute[worker]
        if k >= len(compute):
            compute.fill(k)
        # Pieces queue at the worker and compute one at a time; slowdown
        # covers the work and the return transfer.
        slowdown = beh.slowdown
        mu = self.profiles[worker]
        t_comp = ((1.0 / mu) * load + (load / mu) * compute[k]) * slowdown
        t_out = n_out * payload_bytes * 8.0 / rate * slowdown
        busy = self._busy[worker]
        done = (arrive if arrive > busy else busy) + t_comp
        self._busy[worker] = done
        if done > dead_t:
            return
        if log:
            log(SimEvent(done, "compute_done", worker, row, 0))
        t_recv = done + t_out
        if t_recv > dead_t:
            return
        if log:
            log(SimEvent(t_recv, "result_arrives", worker, row, n_out))
        self._push(t_recv, "result_arrives", worker, row, now, t_in + t_out)

    def events(self, until: float = math.inf):
        """Pop events in (time, seq) order, stopping past `until`, and yield
        each as an `EngineEvent`, built only once it is popped.  Nothing is
        pushed before the clock or past CLOCK_LIMIT_S, so the clock never
        passes it: an event due later, at t = inf included, never happens.
        """
        heap = self._heap
        pop = heapq.heappop
        new = tuple.__new__
        while heap and heap[0][0] <= until:
            entry = pop(heap)
            self.now = entry[0]
            yield new(EngineEvent, entry)


# The straggler draw, written out from numpy 2.4.6's C code for
# `Generator.integers` and `Generator.choice` over a stream's raw words,
# so that it pays no numpy call per value.  Every range is below 2**32.


def _uint32s(rng: np.random.Generator):
    """`rng`'s 32-bit values, as numpy's `next_uint32` reads them at the
    start of a session: the low, then the high half of each raw 64-bit
    word.  It reads 8 words at first, enough for every straggler draw of a
    fleet of up to 8 workers, and twice as many each time after."""
    bits = rng.bit_generator
    words = 8
    while True:
        for word in bits.random_raw(words).tolist():
            yield word & 0xFFFFFFFF
            yield word >> 32
        words *= 2


def _below(next32, bound: int) -> int:
    """A value uniform on range(bound), 2 <= bound < 2**32, by Lemire's
    multiply-and-reject method: numpy's `bounded_lemire_uint32` at range
    bound - 1, as in `rng.integers(0, bound)` and each step of
    `rng.choice`."""
    m = next32() * bound
    if m & 0xFFFFFFFF < bound:
        threshold = (0x100000000 - bound) % bound
        while m & 0xFFFFFFFF < threshold:
            m = next32() * bound
    return m >> 32


def _choice(next32, p: int, count: int) -> list[int]:
    """`rng.choice(p, count, replace=False).tolist()`, 0 <= count <= p.

    Past 10,000 workers, for more than p // 50 of them, numpy returns the
    last `count` entries of a Fisher-Yates pass over range(p) stopped at
    index p - count (at 1 when count is p).  Otherwise it draws Floyd's
    sample, value j or a draw below j + 1 for j from p - count to p - 1,
    then shuffles it by Fisher-Yates.  A draw below 1 reads no value.
    """
    if p > 10_000 and count > p // 50:
        order = list(range(p))
        for i in range(p - 1, max(p - count, 1) - 1, -1):
            j = _below(next32, i + 1)
            order[i], order[j] = order[j], order[i]
        return order[p - count:]
    chosen, seen = [], set()
    for j in range(p - count, p):
        v = _below(next32, j + 1) if j else 0
        if v in seen:
            v = j
        seen.add(v)
        chosen.append(v)
    for i in range(count - 1, 0, -1):
        j = _below(next32, i + 1)
        chosen[i], chosen[j] = chosen[j], chosen[i]
    return chosen


def episode_profiles(scenario, seed: int) -> list[float]:
    """Draw per-worker compute profiles for one episode: each worker's mu."""
    fractions = substream(seed, _SCENARIO_TAG, _MU).load().random(
        scenario.n_workers).tolist()
    # rng.uniform(mu_low, mu_high, p), bit for bit: numpy's C code is
    # `low + range * next_double`, here without its per-call cost.
    low = scenario.mu_low
    span = scenario.mu_high - low
    return [low + span * u for u in fractions]


def episode_behaviors(scenario, seed: int) -> list[Behavior]:
    """Draw the straggler assignment for one episode.

    The straggler count is round(ratio * p), and Python's `round` takes a
    half to the even count: at p = 6, the ratios 0.25, 0.5 and 0.75 make
    2, 3 and 4 stragglers, a third, a half and two thirds of the fleet.
    Stragglers of the failure modes depart at t=0; "delayed" stragglers
    are slowed by the scenario's delay factor for the whole episode.  The
    straggler draw has its own stream, so changing the ratio or mode never
    changes the workers' compute or mobility draws.  A count of 0 or p
    chooses no worker by draw, and a fixed one opens no stream.  The
    uniform count and the chosen workers are those of
    `rng.integers(0, p + 1)` and `rng.choice(p, count, replace=False)`,
    computed from the stream's raw words (`_below`, `_choice`).
    """
    p = scenario.n_workers
    behaviors = [_NORMAL] * p
    uniform = scenario.failure_count_uniform
    count = int(round(scenario.straggler_ratio * p))
    chosen = range(p)
    if uniform or 0 < count < p:
        with substream(seed, _SCENARIO_TAG, _STRAGGLER) as rng:
            next32 = _uint32s(rng).__next__
            if uniform:
                count = _below(next32, p + 1)
            if 0 < count < p:
                chosen = _choice(next32, p, count)
    if count:
        straggler = (_FAILED if scenario.straggler_mode in FAILURE_MODES
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


def _roster(draws: Draws, scenario) -> Roster:
    """The `Roster` of `scenario`'s straggler setting, kept in `draws`."""
    roster = draws.behaviors.get(scenario.straggler_key)
    if roster is None:
        roster = draws.behaviors[scenario.straggler_key] = Roster(
            episode_behaviors(scenario, draws.seed))
    return roster


def run_episode(scenario, strategy: str, seed: int, *, b=None,
                horizon: float | None = None, collect_log: bool = False,
                keep_result: bool = True, draws: Draws | None = None,
                _behaviors=None) -> StrategyOutcome:
    """Run one episode of `strategy` against `scenario` with `seed`.

    When the episode contains stragglers and no horizon is given, a
    straggler-free pilot episode with the same seed sets the give-up
    horizon at horizon_factor times the pilot completion time.  A pilot
    that cannot finish sets none: the horizon stays infinite.  The pilot
    runs with `_behaviors`, the straggler-free fleet's `Roster`, in which
    every worker is normal.

    `draws` is a `Draws` of `seed` and of `scenario.straggler_free`; one
    of another seed or fleet is a ValueError.  By default the episode
    makes its own, so sharing one changes no value.  Only with
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
    elif (draws.fleet is not scenario.straggler_free
          and draws.fleet != scenario.straggler_free):
        raise ValueError("the Draws are of another fleet than the scenario")
    roster = _roster(draws, scenario) if _behaviors is None else _behaviors

    if horizon is None:
        horizon = math.inf
        if roster.stragglers:
            key = (strategy, b)
            pilot_time = draws.pilot_times.get(key)
            if pilot_time is None:
                pilot = run_episode(scenario, strategy, seed, b=b,
                                    horizon=math.inf, keep_result=False,
                                    draws=draws,
                                    _behaviors=_roster(draws, draws.fleet))
                pilot_time = draws.pilot_times[key] = (
                    pilot.completion_time if pilot.success else math.inf)
            horizon = scenario.horizon_factor * pilot_time

    eng = SimEngine(draws, roster, collect_log=collect_log)
    knobs = {}
    if strategy == "dynamic":
        knobs["b"] = b if b is not None else scenario.dynamic_b
    elif strategy == "traditional":
        knobs["s"] = scenario.traditional_s
    outcome = runner(scenario.n1, scenario.n2, eng, horizon=horizon, **knobs)
    outcome.strategy, outcome.horizon = strategy, horizon
    outcome.n_stragglers = roster.stragglers
    if keep_result and outcome.plan is not None:
        outcome.result = outcome.plan.assemble(*draws.operands)
    outcome.event_log = eng.log if collect_log else None
    return outcome
