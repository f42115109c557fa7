"""Event engine tests: stream independence, ordering, timing, episode runs."""

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codedconv import engine, models
from codedconv.engine import (
    Draws,
    EngineEvent,
    SimEngine,
    episode_behaviors,
    episode_profiles,
    episode_task,
    export_event_log,
    run_episode,
    substream,
)
from codedconv.models import (
    Behavior,
    CommParams,
    comm_time,
    compute_load,
    data_rate,
    sample_compute_time,
)
from codedconv.scenarios import ScenarioConfig, benchmark_scenario
from codedconv.strategies import STRATEGIES, StrategyOutcome
from keys import built_from_key


def make_draws(p=2, seed=11, **fleet):
    """Draws of `p` workers of mu 4e6; `fleet` sets scenario fields."""
    scn = ScenarioConfig("engine", n1=1, n2=1, n_workers=p, mu_low=4e6,
                         mu_high=4e6, **fleet)
    return Draws(seed, scn)


def make_engine(p=2, seed=11, behaviors=None, collect_log=True, **fleet):
    """An engine on the fleet of `make_draws(p, seed, **fleet)`."""
    behaviors = behaviors or [Behavior() for _ in range(p)]
    return SimEngine(make_draws(p, seed, **fleet), behaviors,
                     collect_log=collect_log)


def distance(draws, worker, t):
    """Master-worker distance at the last mobility tick by time `t`."""
    return engine._distance(draws.paths, worker, int(t))


# -- substreams ----------------------------------------------------------------


def first_uniforms(seed, *tags, size):
    with substream(seed, *tags) as rng:
        return rng.uniform(size=size)


def test_substream_reproducible():
    a = first_uniforms(42, 3, 1, size=8)
    b = first_uniforms(42, 3, 1, size=8)
    np.testing.assert_array_equal(a, b)


def test_substream_distinct_tags_differ():
    draws = {}
    for tags in [(0, 1), (0, 2), (1, 1), (1, 2), (7, 3)]:
        draws[tags] = tuple(first_uniforms(99, *tags, size=4))
    assert len(set(draws.values())) == len(draws)


def test_substream_seed_changes_everything():
    a = first_uniforms(1, 5, 2, size=4)
    b = first_uniforms(2, 5, 2, size=4)
    assert not np.allclose(a, b)


def test_substream_draws_equal_philox_built_from_its_key():
    # substream builds no Philox; its draws must still be those of the
    # documented Generator(Philox(key=...)), with the key served from the
    # rows read ahead or derived on its own.
    rng = np.random.default_rng(2024)
    fleet_streams = [(node, purpose) for node in (0, 3, engine._MASTER_TAG,
                                                  engine._SCENARIO_TAG)
                     for purpose in range(1, 7)]
    for i in range(200):
        seed = int(rng.integers(0, 2**63))
        tags = (fleet_streams[i % len(fleet_streams)] if i % 2
                else tuple(int(t) for t in rng.integers(0, 2**32, 2)))
        for in_block in (True, False):
            if in_block:
                engine._derive_rows(seed, 4)
            else:
                engine._KEY_ROWS.clear()
            fast, slow = substream(seed, *tags), built_from_key(seed, *tags)
            assert fast.key == reference_key(seed, *tags)
            with fast as gen:
                for g in (gen, slow):
                    state = g.bit_generator.state["state"]
                    assert state["key"].tolist() == reference_key(seed, *tags)
                    assert state["counter"].tolist() == [0] * 4
                np.testing.assert_array_equal(gen.uniform(-3.0, 2.0, 5),
                                              slow.uniform(-3.0, 2.0, 5))
                np.testing.assert_array_equal(gen.exponential(0.5, 3),
                                              slow.exponential(0.5, 3))
                np.testing.assert_array_equal(gen.integers(0, 9, 4),
                                              slow.integers(0, 9, 4))
                np.testing.assert_array_equal(gen.choice(8, size=3, replace=False),
                                              slow.choice(8, size=3, replace=False))
            np.testing.assert_array_equal(fast.load().uniform(-3.0, 2.0, 5),
                                          built_from_key(seed, *tags).uniform(
                                              -3.0, 2.0, 5))


def uniform_bits(values) -> bytes:
    """The float64 bits of `values`: -0.0 and 0.0 differ, as do NaNs."""
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("box", [1500.0, 10.0])
def test_start_positions_are_numpy_uniform_bit_for_bit(box):
    # A start position is scaled from `random` in Python; it must be the
    # value numpy's own `uniform` draws from the stream, to the bit.
    rng = np.random.default_rng(31)
    fleet = ScenarioConfig("starts", n1=1, n2=1, n_workers=4, init_box_m=box)
    seeds = [*range(40), *(int(s) for s in rng.integers(0, 2**63, 40))]
    for seed in seeds:
        draws = Draws(seed, fleet)
        for tag in (0, 1, 2, 3, engine._MASTER_TAG):
            want = built_from_key(seed, tag, engine._POSITION).uniform(-box, box, 2)
            assert uniform_bits(draws.paths[tag][0]) == uniform_bits(want)


@pytest.mark.parametrize("mu_low, mu_high", [(3e6, 6e6), (100.0, 200.0),
                                             (1e-3, 1e-3)])
def test_profile_mus_are_numpy_uniform_bit_for_bit(mu_low, mu_high):
    # Each worker's mu is scaled from `random` in Python; the fleet's mus
    # must be the values numpy's own `uniform` draws from the stream.
    rng = np.random.default_rng(37)
    fleet = ScenarioConfig("mus", n1=1, n2=1, n_workers=8, mu_low=mu_low,
                           mu_high=mu_high)
    seeds = [*range(100), *(int(s) for s in rng.integers(0, 2**63, 100))]
    for seed in seeds:
        mus = [prof.mu for prof in episode_profiles(fleet, seed)]
        want = built_from_key(seed, engine._SCENARIO_TAG, engine._MU).uniform(
            mu_low, mu_high, 8)
        assert uniform_bits(mus) == uniform_bits(want)


def reference_key(seed, node, purpose):
    """The documented key of stream (seed, node, purpose), derived here
    apart from the engine: splitmix64 chained over the seed, the node and
    the purpose, then once more for each of the two key words."""
    mask = 2**64 - 1

    def splitmix64(z):
        z = (z + 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    state = splitmix64(seed & mask)
    state = splitmix64(state ^ (int(node) & mask))
    state = splitmix64(state ^ (int(purpose) & mask))
    return [splitmix64(state), splitmix64(state ^ 0xA5A5A5A5A5A5A5A5)]


KEY_SEEDS = [0, -1, -2**63, 2**63, 2**64 - 1, 2**64 + 7]
KEY_NODES = [0, 5, engine._MASTER_TAG, engine._SCENARIO_TAG, np.int64(3),
             np.uint32(2**32 - 1)]
PURPOSES = (engine._POSITION, engine._VELOCITY, engine._COMPUTE,
            engine._MU, engine._STRAGGLER, engine._TASK)


@pytest.mark.parametrize("seed", KEY_SEEDS)
@pytest.mark.parametrize("node", KEY_NODES)
def test_substream_key_is_the_documented_chain(seed, node):
    engine._KEY_ROWS.clear()
    for purpose in PURPOSES:
        key = substream(seed, node, purpose).key
        assert key == reference_key(seed, node, purpose)
        assert all(type(word) is int for word in key)


def test_block_keys_are_the_documented_chain(monkeypatch):
    # One derivation reads ahead a block of seeds; every stream of the fleet
    # under each of them is then served from it, and any other stream is
    # derived on its own.
    p, kept = 6, engine.KEY_ROWS_KEPT
    derived = []
    original = engine._derive
    monkeypatch.setattr(engine, "_derive",
                        lambda *args: derived.append(args) or original(*args))
    in_fleet = {(node, purpose) for node in range(p)
                for purpose in (engine._POSITION, engine._VELOCITY,
                                engine._COMPUTE)}
    in_fleet |= {(engine._MASTER_TAG, engine._POSITION),
                 (engine._MASTER_TAG, engine._VELOCITY)}
    in_fleet |= {(engine._SCENARIO_TAG, purpose)
                 for purpose in (engine._MU, engine._STRAGGLER, engine._TASK)}
    for first in KEY_SEEDS:
        engine._derive_rows(first, p)
        assert list(engine._KEY_ROWS) == [*range(first, first + kept)]
        for seed in (first, first + 1, first + kept - 1):
            for node in KEY_NODES:
                for purpose in PURPOSES:
                    before = len(derived)
                    key = substream(seed, node, purpose).key
                    assert key == reference_key(seed, node, purpose)
                    assert all(type(word) is int for word in key)
                    served = (node, purpose) in in_fleet
                    assert len(derived) == before + (not served)


def test_key_rows_are_bounded_and_eviction_changes_no_key(monkeypatch):
    kept = engine.KEY_ROWS_KEPT
    engine._KEY_ROWS.clear()
    firsts = []
    original = engine._derive_rows
    monkeypatch.setattr(engine, "_derive_rows",
                        lambda seed, *rest: firsts.append(seed)
                        or original(seed, *rest))
    make_draws(p=4, seed=7)
    assert list(engine._KEY_ROWS) == [*range(7, 7 + kept)]
    key = substream(7, 3, engine._COMPUTE).key
    # A Draws inside the kept block derives nothing.
    make_draws(p=4, seed=7 + kept - 1)
    assert firsts == [7]
    # One outside it reads ahead from its own seed, and its rows replace
    # the kept ones whole: 7's row is evicted, and its key is unchanged.
    make_draws(p=4, seed=7 + kept)
    assert firsts == [7, 7 + kept]
    assert list(engine._KEY_ROWS) == [*range(7 + kept, 7 + 2 * kept)]
    assert substream(7, 3, engine._COMPUTE).key == key
    for seed in (6, 0, 2**63 - 1, 7 + 3 * kept, 5):
        make_draws(p=4, seed=seed)
        assert len(engine._KEY_ROWS) == kept
    assert firsts == [7, 7 + kept, 6, 0, 2**63 - 1, 7 + 3 * kept, 5]
    assert 7 + kept not in engine._KEY_ROWS
    assert substream(7, 3, engine._COMPUTE).key == key


def test_episode_draws_derive_a_block_for_a_seed_with_no_kept_row(monkeypatch):
    # The scenario-level draws know their fleet: the first seed with no
    # kept row derives the block of rows from it on, in one evaluation, and
    # the next seeds find theirs.  Every value equals the one drawn from
    # keys derived one stream at a time.
    scn = benchmark_scenario(1, 64, straggler_ratio=0.5)
    seeds = range(40, 44)

    def draw(seed):
        a, x = episode_task(scn, seed)
        return (episode_profiles(scn, seed), episode_behaviors(scn, seed),
                a.tolist(), x.tolist())

    with monkeypatch.context() as alone:
        alone.setattr(engine, "_derive_rows", lambda *args: None)
        engine._KEY_ROWS.clear()
        want = [draw(seed) for seed in seeds]
    derived = []
    original = engine._derive
    monkeypatch.setattr(engine, "_derive",
                        lambda seeds, *args: derived.append(list(seeds))
                        or original(seeds, *args))
    engine._KEY_ROWS.clear()
    assert [draw(seed) for seed in seeds] == want
    assert derived == [[*range(40, 40 + engine.KEY_ROWS_KEPT)]]


def test_stream_sessions_start_at_the_key_and_do_not_nest():
    # Two streams held at once: each session starts its stream afresh,
    # whatever the other drew in between, and one cannot open inside another.
    a, b = substream(5, 1, 2), substream(5, 2, 2)
    with a as rng:
        first = rng.uniform(size=3)
    with b as rng:
        rng.standard_exponential(5)
        with pytest.raises(RuntimeError, match="one generator"):
            with a:
                pass
        with pytest.raises(RuntimeError, match="one generator"):
            a.load()
    with a as rng:
        np.testing.assert_array_equal(rng.uniform(size=3), first)
    np.testing.assert_array_equal(a.load().uniform(size=3), first)


@pytest.mark.parametrize("seed,tags", [(0, (engine._SCENARIO_TAG, engine._TASK)),
                                       (1234, (3, engine._COMPUTE)),
                                       (2**63 - 1, (engine._MASTER_TAG, 2))])
def test_philox_draw_identities_the_tapes_rely_on(seed, tags):
    # Compute tapes hold standard exponentials that the model scales, and a
    # tape that runs out draws its stream again from the start to a greater
    # length; both must equal what sequential draws from the stream would
    # give, bit for bit.
    scales = (1e-7, 0.37, 3.0, 2.5e4)
    with substream(seed, *tags) as scaled:
        got = [scaled.exponential(scale) for scale in scales for _ in range(20)]
    with substream(seed, *tags) as plain:
        want = [scale * plain.standard_exponential()
                for scale in scales for _ in range(20)]
    assert got == want
    with substream(seed, *tags) as sequential:
        want = [sequential.standard_exponential() for _ in range(20)]
    with substream(seed, *tags) as chunked:
        got = np.concatenate([chunked.standard_exponential(8) for _ in range(3)])
    assert got[:20].tolist() == want
    for n in (20, 24, 48):
        with substream(seed, *tags) as once:
            assert once.standard_exponential(n)[:20].tolist() == want
    with substream(seed, *tags) as sequential:
        want = np.array([sequential.uniform(-10.0, 10.0, 2) for _ in range(20)])
    with substream(seed, *tags) as chunked:
        got = np.concatenate([chunked.uniform(-10.0, 10.0, (8, 2)) for _ in range(3)])
    assert got[:20].tolist() == want.tolist()
    for n in (20, 24, 48):
        with substream(seed, *tags) as once:
            assert once.uniform(-10.0, 10.0, (n, 2))[:20].tolist() == want.tolist()


@pytest.mark.parametrize("strategy", ["uncoded", "traditional", "dynamic"])
def test_failed_workers_and_short_episodes_build_no_unread_streams(
        strategy, streams_opened):
    scn = benchmark_scenario(1, 64, straggler_mode="fail", straggler_ratio=0.5)
    seed = 5
    failed = {w for w, beh in enumerate(episode_behaviors(scn, seed))
              if beh.departs == 0.0}
    assert len(failed) == 4
    streams_opened.clear()
    m = run_episode(scn, strategy, seed, horizon=math.inf, collect_log=True,
                    keep_result=False)
    made = [key[1:] for key in streams_opened]  # tags of every stream built
    assert max(rec.time for rec in m.event_log) < 1.0
    assert not [tags for tags in made if tags[-1] == engine._VELOCITY]
    for w in failed:
        assert (w, engine._POSITION) not in made
        assert (w, engine._COMPUTE) not in made
    # Live workers that returned results did build their streams.
    for w in m.per_worker_results:
        assert (w, engine._POSITION) in made and (w, engine._COMPUTE) in made
    assert (engine._MASTER_TAG, engine._POSITION) in made
    assert (engine._SCENARIO_TAG, engine._TASK) not in made


# -- event ordering and wakeups --------------------------------------------------


def test_wakeups_pop_in_time_then_insertion_order():
    eng = make_engine(p=1)
    eng.schedule_wakeup(2.0, 0)
    eng.schedule_wakeup(1.0, 5)
    eng.schedule_wakeup(1.0, 6)
    seen = [(ev.time, ev.worker) for ev in eng.events()]
    assert seen == [(1.0, 5), (1.0, 6), (2.0, 0)]


def test_events_honor_until():
    eng = make_engine(p=1)
    for t in (0.5, 1.5, 2.5):
        eng.schedule_wakeup(t, 0)
    got = [ev.time for ev in eng.events(until=2.0)]
    assert got == [0.5, 1.5]
    # remainder still queued
    assert [ev.time for ev in eng.events()] == [2.5]


def test_events_never_pop_at_t_inf():
    eng = make_engine(p=1)
    eng.schedule_wakeup(math.inf, 0)
    eng.schedule_wakeup(1.0, 0)
    assert [ev.time for ev in eng.events()] == [1.0]
    assert [ev.time for ev in eng.events(until=math.inf)] == []


def test_events_stop_at_the_clock_limit():
    eng = make_engine(p=1)
    limit = engine.CLOCK_LIMIT_S
    for time in (limit + 1.0, limit, 1.0):
        eng.schedule_wakeup(time, 0)
    assert [ev.time for ev in eng.events()] == [1.0, limit]
    assert eng.now == limit
    assert [ev.time for ev in eng.events(until=math.inf)] == []


def test_position_tape_stops_at_the_clock_limit():
    tape = make_draws(p=1, speed_limit_mps=10.0).paths[0]
    last = int(engine.CLOCK_LIMIT_S)
    tape.fill(last // 2 + 1)
    tape.fill(last)
    assert len(tape) == last + 1


def test_compute_tape_draws_a_chunk_when_made_and_opens_its_stream_once(
        streams_opened):
    draws = make_draws(p=2)
    streams_opened.clear()
    tape = draws.compute[1]
    assert len(tape) == engine._CHUNK
    assert streams_opened == [(11, 1, engine._COMPUTE)]
    tape.fill(3 * engine._CHUNK)
    assert len(tape) == 3 * engine._CHUNK + 1
    want = built_from_key(11, 1, engine._COMPUTE).standard_exponential(len(tape))
    assert tape == want.tolist()
    assert streams_opened == [(11, 1, engine._COMPUTE)]


@pytest.mark.parametrize("speed", [0.0, 10.0])
def test_all_but_dead_links_fail_within_the_clock_limit(speed):
    # Links slow enough that results would come back after years: every
    # strategy fails, and no position tape is read past the limit.
    scn = benchmark_scenario(1, 64, init_box_m=10, speed_limit_mps=speed,
                             comm=CommParams(rx_offset_dbm=-200))
    for seed in range(4):
        draws = Draws(seed, scn)
        for strategy in STRATEGIES:
            m = run_episode(scn, strategy, seed, draws=draws)
            assert (m.success, m.completion_time) == (False, math.inf)
        assert all(len(tape) <= engine.CLOCK_LIMIT_S + 1
                   for tape in draws.paths.values())


# Today's outcome of each strategy on the fleet below, at every seed 0-3:
# (pieces dispatched, redundancy used).
DEAD_LINK_OUTCOMES = {"uncoded": (8, 0), "traditional": (8, 0),
                      "dynamic": (8, 1)}


def test_nothing_past_the_clock_limit_is_pushed():
    # Every result would come back years out.  Each piece still takes its
    # compute draw and keeps its worker busy, but its result is not pushed,
    # so the queue ends empty, and each episode fails as it did when those
    # results were pushed and never popped.
    scn = benchmark_scenario(1, 64, init_box_m=10,
                             comm=CommParams(rx_offset_dbm=-200))
    p = scn.n_workers
    for seed in range(4):
        draws = Draws(seed, scn)
        for strategy, (dispatched, redundancy) in DEAD_LINK_OUTCOMES.items():
            eng = SimEngine(draws, episode_behaviors(scn, seed))
            out = STRATEGIES[strategy](scn.n1, scn.n2, eng)
            assert not [time for time, *_ in eng._heap
                        if time > engine.CLOCK_LIMIT_S]
            assert eng._compute_read == [1] * p
            assert min(eng._busy) > engine.CLOCK_LIMIT_S
            assert (out.success, out.completion_time, out.pieces_dispatched,
                    out.redundancy_used, out.per_worker_results) == (
                        False, math.inf, dispatched, redundancy, {})


def test_now_advances_with_events():
    eng = make_engine(p=1)
    eng.schedule_wakeup(3.25, 0)
    assert eng.now == 0.0
    for _ in eng.events():
        pass
    assert eng.now == 3.25


# -- send timing against the comm model ------------------------------------------


def test_single_piece_timing_matches_models():
    eng = make_engine(p=1, seed=5)
    probe = make_draws(p=1, seed=5)  # same seed, same geometry
    rate = data_rate(distance(probe, 0, 0.0), eng.comm)
    n_in, n_out = 100, 299
    eng.send(0, row=0, n_in=n_in, load_pair=(200, 100))
    results = [ev for ev in eng.events() if ev.kind == "result_arrives"]
    assert len(results) == 1
    log = {rec.kind: rec.time for rec in eng.log}
    t_in = comm_time(n_in, rate)
    t_out = comm_time(n_out, rate)
    assert log["piece_arrives"] == pytest.approx(t_in, rel=1e-12)
    assert (results[0].time - log["compute_done"]) == pytest.approx(t_out, rel=1e-12)
    # compute time respects the deterministic shift floor
    load = models.compute_load(200, 100)
    assert log["compute_done"] - log["piece_arrives"] >= 2.5e-7 * load
    assert results[0].rtt == pytest.approx(t_in + t_out, rel=1e-12)
    assert results[0].t_sent == 0.0


class PushLog(SimEngine):
    """SimEngine that keeps every queue entry (time, seq, kind, worker, row,
    t_sent, rtt) it is asked to push, in order."""

    def __init__(self, *args, **kwargs):
        self.pushed = []
        super().__init__(*args, **kwargs)

    def _push(self, time, kind, worker, row=-1, t_sent=0.0, rtt=0.0):
        self.pushed.append((time, self._seq, kind, worker, row, t_sent, rtt))
        super()._push(time, kind, worker, row, t_sent, rtt)


@st.composite
def piece_runs(draw):
    """(seed, fleet, behaviours, sends): each send is (worker, (n_in,
    load_pair), time), in time order, on a few piece shapes."""
    p = draw(st.integers(1, 3))
    roster = draw(st.lists(st.builds(
        Behavior,
        slowdown=st.one_of(st.just(1.0), st.floats(1.0, 50.0)),
        joins=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
        departs=st.one_of(st.just(math.inf), st.floats(0.0, 3.5))),
        min_size=p, max_size=p))
    fleet = ScenarioConfig(
        "pieces", n1=1, n2=1, n_workers=p,
        compute_coeff=draw(st.sampled_from([1.0, 0.5, 2.5])),
        comm=CommParams(payload_bytes=draw(st.sampled_from([8, 4]))))
    length = st.integers(1, 4000)
    shapes = draw(st.lists(st.tuples(length, st.tuples(length, length)),
                           min_size=1, max_size=3))
    time = st.one_of(st.sampled_from([0.0, 0.01, 1.0]), st.floats(0.0, 3.0))
    sends = draw(st.lists(st.tuples(st.integers(0, p - 1),
                                    st.sampled_from(shapes), time),
                          min_size=1, max_size=12))
    return (draw(st.integers(0, 2**32)), fleet, roster,
            sorted(sends, key=lambda send: send[2]))


def run_pieces(seed, fleet, roster, sends, collect_log):
    """Send piece k at its time, as row k, from a wakeup tagged k."""
    eng = PushLog(Draws(seed, fleet), roster, collect_log=collect_log)
    for k, (_, _, time) in enumerate(sends):
        eng.schedule_wakeup(time, k)
    for ev in eng.events():
        if ev.kind == "wakeup":
            worker, (n_in, load_pair), _ = sends[ev.worker]
            eng.send(worker, ev.worker, n_in, load_pair)
    return eng.pushed


def priced_pushes(seed, fleet, roster, sends):
    """Every queue entry the engine should push, each piece priced on its
    own by the model functions."""
    pushed = []

    def push(time, kind, worker, row=-1, t_sent=0.0, rtt=0.0):
        pushed.append((time, len(pushed), kind, worker, row, t_sent, rtt))

    for w, beh in enumerate(roster):
        if 0.0 < beh.joins < beh.departs:
            push(beh.joins, "worker_joins", w)
        if 0.0 < beh.departs < math.inf:
            push(beh.departs, "worker_leaves", w)
    for k, (_, _, time) in enumerate(sends):
        push(time, "wakeup", k)

    probe = Draws(seed, fleet)
    mus = built_from_key(seed, engine._SCENARIO_TAG, engine._MU).uniform(
        fleet.mu_low, fleet.mu_high, fleet.n_workers)
    profiles = [models.WorkerProfile(mu=float(mu)) for mu in mus]
    exponentials = [built_from_key(seed, w, engine._COMPUTE).standard_exponential(16)
                    for w in range(fleet.n_workers)]
    accepted = [0] * fleet.n_workers
    busy = [0.0] * fleet.n_workers
    payload_bytes = fleet.comm.payload_bytes
    for row, (w, (n_in, (n1, n2)), now) in enumerate(sends):
        beh = roster[w]
        if now < beh.joins or now >= beh.departs:
            continue
        rate = data_rate(distance(probe, w, now), fleet.comm)
        t_in = comm_time(n_in, rate, payload_bytes)
        if now + t_in > beh.departs:
            continue
        std_exp = float(exponentials[w][accepted[w]])
        accepted[w] += 1
        load = compute_load(n1, n2, fleet.compute_coeff)
        t_comp = sample_compute_time(std_exp, load, profiles[w]) * beh.slowdown
        t_out = comm_time(n1 + n2 - 1, rate, payload_bytes) * beh.slowdown
        busy[w] = done = max(now + t_in, busy[w]) + t_comp
        if done + t_out <= beh.departs:
            push(done + t_out, "result_arrives", w, row, now, t_in + t_out)
    return pushed


@settings(max_examples=60, deadline=None)
@given(piece_runs())
# Shape A, then B, then A again on one engine: `send` prices a shape once
# and must price it again after another one.
@example((5, ScenarioConfig("pieces", n1=1, n2=1, n_workers=1), [Behavior()],
          [(0, (10, (10, 10)), 0.0), (0, (700, (3000, 700)), 0.01),
           (0, (10, (10, 10)), 1.0)]))
def test_every_piece_is_priced_by_the_models(run):
    # Random shapes, several per engine, on workers that straggle, join late
    # and depart: the queue keys and events equal the per-piece formulas
    # exactly, whether or not the engine keeps a log.
    want = priced_pushes(*run)
    assert run_pieces(*run, collect_log=False) == want
    assert run_pieces(*run, collect_log=True) == want


def test_popped_events_name_their_queue_entries():
    # Each popped event is its queue entry with named fields, and a wakeup
    # asked for a time already past fires, and is stamped, at the clock.
    eng = PushLog(make_draws(p=1), [Behavior(departs=5.0)])
    eng.schedule_wakeup(2.0, 0)
    eng.send(0, row=3, n_in=10, load_pair=(10, 10))
    popped = []
    for ev in eng.events():
        popped.append(ev)
        if ev.kind == "wakeup" and ev.worker == 0:
            eng.schedule_wakeup(1.0, 7)
    assert all(type(ev) is EngineEvent for ev in popped)
    assert [tuple(ev) for ev in popped] == sorted(eng.pushed)
    kinds = [(ev.kind, ev.worker) for ev in popped]
    assert sorted(kinds) == [("result_arrives", 0), ("wakeup", 0),
                             ("wakeup", 7), ("worker_leaves", 0)]
    late = popped[kinds.index(("wakeup", 7))]
    assert late.time == 2.0 and late.seq == 3
    result = popped[kinds.index(("result_arrives", 0))]
    assert (result.row, result.t_sent) == (3, 0.0) and result.rtt > 0.0


def test_worker_queues_pieces_fifo():
    eng = make_engine(p=1, seed=3)
    for row in range(3):
        eng.send(0, row=row, n_in=10, load_pair=(10, 10))
    for _ in eng.events():
        pass
    done = [rec for rec in eng.log if rec.kind == "compute_done"]
    arrive = {rec.row: rec.time for rec in eng.log if rec.kind == "piece_arrives"}
    assert [rec.row for rec in done] == [0, 1, 2]
    # pieces were sent back to back, so they arrive while the previous
    # compute is still running and each next compute starts only after it
    load = models.compute_load(10, 10)
    for k, (prev, cur) in enumerate(zip(done, done[1:]), start=1):
        assert arrive[k] < prev.time
        assert cur.time >= prev.time + 2.5e-7 * load


def test_delayed_worker_scales_compute_and_return():
    normal = make_engine(p=1, seed=7, behaviors=[Behavior()])
    slowed = make_engine(p=1, seed=7, behaviors=[Behavior(slowdown=15.0)])
    for eng in (normal, slowed):
        eng.send(0, row=0, n_in=50, load_pair=(50, 50))
        for _ in eng.events():
            pass
    def spans(eng):
        t = {rec.kind: rec.time for rec in eng.log}
        return (t["compute_done"] - t["piece_arrives"],
                t["result_arrives"] - t["compute_done"],
                t["piece_arrives"] - t["dispatch"])
    comp_n, out_n, in_n = spans(normal)
    comp_s, out_s, in_s = spans(slowed)
    assert comp_s == pytest.approx(15.0 * comp_n, rel=1e-12)
    assert out_s == pytest.approx(15.0 * out_n, rel=1e-12)
    assert in_s == pytest.approx(in_n, rel=1e-12)


def test_failed_worker_loses_pieces_silently():
    eng = make_engine(p=2, behaviors=[Behavior(departs=0.0),
                                      Behavior()])
    eng.send(0, row=0, n_in=10, load_pair=(10, 10))
    eng.send(1, row=1, n_in=10, load_pair=(10, 10))
    events = list(eng.events())
    # A worker that fails at t=0 is never announced: it yields no event.
    assert [(ev.kind, ev.worker) for ev in events] == [("result_arrives", 1)]
    # the dispatch to the dead worker is still logged (master-side view)
    dispatches = [rec for rec in eng.log if rec.kind == "dispatch"]
    assert len(dispatches) == 2
    # but nothing else happened at worker 0
    w0 = [rec for rec in eng.log if rec.worker == 0 and rec.kind != "dispatch"]
    assert w0 == []


def test_piece_over_a_zero_rate_link_is_lost_unpriced():
    # Far enough out the Shannon rate underflows to 0: the piece is lost
    # as one sent to a departed worker is, before any compute draw.
    draws = make_draws(p=1, comm=CommParams(rx_offset_dbm=-200.0))
    eng = SimEngine(draws, [Behavior()], collect_log=True)
    assert draws.rates[0, 0] == 0.0
    eng.send(0, row=0, n_in=10, load_pair=(10, 10))
    assert list(eng.events()) == []
    assert [rec.kind for rec in eng.log] == ["dispatch"]
    assert eng.dispatched == 1
    assert 0 not in draws.compute


def test_mid_flight_death_drops_result():
    # worker dies while computing: piece arrives, compute never completes
    eng = make_engine(p=1, behaviors=[Behavior(departs=1e-4)])
    eng.send(0, row=0, n_in=1000, load_pair=(5000, 5000))
    events = list(eng.events())
    assert [ev.kind for ev in events] == ["worker_leaves"]


def test_joining_worker_rejects_early_pieces():
    eng = make_engine(p=1, behaviors=[Behavior(joins=0.5)])
    assert eng.initial == []
    eng.send(0, row=0, n_in=10, load_pair=(10, 10))
    events = list(eng.events())
    assert [ev.kind for ev in events] == ["worker_joins"]


def probe_times(**kwargs):
    """Log times of one piece sent to an ordinary worker."""
    eng = make_engine(p=1, **kwargs)
    eng.send(0, row=0, n_in=1000, load_pair=(5000, 5000))
    for _ in eng.events():
        pass
    return {rec.kind: rec.time for rec in eng.log}


@pytest.mark.parametrize("mode", ["fail", "leave"], ids=["failed", "leaves"])
def test_result_returned_by_departure_time_is_delivered(mode):
    # Departure exactly when the result lands: the result still counts.
    # The departing worker is the straggler the episode sampler draws for
    # `mode`, moved from t=0 to the result's arrival time.
    t_result = probe_times()["result_arrives"]
    scn = benchmark_scenario(1).replace(straggler_mode=mode, straggler_ratio=1.0)
    straggler = episode_behaviors(scn, 0)[0]
    assert straggler == Behavior(departs=0.0)
    beh = dataclasses.replace(straggler, departs=t_result)
    eng = make_engine(p=1, behaviors=[beh])
    eng.send(0, row=0, n_in=1000, load_pair=(5000, 5000))
    events = [(ev.kind, ev.time) for ev in eng.events()]
    assert sorted(events) == [("result_arrives", t_result),
                              ("worker_leaves", t_result)]


def test_leaving_worker_loses_piece_it_cannot_finish():
    # The piece arrives, but the worker leaves before its compute is done.
    times = probe_times()
    leave = 0.5 * (times["piece_arrives"] + times["compute_done"])
    eng = make_engine(p=1, behaviors=[Behavior(departs=leave)])
    eng.send(0, row=0, n_in=1000, load_pair=(5000, 5000))
    assert [ev.kind for ev in eng.events()] == ["worker_leaves"]
    assert [rec.kind for rec in eng.log] == ["dispatch", "piece_arrives"]


def test_worker_departing_before_it_joins_is_never_announced():
    eng = make_engine(p=1, behaviors=[Behavior(joins=0.5, departs=0.25)])
    assert eng.initial == []
    eng.schedule_wakeup(0.75, 0)
    kinds = []
    for ev in eng.events():
        kinds.append(ev.kind)
        if ev.kind == "wakeup":
            eng.send(0, row=0, n_in=10, load_pair=(10, 10))
    assert kinds == ["worker_leaves", "wakeup"]
    assert [rec.kind for rec in eng.log] == ["dispatch"]


@pytest.mark.parametrize("send_time", [0.5, 0.75])
def test_joining_worker_accepts_pieces_from_join_time(send_time):
    eng = make_engine(p=1, behaviors=[Behavior(joins=0.5)])
    eng.schedule_wakeup(send_time, 0)
    kinds = []
    for ev in eng.events():
        kinds.append(ev.kind)
        if ev.kind == "wakeup":
            eng.send(0, row=0, n_in=10, load_pair=(10, 10))
    assert kinds == ["worker_joins", "wakeup", "result_arrives"]


# -- mobility ---------------------------------------------------------------------


def test_mobility_lazy_advance_is_query_independent():
    a = make_draws(p=3, seed=21)
    b = make_draws(p=3, seed=21)
    for t in (0.3, 1.1, 2.7, 3.9, 4.2):
        distance(a, 1, t)
    da = distance(a, 1, 5.0)
    db = distance(b, 1, 5.0)  # direct jump, no intermediate queries
    assert da == pytest.approx(db, abs=0.0)


def test_mobility_speed_bounded():
    draws = make_draws(p=1, seed=13, speed_limit_mps=10.0)
    prev = distance(draws, 0, 0.0)
    for t in range(1, 30):
        cur = distance(draws, 0, float(t))
        # both nodes move at most 10*sqrt(2) m/s, so relative motion is bounded
        assert abs(cur - prev) <= 2 * 10.0 * math.sqrt(2.0) + 1e-9
        prev = cur


def test_positions_start_inside_box():
    for seed in range(20):
        draws = make_draws(p=4, seed=seed, init_box_m=1500.0)
        # distance between any worker and master is at most the box diagonal
        for w in range(4):
            assert distance(draws, w, 0.0) <= math.hypot(3000.0, 3000.0)


# -- event log export --------------------------------------------------------------


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_episodes_without_a_log_make_no_log_records(strategy, monkeypatch):
    def refuse(*args):
        raise AssertionError("a SimEvent was made")

    monkeypatch.setattr(engine, "SimEvent", refuse)
    scn = benchmark_scenario(1, 64, straggler_ratio=0.25)
    m = run_episode(scn, strategy, 3, keep_result=False)
    assert m.pieces_dispatched and m.event_log is None
    with pytest.raises(AssertionError, match="SimEvent"):
        run_episode(scn, strategy, 3, keep_result=False, collect_log=True)


def test_export_event_log_round_trip():
    eng = make_engine(p=2, seed=9)
    eng.send(0, row=3, n_in=10, load_pair=(10, 10))
    eng.send(1, row=4, n_in=10, load_pair=(10, 10))
    for _ in eng.events():
        pass
    buf = io.StringIO()
    export_event_log(eng.log, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "time,kind,worker,row,payload_numbers"
    times = []
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 5
        times.append(float(cells[0]))
    assert times == sorted(times)


def test_event_log_causality_per_piece():
    scn = benchmark_scenario(1)
    m = run_episode(scn, "dynamic", 77, collect_log=True, keep_result=False)
    order = {}
    for rec in sorted(m.event_log, key=lambda r: r.time):
        order.setdefault((rec.worker, rec.row), []).append(rec.kind)
    for key, kinds in order.items():
        if "result_arrives" in kinds:
            assert kinds.index("dispatch") < kinds.index("piece_arrives") \
                < kinds.index("compute_done") < kinds.index("result_arrives")


# -- scenario-level draws -----------------------------------------------------------


def test_episode_profiles_in_range_and_paired():
    scn = benchmark_scenario(1)
    p1 = episode_profiles(scn, 123)
    p2 = episode_profiles(scn, 123)
    assert [w.mu for w in p1] == [w.mu for w in p2]
    for w in p1:
        assert scn.mu_low <= w.mu <= scn.mu_high
        assert w.alpha == pytest.approx(1.0 / w.mu)


def test_episode_behaviors_modes_and_count():
    scn = benchmark_scenario(1).replace(straggler_ratio=0.5)
    beh = episode_behaviors(scn, 5)
    delayed = [b for b in beh if b != Behavior()]
    assert len(delayed) == 4  # round(0.5 * 8)
    assert all(b == Behavior(slowdown=15.0) for b in delayed)

    scn_f = benchmark_scenario(1).replace(straggler_mode="fail",
                                          failure_count_uniform=True)
    counts = {sum(1 for b in episode_behaviors(scn_f, seed)
                  if b == Behavior(departs=0.0)) for seed in range(200)}
    assert counts <= set(range(0, 9))
    assert 0 in counts and 8 in counts  # uniform draw spans the full range


@pytest.mark.parametrize("p, counts", [(2, (0, 1, 2)), (4, (1, 2, 3)),
                                       (6, (2, 3, 4)), (8, (2, 4, 6))])
def test_straggler_counts_round_half_to_even(p, counts):
    # round(ratio * p) rounds a half to the even count: at p = 2, 0.25
    # makes no straggler, and at p = 6, 0.75 makes 4 of 6.
    scn = ScenarioConfig("round", n1=8, n2=8, n_workers=p)
    for ratio, count in zip((0.25, 0.5, 0.75), counts):
        behaviors = episode_behaviors(scn.replace(straggler_ratio=ratio), 1)
        assert sum(beh != Behavior() for beh in behaviors) == count


@pytest.mark.parametrize("uniform", [False, True])
def test_fail_and_leave_draw_the_same_behaviors(uniform):
    scn = benchmark_scenario(1, 64, straggler_ratio=0.5,
                             failure_count_uniform=uniform)
    for seed in range(20):
        fail = episode_behaviors(scn.replace(straggler_mode="fail"), seed)
        leave = episode_behaviors(scn.replace(straggler_mode="leave"), seed)
        assert fail == leave


def test_episode_task_lengths_and_range():
    scn = benchmark_scenario(2)
    a, x = episode_task(scn, 9)
    assert len(a) == scn.n1 and len(x) == scn.n2
    assert np.all(np.abs(a) <= 1.0) and np.all(np.abs(x) <= 1.0)


# -- run_episode --------------------------------------------------------------------


def test_run_episode_deterministic():
    scn = benchmark_scenario(1).replace(straggler_ratio=0.25)
    m1 = run_episode(scn, "dynamic", 404, keep_result=False, collect_log=True)
    m2 = run_episode(scn, "dynamic", 404, keep_result=False, collect_log=True)
    assert m1.completion_time == m2.completion_time
    assert m1.pieces_dispatched == m2.pieces_dispatched
    assert m1.redundancy_used == m2.redundancy_used
    log1 = [(r.time, r.kind, r.worker, r.row) for r in m1.event_log]
    log2 = [(r.time, r.kind, r.worker, r.row) for r in m2.event_log]
    assert log1 == log2


def test_run_episode_unknown_strategy():
    scn = benchmark_scenario(1)
    with pytest.raises(ValueError, match="unknown strategy"):
        run_episode(scn, "psychic", 1)


@pytest.mark.parametrize("seed,fleet,refusal", [
    (12, {}, "seed 12, .* seed 11"),
    (11, {"init_box_m": 30.0}, "another fleet"),
    (11, {"speed_limit_mps": 0.0}, "another fleet"),
    (11, {"comm": CommParams(bandwidth_hz=2e5)}, "another fleet"),
    (11, {"mu_low": 1e6}, "another fleet"),
    (11, {"n_workers": 4}, "another fleet"),
], ids=["seed", "init_box_m", "speed_limit_mps", "bandwidth_hz", "mu_low",
        "n_workers"])
def test_run_episode_refuses_draws_of_another_seed_or_fleet(seed, fleet,
                                                            refusal):
    scn = benchmark_scenario(1, 64)
    draws = Draws(seed, scn.replace(**fleet))
    with pytest.raises(ValueError, match=refusal):
        run_episode(scn, "dynamic", 11, draws=draws)


@pytest.mark.parametrize("n_behaviors", [0, 2, 4])
def test_engine_refuses_behaviors_of_another_worker_count(n_behaviors):
    draws = Draws(11, benchmark_scenario(1, 64, n_workers=3))
    with pytest.raises(ValueError, match="one behavior per worker"):
        SimEngine(draws, [Behavior()] * n_behaviors)


def test_kept_results_on_one_draws_draw_the_operands_once(streams_opened):
    scn = benchmark_scenario(1, 64)
    seed = 4
    draws = Draws(seed, scn)
    # The operands do not depend on the straggler fields.
    for ratio in (0.0, 0.25):
        for strategy in ("uncoded", "traditional", "dynamic"):
            m = run_episode(scn.replace(straggler_ratio=ratio), strategy, seed,
                            draws=draws)
            assert m.result is not None
    built = [key[1:] for key in streams_opened]
    assert built.count((engine._SCENARIO_TAG, engine._TASK)) == 1


def test_pilot_sets_finite_horizon():
    scn = benchmark_scenario(1).replace(straggler_ratio=0.5)
    m = run_episode(scn, "dynamic", 88, keep_result=False)
    assert math.isfinite(m.horizon)
    base = run_episode(scn.replace(straggler_ratio=0.0), "dynamic", 88,
                       keep_result=False)
    assert m.horizon == pytest.approx(scn.horizon_factor * base.completion_time)


def test_delay_factor_one_makes_no_stragglers(monkeypatch):
    # A slowdown of 1 is a normal worker: no pilot runs, no horizon is set.
    scn = benchmark_scenario(1, 64, straggler_ratio=0.5, delay_factor=1.0)
    original = engine.run_episode
    pilots = []

    def recording(*args, **kwargs):
        pilots.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "run_episode", recording)
    m = original(scn, "dynamic", 3, keep_result=False)
    assert (m.n_stragglers, m.horizon, pilots) == (0, math.inf, [])


def test_zero_straggler_episode_has_no_horizon():
    scn = benchmark_scenario(1)
    m = run_episode(scn, "uncoded", 3, keep_result=False)
    assert m.horizon == math.inf
    assert m.success


def test_all_workers_fail_episode_fails_at_horizon():
    scn = benchmark_scenario(1).replace(straggler_mode="fail",
                                        straggler_ratio=1.0)
    m = run_episode(scn, "dynamic", 10, keep_result=False)
    assert not m.success
    assert m.completion_time == m.horizon
    assert math.isfinite(m.horizon)


def test_no_episode_succeeds_at_t_inf():
    # Infinitely slow stragglers and no give-up horizon: every result is
    # due at t = inf, which never comes, so every strategy fails.
    scn = benchmark_scenario(1, 64, straggler_ratio=1.0, delay_factor=math.inf,
                             horizon_factor=math.inf)
    for strategy in STRATEGIES:
        m = run_episode(scn, strategy, 3)
        assert (m.success, m.completion_time) == (False, math.inf)
        assert m.plan is None and m.result is None


def test_episode_metrics_carry_the_strategy_outcome():
    scn = benchmark_scenario(1, 64)
    seed = 4
    for strategy in ("uncoded", "traditional", "dynamic"):
        m = run_episode(scn, strategy, seed)
        assert isinstance(m, StrategyOutcome)
        assert (m.strategy, m.horizon, m.n_stragglers) == (strategy, math.inf, 0)
        assert m.event_log is None
        np.testing.assert_array_equal(
            m.plan.assemble(*episode_task(scn, seed)), m.result)
        logged = run_episode(scn, strategy, seed, collect_log=True)
        assert logged.event_log and logged.completion_time == m.completion_time
    failed = run_episode(scn.replace(straggler_mode="fail",
                                     straggler_ratio=1.0), "dynamic", seed)
    assert not failed.success
    assert failed.plan is None and failed.result is None
    assert (failed.strategy, failed.n_stragglers) == ("dynamic", scn.n_workers)
    pilot = run_episode(scn, "dynamic", seed)
    assert failed.horizon == scn.horizon_factor * pilot.completion_time
    assert math.isfinite(failed.horizon) and failed.event_log is None
