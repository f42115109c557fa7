"""Event engine tests: stream independence, ordering, timing, episode runs."""

import dataclasses
import io
import math

import numpy as np
import pytest

from codedconv import engine, models
from codedconv.engine import (
    Draws,
    SimEngine,
    episode_behaviors,
    episode_profiles,
    episode_task,
    export_event_log,
    philox_key,
    run_episode,
    substream,
)
from codedconv.models import Behavior, CommParams, comm_time, data_rate
from codedconv.scenarios import ScenarioConfig, benchmark_scenario
from codedconv.strategies import StrategyOutcome


def make_engine(p=2, seed=11, behaviors=None, collect_log=True, **fleet):
    """An engine on `p` workers of mu 4e6; `fleet` sets scenario fields."""
    scn = ScenarioConfig("engine", n1=1, n2=1, n_workers=p, mu_low=4e6,
                         mu_high=4e6, **fleet)
    behaviors = behaviors or [Behavior() for _ in range(p)]
    return SimEngine(Draws(seed, scn), behaviors, collect_log=collect_log)


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
    # documented Generator(Philox(key=...)), with or without a Seed's memo.
    rng = np.random.default_rng(2024)
    for _ in range(200):
        seed = int(rng.integers(0, 2**63))
        tags = tuple(int(t) for t in rng.integers(0, 2**32, rng.integers(0, 4)))
        for fast in (substream(seed, *tags), substream(engine.Seed(seed), *tags)):
            slow = np.random.Generator(np.random.Philox(key=philox_key(seed, *tags)))
            assert fast.key == philox_key(seed, *tags).tolist()
            with fast as gen:
                for g in (gen, slow):
                    state = g.bit_generator.state["state"]
                    assert state["key"].tolist() == philox_key(seed, *tags).tolist()
                    assert state["counter"].tolist() == [0] * 4
                np.testing.assert_array_equal(gen.uniform(-3.0, 2.0, 5),
                                              slow.uniform(-3.0, 2.0, 5))
                np.testing.assert_array_equal(gen.exponential(0.5, 3),
                                              slow.exponential(0.5, 3))
                np.testing.assert_array_equal(gen.integers(0, 9, 4),
                                              slow.integers(0, 9, 4))
                np.testing.assert_array_equal(gen.choice(8, size=3, replace=False),
                                              slow.choice(8, size=3, replace=False))


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
    with a as rng:
        np.testing.assert_array_equal(rng.uniform(size=3), first)


@pytest.mark.parametrize("seed,tags", [(0, ()), (1234, (3, engine._COMPUTE)),
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
    probe = make_engine(p=1, seed=5)  # same seed, same geometry
    d0 = probe.distance(0, 0.0)
    rate = data_rate(d0, probe.comm)
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
    kinds = [(ev.kind, ev.worker) for ev in events]
    assert ("worker_leaves", 0) in kinds
    results = [ev for ev in events if ev.kind == "result_arrives"]
    assert [ev.worker for ev in results] == [1]
    # the dispatch to the dead worker is still logged (master-side view)
    dispatches = [rec for rec in eng.log if rec.kind == "dispatch"]
    assert len(dispatches) == 2
    # but nothing else happened at worker 0
    w0 = [rec for rec in eng.log if rec.worker == 0 and rec.kind != "dispatch"]
    assert w0 == []


def test_mid_flight_death_drops_result():
    # worker dies while computing: piece arrives, compute never completes
    eng = make_engine(p=1, behaviors=[Behavior(departs=1e-4)])
    eng.send(0, row=0, n_in=1000, load_pair=(5000, 5000))
    events = list(eng.events())
    assert [ev.kind for ev in events] == ["worker_leaves"]


def test_joining_worker_rejects_early_pieces():
    eng = make_engine(p=1, behaviors=[Behavior(joins=0.5)])
    assert eng.initial_roster() == []
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
    assert eng.initial_roster() == []
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
    a = make_engine(p=3, seed=21)
    b = make_engine(p=3, seed=21)
    for t in (0.3, 1.1, 2.7, 3.9, 4.2):
        a.distance(1, t)
    da = a.distance(1, 5.0)
    db = b.distance(1, 5.0)  # direct jump, no intermediate queries
    assert da == pytest.approx(db, abs=0.0)


def test_mobility_speed_bounded():
    eng = make_engine(p=1, seed=13, speed_limit_mps=10.0)
    prev = eng.distance(0, 0.0)
    for t in range(1, 30):
        cur = eng.distance(0, float(t))
        # both nodes move at most 10*sqrt(2) m/s, so relative motion is bounded
        assert abs(cur - prev) <= 2 * 10.0 * math.sqrt(2.0) + 1e-9
        prev = cur


def test_positions_start_inside_box():
    for seed in range(20):
        eng = make_engine(p=4, seed=seed, init_box_m=1500.0)
        # distance between any worker and master is at most the box diagonal
        for w in range(4):
            assert eng.distance(w, 0.0) <= math.hypot(3000.0, 3000.0)


# -- event log export --------------------------------------------------------------


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


def test_episode_metrics_carry_the_strategy_outcome():
    scn = benchmark_scenario(1, 64)
    seed = 4
    for strategy in ("uncoded", "traditional", "dynamic"):
        m = run_episode(scn, strategy, seed)
        assert isinstance(m, StrategyOutcome)
        np.testing.assert_array_equal(
            m.plan.assemble(*episode_task(scn, seed)), m.result)
    failed = run_episode(scn.replace(straggler_mode="fail",
                                     straggler_ratio=1.0), "dynamic", seed)
    assert not failed.success
    assert failed.plan is None and failed.result is None
