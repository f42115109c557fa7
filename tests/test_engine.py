"""Event engine tests: stream independence, ordering, timing, episode runs."""

import io
import math

import numpy as np
import pytest

from codedconv import engine, models
from codedconv.engine import (
    SimEngine,
    episode_behaviors,
    episode_profiles,
    episode_task,
    export_event_log,
    philox_key,
    run_episode,
    substream,
)
from codedconv.models import Behavior, CommParams, WorkerProfile, comm_time, data_rate
from codedconv.scenarios import benchmark_scenario


def make_engine(p=2, seed=11, behaviors=None, profiles=None, collect_log=True,
                **kwargs):
    profiles = profiles or [WorkerProfile(mu=4e6, alpha=2.5e-7)] * p
    behaviors = behaviors or [Behavior() for _ in range(p)]
    return SimEngine(profiles, behaviors, CommParams(), seed,
                     collect_log=collect_log, **kwargs)


# -- substreams ----------------------------------------------------------------


def test_substream_reproducible():
    a = substream(42, 3, 1).uniform(size=8)
    b = substream(42, 3, 1).uniform(size=8)
    np.testing.assert_array_equal(a, b)


def test_substream_distinct_tags_differ():
    draws = {}
    for tags in [(0, 1), (0, 2), (1, 1), (1, 2), (7, 3)]:
        draws[tags] = tuple(substream(99, *tags).uniform(size=4))
    assert len(set(draws.values())) == len(draws)


def test_substream_seed_changes_everything():
    a = substream(1, 5, 2).uniform(size=4)
    b = substream(2, 5, 2).uniform(size=4)
    assert not np.allclose(a, b)


def test_substream_draws_equal_philox_built_from_its_key():
    # substream skips Philox's own seeding; the draws must still be those
    # of the documented Generator(Philox(key=...)).
    rng = np.random.default_rng(2024)
    for _ in range(200):
        seed = int(rng.integers(0, 2**63))
        tags = tuple(int(t) for t in rng.integers(0, 2**32, rng.integers(0, 4)))
        fast = substream(seed, *tags)
        slow = np.random.Generator(np.random.Philox(key=philox_key(seed, *tags)))
        for gen in (fast, slow):
            state = gen.bit_generator.state["state"]
            assert state["key"].tolist() == philox_key(seed, *tags).tolist()
            assert state["counter"].tolist() == [0] * 4
        np.testing.assert_array_equal(fast.uniform(-3.0, 2.0, 5),
                                      slow.uniform(-3.0, 2.0, 5))
        np.testing.assert_array_equal(fast.exponential(0.5, 3),
                                      slow.exponential(0.5, 3))
        np.testing.assert_array_equal(fast.integers(0, 9, 4), slow.integers(0, 9, 4))
        np.testing.assert_array_equal(fast.choice(8, size=3, replace=False),
                                      slow.choice(8, size=3, replace=False))


@pytest.mark.parametrize("strategy", ["uncoded", "traditional", "dynamic"])
def test_failed_workers_and_short_episodes_build_no_unread_streams(
        strategy, monkeypatch):
    scn = benchmark_scenario(1, 64, straggler_mode="fail", straggler_ratio=0.5)
    seed = 5
    failed = {w for w, beh in enumerate(episode_behaviors(scn, seed))
              if beh.kind == models.FAILED}
    assert len(failed) == 4
    made = []  # tags of every stream built, seen through the module global
    original = engine.substream

    def recording(seed, *tags):
        made.append(tags)
        return original(seed, *tags)

    monkeypatch.setattr(engine, "substream", recording)
    m = run_episode(scn, strategy, seed, horizon=math.inf, collect_log=True,
                    keep_result=False)
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
    eng.send(0, row=0, n_in=n_in, n_out=n_out, load_pair=(200, 100))
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
        eng.send(0, row=row, n_in=10, n_out=19, load_pair=(10, 10))
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
    profiles = [WorkerProfile(mu=4e6, alpha=2.5e-7)]
    normal = SimEngine(profiles, [Behavior()], CommParams(), 7, collect_log=True)
    slowed = SimEngine(profiles, [Behavior(models.DELAYED, factor=15.0)],
                       CommParams(), 7, collect_log=True)
    for eng in (normal, slowed):
        eng.send(0, row=0, n_in=50, n_out=99, load_pair=(50, 50))
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
    eng = make_engine(p=2, behaviors=[Behavior(models.FAILED, time=0.0),
                                      Behavior()])
    eng.send(0, row=0, n_in=10, n_out=19, load_pair=(10, 10))
    eng.send(1, row=1, n_in=10, n_out=19, load_pair=(10, 10))
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
    eng = make_engine(p=1, behaviors=[Behavior(models.FAILED, time=1e-4)])
    eng.send(0, row=0, n_in=1000, n_out=1999, load_pair=(5000, 5000))
    events = list(eng.events())
    assert [ev.kind for ev in events] == ["worker_leaves"]


def test_joining_worker_rejects_early_pieces():
    eng = make_engine(p=1, behaviors=[Behavior(models.JOINS, time=0.5)])
    assert eng.initial_roster() == []
    eng.send(0, row=0, n_in=10, n_out=19, load_pair=(10, 10))
    events = list(eng.events())
    assert [ev.kind for ev in events] == ["worker_joins"]


def probe_times(**kwargs):
    """Log times of one piece sent to an ordinary worker."""
    eng = make_engine(p=1, **kwargs)
    eng.send(0, row=0, n_in=1000, n_out=1999, load_pair=(5000, 5000))
    for _ in eng.events():
        pass
    return {rec.kind: rec.time for rec in eng.log}


@pytest.mark.parametrize("kind", [models.FAILED, models.LEAVES])
def test_result_returned_by_departure_time_is_delivered(kind):
    # Departure exactly when the result lands: the result still counts.
    t_result = probe_times()["result_arrives"]
    eng = make_engine(p=1, behaviors=[Behavior(kind, time=t_result)])
    eng.send(0, row=0, n_in=1000, n_out=1999, load_pair=(5000, 5000))
    events = [(ev.kind, ev.time) for ev in eng.events()]
    assert sorted(events) == [("result_arrives", t_result),
                              ("worker_leaves", t_result)]


def test_leaving_worker_loses_piece_it_cannot_finish():
    # The piece arrives, but the worker leaves before its compute is done.
    times = probe_times()
    leave = 0.5 * (times["piece_arrives"] + times["compute_done"])
    eng = make_engine(p=1, behaviors=[Behavior(models.LEAVES, time=leave)])
    eng.send(0, row=0, n_in=1000, n_out=1999, load_pair=(5000, 5000))
    assert [ev.kind for ev in eng.events()] == ["worker_leaves"]
    assert [rec.kind for rec in eng.log] == ["dispatch", "piece_arrives"]


@pytest.mark.parametrize("send_time", [0.5, 0.75])
def test_joining_worker_accepts_pieces_from_join_time(send_time):
    eng = make_engine(p=1, behaviors=[Behavior(models.JOINS, time=0.5)])
    eng.schedule_wakeup(send_time, 0)
    kinds = []
    for ev in eng.events():
        kinds.append(ev.kind)
        if ev.kind == "wakeup":
            eng.send(0, row=0, n_in=10, n_out=19, load_pair=(10, 10))
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
    eng.send(0, row=3, n_in=10, n_out=19, load_pair=(10, 10))
    eng.send(1, row=4, n_in=10, n_out=19, load_pair=(10, 10))
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
    for rec in sorted(m.event_log, key=lambda r: (r.time, r.seq)):
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
    delayed = [b for b in beh if b.kind == models.DELAYED]
    assert len(delayed) == 4  # round(0.5 * 8)
    assert all(b.factor == 15.0 for b in delayed)

    scn_f = benchmark_scenario(1).replace(straggler_mode="fail",
                                          failure_count_uniform=True)
    counts = {sum(1 for b in episode_behaviors(scn_f, seed)
                  if b.kind == models.FAILED) for seed in range(200)}
    assert counts <= set(range(0, 9))
    assert 0 in counts and 8 in counts  # uniform draw spans the full range


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


def test_pilot_sets_finite_horizon():
    scn = benchmark_scenario(1).replace(straggler_ratio=0.5)
    m = run_episode(scn, "dynamic", 88, keep_result=False)
    assert math.isfinite(m.horizon)
    base = run_episode(scn.replace(straggler_ratio=0.0), "dynamic", 88,
                       keep_result=False)
    assert m.horizon == pytest.approx(scn.horizon_factor * base.completion_time)


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
