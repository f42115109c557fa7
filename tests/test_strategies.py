"""Strategy tests: chunk selection, pacing estimator, end-to-end episodes."""

import math

import numpy as np
import pytest

from codedconv import coding, strategies
from codedconv.coding import MAX_SQUARE_PIECES, convolve_direct, make_encoding_matrix
from codedconv.engine import Draws, SimEngine, run_episode, episode_task
from codedconv.models import Behavior, WorkerProfile
from codedconv.scenarios import ScenarioConfig, benchmark_scenario
from codedconv.strategies import (
    DispatchEstimator,
    Plan,
    chunk_score,
    default_piece_length,
    run_dynamic,
    run_traditional_coded,
    run_uncoded,
    select_s,
)


def make_engine(p, seed=1, behaviors=None, collect_log=False):
    """An engine on `p` workers of mu 4e6."""
    fleet = ScenarioConfig("strategies", n1=1, n2=1, n_workers=p,
                           mu_low=4e6, mu_high=4e6)
    behaviors = behaviors or [Behavior() for _ in range(p)]
    return SimEngine(Draws(seed, fleet), behaviors, collect_log=collect_log)


def random_task(rng, n1, n2):
    return rng.uniform(-1, 1, n1), rng.uniform(-1, 1, n2)


# -- select_s -------------------------------------------------------------------


def test_select_s_matches_bruteforce():
    # Every other geometry draws mu down to 0.5, where the profile factor
    # of the score is no longer ~1.  The last geometry is one where a
    # length strictly inside the feasible range (406..563) wins, so
    # scoring only the two ends would be wrong.  The feasible lengths are
    # scored as one array, as select_s scores them: a scalar call can
    # round one ulp away from the same length inside an array.
    rng = np.random.default_rng(7)
    geometries = []
    for i in range(40):
        n1 = int(rng.integers(16, 200))
        n2 = int(rng.integers(16, 200))
        p = int(rng.integers(1, 9))
        mus = rng.uniform(*((0.5, 3.0) if i % 2 else (3e6, 6e6)), p)
        geometries.append((n1, n2, p, mus))
    geometries.append((563, 585, 2, [0.586, 0.572]))
    for n1, n2, p, mus in geometries:
        profiles = [WorkerProfile(mu=mu) for mu in mus]
        hi = min(n1, n2)
        lo = min(hi, math.ceil(math.sqrt(n1 * n2 / p)))
        feasible = [s for s in range(lo, hi + 1)
                    if math.ceil(max(n1, n2) / s) <= MAX_SQUARE_PIECES]
        scores = chunk_score(np.array(feasible), n1, n2, p, profiles)
        want, best = None, -1.0
        for s, score in zip(feasible, np.abs(scores)):
            if score > best:
                want, best = s, score
        assert select_s(n1, n2, p, profiles) == want
    assert 406 < want < 563


def test_select_s_degenerate_argmax_is_min_length():
    # with mu in the standard range the power factors are ~1 and the score
    # grows with s, so the chosen chunk length is min(n1, n2)
    profiles = [WorkerProfile(mu=4.5e6)] * 8
    assert select_s(512, 256, 8, profiles) == 256
    assert select_s(3750, 2500, 6, profiles) == 2500


def test_select_s_only_cuts_into_decodable_piece_counts():
    profiles = [WorkerProfile(mu=4.5e6)]
    assert select_s(31 * 32, 32, 1, profiles) == 32        # 31 pieces
    assert select_s(31 * 32 + 1, 32, 1, profiles) is None  # 32 would not decode
    assert select_s(2000, 2, 4, profiles * 4) is None


def test_select_s_needs_worker():
    with pytest.raises(ValueError):
        select_s(8, 8, 0, [])


# -- dispatch estimator ------------------------------------------------------------


def test_estimator_no_data_returns_none():
    est = DispatchEstimator()
    assert est.interval(0) is None
    est.record_send(0, 0.0)
    assert est.interval(0) is None


def test_estimator_finish_placed_by_payload_share():
    # result 3x the size of the input: finish sits at t_recv - 0.75*rtt
    est = DispatchEstimator()
    est.record_send(0, 0.0)
    est.record_result(0, t_sent=0.0, t_recv=10.0, rtt=1.0, n_in=1, n_out=3)
    st = est._stats[0]
    assert st["t_finish"] == pytest.approx(9.25)
    assert est.interval(0) == pytest.approx(9.25)  # min(service=10, expected=9.25)


def test_estimator_idle_gap_accrues_on_first_free_send():
    est = DispatchEstimator()
    est.record_send(0, 0.0)
    est.record_result(0, 0.0, 10.0, rtt=1.0, n_in=1, n_out=3)
    # worker idle since 9.25; new piece sent at 10.5 lands at ~11.25:
    # idle increment = rtt - (t_recv - t_send) = 1 - (10 - 10.5) = 1.5
    est.record_send(0, 10.5)
    est.record_result(0, 10.5, 20.0, rtt=1.0, n_in=1, n_out=3)
    st = est._stats[0]
    assert st["idle"] == pytest.approx(1.5)
    expected = (20.0 - 0.75 - 1.5) / 2
    assert est.interval(0) == pytest.approx(min(20.0 - 10.5, expected))


def test_estimator_no_idle_while_pieces_outstanding():
    est = DispatchEstimator()
    est.record_send(0, 0.0)
    est.record_result(0, 0.0, 10.0, rtt=1.0, n_in=1, n_out=1)
    est.record_send(0, 10.0)   # worker free: may accrue idle
    est.record_send(0, 12.0)   # one piece outstanding: never idle
    est.record_result(0, 10.0, 20.0, rtt=1.0, n_in=1, n_out=1)
    est.record_result(0, 12.0, 30.0, rtt=1.0, n_in=1, n_out=1)
    st = est._stats[0]
    # only the 10.0 send could add idle: 1 - (10 - 10) = 1.0
    assert st["idle"] == pytest.approx(1.0)
    assert est.last_send(0) == 12.0


def test_estimator_idle_booked_at_own_result_not_at_send():
    est = DispatchEstimator()
    est.record_send(0, 0.0)
    est.record_result(0, 0.0, 10.0, rtt=2.0, n_in=1, n_out=1)
    est.record_send(0, 15.0)  # idle increment 2 - (10-15) = 7, still pending
    assert est._stats[0]["idle"] == 0.0
    est.record_result(0, 15.0, 25.0, rtt=2.0, n_in=1, n_out=1)
    assert est._stats[0]["idle"] == pytest.approx(7.0)


def test_estimator_negative_expectation_falls_back_to_service():
    est = DispatchEstimator()
    est.record_send(0, 0.0)
    est.record_result(0, 0.0, 10.0, rtt=1.0, n_in=1, n_out=1)
    st = est._stats[0]
    st["idle"] = 100.0  # force a nonsensical expectation
    assert est.interval(0) == pytest.approx(10.0)


# -- uncoded strategy -----------------------------------------------------------


def test_uncoded_result_matches_direct():
    rng = np.random.default_rng(3)
    for seed in range(5):
        n1, n2 = int(rng.integers(20, 90)), int(rng.integers(20, 90))
        a, x = random_task(rng, n1, n2)
        eng = make_engine(p=3, seed=seed)
        out = run_uncoded(len(a), len(x), eng)
        assert out.success
        want = convolve_direct(a, x)
        np.testing.assert_allclose(out.plan.assemble(a, x), want,
                                   rtol=1e-9, atol=1e-12)
        assert out.redundancy_used == 0


def test_uncoded_single_failure_dooms_task():
    rng = np.random.default_rng(4)
    a, x = random_task(rng, 64, 64)
    behaviors = [Behavior(departs=0.0)] + [Behavior()] * 3
    eng = make_engine(p=4, behaviors=behaviors)
    out = run_uncoded(len(a), len(x), eng, horizon=10.0)
    assert not out.success
    assert out.completion_time == 10.0
    assert out.plan is None


# -- traditional coded strategy ----------------------------------------------------


def test_traditional_result_matches_direct():
    rng = np.random.default_rng(5)
    for seed in range(5):
        n1, n2 = int(rng.integers(30, 120)), int(rng.integers(30, 120))
        a, x = random_task(rng, n1, n2)
        eng = make_engine(p=4, seed=seed)
        out = run_traditional_coded(len(a), len(x), eng)
        assert out.success
        want = convolve_direct(a, x)
        np.testing.assert_allclose(out.plan.assemble(a, x), want,
                                   rtol=1e-7, atol=1e-10)


def test_traditional_encodes_longer_operand():
    rng = np.random.default_rng(6)
    a, x = random_task(rng, 40, 90)
    eng = make_engine(p=4)
    out = run_traditional_coded(len(a), len(x), eng)
    assert out.success
    assert out.params["swapped"] is True
    np.testing.assert_allclose(out.plan.assemble(a, x), convolve_direct(a, x),
                               rtol=1e-7, atol=1e-10)


def test_traditional_survives_up_to_bound_failures():
    # n1=n2 -> s = n, one column, P rows, bound = P - n1*n2/s^2 = P - 1... use
    # distinct sizes: n1=8, n2=4 -> s=4, m=2, bound = 8 - 32/16 = 6
    rng = np.random.default_rng(8)
    a, x = random_task(rng, 8, 4)
    for failures, should_pass in [(0, True), (6, True), (7, False)]:
        behaviors = [Behavior(departs=0.0)] * failures \
            + [Behavior()] * (8 - failures)
        eng = make_engine(p=8, behaviors=behaviors, seed=failures)
        out = run_traditional_coded(len(a), len(x), eng, horizon=50.0)
        assert out.success == should_pass, failures
        if should_pass:
            np.testing.assert_allclose(out.plan.assemble(a, x), convolve_direct(a, x),
                                       rtol=1e-7, atol=1e-10)


def test_traditional_explicit_s_respected():
    rng = np.random.default_rng(9)
    a, x = random_task(rng, 60, 60)
    eng = make_engine(p=4)
    out = run_traditional_coded(len(a), len(x), eng, s=30)
    assert out.params["s"] == 30
    assert out.params["pieces"] == 2
    np.testing.assert_allclose(out.plan.assemble(a, x), convolve_direct(a, x),
                               rtol=1e-7, atol=1e-10)


def test_traditional_past_decode_limit_fails_without_data():
    # 33 coded pieces: the square decode system fails its rcond check as
    # the 33rd row arrives, before any payload is computed.
    rng = np.random.default_rng(16)
    a, x = random_task(rng, 66, 2)
    out = run_traditional_coded(len(a), len(x), make_engine(p=4), s=2)
    assert out.params["pieces"] == 33
    assert out.pieces_dispatched == 33
    assert not out.success
    assert out.completion_time == math.inf
    assert out.plan is None


def test_plan_matrix_follows_its_code():
    # A square Vandermonde code and the identity share a shape; the plan's
    # code alone decides which one its matrix is.
    kwargs = dict(lengths=(40, 12), coded_is_x=False, coded_length=10,
                  other_length=12, columns=[[]])
    np.testing.assert_array_equal(Plan(code=None, **kwargs).matrix, np.eye(4))
    assert Plan(code=(4, 4), **kwargs).matrix is make_encoding_matrix(4, 4)
    assert Plan(code=(9, 4), **kwargs).matrix is make_encoding_matrix(9, 4)


def test_uncoded_checks_no_decode(monkeypatch):
    # Any m distinct rows of the identity decode, so uncoded runs no
    # verdict; traditional on the same fleet runs one per column.
    calls = []
    decode_factors = coding.decode_factors

    def counted(matrix, rows):
        calls.append(matrix.shape)
        return decode_factors(matrix, rows)

    # Count calls by both names a strategy could reach it through.
    monkeypatch.setattr(coding, "decode_factors", counted)
    monkeypatch.setattr(strategies, "decode_factors", counted, raising=False)
    coding._decode_failure.cache_clear()
    scn = benchmark_scenario(1, 8)
    assert run_episode(scn, "uncoded", 3, keep_result=False).success
    assert calls == []
    assert run_episode(scn, "traditional", 3, keep_result=False).success
    assert calls


def test_traditional_without_decodable_length_fails_at_once(monkeypatch):
    # No chunk length cuts 2000 values into <= 31 pieces of at most 2.
    def refuse(*args, **kwargs):
        raise AssertionError("no encoding matrix is needed")

    monkeypatch.setattr(strategies, "make_encoding_matrix", refuse)
    eng = make_engine(p=4, collect_log=True)
    out = run_traditional_coded(2000, 2, eng)
    assert not out.success
    assert out.completion_time == math.inf
    assert out.pieces_dispatched == 0
    assert out.plan is None
    assert eng.log == []


def test_fixed_codes_with_empty_initial_roster_send_nothing():
    # Every worker joins at 0.5 s: the fixed codes address only the t=0
    # roster, so they send nothing and give up at the horizon, while the
    # dynamic strategy dispatches to each worker as it joins.
    behaviors = [Behavior(joins=0.5)] * 4
    for runner in (run_uncoded, run_traditional_coded):
        eng = make_engine(p=4, behaviors=behaviors, collect_log=True)
        out = runner(64, 48, eng, horizon=10.0)
        assert eng.log == []
        assert out.pieces_dispatched == 0
        assert out.per_worker_results == {}
        assert not out.success
        assert out.completion_time == 10.0
        assert out.plan is None
    eng = make_engine(p=4, behaviors=behaviors, collect_log=True)
    out = run_dynamic(64, 48, eng, horizon=10.0)
    assert out.success
    assert min(rec.time for rec in eng.log if rec.kind == "dispatch") == 0.5
    assert sum(out.per_worker_results.values()) >= 1


# -- dynamic strategy ---------------------------------------------------------------


def test_dynamic_result_matches_direct():
    rng = np.random.default_rng(10)
    for seed in range(5):
        n1, n2 = int(rng.integers(30, 120)), int(rng.integers(30, 120))
        a, x = random_task(rng, n1, n2)
        eng = make_engine(p=3, seed=seed)
        out = run_dynamic(len(a), len(x), eng)
        assert out.success
        np.testing.assert_allclose(out.plan.assemble(a, x), convolve_direct(a, x),
                                   rtol=1e-7, atol=1e-10)


def test_dynamic_single_worker_whole_vector_minimal_redundancy():
    # one worker, one piece: the initial spare row is never consumed and no
    # refill triggers, so redundancy stays at its starting value
    rng = np.random.default_rng(11)
    a, x = random_task(rng, 32, 16)
    eng = make_engine(p=1)
    out = run_dynamic(len(a), len(x), eng, b=16)
    assert out.success
    assert out.params["pieces"] == 1
    assert out.redundancy_used == 1
    assert out.pieces_dispatched == 1
    np.testing.assert_allclose(out.plan.assemble(a, x), convolve_direct(a, x),
                               rtol=1e-7, atol=1e-10)


def test_dynamic_more_workers_than_pieces_grows_redundancy():
    rng = np.random.default_rng(12)
    a, x = random_task(rng, 32, 8)
    eng = make_engine(p=6)
    out = run_dynamic(len(a), len(x), eng, b=8)  # m=1, 6 workers
    assert out.success
    assert out.pieces_dispatched >= 6  # every initial worker got a piece
    assert out.redundancy_used >= 5


def stack_dispatch(m, budget, count):
    """Rows and redundancy of `count` pops from the dynamic strategy's stack.

    The stack starts as rows 0..m; a fresh row is pushed, and redundancy
    counted, whenever a pop would leave it empty.
    """
    stack, fresh, redundancy, rows = list(range(m + 1)), m + 1, 1, []
    for _ in range(count):
        if len(stack) <= 1 and fresh < budget:
            stack.append(fresh)
            fresh += 1
            redundancy += 1
        rows.append(stack.pop())
    return rows, redundancy


@pytest.mark.parametrize("behaviors, n2, b", [
    ([Behavior()] * 6, 8, 8),                                   # m = 1
    ([Behavior(departs=0.0), Behavior(slowdown=50.0), Behavior()], 48, 12),
])
def test_dynamic_dispatch_order_matches_stack(behaviors, n2, b):
    eng = make_engine(p=len(behaviors), behaviors=behaviors, collect_log=True)
    out = run_dynamic(32, n2, eng, b=b)
    m = out.params["pieces"]
    sent = [rec.row for rec in eng.log if rec.kind == "dispatch"]
    assert out.success
    assert len(sent) == out.pieces_dispatched > m + 1
    rows, redundancy = stack_dispatch(m, out.params["budget"], len(sent))
    assert sent == rows
    assert out.redundancy_used == redundancy


def test_dynamic_survives_all_but_one_failure():
    rng = np.random.default_rng(13)
    a, x = random_task(rng, 60, 40)
    behaviors = [Behavior(departs=0.0)] * 3 + [Behavior()]
    eng = make_engine(p=4, behaviors=behaviors)
    out = run_dynamic(len(a), len(x), eng, b=10, horizon=50.0)
    assert out.success
    np.testing.assert_allclose(out.plan.assemble(a, x), convolve_direct(a, x),
                               rtol=1e-7, atol=1e-10)
    assert out.per_worker_results.get(3, 0) >= 4  # the survivor did the work


def test_dynamic_joining_worker_contributes():
    rng = np.random.default_rng(14)
    a, x = random_task(rng, 64, 48)
    # lone initial worker is badly delayed; the joiner should pick up pieces
    behaviors = [Behavior(slowdown=200.0),
                 Behavior(joins=0.001)]
    eng = make_engine(p=2, behaviors=behaviors)
    out = run_dynamic(len(a), len(x), eng, b=12, horizon=1000.0)
    assert out.success
    assert out.per_worker_results.get(1, 0) >= 1
    np.testing.assert_allclose(out.plan.assemble(a, x), convolve_direct(a, x),
                               rtol=1e-7, atol=1e-10)


def test_dynamic_leaving_worker_mid_task():
    rng = np.random.default_rng(15)
    a, x = random_task(rng, 64, 48)
    behaviors = [Behavior(departs=0.004), Behavior()]
    eng = make_engine(p=2, behaviors=behaviors)
    out = run_dynamic(len(a), len(x), eng, b=12, horizon=100.0)
    assert out.success
    np.testing.assert_allclose(out.plan.assemble(a, x), convolve_direct(a, x),
                               rtol=1e-7, atol=1e-10)


@pytest.mark.parametrize("knob, value", [("b", 0), ("b", -3), ("s", 0),
                                         ("s", -2)])
def test_runner_rejects_knob_below_one(knob, value):
    runner = run_dynamic if knob == "b" else run_traditional_coded
    with pytest.raises(ValueError, match=f" {knob} must be >= 1"):
        runner(64, 48, make_engine(p=4), **{knob: value})


def test_default_piece_length_rule():
    assert default_piece_length(256, 8) == 16   # 16 pieces
    assert default_piece_length(256, 4) == 32   # 8 pieces
    assert default_piece_length(10, 8) == 1     # capped at n2 pieces
    assert default_piece_length(3750, 8) == 235


# -- cross-strategy properties -------------------------------------------------------


def test_all_strategies_agree_on_same_episode():
    scn = benchmark_scenario(1)
    seed = 21
    a, x = episode_task(scn, seed)
    want = convolve_direct(a, x)
    scale = np.max(np.abs(want))
    for strat in ("uncoded", "traditional", "dynamic"):
        m = run_episode(scn, strat, seed)
        assert m.success
        err = np.max(np.abs(m.result - want)) / scale
        assert err < 1e-6, (strat, err)


def test_paired_seed_same_straggler_draws():
    scn = benchmark_scenario(2).replace(straggler_ratio=0.5)
    outs = [run_episode(scn, strat, 33, keep_result=False)
            for strat in ("uncoded", "traditional", "dynamic")]
    assert len({m.n_stragglers for m in outs}) == 1


def test_outcome_reports_per_worker_totals():
    scn = benchmark_scenario(1)
    m = run_episode(scn, "uncoded", 2, keep_result=False)
    assert sum(m.per_worker_results.values()) == m.pieces_dispatched
