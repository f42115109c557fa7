"""Strategy tests: chunk selection, pacing estimator, end-to-end episodes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def bruteforce_pick(n1, n2, p, profiles):
    """The first strict maximum of |chunk_score| over the feasible lengths.

    The feasible lengths are listed and compared one by one, without
    `select_s`.  They are scored as one array, as select_s scores them: a
    scalar call can round one ulp away from the same length inside an
    array.  Tied or underflowed scores leave the smallest length.
    """
    hi = min(n1, n2)
    lo = min(hi, math.ceil(math.sqrt(n1 * n2 / p)))
    feasible = [s for s in range(lo, hi + 1)
                if math.ceil(max(n1, n2) / s) <= MAX_SQUARE_PIECES]
    want, best = None, -1.0
    if feasible:
        with np.errstate(over="ignore", under="ignore"):
            scores = np.abs(chunk_score(np.array(feasible), n1, n2, p,
                                        profiles))
        for s, score in zip(feasible, scores):
            if score > best:
                want, best = s, score
    return want


def test_select_s_matches_bruteforce():
    # Every other geometry draws mu down to 0.5, where the profile factor
    # of the score is no longer ~1.  The last geometry is one where a
    # length strictly inside the feasible range (406..563) wins, so
    # scoring only the two ends would be wrong.
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
        want = bruteforce_pick(n1, n2, p, profiles)
        assert select_s(n1, n2, p, profiles) == want
    assert 406 < want < 563


fleet_mus = st.one_of(
    st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=8),
    st.lists(st.floats(3e6, 6e6), min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(st.integers(16, 1500), st.integers(16, 1500), fleet_mus)
@example(563, 585, [0.586, 0.572])      # a length inside the range wins
@example(512, 256, [1e-3] * 8)          # every score underflows to 0
@example(2, 2, [1.0] * 4)               # lengths 1 and 2 tie exactly
@example(26, 16, [4e6, 5e6])            # lengths 15 and 16: hi = lo + 1
@example(32, 16, [4e6])                 # lo = hi = 16, where slack is 0
def test_select_s_matches_full_scan(n1, n2, mus):
    # Every feasible length is scored, over fast and slow fleets alike,
    # and select_s warns of no over- or underflow.
    p = len(mus)
    profiles = [WorkerProfile(mu=mu) for mu in mus]
    want = bruteforce_pick(n1, n2, p, profiles)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert select_s(n1, n2, p, profiles) == want


def random_fleets(seed, count):
    """`count` fleets (n1, n2, p, mus, coeff) over four families of mu.

    n1 >= n2 lie in [2, 4000), p in 1..8 and coeff = 10**U(-13, 1).  By
    i % 4 the mus are U(0.3, 3), 10**U(-4, 1), 10**U(-9, 7) and U(1, 2):
    fast, slow and extreme fleets, where the profile factor does work.
    """
    rng = np.random.default_rng(seed)
    families = [lambda p: rng.uniform(0.3, 3.0, p),
                lambda p: 10.0 ** rng.uniform(-4.0, 1.0, p),
                lambda p: 10.0 ** rng.uniform(-9.0, 7.0, p),
                lambda p: rng.uniform(1.0, 2.0, p)]
    fleets = []
    for i in range(count):
        a, b = (int(n) for n in rng.integers(2, 4000, 2))
        p = int(rng.integers(1, 9))
        coeff = float(10.0 ** rng.uniform(-13.0, 1.0))
        mus = [float(mu) for mu in families[i % 4](p)]
        fleets.append((max(a, b), min(a, b), p, mus, coeff))
    return fleets


# The picks on `random_fleets(33, 120)` of a bisection search that pruned
# lengths by a bound on |chunk_score|, an implementation independent of
# the full scan.  On the fleets marked OVERFLOWED it raised OverflowError;
# they are checked against the log-domain argmax instead.
OVERFLOWED = "overflowed"
PINNED_PICKS = [
    1775, OVERFLOWED, 63, 2649, 2660, 1066, 351, 306,
    1858, OVERFLOWED, OVERFLOWED, 658, 66, 3150, 509, 408,
    742, OVERFLOWED, 562, 1753, 635, 1319, 162, 483,
    2551, 1127, 2465, 882, 1329, 1305, OVERFLOWED, None,
    1415, 160, 1497, 488, 906, OVERFLOWED, 347, 2732,
    326, OVERFLOWED, 747, 396, 1753, OVERFLOWED, 1475, 156,
    1726, OVERFLOWED, 396, 357, 3480, 355, 409, 1283,
    316, 238, 983, 1404, 424, 513, OVERFLOWED, 266,
    1655, 489, 563, 541, 664, 3059, 1264, 1937,
    265, 1381, 671, 1922, 1584, 83, 1772, 1200,
    2263, 860, 1945, 296, 2972, 789, 229, 2821,
    2904, 1705, 1295, 1910, 1188, OVERFLOWED, 1935, 335,
    793, OVERFLOWED, None, 2943, 1276, 2248, 2792, 278,
    55, OVERFLOWED, 1254, None, 574, OVERFLOWED, 2152, None,
    382, 1891, 696, 1365, 1420, 36, 1480, 181,
]


def test_select_s_keeps_the_pinned_picks_of_random_fleets():
    # An independent pin: the brute force above scores the same array as
    # select_s, so only a literal list catches a changed pick.  The draws
    # pick the shortest length, the longest and one strictly between.
    fleets = random_fleets(33, len(PINNED_PICKS))
    picks = {"lo": 0, "hi": 0, "inside": 0}
    for (n1, n2, p, mus, coeff), want in zip(fleets, PINNED_PICKS):
        if want is OVERFLOWED:
            continue
        profiles = [WorkerProfile(mu=mu) for mu in mus]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert select_s(n1, n2, p, profiles, coeff) == want
        if want is not None:
            lo, hi = strategies._feasible(n1, n2, p)
            picks["lo" if want == lo else "hi" if want == hi
                  else "inside"] += 1
    assert picks == {"lo": 38, "hi": 49, "inside": 15}


def log_domain_pick(n1, n2, p, mus, coeff):
    """The argmax of log |chunk_score|, summing G's factors by logaddexp.

    No factor (mu / work)**alpha is formed, so none over- or underflows.
    """
    lo, hi = strategies._feasible(n1, n2, p)
    s = np.arange(lo, hi + 1, dtype=np.float64)
    log_work = np.log(2.0 * coeff * s * np.log2(2.0 * s))
    log_g = np.logaddexp.reduce(
        [(np.log(mu) - log_work) / mu for mu in mus], axis=0)
    scores = np.log(p * s / n2 - n1 / s + 1.0) + log_g
    return lo + int(np.argmax(scores)), scores


def test_select_s_overflow_fleets_pick_the_log_domain_argmax():
    # mu = 1e-8 and coeff = 1e-12: every factor of G overflows a float on
    # every length in 128..256, and the log-domain score of 128 leads the
    # next best by more than 9e5 nats.
    fleets = [(512, 256, 8, [1e-8] * 8, 1e-12)] + [
        fleet for fleet, pick in zip(random_fleets(33, len(PINNED_PICKS)),
                                     PINNED_PICKS) if pick is OVERFLOWED]
    assert len(fleets) == 15
    want, scores = log_domain_pick(*fleets[0])
    lead, runner_up = np.sort(scores)[::-1][:2]
    assert want == 128 and lead - runner_up > 9e5
    for n1, n2, p, mus, coeff in fleets:
        profiles = [WorkerProfile(mu=mu) for mu in mus]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (select_s(n1, n2, p, profiles, coeff)
                    == log_domain_pick(n1, n2, p, mus, coeff)[0])


def test_select_s_slow_fleet_picks_min_length_without_warning():
    # alpha = 1 / mu = 1000: (mu / work)**alpha underflows a float, and
    # every score is 0, so the smallest feasible length wins.
    scenario = ScenarioConfig("slow", n1=512, n2=256, n_workers=8,
                              mu_low=1e-3, mu_high=2e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert select_s(512, 256, 8, [WorkerProfile(mu=1e-3)] * 8) == 128
        m = run_episode(scenario, "traditional", 3, keep_result=False)
    assert m.params["s"] == 128


mu_ranges = st.one_of(st.floats(1e-3, 3.0), st.floats(10.0, 1e3),
                      st.floats(3e6, 6e6))


@settings(max_examples=200, deadline=None)
@given(st.integers(16, 1500), st.integers(16, 1500), st.integers(1, 8),
       st.tuples(mu_ranges, mu_ranges).map(sorted),
       st.sampled_from([1.0, 0.5, 2.5]),
       st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
@example(512, 256, 8, [3e6, 6e6], 1.0, [0.5] * 8)       # preset 1, scale 8
@example(512, 256, 4, [100.0, 200.0], 1.0, [0.5] * 8)   # settles though slow
def test_settled_chunk_length_is_select_s_on_every_draw(n1, n2, p, mu_range,
                                                        coeff, fractions):
    # Where the fleet's mu range settles the pick, select_s makes the same
    # pick on profiles drawn anywhere in that range, its ends included.
    mu_low, mu_high = mu_range
    pick = strategies.settle_chunk_length(n1, n2, p, mu_low, mu_high, coeff)
    if pick is None:
        return
    assert pick == min(n1, n2)
    inside = [min(mu_high, mu_low + (mu_high - mu_low) * f)
              for f in fractions[:p]]
    for mus in ([mu_low] * p, [mu_high] * p, [mu_low] + [mu_high] * (p - 1),
                inside):
        profiles = [WorkerProfile(mu=mu) for mu in mus]
        assert select_s(n1, n2, p, profiles, coeff) == pick


def test_every_preset_fleet_settles_its_chunk_length():
    # Presets 1-4 at scales 64, 8 and 1: the configured mu range settles
    # the pick at min(n1, n2), so no rep of a preset searches.
    for index in (1, 2, 3, 4):
        for scale in (64, 8, 1):
            scn = benchmark_scenario(index, scale)
            n1, n2 = max(scn.n1, scn.n2), min(scn.n1, scn.n2)
            assert strategies.settle_chunk_length(
                n1, n2, scn.n_workers, scn.mu_low, scn.mu_high,
                scn.compute_coeff) == n2


@pytest.mark.parametrize("index", [1, 2, 3, 4])
@pytest.mark.parametrize("scale", [64, 8, 1])
def test_select_s_scores_no_array_on_presets(monkeypatch, index, scale):
    # The fleet's settle bound picks min(n1, n2) on every preset before
    # select_s is reached: no episode calls select_s, scores an array with
    # `chunk_score` or calls `math.exp`, and every pick is the one select_s
    # makes on the Draws' profiles.
    fleet = benchmark_scenario(index, scale)
    n1, n2 = max(fleet.n1, fleet.n2), min(fleet.n1, fleet.n2)
    p = fleet.n_workers
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    original = strategies.select_s
    strategies.settle_chunk_length.cache_clear()
    for seed in [*range(5), 1234]:
        draws = Draws(seed, fleet)
        for lengths in [(n1, n2), (n2, n1)]:
            eng = SimEngine(draws, [Behavior()] * p)
            with monkeypatch.context() as patch:
                patch.setattr(math, "exp", counted("exp", math.exp))
                patch.setattr(strategies, "chunk_score",
                              counted("chunk_score", chunk_score))
                patch.setattr(strategies, "select_s",
                              counted("select_s", original))
                s = run_traditional_coded(*lengths, eng).params["s"]
            assert s == original(n1, n2, p, draws.profiles,
                                 fleet.compute_coeff) == n2
    assert calls == []


def test_select_s_breaks_an_exact_tie_with_one_array_score(monkeypatch):
    # Lengths 1 and 2 both score exactly 0.5, and one array call to
    # `chunk_score` picks the smaller.
    profiles = [WorkerProfile(mu=1.0)] * 4
    np.testing.assert_array_equal(
        np.abs(chunk_score([1, 2], 2, 2, 4, profiles)), [0.5, 0.5])
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return chunk_score(*args, **kwargs)

    monkeypatch.setattr(strategies, "chunk_score", counted)
    assert strategies.select_s(2, 2, 4, profiles) == 1
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0][0], [1, 2])


def test_select_s_degenerate_argmax_is_min_length():
    # with mu in the standard range the power factors are ~1 and the score
    # grows with s, so the chosen chunk length is min(n1, n2)
    profiles = [WorkerProfile(mu=4.5e6)] * 8
    assert select_s(512, 256, 8, profiles) == 256
    assert select_s(3750, 2500, 6, profiles) == 2500


def test_select_s_only_cuts_into_decodable_piece_counts():
    profiles = [WorkerProfile(mu=4.5e6)]
    assert select_s(31 * 32, 32, 1, profiles) == 32        # 31 pieces
    assert select_s(31 * 32 + 1, 32, 1, profiles) is None  # 32: past the cap
    assert select_s(2000, 2, 4, profiles * 4) is None


def test_select_s_needs_worker():
    with pytest.raises(ValueError):
        select_s(8, 8, 0, [])


# -- dispatch estimator ------------------------------------------------------------


def test_estimator_no_data_returns_none():
    est = DispatchEstimator(n_in=1, n_out=1)
    assert est.interval(0) is None
    est.record_send(0, 0.0)
    assert est.interval(0) is None


def test_estimator_finish_placed_by_payload_share():
    # result 3x the size of the input: finish sits at t_recv - 0.75*rtt
    est = DispatchEstimator(n_in=1, n_out=3)
    est.record_send(0, 0.0)
    est.record_result(0, t_sent=0.0, t_recv=10.0, rtt=1.0)
    st = est.stats[0]
    assert st.t_finish == pytest.approx(9.25)
    assert est.interval(0) == pytest.approx(9.25)  # min(service=10, expected=9.25)


def test_estimator_idle_gap_accrues_on_first_free_send():
    est = DispatchEstimator(n_in=1, n_out=3)
    est.record_send(0, 0.0)
    est.record_result(0, 0.0, 10.0, rtt=1.0)
    # worker idle since 9.25; new piece sent at 10.5 lands at ~11.25:
    # idle increment = rtt - (t_recv - t_send) = 1 - (10 - 10.5) = 1.5
    est.record_send(0, 10.5)
    est.record_result(0, 10.5, 20.0, rtt=1.0)
    st = est.stats[0]
    assert st.idle == pytest.approx(1.5)
    expected = (20.0 - 0.75 - 1.5) / 2
    assert est.interval(0) == pytest.approx(min(20.0 - 10.5, expected))


def test_estimator_no_idle_while_pieces_outstanding():
    est = DispatchEstimator(n_in=1, n_out=1)
    est.record_send(0, 0.0)
    est.record_result(0, 0.0, 10.0, rtt=1.0)
    est.record_send(0, 10.0)   # worker free: may accrue idle
    est.record_send(0, 12.0)   # one piece outstanding: never idle
    est.record_result(0, 10.0, 20.0, rtt=1.0)
    est.record_result(0, 12.0, 30.0, rtt=1.0)
    st = est.stats[0]
    # only the 10.0 send could add idle: 1 - (10 - 10) = 1.0
    assert st.idle == pytest.approx(1.0)
    assert st.t_send == 12.0


def test_estimator_idle_booked_at_own_result_not_at_send():
    est = DispatchEstimator(n_in=1, n_out=1)
    est.record_send(0, 0.0)
    est.record_result(0, 0.0, 10.0, rtt=2.0)
    est.record_send(0, 15.0)  # idle increment 2 - (10-15) = 7, still pending
    assert est.stats[0].idle == 0.0
    est.record_result(0, 15.0, 25.0, rtt=2.0)
    assert est.stats[0].idle == pytest.approx(7.0)


def test_estimator_negative_expectation_falls_back_to_service():
    # A round trip of 100 puts t_finish at 10 - 0.5 * 100 = -40, so the
    # expectation is negative and the interval is the service time.
    est = DispatchEstimator(n_in=1, n_out=1)
    est.record_send(0, 0.0)
    est.record_result(0, 0.0, 10.0, rtt=100.0)
    assert est.stats[0].t_finish == -40.0
    assert est.interval(0) == 10.0


@st.composite
def estimator_calls(draw):
    """(n_in, n_out, calls): `record_send` and `record_result` calls on up
    to three workers, in time order.  A call is ("send", worker, t) or
    ("result", worker, t_sent, t, rtt); each worker's results come back
    in send order, with any round trip."""
    n_in, n_out = draw(st.integers(1, 500)), draw(st.integers(1, 1000))
    calls, out = [], {w: [] for w in range(3)}
    t = 0.0
    for _ in range(draw(st.integers(0, 30))):
        t += draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
        worker = draw(st.integers(0, 2))
        if out[worker] and draw(st.booleans()):
            calls.append(("result", worker, out[worker].pop(0), t,
                          draw(st.floats(0.0, 20.0))))
        else:
            out[worker].append(t)
            calls.append(("send", worker, t))
    return n_in, n_out, calls


@settings(max_examples=100, deadline=None)
@given(estimator_calls())
def test_estimator_interval_is_the_documented_formula(run):
    # A restatement of the docstring that keeps each piece's own idle
    # increment and books it at that piece's result: after every call,
    # interval() is min(service, expected), or service when expected <= 0,
    # with expected = (t_finish - idle) / results and t_finish = t_recv -
    # share * rtt; None before a worker's first result.
    n_in, n_out, calls = run
    share = n_out / (n_in + n_out)
    est = DispatchEstimator(n_in, n_out)
    pieces = {w: [] for w in range(3)}   # increments of the pieces out
    last = {}                            # worker -> (t_recv, rtt, count)
    idle = {w: 0.0 for w in range(3)}
    want = {w: None for w in range(3)}
    for kind, worker, *times in calls:
        if kind == "send":
            (t_send,) = times
            est.record_send(worker, t_send)
            increment = 0.0
            if not pieces[worker] and worker in last:
                t_recv, rtt, _ = last[worker]
                increment = rtt - (t_recv - t_send)
            pieces[worker].append(increment)
        else:
            t_sent, t_recv, rtt = times
            est.record_result(worker, t_sent, t_recv, rtt)
            idle[worker] += pieces[worker].pop(0)
            count = last.get(worker, (0, 0, 0))[2] + 1
            last[worker] = (t_recv, rtt, count)
            service = t_recv - t_sent
            expected = (t_recv - share * rtt - idle[worker]) / count
            want[worker] = (service if expected <= 0.0
                            else min(service, expected))
        assert [est.interval(w) for w in range(3)] == list(want.values())


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


def test_traditional_scans_an_unsettled_fleet_in_every_episode(monkeypatch):
    # An explicit s scans nothing.  Without one, on a fleet whose mu range
    # does not settle the pick (mu = 1e-3: its scores underflow), every
    # episode scans its operand lengths, the longer first, and a pair with
    # no feasible length fails with s None.
    calls = []
    original = strategies.select_s

    def counted(*args):
        calls.append(args[:2])
        return original(*args)

    monkeypatch.setattr(strategies, "select_s", counted)
    fleet = ScenarioConfig("slow", n1=1, n2=1, n_workers=4,
                           mu_low=1e-3, mu_high=1e-3)
    draws = Draws(1, fleet)

    def run(n1, n2, **knobs):
        eng = SimEngine(draws, [Behavior()] * 4)
        return run_traditional_coded(n1, n2, eng, **knobs).params["s"]

    assert run(60, 60, s=30) == 30
    assert calls == []
    picks = [run(n1, n2) for n1, n2 in [(512, 256), (2000, 2), (256, 512)]]
    assert calls == [(512, 256), (2000, 2), (512, 256)]
    want = original(512, 256, 4, draws.profiles, fleet.compute_coeff)
    assert want is not None and want != 256
    assert picks == [want, None, want]


def test_traditional_on_a_settled_fleet_searches_no_chunk_length(monkeypatch):
    # On a fleet whose mu range settles the pick (mu in [3e6, 6e6]), no
    # episode calls select_s, and every pick is the one select_s makes on
    # the Draws' profiles.
    calls = []
    original = strategies.select_s

    def counted(*args):
        calls.append(args[:2])
        return original(*args)

    monkeypatch.setattr(strategies, "select_s", counted)
    fleet = ScenarioConfig("fast", n1=1, n2=1, n_workers=4)
    for seed in range(5):
        draws = Draws(seed, fleet)
        for n1, n2 in [(512, 256), (256, 512)]:
            eng = SimEngine(draws, [Behavior()] * 4)
            s = run_traditional_coded(n1, n2, eng).params["s"]
            assert s == original(512, 256, 4, draws.profiles) == 256
    assert calls == []


def test_traditional_past_decode_limit_fails_without_data(rcond_limit):
    # 33 coded pieces under a limit above their square system's rcond
    # (2.38e-2): the system fails its rcond check as the 33rd row arrives,
    # before any payload is computed.
    rcond_limit(0.024)
    rng = np.random.default_rng(16)
    a, x = random_task(rng, 66, 2)
    out = run_traditional_coded(len(a), len(x), make_engine(p=4), s=2)
    assert out.params["pieces"] == 33
    assert out.pieces_dispatched == 33
    assert not out.success
    assert out.completion_time == math.inf
    assert out.plan is None


def test_plan_matrix_follows_its_code(monkeypatch):
    # A square Vandermonde code and the identity share a shape; the plan's
    # code alone decides which one its matrix is.
    kwargs = dict(lengths=(40, 12), coded_is_x=False, coded_length=10,
                  other_length=12, columns=[[]])
    np.testing.assert_array_equal(Plan(code=None, **kwargs).matrix, np.eye(4))
    assert Plan(code=(4, 4), **kwargs).matrix is make_encoding_matrix(4, 4)
    assert Plan(code=(9, 4), **kwargs).matrix is make_encoding_matrix(9, 4)
    # An episode that keeps no result builds no matrix; its plan builds the
    # same one when it is read.
    built = []

    def counted(*code):
        built.append(code)
        return make_encoding_matrix(*code)

    monkeypatch.setattr(strategies, "make_encoding_matrix", counted)
    scn = benchmark_scenario(1, 8)
    for strategy in sorted(strategies.STRATEGIES):
        out = run_episode(scn, strategy, 3, keep_result=False)
        assert out.success and built == []
        if strategy == "uncoded":
            np.testing.assert_array_equal(out.plan.matrix,
                                          np.eye(out.params["rows"]))
            assert built == []
        else:
            assert out.plan.matrix is make_encoding_matrix(*out.plan.code)
            assert built == [out.plan.code]
        built.clear()


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


def test_assemble_decodes_the_judged_row_sets_in_ascending_order(monkeypatch):
    # `assemble` solves the systems `_run` judged: each column's row set,
    # in ascending row order whatever order its rows arrived in.
    calls = []
    assembling = []
    decode_factors = coding.decode_factors
    assemble = Plan.assemble

    def counted(matrix, rows):
        calls.append((bool(assembling), matrix.shape, tuple(rows)))
        return decode_factors(matrix, rows)

    def traced(plan, a, x):
        assembling.append(plan)
        try:
            return assemble(plan, a, x)
        finally:
            assembling.pop()

    monkeypatch.setattr(coding, "decode_factors", counted)
    monkeypatch.setattr(Plan, "assemble", traced)
    unsorted_columns = 0
    for preset in (1, 3):
        scn = benchmark_scenario(preset)
        for strategy in ("traditional", "dynamic"):
            for seed in (5, 6):
                coding._decode_failure.cache_clear()
                calls.clear()
                m = run_episode(scn, strategy, seed, keep_result=True)
                assert m.success
                judged = {(shape, rows) for inside, shape, rows in calls
                          if not inside}
                decoded = [(shape, rows) for inside, shape, rows in calls
                           if inside]
                assert len(decoded) == len(m.plan.columns)
                assert {rows for _, rows in decoded} == {
                    tuple(sorted(column)) for column in m.plan.columns}
                assert all(list(rows) == sorted(rows) for _, rows in decoded)
                assert set(decoded) <= judged
                unsorted_columns += sum(column != sorted(column)
                                        for column in m.plan.columns)
                want = convolve_direct(*episode_task(scn, seed))
                err = np.max(np.abs(m.result - want)) / np.max(np.abs(want))
                assert err < 1e-6, (preset, strategy, seed, err)
    # Arrival order differs from row order, so sorting is exercised.
    assert unsorted_columns


def test_paired_seed_same_straggler_draws():
    scn = benchmark_scenario(2).replace(straggler_ratio=0.5)
    outs = [run_episode(scn, strat, 33, keep_result=False)
            for strat in ("uncoded", "traditional", "dynamic")]
    assert len({m.n_stragglers for m in outs}) == 1


def test_outcome_reports_per_worker_totals():
    scn = benchmark_scenario(1)
    m = run_episode(scn, "uncoded", 2, keep_result=False)
    assert sum(m.per_worker_results.values()) == m.pieces_dispatched
