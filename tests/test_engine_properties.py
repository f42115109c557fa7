"""Engine invariants as properties over random fleets and strategies."""

import itertools
import math
from collections import Counter, defaultdict

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from codedconv import engine
from codedconv.coding import DECODE_ACCURACY, MAX_SQUARE_PIECES, convolve_direct
from codedconv.engine import Draws, SimEngine, run_episode, substream
from codedconv.models import STRAGGLER_MODES, Behavior, CommParams
from codedconv.scenarios import ScenarioConfig
from codedconv.strategies import STRATEGIES
from keys import built_from_key


class KeyedEngine(SimEngine):
    """SimEngine that keeps every event it pops, in pop order; each carries
    its queue key (time, seq)."""

    def __init__(self, *args, **kwargs):
        self.popped = []
        super().__init__(*args, **kwargs)

    def events(self, until=math.inf):
        for ev in super().events(until):
            self.popped.append(ev)
            yield ev


# Departure times; a worker that fails at t=0 is a choice of its own, so
# such workers are common.
DEPARTURES = st.one_of(st.just(math.inf), st.just(0.0), st.floats(0.0, 0.005))
SLOWDOWNS = st.one_of(st.just(1.0), st.floats(1.0, 50.0))


@st.composite
def runs(draw, departures=DEPARTURES, slowdowns=SLOWDOWNS):
    """(engine, outcome) of one strategy run on a random fleet."""
    # Each field is drawn on its own, so a worker may be slowed, join late
    # and depart (even before it joins) in the same episode.
    behaviors = st.builds(
        Behavior,
        slowdown=slowdowns,
        joins=st.one_of(st.just(0.0), st.floats(0.0, 0.005)),
        departs=departures)
    roster = draw(st.lists(behaviors, min_size=1, max_size=6))
    # mu_low < mu_high, so the workers' profiles differ.
    mu_low = draw(st.floats(3e6, 6e6, exclude_max=True))
    fleet = ScenarioConfig(
        name="properties", n1=draw(st.integers(1, 300)),
        n2=draw(st.integers(1, 300)), n_workers=len(roster), mu_low=mu_low,
        mu_high=draw(st.floats(mu_low, 6e6, exclude_min=True)))
    eng = KeyedEngine(Draws(draw(st.integers(0, 2**32)), fleet), roster,
                      collect_log=True)
    runner = STRATEGIES[draw(st.sampled_from(sorted(STRATEGIES)))]
    horizon = draw(st.sampled_from([math.inf, 0.002, 0.05]))
    return eng, runner(fleet.n1, fleet.n2, eng, horizon=horizon)


def episodes():
    """The engine of each of `runs`, after its run."""
    return runs().map(lambda run: run[0])


def piece_times(eng):
    """(worker, row) -> {log kind: time}, plus each worker's rows in send order."""
    times = defaultdict(dict)
    sent = defaultdict(list)
    for rec in eng.log:
        times[rec.worker, rec.row][rec.kind] = rec.time
        if rec.kind == "dispatch":
            sent[rec.worker].append(rec.row)
    return times, sent


fleets = settings(max_examples=40, deadline=None)


@fleets
@given(episodes())
def test_each_piece_is_causal(eng):
    order = ("dispatch", "piece_arrives", "compute_done", "result_arrives")
    times, _ = piece_times(eng)
    for piece in times.values():
        assert list(piece) == list(order[:len(piece)])
        stamps = list(piece.values())
        assert stamps == sorted(stamps)


@fleets
@given(episodes())
def test_each_worker_computes_fifo(eng):
    times, sent = piece_times(eng)
    for worker, rows in sent.items():
        done = [times[worker, row]["compute_done"] for row in rows
                if "compute_done" in times[worker, row]]
        assert done == sorted(done)


@fleets
@given(episodes())
def test_no_result_after_departure(eng):
    times, sent = piece_times(eng)
    for worker, rows in sent.items():
        departs = eng.behaviors[worker].departs
        for row in rows:
            assert times[worker, row].get("result_arrives", 0.0) <= departs


@fleets
@given(episodes())
def test_events_pop_in_time_then_seq_order(eng):
    keys = [(ev.time, ev.seq) for ev in eng.popped]
    assert keys == sorted(keys)


@fleets
@given(episodes())
def test_worker_failing_at_start_is_never_heard_from(eng):
    # No event names a worker that departs at t=0, not even its departure,
    # and a piece sent to it goes no further than its dispatch.
    failed = {w for w, beh in enumerate(eng.behaviors) if beh.departs == 0.0}
    assert not [ev for ev in eng.popped if ev.worker in failed]
    assert {rec.kind for rec in eng.log if rec.worker in failed} <= {"dispatch"}


@fleets
@given(runs())
def test_per_worker_results_count_the_popped_results(run):
    # A plain dict of the results popped per worker: no default factory,
    # and no entry for a worker that returned nothing.
    eng, outcome = run
    popped = Counter(ev.worker for ev in eng.popped
                     if ev.kind == "result_arrives")
    assert type(outcome.per_worker_results) is dict
    assert outcome.per_worker_results == popped
    assert 0 not in outcome.per_worker_results.values()


# Infinitely slow workers, none of whose results ever arrives.
@fleets
@given(runs(slowdowns=st.one_of(st.just(1.0), st.just(math.inf),
                                st.floats(1.0, 50.0))))
def test_nothing_happens_at_t_inf(run):
    eng, outcome = run
    assert all(ev.time < math.inf for ev in eng.popped)
    if outcome.success:
        assert outcome.completion_time < math.inf


# Largest error of a successful episode's convolution, in units of
# eps * kappa_1 * max|a * x|, where kappa_1 is the worst 1-norm condition
# number of the plan's decode systems.  Two sweeps of 12,000 random fleets
# drawn like `runs` (n1 and n2 up to 1,500, up to 8 workers) saw at most 22
# uncoded (FFT rounding at kappa_1 = 1), 9.0 traditional and 4.1 dynamic;
# 64 leaves about 3x headroom.
DECODE_ERROR_K = 64


# Only successful episodes count here, and failures at t=0 make fewer of
# them: with 0.0 among the departures about a third of the runs succeed,
# and Hypothesis's filter health check (50 inputs filtered before 10 pass)
# fails now and then.  So this test draws departures without it.
@fleets
@given(runs(st.one_of(st.just(math.inf), st.floats(0.0, 0.005))),
       st.integers(0, 2**32 - 1))
def test_successful_decode_is_within_its_condition_bound(run, operand_seed):
    _, outcome = run
    assume(outcome.success)
    plan = outcome.plan
    rng = np.random.default_rng(operand_seed)
    a, x = (rng.standard_normal(n) for n in plan.lengths)
    want = convolve_direct(a, x)
    kappa = max(np.linalg.cond(plan.matrix[sorted(rows)], 1)
                for rows in plan.columns)
    bound = DECODE_ERROR_K * np.finfo(float).eps * kappa * np.abs(want).max()
    assert np.abs(plan.assemble(a, x) - want).max() <= bound


@st.composite
def long_columns(draw):
    """(strategy, scenario) whose coded column has 16 to 31 pieces.

    The coded operand is cut by the strategy's configured length: n2 by
    dynamic's b, the longer operand by traditional's s.  Stragglers of any
    mode change which rows arrive first, and so which row sets decode.
    """
    strategy = draw(st.sampled_from(["traditional", "dynamic"]))
    length = draw(st.integers(1, 40))
    coded = (draw(st.integers(16, MAX_SQUARE_PIECES)) * length
             - draw(st.integers(0, length - 1)))
    if strategy == "dynamic":
        n1, n2, knobs = draw(st.integers(1, 300)), coded, {"dynamic_b": length}
    else:
        n1, n2 = coded, draw(st.integers(length, 3 * length))
        knobs = {"traditional_s": length}
    return strategy, ScenarioConfig(
        "long-columns", n1=n1, n2=n2, n_workers=draw(st.integers(1, 8)),
        straggler_ratio=draw(st.sampled_from([0.0, 0.25, 0.5])),
        straggler_mode=draw(st.sampled_from(STRAGGLER_MODES)), **knobs)


@settings(max_examples=40, deadline=None)
@given(long_columns(), st.integers(0, 2**32 - 1))
# The automatic chunk length 32 cuts n1 into a square 31-piece code.
@example(("traditional", ScenarioConfig("custom", n1=992, n2=32, n_workers=1)),
         0)
def test_accepted_decodes_meet_the_decode_accuracy(case, seed):
    strategy, scenario = case
    draws = Draws(seed, scenario)
    metrics = run_episode(scenario, strategy, seed, draws=draws)
    assume(metrics.success)
    want = convolve_direct(*draws.operands)
    error = np.abs(metrics.result - want).max() / np.abs(want).max()
    assert error <= DECODE_ACCURACY


# -- one Draws shared by the episodes of a seed ----------------------------------


@st.composite
def shared_seed_runs(draw):
    """A scenario, a seed and a shuffled grid of (strategy, ratio, b)."""
    n2 = draw(st.integers(1, 120))
    # Slow fleets make episodes span mobility ticks.
    mu_low = draw(st.sampled_from([500.0, 3e6]))
    scenario = ScenarioConfig(
        name="shared", n1=draw(st.integers(1, 120)), n2=n2,
        n_workers=draw(st.integers(1, 5)), mu_low=mu_low,
        mu_high=2 * mu_low,
        straggler_mode=draw(st.sampled_from(STRAGGLER_MODES)),
        delay_factor=draw(st.sampled_from([1.0, 15.0])),
        failure_count_uniform=draw(st.booleans()),
        init_box_m=draw(st.sampled_from([1500.0, 30.0])),
        speed_limit_mps=draw(st.sampled_from([10.0, 0.0, 40.0])),
        comm=CommParams(bandwidth_hz=draw(st.sampled_from([1e6, 2e5]))))
    ratios = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                           min_size=1, max_size=3, unique=True))
    bs = [None, draw(st.integers(1, n2))]
    grid = list(itertools.product(sorted(STRATEGIES), ratios, bs))
    return scenario, draw(st.integers(0, 2**63 - 1)), draw(st.permutations(grid))


def assert_same_episode(shared, private):
    got, want = dict(vars(shared)), dict(vars(private))
    plans = got.pop("plan"), want.pop("plan")
    assert got == want
    assert (plans[0] is None) == (plans[1] is None)
    if plans[0] is not None:
        assert plans[0] == plans[1]
        np.testing.assert_array_equal(plans[0].matrix, plans[1].matrix)


@settings(max_examples=40, deadline=None)
@given(shared_seed_runs())
def test_shared_draws_change_no_episode(run):
    # Whatever order a seed's episodes run in on one Draws, each gives what
    # it gives on a private one: tapes, profiles, behaviours and pilots.
    scenario, seed, grid = run
    draws = Draws(seed, scenario)
    for strategy, ratio, b in grid:
        scn = scenario.replace(straggler_ratio=ratio)
        kwargs = dict(b=b, collect_log=True, keep_result=False)
        assert_same_episode(
            run_episode(scn, strategy, seed, draws=draws, **kwargs),
            run_episode(scn, strategy, seed, **kwargs))


# -- links at the edge of underflow ---------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**63 - 1), st.floats(-220.0, -100.0),
       st.floats(0.0, math.log10(2000.0)).map(lambda e: 10.0 ** e),
       st.sampled_from([0.0, 10.0]), st.integers(1, 4), st.integers(1, 64),
       st.integers(1, 64), st.sampled_from([math.inf, 60.0, 1e4]))
# Dynamic succeeds at 3,565 s, the fixed codes' results come back too late,
# and the static fleet's tapes are read up to the limit.
@example(6942716486964102153, -150.6, 1.1, 0.0, 2, 26, 16, math.inf)
# Every link rate is 0.
@example(1, -200.0, 1000.0, 10.0, 2, 16, 16, math.inf)
def test_links_near_underflow_stop_at_the_clock_limit(seed, rx_offset_dbm, box,
                                                      speed_limit, p, n1, n2,
                                                      horizon):
    # Offsets from -220 to -100 dBm over boxes of 1 to 2000 m put link
    # rates on both sides of the Shannon rate's underflow to 0: results
    # come back within seconds, after most of an hour or never.  Every
    # strategy's clock stops at the limit, no position tape runs past it,
    # and a failed episode is charged its horizon.
    fleet = ScenarioConfig(
        name="underflow", n1=n1, n2=n2, n_workers=p, init_box_m=box,
        speed_limit_mps=speed_limit,
        comm=CommParams(rx_offset_dbm=rx_offset_dbm))
    draws = Draws(seed, fleet)
    for strategy in sorted(STRATEGIES):
        eng = KeyedEngine(draws, [Behavior()] * p)
        outcome = STRATEGIES[strategy](n1, n2, eng, horizon=horizon)
        assert all(ev.time <= engine.CLOCK_LIMIT_S for ev in eng.popped)
        if outcome.success:
            assert outcome.completion_time <= min(horizon, engine.CLOCK_LIMIT_S)
        else:
            assert outcome.completion_time == horizon
    assert all(len(tape) <= engine.CLOCK_LIMIT_S + 1
               for tape in draws.paths.values())


# -- keyed streams drawn through one shared generator ------------------------------

BOX, SPEED_LIMIT = 1500.0, 10.0
TAPE_FLEET = ScenarioConfig("tapes", n1=1, n2=1, n_workers=1, init_box_m=BOX,
                            speed_limit_mps=SPEED_LIMIT)
TAPES = ("position", "compute")


@st.composite
def stream_reads(draw, kinds=(*TAPES, "straggler")):
    """An interleaved list of reads of two or three nodes' streams.

    A read is (node, kind, k): value k of the node's position or compute
    tape, or a count of up to k + 1 stragglers and their choice, drawn in
    one session of the node's straggler stream.
    """
    nodes = draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=3,
                          unique=True))
    return draw(st.lists(st.tuples(st.sampled_from(nodes),
                                   st.sampled_from(kinds),
                                   st.integers(0, 3 * engine._CHUNK)),
                         min_size=1, max_size=24))


def expected(seed, node, kind, k):
    """Read (node, kind, k) from generators built from the keys, in the
    chunks the engine drew before it shared one generator, and stragglers
    by numpy's `integers` and `choice`."""
    chunk = engine._CHUNK
    if kind == "position":
        pos = built_from_key(seed, node, engine._POSITION).uniform(-BOX, BOX, 2)
        velocity = built_from_key(seed, node, engine._VELOCITY)
        path = [pos]
        while len(path) <= k:
            for v in velocity.uniform(-SPEED_LIMIT, SPEED_LIMIT, (chunk, 2)):
                pos = pos + v
                path.append(pos)
        return np.array(path[:k + 1]).tolist()
    if kind == "compute":
        compute = built_from_key(seed, node, engine._COMPUTE)
        chunks = [compute.standard_exponential(chunk)
                  for _ in range(k // chunk + 1)]
        return np.concatenate(chunks)[:k + 1].tolist()
    straggler = built_from_key(seed, node, engine._STRAGGLER)
    count = int(straggler.integers(0, k + 2))
    return count, straggler.choice(k + 1, size=count, replace=False).tolist()


def read(draws, seed, node, kind, k):
    """Read (node, kind, k) through the engine: tapes of `draws`, or the
    engine's straggler draw in a session of a stream opened with `seed`."""
    if kind == "straggler":
        with substream(seed, node, engine._STRAGGLER) as rng:
            next32 = engine._uint32s(rng).__next__
            count = engine._below(next32, k + 2)
            return count, engine._choice(next32, k + 1, count)
    tape = (draws.paths[node] if kind == "position"
            else draws.compute[node])
    if k >= len(tape):
        tape.fill(k)
    return np.array(tape[:k + 1]).tolist()


def tapes(draws):
    held = {("compute", w): list(t) for w, t in draws.compute.items()}
    for node, tape in draws.paths.items():
        held["position", node] = np.array(tape).tolist()
    return held


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), stream_reads())
def test_interleaved_streams_equal_philox_built_from_their_keys(seed, reads):
    # Position pairs, velocity chunks, exponentials past the first chunk and
    # the straggler draw (numpy's integers-then-choice), read in any
    # interleaving through the shared generator, with the keys served from the seed's derived row or, once
    # the rows are dropped, derived one at a time.
    draws = Draws(seed, TAPE_FLEET)
    for i, (node, kind, k) in enumerate(reads):
        if i % 2:
            engine._KEY_ROWS.clear()
        assert read(draws, seed, node, kind, k) == expected(seed, node, kind, k)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**63 - 1), min_size=2, max_size=2, unique=True),
       stream_reads(TAPES), stream_reads(TAPES))
def test_draws_filled_alternately_hold_what_each_holds_alone(seeds, reads_a,
                                                            reads_b):
    reads = reads_a, reads_b
    together = [Draws(seed, TAPE_FLEET) for seed in seeds]
    for pair in itertools.zip_longest(*reads):
        for draws, one in zip(together, pair):
            if one is not None:
                read(draws, draws.seed, *one)
    for draws, own in zip(together, reads):
        alone = Draws(draws.seed, TAPE_FLEET)
        for one in own:
            read(alone, alone.seed, *one)
        assert tapes(draws) == tapes(alone)
