"""Engine invariants as properties over random fleets and strategies."""

import math
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from codedconv import models
from codedconv.engine import SimEngine
from codedconv.models import Behavior, CommParams, WorkerProfile
from codedconv.strategies import STRATEGIES


class KeyedEngine(SimEngine):
    """SimEngine that records the (time, seq) queue key of each popped event."""

    def __init__(self, *args, **kwargs):
        self.keys = {}
        self.popped = []
        super().__init__(*args, **kwargs)

    def _push(self, time, ev):
        self.keys[id(ev)] = (time, self._seq, ev)
        super()._push(time, ev)

    def events(self, until=math.inf):
        for ev in super().events(until):
            self.popped.append(self.keys[id(ev)][:2])
            yield ev


behaviors = st.one_of(
    st.just(Behavior()),
    st.builds(Behavior, st.just(models.DELAYED),
              factor=st.floats(1.0, 50.0)),
    *(st.builds(Behavior, st.just(kind), time=st.floats(0.0, 0.005))
      for kind in (models.FAILED, models.LEAVES, models.JOINS)),
)


@st.composite
def episodes(draw):
    fleet = draw(st.lists(st.tuples(st.floats(3e6, 6e6), behaviors),
                          min_size=1, max_size=6))
    profiles = [WorkerProfile(mu=mu, alpha=1.0 / mu) for mu, _ in fleet]
    eng = KeyedEngine(profiles, [beh for _, beh in fleet], CommParams(),
                      draw(st.integers(0, 2**32)), collect_log=True)
    runner = STRATEGIES[draw(st.sampled_from(sorted(STRATEGIES)))]
    n1 = draw(st.integers(1, 300))
    n2 = draw(st.integers(1, 300))
    horizon = draw(st.sampled_from([math.inf, 0.002, 0.05]))
    runner(n1, n2, eng, horizon=horizon)
    return eng


def piece_times(eng):
    """(worker, row) -> {log kind: time}, plus each worker's rows in send order."""
    times = defaultdict(dict)
    sent = defaultdict(list)
    for rec in sorted(eng.log, key=lambda r: r.seq):
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
        departs = eng.departure_time(worker)
        for row in rows:
            assert times[worker, row].get("result_arrives", 0.0) <= departs


@fleets
@given(episodes())
def test_events_pop_in_time_then_seq_order(eng):
    assert eng.popped == sorted(eng.popped)
