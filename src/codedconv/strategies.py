"""Dispatch strategies for distributing one long convolution over workers.

Three strategies share the same engine interface:

* uncoded: both operands are chunked and every chunk pair is assigned to
  exactly one worker, so every worker must answer.
* traditional: one operand is erasure-coded up front with a fixed number
  of redundant rows, so the fastest subset of workers suffices.
* dynamic: coded pieces are cut on demand and paced per worker by an
  online estimate of its turnaround, so redundancy adapts to observed
  behaviour instead of being fixed in advance.  With m pieces and a
  budget of encoding rows, rows go out in the order m, m-1, ..., 1, then
  m+1, ..., budget-1, then 0: a stack of rows 0..m, topped up with a
  fresh row whenever it is about to empty.

All three run one episode loop, `_run`, and differ only in how they
dispatch.  They schedule from the operand lengths alone and never see the
operands: a successful outcome's `plan.assemble(a, x)` turns them into the
convolution.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .coding import (
    DecodeFailure,
    as_vector,
    check_decodable,
    convolve_fft,
    make_encoding_matrix,
    mds_decode,
    mds_encode,
    overlap_add,
    partition,
    shortest_piece,
)

# Stack budget headroom for the dynamic strategy: enough fresh rows that
# pacing alone never starves the stack before the horizon does.
_MIN_EXTRA_ROWS = 64
_EXTRA_ROWS_PER_WORKER = 8
# Default piece-count target when no piece length is configured; 16 pieces
# keeps the real-valued decode well inside its float64 conditioning range.
_DEFAULT_PIECE_TARGET = 16
# Relative margin by which `settle_chunk_length`'s bound must beat the
# slack at the longest length: far wider than the rounding of `select_s`'s
# float scores, so a settled pick is always the scan's argmax.
_SETTLE_MARGIN = 1e-9
# Largest |log| of a factor mu**alpha, work**alpha or their ratio at which
# `settle_chunk_length` settles a pick: e**600 lies well inside float64's
# normal range (about e**+-708), so there no score of `select_s`'s scan
# over- or underflows and its rounding is far below the margin.
_LOG_RANGE = 600.0


@dataclass
class Plan:
    """Which results a successful episode decodes (see `assemble`).

    The coded operand (x when `coded_is_x`, else a) is cut into pieces of
    `coded_length` and the other one into pieces of `other_length`.
    Result (i, j) is row i of the code's `matrix` applied to the coded
    pieces, convolved with piece j of the other operand; `columns[j]`
    lists the rows i of column j in arrival order, and `assemble` decodes
    them in ascending row order, as `_run` judged their (shape, row set).
    `lengths` is (len(a), len(x)); `code` is the Vandermonde code's (rows,
    cols) shape, or None for the identity.  `shape` is the only part `_run`
    reads; `matrix` is built when `assemble` reads it, so an episode that
    keeps no result builds none.
    """

    lengths: tuple[int, int]
    coded_is_x: bool
    coded_length: int
    other_length: int
    code: tuple[int, int] | None
    columns: list[list[int]]

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols) of `matrix`: the code's, or the identity's."""
        if self.code is None:
            pieces = _pieces(self.lengths[self.coded_is_x], self.coded_length)
            return pieces, pieces
        return self.code

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The shared code matrix, or an identity of the piece count."""
        if self.code is None:
            return np.eye(self.shape[0])
        return make_encoding_matrix(*self.code)

    def assemble(self, a, x) -> np.ndarray:
        """Encode, convolve, decode and overlap-add the full convolution."""
        a = as_vector(a)
        x = as_vector(x)
        if (len(a), len(x)) != self.lengths:
            raise ValueError(f"operand lengths {(len(a), len(x))} differ from "
                             f"the scheduled {self.lengths}")
        if self.coded_is_x:
            a, x = x, a
        coded = partition(a, self.coded_length)
        column_length = len(a) + self.other_length - 1
        parts = []
        for piece, rows in zip(partition(x, self.other_length), self.columns):
            results = [(i, convolve_fft(mds_encode(coded, self.matrix, i), piece))
                       for i in sorted(rows)]
            decoded = mds_decode(results, self.matrix)
            parts.append(overlap_add(list(decoded), self.coded_length,
                                     column_length))
        return overlap_add(parts, self.other_length, len(a) + len(x) - 1)


@dataclass
class StrategyOutcome:
    """One episode's record.

    The strategy runner fills the fields up to `plan`.  `completion_time`
    is the arrival time of the last needed result, or the horizon when the
    episode gave up.  `run_episode` sets the rest on the runner's outcome:
    the `strategy` name, the give-up `horizon`, the straggler count, the
    decoded `result` when kept and the `event_log` when collected.
    """

    success: bool
    completion_time: float
    pieces_dispatched: int
    redundancy_used: int
    per_worker_results: dict
    params: dict = field(default_factory=dict)
    plan: Plan | None = None
    strategy: str | None = None
    horizon: float = math.inf
    n_stragglers: int = 0
    result: np.ndarray | None = None
    event_log: list | None = None


def _pieces(n: int, length: int) -> int:
    """Number of pieces of `length` that cover n values."""
    return -(-n // length)


def _check_lengths(n1: int, n2: int) -> None:
    if n1 < 1 or n2 < 1:
        raise ValueError(f"operand lengths must be >= 1, got {n1} and {n2}")


# -- chunk-length selection for the traditional strategy ----------------------


def chunk_score(s, n1: int, n2: int, p: int, mus, coeff: float = 1.0):
    """Expected wasted-work fraction for chunk length s (more negative is worse).

    Combines the worker-count slack of the (p*s/n2 - n1/s + 1) grid term
    with each worker's chance of finishing a chunk of work
    2*coeff*s*log2(2s) in unit time under its shifted-exponential profile,
    given by its mu (`mus`, one per worker) with alpha = 1 / mu.
    `s` may be an array of lengths; the score is then one per length.
    `select_s` maximizes it in magnitude.
    """
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 1):
        raise ValueError("chunk length must be >= 1")
    slack = p * s / n2 - n1 / s + 1.0
    work = 2.0 * coeff * s * np.log2(2.0 * s)
    total = 0.0
    for mu in mus:
        total += slack * (mu / work) ** (1.0 / mu) / p
    return -total


def _feasible(n1: int, n2: int, p: int) -> tuple[int, int]:
    """(lo, hi): the shortest and longest chunk lengths `select_s` may pick."""
    if p < 1:
        raise ValueError("need at least one worker")
    hi = min(n1, n2)
    lo = max(min(hi, math.ceil(math.sqrt(n1 * n2 / p))),
             shortest_piece(max(n1, n2)))
    return lo, hi


@functools.lru_cache(maxsize=256)
def settle_chunk_length(n1: int, n2: int, p: int, mu_low: float,
                        mu_high: float, coeff: float = 1.0) -> int | None:
    """min(n1, n2) when a closed-form bound shows that `select_s` picks it
    for every fleet of p workers with mus in [mu_low, mu_high]; else None.

    With (lo, hi) the feasible range and lo < hi, every length s in
    lo..hi-1 has G(s) <= G(hi) * exp(alpha_max * (log W(hi) - log W(lo))),
    with G and W as in `select_s` and alpha_max = 1 / mu_low the largest
    alpha, and |slack(s)| <= max(|slack(lo)|, |slack(hi-1)|).  So when
    that slack times the factor is below |slack(hi)| by more than the
    relative _SETTLE_MARGIN, the answer is hi.  The comparison is made in
    logs, so no slow fleet overflows it, and only within _LOG_RANGE, where
    the scan's float argmax is exact.  Both the condition and the guard
    only get harder as alpha_max and the largest mu grow, so a fleet that
    settles at its bounds settles for every draw, endpoints included.

    On the preset fleets (mu in [3e6, 6e6]), alpha is about 2.5e-7, so the
    factor is 1 + 3.3e-6 at most: G does no work there, and every preset
    fleet settles.  A slow one, such as mu = 1e-3, whose scores underflow,
    does not, and neither does a pair of lengths with at most one feasible.
    """
    lo, hi = _feasible(n1, n2, p)
    if lo >= hi:
        return None
    log_lo, log_hi = (math.log(2.0 * coeff * s * math.log2(2.0 * s))
                      for s in (lo, hi))
    # lo >= sqrt(n1*n2/p) here, so every |slack| on lo..hi is at least 1.
    slack_lo, slack_below, slack_hi = (abs(p * s / n2 - n1 / s + 1.0)
                                       for s in (lo, hi - 1, hi))
    alpha = 1.0 / mu_low        # the largest alpha, as alpha = 1 / mu
    log_range = alpha * (max(-math.log(mu_low), math.log(mu_high))
                         + max(abs(log_lo), abs(log_hi)))
    if log_range <= _LOG_RANGE and (
            math.log(slack_hi) - math.log(max(slack_lo, slack_below))
            > alpha * (log_hi - log_lo) + _SETTLE_MARGIN):
        return hi
    return None


def select_s(n1: int, n2: int, p: int, mus,
             coeff: float = 1.0) -> int | None:
    """Chunk length maximizing |chunk_score| over the feasible range.

    Feasible lengths run from ceil(sqrt(n1*n2/p)) (enough chunk pairs for
    every worker) up to min(n1, n2), and must cut max(n1, n2) into at most
    MAX_SQUARE_PIECES pieces, the cap on a coded column's piece count.
    Ties pick the smallest length; None when no length is feasible.

    |chunk_score(s)| is |slack(s)| * G(s): slack = p*s/n2 - n1/s + 1
    strictly increases in s, and G = sum((mu / work)**(1 / mu)) / p, over
    the workers' `mus`, is positive and falls as the work
    W(s) = 2*coeff*s*log2(2s) grows.
    Every feasible length is scored as one array.  On a slow fleet a
    factor of G may round to 0 or inf, and lengths that round alike tie.
    """
    lo, hi = _feasible(n1, n2, p)
    if lo >= hi:
        return hi if lo == hi else None
    with np.errstate(over="ignore", under="ignore"):
        scores = np.abs(chunk_score(np.arange(lo, hi + 1), n1, n2, p,
                                    mus, coeff))
    return lo + int(np.argmax(scores))


# -- the episode loop ----------------------------------------------------------


def _run(plan: Plan, eng, horizon: float, params: dict,
         react=None) -> StrategyOutcome:
    """Count and record results until every column of `plan` is full.

    Result row k is pair divmod(k, ncols) = (row i, column j), and row i
    is recorded in `plan.columns[j]` unless that column is full already.
    A column is full at as many rows as the matrix has columns; for a
    Vandermonde code the row that fills it runs `check_decodable`.  The
    identity needs no check: its m-row subsets are permutations, rcond 1.

    The episode fails at the horizon, when the queue drains, or when a
    full column does not decode.  `react(ev)`, if given, sees every event
    that did not end it.  The outcome's `per_worker_results` is the dict
    of popped results by worker; a worker with none has no entry.
    """
    columns, code = plan.columns, plan.code
    ncols, m = len(columns), plan.shape[1]
    open_columns = ncols
    per_worker = {}
    for ev in eng.events(until=horizon):
        if ev.kind == "result_arrives":
            per_worker[ev.worker] = per_worker.get(ev.worker, 0) + 1
            i, j = divmod(ev.row, ncols)
            rows = columns[j]
            if len(rows) < m:
                rows.append(i)
                if len(rows) == m:
                    if code is not None:
                        try:
                            check_decodable(*code, rows)
                        except DecodeFailure:
                            # Numerically unusable system: count the episode
                            # as failed rather than aborting the experiment.
                            break
                    open_columns -= 1
                    if not open_columns:
                        return StrategyOutcome(True, ev.time, eng.dispatched, 0,
                                               per_worker, params, plan)
        if react is not None:
            react(ev)
    # Unfinished episodes are charged the full horizon (inf when uncapped).
    return StrategyOutcome(False, horizon, eng.dispatched, 0, per_worker,
                           params)


# -- fixed codes: uncoded and traditional ---------------------------------------


def _run_fixed_code(plan: Plan, eng, horizon: float,
                    params: dict) -> StrategyOutcome:
    """Send pair k = (row i, column j), row-major, to roster[k % len(roster)].

    Everything goes out at t=0 and nothing reacts to what comes back; with
    no worker on the roster nothing goes out and the episode fails.
    """
    roster = eng.initial
    s = plan.coded_length
    load_pair = (s, s)
    if roster:
        for k in range(plan.shape[0] * len(plan.columns)):
            eng.send(roster[k % len(roster)], k, 2 * s, load_pair)
    return _run(plan, eng, horizon, params)


def run_uncoded(n1: int, n2: int, eng,
                horizon: float = math.inf) -> StrategyOutcome:
    """Chunk both operands and assign every chunk pair to one worker.

    This is the fixed code whose matrix is the identity: no redundancy, so
    the episode succeeds only if every pair comes back.
    """
    _check_lengths(n1, n2)
    s = max(1, round(math.sqrt(n1 * n2 / eng.n_workers)))
    rows, ncols = _pieces(n1, s), _pieces(n2, s)
    params = {"s": s, "rows": rows, "columns": ncols}
    plan = Plan(lengths=(n1, n2), coded_is_x=False, coded_length=s,
                other_length=s, code=None, columns=[[] for _ in range(ncols)])
    return _run_fixed_code(plan, eng, horizon, params)


def run_traditional_coded(n1: int, n2: int, eng, horizon: float = math.inf,
                          s: int | None = None) -> StrategyOutcome:
    """Erasure-code one operand's chunks with fixed up-front redundancy.

    Convolution commutes, so the longer operand is the one that gets
    encoded; with the score-optimal chunk length that leaves a single
    chunk of the short operand and the whole worker budget goes into
    redundant rows of the long one.  When no chunk length can decode (see
    select_s) the episode fails without a send.
    Without an explicit `s`, the chunk length is `select_s`'s answer on the
    episode's mus (`eng.profiles`).  Where the fleet's mu range settles it
    (`settle_chunk_length`, kept per fleet), no episode scans.
    """
    _check_lengths(n1, n2)
    lengths = (n1, n2)
    swapped = n2 > n1
    if swapped:
        n1, n2 = n2, n1
    p = eng.n_workers
    if s is None:
        fleet = eng.fleet
        s = (settle_chunk_length(n1, n2, p, fleet.mu_low, fleet.mu_high,
                                 fleet.compute_coeff)
             or select_s(n1, n2, p, eng.profiles, fleet.compute_coeff))
        if s is None:
            return StrategyOutcome(False, horizon, 0, 0, {},
                                   {"s": None, "swapped": swapped})
    elif s < 1:
        raise ValueError(f"chunk length s must be >= 1, got {s}")
    pieces, ncols = _pieces(n1, s), _pieces(n2, s)
    rows = max(pieces, p // ncols)
    params = {"s": s, "pieces": pieces, "rows": rows, "columns": ncols,
              "swapped": swapped}
    plan = Plan(lengths=lengths, coded_is_x=swapped, coded_length=s,
                other_length=s, code=(rows, pieces),
                columns=[[] for _ in range(ncols)])
    return _run_fixed_code(plan, eng, horizon, params)


# -- dynamic coded --------------------------------------------------------------


class _WorkerStats:
    """One worker's `DispatchEstimator` state.

    `count` results are back; the latest arrived at `t_recv` after a round
    trip `rtt`, and its compute finished at the estimated `t_finish`.
    `idle` is the idle time booked so far, `in_flight` the pieces out, and
    `pending` the idle increment to book at the next result.  `t_send` is
    the latest send, and `interval` the dispatch interval set at the
    latest result, None before the first.
    """

    __slots__ = ("count", "t_recv", "t_finish", "idle", "in_flight",
                 "pending", "rtt", "t_send", "interval")

    def __init__(self):
        self.count = self.in_flight = 0
        self.t_recv = self.t_finish = self.idle = self.pending = 0.0
        self.rtt = self.t_send = 0.0
        self.interval = None


class DispatchEstimator:
    """Per-worker turnaround estimate from master-visible timestamps only.

    Every piece carries `n_in` values out and `n_out` back.  For each
    returned piece the worker's compute-finish instant is placed inside
    the observed round trip in proportion to that payload split:
    t_finish = t_recv - share * rtt, share = n_out / (n_in + n_out).  The
    worker's accumulated idle time grows only for a dispatch made while
    it has no outstanding piece (with work queued it cannot go idle
    before the new piece lands); the increment is the gap between
    finishing the previous piece and the new piece reaching it, which in
    master-side terms is rtt - (t_recv_prev - t_send_new), never negative
    because the send follows the previous result.  Each increment is
    booked when that piece's own result returns, so the accumulator never
    runs ahead of t_finish.  The expected per-piece time is then
    (t_finish_last - idle_total) / results, and the dispatch interval is
    the smaller of that and the last whole-service time t_recv - t_sent,
    falling back to the service time when the expectation is not
    positive.

    Only a result changes the interval, so `record_result` sets it once
    and `interval` reads it.  `stats[worker]` is the worker's
    `_WorkerStats`; a scheduler may read its `interval` and `t_send`
    there, and writes nothing.
    """

    def __init__(self, n_in: int, n_out: int):
        self._share = n_out / (n_in + n_out)
        self.stats: dict[int, _WorkerStats] = {}

    def record_send(self, worker: int, t_send: float) -> None:
        # A worker's record is made at its first send, which precedes its
        # results.
        st = self.stats.get(worker)
        if st is None:
            st = self.stats[worker] = _WorkerStats()
        if not st.in_flight and st.count:
            st.pending = st.rtt - (st.t_recv - t_send)
        st.in_flight += 1
        st.t_send = t_send

    def record_result(self, worker: int, t_sent: float, t_recv: float,
                      rtt: float) -> None:
        # Every result follows its own record_send, so a piece is in flight.
        st = self.stats[worker]
        count = st.count = st.count + 1
        st.in_flight -= 1
        idle = st.idle = st.idle + st.pending
        st.pending = 0.0
        t_finish = st.t_finish = t_recv - self._share * rtt
        service = t_recv - t_sent
        st.rtt = rtt
        st.t_recv = t_recv
        expected = (t_finish - idle) / count
        st.interval = service if expected <= 0.0 else min(service, expected)

    def interval(self, worker: int) -> float | None:
        """Estimated send-to-send spacing; None before the first result."""
        st = self.stats.get(worker)
        return None if st is None else st.interval


def default_piece_length(n2: int, p: int) -> int:
    """Piece length giving min(2p, 16) pieces; decode stays well conditioned."""
    target = min(2 * p, _DEFAULT_PIECE_TARGET)
    return max(1, math.ceil(n2 / target))


def run_dynamic(n1: int, n2: int, eng, horizon: float = math.inf,
                b: int | None = None) -> StrategyOutcome:
    """Cut coded pieces on demand and pace each worker by its own estimate.

    Rows go out in the stack order of the module docstring, so redundancy
    grows only as fast as results fail to arrive.  Every worker gets one
    piece up front, then another one per estimated turnaround interval,
    re-checked via wakeups; a worker that joins late gets one at once, and
    one that departs gets no more.
    """
    _check_lengths(n1, n2)
    p = eng.n_workers
    if b is None:
        b = default_piece_length(n2, p)
    elif b < 1:
        raise ValueError(f"piece length b must be >= 1, got {b}")
    m = _pieces(n2, b)
    budget = m + max(_MIN_EXTRA_ROWS, _EXTRA_ROWS_PER_WORKER * p)
    plan = Plan(lengths=(n1, n2), coded_is_x=True, coded_length=b,
                other_length=n1, code=(budget, m), columns=[[]])
    params = {"b": b, "pieces": m, "budget": budget}
    order = [*range(m, 0, -1), *range(m + 1, budget), 0]
    est = DispatchEstimator(b, n1 + b - 1)
    stats = est.stats
    live = set(eng.initial)
    load_pair = (n1, b)

    def dispatch(worker: int, now: float) -> bool:
        if eng.dispatched == budget:
            return False
        est.record_send(worker, now)
        eng.send(worker, order[eng.dispatched], b, load_pair)
        return True

    def react(ev) -> None:
        worker, kind = ev.worker, ev.kind
        if kind == "result_arrives":
            est.record_result(worker, ev.t_sent, ev.time, ev.rtt)
        elif kind == "worker_leaves":
            live.discard(worker)
            return
        elif kind == "worker_joins":
            live.add(worker)
            dispatch(worker, eng.now)
            return
        # After a result or a wakeup: send now if the worker's next piece
        # is due, else book a wakeup for when it is.  Either one follows a
        # recorded result of the worker, so its interval is known.
        if worker not in live:
            return
        st = stats[worker]
        interval = st.interval
        now, due = eng.now, st.t_send + interval
        if now >= due:
            if dispatch(worker, now):
                eng.schedule_wakeup(now + interval, worker)
        else:
            eng.schedule_wakeup(due, worker)

    for worker in sorted(live):
        dispatch(worker, eng.now)
    outcome = _run(plan, eng, horizon, params, react)
    # The stack's spare row 0 plus one per fresh row sent: every dispatch
    # past the m-th sends one until rows m+1..budget-1 are out.
    outcome.redundancy_used = 1 + min(max(eng.dispatched - m, 0), budget - 1 - m)
    return outcome


STRATEGIES = {
    "uncoded": run_uncoded,
    "traditional": run_traditional_coded,
    "dynamic": run_dynamic,
}
