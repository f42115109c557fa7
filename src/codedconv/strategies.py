"""Dispatch strategies for distributing one long convolution over workers.

Three strategies share the same engine interface:

* uncoded: both operands are chunked and every chunk pair is assigned to
  exactly one worker, so every worker must answer.
* traditional: one operand is erasure-coded up front with a fixed number
  of redundant rows, so the fastest subset of workers suffices.
* dynamic: coded pieces are cut on demand from a stack and paced per
  worker by an online estimate of its turnaround, so redundancy adapts
  to observed behaviour instead of being fixed in advance.

Strategies schedule from the operand lengths alone and never see the
operands.  Each returns a StrategyOutcome; completion_time is the arrival
time of the last needed result, or the horizon when the episode gave up.
A successful outcome carries a Plan, and `plan.assemble(a, x)` turns the
operands into the convolution those results would decode to.
"""

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .coding import (
    MAX_SQUARE_PIECES,
    CodedPiece,
    DecodeFailure,
    EncodingMatrix,
    as_vector,
    convolve_fft,
    decode_factors,
    make_encoding_matrix,
    mds_decode,
    mds_encode,
    overlap_add,
    partition,
)

# Stack budget headroom for the dynamic strategy: enough fresh rows that
# pacing alone never starves the stack before the horizon does.
_MIN_EXTRA_ROWS = 64
_EXTRA_ROWS_PER_WORKER = 8
# Default piece-count target when no piece length is configured; 16 pieces
# keeps the real-valued decode well inside its float64 conditioning range.
_DEFAULT_PIECE_TARGET = 16


@dataclass
class Plan:
    """Which results a successful episode decodes (see `assemble`).

    The coded operand (x when `coded_is_x`, else a) is cut into pieces of
    `coded_length` and the other one into pieces of `other_length`.
    Result (i, j) is row i of `matrix` applied to the coded pieces,
    convolved with piece j of the other operand; `columns[j]` lists the
    rows i of column j in arrival order.  `lengths` is (len(a), len(x)).
    """

    lengths: tuple[int, int]
    coded_is_x: bool
    coded_length: int
    other_length: int
    matrix: EncodingMatrix
    columns: list[list[int]]

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
        other = partition(x, self.other_length)
        column_length = coded.original_length + other.piece_length - 1
        parts = []
        for piece, rows in zip(other.pieces, self.columns):
            results = [CodedPiece(i, convolve_fft(
                mds_encode(coded, self.matrix, i).values, piece)) for i in rows]
            decoded = mds_decode(results, self.matrix)
            parts.append(overlap_add(list(decoded), coded.piece_length,
                                     column_length))
        return overlap_add(parts, other.piece_length,
                           coded.original_length + other.original_length - 1)


@dataclass
class StrategyOutcome:
    success: bool
    completion_time: float
    pieces_dispatched: int
    redundancy_used: int
    per_worker_results: dict
    params: dict = field(default_factory=dict)
    plan: Plan | None = None


def _failed(horizon, dispatched, redundancy, per_worker, params) -> StrategyOutcome:
    # Unfinished episodes are charged the full horizon (inf when uncapped).
    return StrategyOutcome(False, horizon, dispatched, redundancy,
                           dict(per_worker), params)


def _pieces(n: int, length: int) -> int:
    """Number of pieces of `length` that cover n values."""
    return -(-n // length)


def _check_lengths(n1: int, n2: int) -> None:
    if n1 < 1 or n2 < 1:
        raise ValueError(f"operand lengths must be >= 1, got {n1} and {n2}")


# -- chunk-length selection for the traditional strategy ----------------------


def chunk_score(s, n1: int, n2: int, p: int, profiles, coeff: float = 1.0):
    """Expected wasted-work fraction for chunk length s (more negative is worse).

    Combines the worker-count slack of the (p*s/n2 - n1/s + 1) grid term
    with each worker's chance of finishing a chunk of work
    2*coeff*s*log2(2s) in unit time under its shifted-exponential profile.
    `s` may be an array of lengths; the score is then one per length.
    """
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 1):
        raise ValueError("chunk length must be >= 1")
    slack = p * s / n2 - n1 / s + 1.0
    work = 2.0 * coeff * s * np.log2(2.0 * s)
    total = 0.0
    for prof in profiles:
        total += slack * (prof.mu ** prof.alpha) / (p * work ** prof.alpha)
    return -total


def select_s(n1: int, n2: int, p: int, profiles,
             coeff: float = 1.0) -> int | None:
    """Chunk length maximizing |chunk_score| over the feasible range.

    Feasible lengths run from ceil(sqrt(n1*n2/p)) (enough chunk pairs for
    every worker) up to min(n1, n2), and must cut max(n1, n2) into at most
    MAX_SQUARE_PIECES pieces, past which no coded column decodes.  Ties
    pick the smallest length; None when no length is feasible.
    """
    if p < 1:
        raise ValueError("need at least one worker")
    hi = min(n1, n2)
    lo = max(min(hi, math.ceil(math.sqrt(n1 * n2 / p))),
             _pieces(max(n1, n2), MAX_SQUARE_PIECES))
    if lo > hi:
        return None
    scores = np.abs(chunk_score(np.arange(lo, hi + 1), n1, n2, p, profiles, coeff))
    return lo + int(np.argmax(scores))


# -- fixed codes: uncoded and traditional ---------------------------------------


def _run_fixed_code(plan: Plan, eng, horizon: float,
                    params: dict) -> StrategyOutcome:
    """Send pair k = (row i, column j), row-major, to roster[k % len(roster)].

    `plan.columns` starts empty.  Column j is done when `matrix.cols` of its
    rows are back and their decode system passes decode_factors; the
    episode when all columns are.
    """
    s = plan.coded_length
    matrix = plan.matrix
    m = matrix.cols
    columns = plan.columns
    ncols = len(columns)
    n_pairs = matrix.rows * ncols
    per_worker = defaultdict(int)
    roster = eng.initial_roster()
    if not roster:
        return _failed(horizon, 0, 0, per_worker, params)
    for k in range(n_pairs):
        eng.send(roster[k % len(roster)], row=k, n_in=2 * s, n_out=2 * s - 1,
                 load_pair=(s, s))

    for ev in eng.events(until=horizon):
        if ev.kind != "result_arrives":
            continue
        per_worker[ev.worker] += 1
        i, j = divmod(ev.row, ncols)
        rows = columns[j]
        if len(rows) == m:
            continue
        rows.append(i)
        if len(rows) == m:
            try:
                decode_factors(matrix, rows)
            except DecodeFailure:
                # Numerically unusable system: count the episode as failed
                # rather than aborting the whole experiment.
                break
            if all(len(col) == m for col in columns):
                return StrategyOutcome(True, ev.time, n_pairs, 0,
                                       dict(per_worker), params, plan)
    return _failed(horizon, n_pairs, 0, per_worker, params)


def run_uncoded(n1: int, n2: int, eng,
                horizon: float = math.inf) -> StrategyOutcome:
    """Chunk both operands and assign every chunk pair to one worker.

    This is the fixed code whose matrix is the identity: no redundancy, so
    the episode succeeds only if every pair comes back.
    """
    _check_lengths(n1, n2)
    s = max(1, round(math.sqrt(n1 * n2 / eng.n_workers)))
    rows, ncols = _pieces(n1, s), _pieces(n2, s)
    identity = EncodingMatrix(np.eye(rows), points=None)
    params = {"s": s, "rows": rows, "columns": ncols}
    plan = Plan(lengths=(n1, n2), coded_is_x=False, coded_length=s,
                other_length=s, matrix=identity,
                columns=[[] for _ in range(ncols)])
    return _run_fixed_code(plan, eng, horizon, params)


def run_traditional_coded(n1: int, n2: int, eng, horizon: float = math.inf,
                          s: int | None = None) -> StrategyOutcome:
    """Erasure-code one operand's chunks with fixed up-front redundancy.

    Convolution commutes, so the longer operand is the one that gets
    encoded; with the score-optimal chunk length that leaves a single
    chunk of the short operand and the whole worker budget goes into
    redundant rows of the long one.  Each column of chunk pairs decodes
    independently as soon as enough of its rows are back.  When no chunk
    length can decode (see select_s) the episode fails without a send.
    """
    _check_lengths(n1, n2)
    lengths = (n1, n2)
    swapped = n2 > n1
    if swapped:
        n1, n2 = n2, n1
    p = eng.n_workers
    if s is None:
        s = select_s(n1, n2, p, eng.profiles, eng.compute_coeff)
        if s is None:
            return _failed(horizon, 0, 0, {}, {"s": None, "swapped": swapped})
    pieces, ncols = _pieces(n1, s), _pieces(n2, s)
    rows = max(pieces, p // ncols)
    params = {"s": s, "pieces": pieces, "rows": rows, "columns": ncols,
              "swapped": swapped}
    plan = Plan(lengths=lengths, coded_is_x=swapped, coded_length=s,
                other_length=s, matrix=make_encoding_matrix(rows, pieces),
                columns=[[] for _ in range(ncols)])
    return _run_fixed_code(plan, eng, horizon, params)


# -- dynamic coded --------------------------------------------------------------


class DispatchEstimator:
    """Per-worker turnaround estimate from master-visible timestamps only.

    For each returned piece the worker's compute-finish instant is placed
    inside the observed round trip in proportion to the payload split:
    t_finish = t_recv - rtt * n_out / (n_in + n_out).  The worker's
    accumulated idle time grows only for a dispatch made while it has no
    outstanding piece (with work queued it cannot go idle before the new
    piece lands); the increment is the gap between finishing the previous
    piece and the new piece reaching it, which in master-side terms is
    rtt - (t_recv_prev - t_send_new), clamped at zero.  Each increment is
    booked when that piece's own result returns, so the accumulator never
    runs ahead of t_finish.  The expected per-piece time is then
    (t_finish_last - idle_total) / results, and the dispatch interval is
    the smaller of that and the last whole-service time, falling back to
    the service time when the expectation is not yet meaningful.
    """

    def __init__(self):
        self._stats: dict[int, dict] = {}

    def _entry(self, worker: int) -> dict:
        return self._stats.setdefault(worker, {
            "count": 0, "in_flight": 0, "t_recv": None, "t_finish": 0.0,
            "idle": 0.0, "pending_idle": [], "rtt": 0.0, "service": 0.0,
        })

    def record_send(self, worker: int, t_send: float) -> None:
        st = self._entry(worker)
        increment = 0.0
        if st["in_flight"] == 0 and st["t_recv"] is not None:
            increment = max(0.0, st["rtt"] - (st["t_recv"] - t_send))
        st["pending_idle"].append(increment)
        st["in_flight"] += 1

    def record_result(self, worker: int, t_sent: float, t_recv: float,
                      rtt: float, n_in: int, n_out: int) -> None:
        st = self._entry(worker)
        st["count"] += 1
        st["in_flight"] = max(0, st["in_flight"] - 1)
        if st["pending_idle"]:
            st["idle"] += st["pending_idle"].pop(0)
        share = n_out / (n_in + n_out)
        st["t_finish"] = t_recv - share * rtt
        st["service"] = t_recv - t_sent
        st["rtt"] = rtt
        st["t_recv"] = t_recv

    def interval(self, worker: int) -> float | None:
        """Estimated send-to-send spacing; None before the first result."""
        st = self._entry(worker)
        if st["count"] == 0:
            return None
        expected = (st["t_finish"] - st["idle"]) / st["count"]
        if expected <= 0.0:
            return st["service"]
        return min(st["service"], expected)


def default_piece_length(n2: int, p: int) -> int:
    """Piece length giving min(2p, 16) pieces; decode stays well conditioned."""
    target = min(2 * p, _DEFAULT_PIECE_TARGET)
    return max(1, math.ceil(n2 / target))


def run_dynamic(n1: int, n2: int, eng, horizon: float = math.inf,
                b: int | None = None) -> StrategyOutcome:
    """Cut coded pieces on demand and pace each worker by its own estimate.

    A stack of encoding-matrix row indices holds the not-yet-dispatched
    pieces; whenever it is about to empty a fresh redundant row is pushed,
    so redundancy grows only as fast as results fail to arrive.  Every
    worker gets one piece up front, then another one per estimated
    turnaround interval, re-checked via wakeups.
    """
    _check_lengths(n1, n2)
    p = eng.n_workers
    if b is None:
        b = default_piece_length(n2, p)
    m = _pieces(n2, b)
    budget = m + max(_MIN_EXTRA_ROWS, _EXTRA_ROWS_PER_WORKER * p)
    matrix = make_encoding_matrix(budget, m, budget=budget)
    params = {"b": b, "pieces": m, "budget": budget}
    per_worker = defaultdict(int)

    stack = list(range(m + 1))
    next_row = m + 1
    redundancy = 1
    dispatched = 0
    est = DispatchEstimator()
    t_send_last: dict[int, float] = {}
    live = set(eng.initial_roster())

    def pop_row() -> int | None:
        nonlocal next_row, redundancy
        if len(stack) <= 1 and next_row < budget:
            stack.append(next_row)
            next_row += 1
            redundancy += 1
        return stack.pop() if stack else None

    def dispatch(worker: int) -> bool:
        nonlocal dispatched
        row = pop_row()
        if row is None:
            return False
        est.record_send(worker, eng.now)
        t_send_last[worker] = eng.now
        eng.send(worker, row=row, n_in=b, n_out=n1 + b - 1,
                 load_pair=(n1, b))
        dispatched += 1
        return True

    def pace(worker: int) -> None:
        """Send now if the worker's next piece is due, else book a wakeup."""
        if worker not in live:
            return
        interval = est.interval(worker)
        if interval is None:
            return
        due = t_send_last.get(worker, -math.inf) + interval
        if eng.now >= due:
            if dispatch(worker):
                eng.schedule_wakeup(eng.now + interval, worker)
        else:
            eng.schedule_wakeup(due, worker)

    for worker in sorted(live):
        dispatch(worker)

    rows: list[int] = []
    for ev in eng.events(until=horizon):
        if ev.kind == "worker_leaves":
            live.discard(ev.worker)
        elif ev.kind == "worker_joins":
            live.add(ev.worker)
            dispatch(ev.worker)
        elif ev.kind == "wakeup":
            pace(ev.worker)
        elif ev.kind == "result_arrives":
            est.record_result(ev.worker, ev.t_sent, ev.time, ev.rtt,
                              ev.n_in, ev.n_out)
            per_worker[ev.worker] += 1
            if ev.row not in rows:
                rows.append(ev.row)
                if len(rows) == m:
                    try:
                        decode_factors(matrix, rows)
                    except DecodeFailure:
                        break
                    plan = Plan(lengths=(n1, n2), coded_is_x=True,
                                coded_length=b, other_length=n1,
                                matrix=matrix, columns=[rows])
                    return StrategyOutcome(True, ev.time, dispatched, redundancy,
                                           dict(per_worker), params, plan)
            pace(ev.worker)
    return _failed(horizon, dispatched, redundancy, per_worker, params)


STRATEGIES = {
    "uncoded": run_uncoded,
    "traditional": run_traditional_coded,
    "dynamic": run_dynamic,
}
