"""Convolution, block partitioning, and real-field erasure coding primitives.

The distribution strategies split long vectors into fixed-length pieces,
convolve pieces on remote workers, and reassemble the full product with
overlap-add.  The coded strategies additionally mix pieces through a
Vandermonde matrix so that any `cols` returned combinations suffice to
recover the originals (an MDS property over the reals).

Evaluation points for the Vandermonde rows are Chebyshev nodes taken in a
low-discrepancy (bit-reversed) order.  Any prefix of the row sequence is
then spread across (-1, 1), which keeps the decode solve well conditioned
when rows are consumed in dispatch order.  Real-field decoding still loses
precision as the piece count grows; with float64 it is reliable up to
roughly 16 pieces and degrades sharply past ~24, which is why the shipped
scenario defaults keep piece counts at or below 16.
"""

from dataclasses import dataclass

import numpy as np
from scipy import fft as _sfft
from scipy.linalg import lapack as _lapack
from scipy.linalg import lu_factor, lu_solve


class InsufficientResults(Exception):
    """Fewer coded results than unknowns; decoding cannot proceed."""


class DecodeFailure(Exception):
    """The decode system is singular or too ill conditioned to trust."""


# Reciprocal condition number below which a decode is refused outright.
RCOND_LIMIT = 1e-12
# Relative mismatch allowed when re-encoding a held-out row after decode.
DECODE_GUARD_REL = 1e-4
# Largest m whose square make_encoding_matrix(m, m) system passes RCOND_LIMIT.
MAX_SQUARE_PIECES = 31


def as_vector(values) -> np.ndarray:
    """Validate and return `values` as a 1-D float64 array of length >= 1."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError("vector must have at least one element")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector elements must be finite")
    return arr


def convolve_direct(a, x) -> np.ndarray:
    """Linear convolution by direct summation, output length n1 + n2 - 1.

    Time-domain shift-and-accumulate; serves as the reference
    implementation that the FFT path is checked against.
    """
    a = as_vector(a)
    x = as_vector(x)
    # Accumulate shifted copies of the longer vector, scaled by the shorter.
    if len(a) > len(x):
        a, x = x, a
    out = np.zeros(len(a) + len(x) - 1)
    for i, coeff in enumerate(a):
        out[i:i + len(x)] += coeff * x
    return out


def convolve_fft(a, x) -> np.ndarray:
    """Linear convolution via real FFT; same contract as convolve_direct."""
    a = as_vector(a)
    x = as_vector(x)
    n = len(a) + len(x) - 1
    nfft = _sfft.next_fast_len(n, real=True)
    spec = _sfft.rfft(a, nfft) * _sfft.rfft(x, nfft)
    return _sfft.irfft(spec, nfft)[:n]


@dataclass
class Partition:
    """A vector split into equal-length pieces, zero-padded at the tail."""

    pieces: np.ndarray          # shape (count, piece_length)
    piece_length: int
    original_length: int
    pad_count: int

    @property
    def count(self) -> int:
        return self.pieces.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Concatenate the pieces and trim the padding."""
        return self.pieces.reshape(-1)[:self.original_length]


def partition(values, piece_length: int) -> Partition:
    """Split `values` into ceil(n / piece_length) zero-padded pieces."""
    vec = as_vector(values)
    if not isinstance(piece_length, (int, np.integer)) or piece_length < 1:
        raise ValueError(f"piece_length must be a positive integer, got {piece_length!r}")
    piece_length = int(piece_length)
    count = -(-len(vec) // piece_length)
    pad = count * piece_length - len(vec)
    padded = np.concatenate([vec, np.zeros(pad)])
    return Partition(
        pieces=padded.reshape(count, piece_length),
        piece_length=piece_length,
        original_length=len(vec),
        pad_count=pad,
    )


def _radical_inverse(i: int) -> float:
    """Base-2 radical inverse of a non-negative integer (van der Corput)."""
    f, r = 0.5, 0.0
    while i:
        if i & 1:
            r += f
        i >>= 1
        f *= 0.5
    return r


def encoding_points(count: int, budget: int | None = None) -> np.ndarray:
    """Chebyshev nodes for a `budget`-point grid, in bit-reversed order.

    Returns the first `count` points.  The reordering matters: consuming
    the natural Chebyshev order from a large budget yields clustered
    (numerically near-coincident) prefixes, while the bit-reversed order
    keeps every prefix spread over (-1, 1).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    budget = max(count, budget or count)
    idx = np.arange(1, budget + 1)
    nodes = np.cos(np.pi * (2 * idx - 1) / (2 * budget))
    keys = np.array([_radical_inverse(i) for i in range(budget)])
    order = np.argsort(keys, kind="stable")
    return nodes[order][:count]


@dataclass
class EncodingMatrix:
    """Vandermonde entries[i, j] = points[i] ** j; identity code: points=None."""

    entries: np.ndarray         # shape (rows, cols)
    points: np.ndarray | None   # shape (rows,); None for the identity code

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def make_encoding_matrix(rows: int, cols: int, points=None,
                         budget: int | None = None) -> EncodingMatrix:
    """Build a rows x cols Vandermonde matrix over distinct real points.

    Distinct points make every cols x cols row-submatrix invertible, so any
    `cols` coded results determine the original pieces.  By default the
    points come from encoding_points(rows, budget); callers may supply
    explicit points instead.
    """
    if cols < 1:
        raise ValueError("cols must be >= 1")
    if rows < 1:
        raise ValueError("rows must be >= 1")
    if points is None:
        pts = encoding_points(rows, budget)
    else:
        pts = np.asarray(points, dtype=np.float64)
        if pts.shape != (rows,):
            raise ValueError(f"expected {rows} points, got shape {pts.shape}")
        if len(np.unique(pts)) != rows:
            raise ValueError("evaluation points must be distinct")
    entries = np.vander(pts, cols, increasing=True)
    return EncodingMatrix(entries=entries, points=pts)


@dataclass
class CodedPiece:
    """One encoded combination of pieces, tagged with its matrix row."""

    row_index: int
    values: np.ndarray


def _pieces_array(pieces) -> np.ndarray:
    arr = pieces.pieces if isinstance(pieces, Partition) else np.asarray(pieces, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("pieces must form a non-empty 2-D array")
    return arr


def mds_encode(pieces, matrix: EncodingMatrix, row_index: int) -> CodedPiece:
    """Combine pieces with one matrix row: sum_j entries[row, j] * piece[j]."""
    arr = _pieces_array(pieces)
    if arr.shape[0] != matrix.cols:
        raise ValueError(f"matrix has {matrix.cols} cols but {arr.shape[0]} pieces given")
    if not 0 <= row_index < matrix.rows:
        raise ValueError(f"row_index {row_index} out of range for {matrix.rows} rows")
    return CodedPiece(row_index=int(row_index), values=matrix.entries[row_index] @ arr)


def decode_factors(matrix: EncodingMatrix, rows) -> tuple:
    """LU of matrix `rows`; DecodeFailure if singular or rcond < RCOND_LIMIT."""
    sub = matrix.entries[list(rows)]
    try:
        lu, piv = lu_factor(sub)
    except Exception as exc:  # LinAlgError on exactly singular input
        raise DecodeFailure(f"singular decode system: {exc}") from exc
    # dgecon with norm="1" needs the 1-norm: the largest column sum.
    anorm = np.abs(sub).sum(axis=0).max()
    rcond = _lapack.dgecon(lu, anorm, norm="1")[0]
    if not np.isfinite(rcond) or rcond < RCOND_LIMIT:
        raise DecodeFailure(
            f"decode system too ill conditioned (rcond={rcond:.3e}); "
            "reduce the piece count or use better-spread points")
    return lu, piv


def mds_decode(results, matrix: EncodingMatrix) -> np.ndarray:
    """Recover the original pieces from >= cols coded results.

    The first `cols` results (in the order given) drive the linear solve;
    any extra results are held out and re-encoded from the recovered pieces
    as a consistency check.  Raises InsufficientResults when fewer than
    `cols` results are supplied and DecodeFailure when the system is
    singular, ill conditioned beyond RCOND_LIMIT, or fails the held-out
    check at DECODE_GUARD_REL.
    """
    results = list(results)
    m = matrix.cols
    if len(results) < m:
        raise InsufficientResults(f"need {m} results, got {len(results)}")
    rows = [int(r.row_index) for r in results]
    if len(set(rows)) != len(rows):
        raise ValueError("coded results must carry distinct row indices")
    for r in rows:
        if not 0 <= r < matrix.rows:
            raise ValueError(f"row index {r} out of range for {matrix.rows} rows")
    lengths = {len(r.values) for r in results}
    if len(lengths) != 1:
        raise ValueError("coded results must all have the same length")

    rhs = np.stack([as_vector(r.values) for r in results[:m]])
    recovered = lu_solve(decode_factors(matrix, rows[:m]), rhs)

    for extra in results[m:]:
        predicted = matrix.entries[extra.row_index] @ recovered
        scale = max(np.abs(extra.values).max(), 1.0)
        mismatch = np.abs(predicted - extra.values).max() / scale
        if mismatch > DECODE_GUARD_REL:
            raise DecodeFailure(
                f"held-out row {extra.row_index} mismatch {mismatch:.3e} "
                f"exceeds {DECODE_GUARD_REL:.0e}")
    return recovered


def overlap_add(partials, shift: int, total_length: int) -> np.ndarray:
    """Sum equal-length partials, partial j shifted right by j * shift.

    The result is truncated or zero-extended to total_length.  Used to
    reassemble a full convolution from piecewise products: if x was split
    into pieces of length b then a * x = sum_j shift(a * x_j, j * b).
    """
    parts = [as_vector(p) for p in partials]
    if not parts:
        raise ValueError("need at least one partial")
    plen = len(parts[0])
    if any(len(p) != plen for p in parts):
        raise ValueError("partials must all have the same length")
    if not isinstance(shift, (int, np.integer)) or shift < 1:
        raise ValueError(f"shift must be a positive integer, got {shift!r}")
    if not isinstance(total_length, (int, np.integer)) or total_length < 1:
        raise ValueError(f"total_length must be a positive integer, got {total_length!r}")
    out = np.zeros(int(total_length))
    for j, p in enumerate(parts):
        start = j * int(shift)
        if start >= total_length:
            break
        stop = min(start + plen, int(total_length))
        out[start:stop] += p[:stop - start]
    return out
