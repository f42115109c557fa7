"""Convolution, block partitioning, and real-field erasure coding primitives.

The distribution strategies split long vectors into fixed-length pieces,
convolve pieces on remote workers, and reassemble the full product with
overlap-add.  The coded strategies additionally mix pieces through a
polynomial code so that any `cols` returned combinations suffice to
recover the originals (an MDS property over the reals).

Codes are Chebyshev-Vandermonde (`make_encoding_matrix`) over
bit-reversed Chebyshev nodes (`encoding_points`).  The Chebyshev basis
keeps the decode well conditioned as the piece count grows, where
monomials lose a digit of rcond about every three pieces (Fahim &
Cadambe, *Numerically Stable Polynomially Coded Computing*): a square
31-piece system has rcond 2.5e-2 in it and 2.4e-12 in the monomial basis.
The one decode check is the reciprocal condition number
(`decode_factors`).  A code is fixed by its shape, so it is built once
(`make_encoding_matrix`), and so is the decode verdict of a (shape, row
set) (`check_decodable`).
"""

import functools

import numpy as np


class DecodeFailure(Exception):
    """The decode system is singular or too ill conditioned to trust."""


# Relative error, against the largest |a * x|, that an accepted decode
# meets.  A decode is off by at most about 64 eps / rcond relative, so
# RCOND_LIMIT (about 1.4e-8) is the rcond below which a decode is refused.
DECODE_ACCURACY = 1e-6
RCOND_LIMIT = 64 * np.finfo(np.float64).eps / DECODE_ACCURACY
# Most pieces a coded column is cut into.  A cap on the piece count, not a
# decode limit: it bounds the automatic and configured chunk and piece
# lengths from below, and so the codes and verdicts a tiny length builds.
MAX_SQUARE_PIECES = 31
# How many codes and decode verdicts are kept.  The bounds keep a long run's
# memory flat: an unbounded verdict memo grows with every new row set.
CODES_KEPT = 64
VERDICTS_KEPT = 1024


def shortest_piece(n: int) -> int:
    """Shortest piece length that cuts n values into at most
    MAX_SQUARE_PIECES pieces, the cap on a coded column's piece count."""
    return -(-n // MAX_SQUARE_PIECES)


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


def _fast_length(n: int) -> int:
    """Smallest 2^i * 3^j * 5^k >= n, a length the real FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # Smallest power of two that lifts p35 to at least n.
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def convolve_fft(a, x) -> np.ndarray:
    """Linear convolution via real FFT; same contract as convolve_direct."""
    a = as_vector(a)
    x = as_vector(x)
    n = len(a) + len(x) - 1
    nfft = _fast_length(n)
    spec = np.fft.rfft(a, nfft) * np.fft.rfft(x, nfft)
    return np.fft.irfft(spec, nfft)[:n]


def partition(values, piece_length: int) -> np.ndarray:
    """Split `values` into ceil(n / piece_length) pieces, zero-padded at the
    tail, as the (count, piece_length) array that `mds_encode` takes."""
    vec = as_vector(values)
    if not isinstance(piece_length, (int, np.integer)) or piece_length < 1:
        raise ValueError(f"piece_length must be a positive integer, got {piece_length!r}")
    piece_length = int(piece_length)
    count = -(-len(vec) // piece_length)
    pad = count * piece_length - len(vec)
    return np.concatenate([vec, np.zeros(pad)]).reshape(count, piece_length)


def encoding_points(count: int) -> np.ndarray:
    """Chebyshev nodes for a `count`-point grid, in bit-reversed order.

    The reordering matters: a prefix of the natural Chebyshev order is
    clustered (numerically near-coincident points), while the bit-reversed
    order keeps every prefix spread over (-1, 1), so the decode stays well
    conditioned when rows are consumed in dispatch order.  Indices follow the
    bit-reversal permutation of the next power of two, skipping those past
    the grid.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    idx = np.arange(1, count + 1)
    nodes = np.cos(np.pi * (2 * idx - 1) / (2 * count))
    order = [0]
    while len(order) < count:
        order = [2 * i for i in order] + [2 * i + 1 for i in order]
    return nodes[[i for i in order if i < count]]


@functools.lru_cache(maxsize=CODES_KEPT)
def make_encoding_matrix(rows: int, cols: int) -> np.ndarray:
    """The rows x cols Chebyshev-Vandermonde matrix over encoding_points(rows).

    Entry (i, j) is T_j(point i).  The Chebyshev basis is the monomial one
    times an invertible triangular matrix, so distinct points still make
    every cols x cols row-submatrix invertible, and any `cols` coded
    results determine the original pieces.  Any other 2-D array, such as
    the identity, serves as a code too.  The matrix is built once per
    shape and shared, so it is read-only.
    """
    if cols < 1:
        raise ValueError("cols must be >= 1")
    if rows < 1:
        raise ValueError("rows must be >= 1")
    matrix = np.polynomial.chebyshev.chebvander(encoding_points(rows), cols - 1)
    matrix.setflags(write=False)
    return matrix


def mds_encode(pieces, matrix: np.ndarray, row: int) -> np.ndarray:
    """Combine pieces with one matrix row: sum_j matrix[row, j] * piece[j]."""
    arr = np.asarray(pieces, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("pieces must form a non-empty 2-D array")
    rows, cols = matrix.shape
    if arr.shape[0] != cols:
        raise ValueError(f"matrix has {cols} cols but {arr.shape[0]} pieces given")
    if not 0 <= row < rows:
        raise ValueError(f"row {row} out of range for {rows} rows")
    return matrix[row] @ arr


def decode_factors(matrix: np.ndarray, rows) -> np.ndarray:
    """Inverse of matrix `rows`; DecodeFailure if singular or rcond < RCOND_LIMIT."""
    sub = matrix[list(rows)]
    try:
        inv = np.linalg.inv(sub)
    except np.linalg.LinAlgError as exc:
        raise DecodeFailure(f"singular decode system: {exc}") from exc
    # Exact 1-norm reciprocal condition 1 / (|sub|_1 |inv|_1), where the
    # 1-norm of a matrix is its largest absolute column sum.
    rcond = 1.0 / (np.abs(sub).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())
    if not np.isfinite(rcond) or rcond < RCOND_LIMIT:
        raise DecodeFailure(
            f"decode system too ill conditioned (rcond={rcond:.3e}); "
            "reduce the piece count or use better-spread points")
    return inv


def check_decodable(rows: int, cols: int, order) -> None:
    """Raise what decode_factors(rows x cols code, sorted(order)) raises.

    The verdict is judged per (shape, row set), decoded in ascending row
    order, so any arrival order of one set hits the same one of the last
    VERDICTS_KEPT verdicts, and a kept failure is raised again on a hit.
    """
    failure = _decode_failure(rows, cols, tuple(sorted(order)))
    if failure is not None:
        raise DecodeFailure(failure)


@functools.lru_cache(maxsize=VERDICTS_KEPT)
def _decode_failure(rows: int, cols: int, order: tuple) -> str | None:
    try:
        decode_factors(make_encoding_matrix(rows, cols), order)
    except DecodeFailure as exc:
        return str(exc)
    return None


def mds_decode(results, matrix: np.ndarray) -> np.ndarray:
    """Recover the original pieces from exactly `cols` (row, vector) results.

    Raises ValueError for any other count, and DecodeFailure when the
    system is singular or ill conditioned beyond RCOND_LIMIT.
    """
    results = list(results)
    n_rows, m = matrix.shape
    if len(results) != m:
        raise ValueError(f"need exactly {m} results, got {len(results)}")
    rows = [int(row) for row, _ in results]
    if len(set(rows)) != len(rows):
        raise ValueError("coded results must carry distinct row indices")
    for r in rows:
        if not 0 <= r < n_rows:
            raise ValueError(f"row index {r} out of range for {n_rows} rows")
    lengths = {len(values) for _, values in results}
    if len(lengths) != 1:
        raise ValueError("coded results must all have the same length")

    rhs = np.stack([as_vector(values) for _, values in results])
    return decode_factors(matrix, rows) @ rhs


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
