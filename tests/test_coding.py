"""Tests for the convolution / partitioning / erasure-coding primitives."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedconv import coding
from codedconv.coding import (
    DecodeFailure,
    MAX_SQUARE_PIECES,
    VERDICTS_KEPT,
    _fast_length,
    as_vector,
    check_decodable,
    convolve_direct,
    convolve_fft,
    decode_factors,
    encoding_points,
    make_encoding_matrix,
    mds_decode,
    mds_encode,
    overlap_add,
    partition,
    shortest_piece,
)


def poly_product(a, x):
    """Independent oracle: polynomial coefficient product, plain loops."""
    out = [0.0] * (len(a) + len(x) - 1)
    for i, ai in enumerate(a):
        for j, xj in enumerate(x):
            out[i + j] += ai * xj
    return np.array(out)


def assert_close(got, want, rtol, atol_scale=1e-3):
    """Relative comparison with an absolute floor tied to the data scale."""
    want = np.asarray(want, dtype=float)
    atol = rtol * atol_scale * max(1.0, np.abs(want).max())
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


# ---------------------------------------------------------------------------
# convolve_direct / convolve_fft


def test_convolve_direct_example():
    got = convolve_direct([1, 2], [3, 4, 5])
    np.testing.assert_array_equal(got, [3.0, 10.0, 13.0, 10.0])


def test_convolve_identity():
    x = np.arange(1.0, 8.0)
    np.testing.assert_array_equal(convolve_direct([1.0], x), x)
    np.testing.assert_allclose(convolve_fft([1.0], x), x, rtol=1e-9, atol=1e-12)


def test_convolve_direct_matches_poly_oracle():
    rng = np.random.default_rng(101)
    for _ in range(20):
        n1 = int(rng.integers(1, 40))
        n2 = int(rng.integers(1, 40))
        a = rng.uniform(-1, 1, n1)
        x = rng.uniform(-1, 1, n2)
        assert_close(convolve_direct(a, x), poly_product(a, x), rtol=1e-12)


def test_convolve_fft_matches_direct():
    rng = np.random.default_rng(102)
    # 5000 + 5008 - 1 = 10007 is prime, so the FFT length must be padded.
    for n1, n2 in [(1, 1), (5, 3), (64, 64), (257, 129), (1024, 513), (4096, 31),
                   (5000, 5008)]:
        a = rng.uniform(-1, 1, n1)
        x = rng.uniform(-1, 1, n2)
        want = convolve_direct(a, x)
        got = convolve_fft(a, x)
        assert got.shape == want.shape == (n1 + n2 - 1,)
        assert_close(got, want, rtol=1e-9)


def test_fast_length_is_next_five_smooth_number():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 4097):
        want = n
        while not smooth(want):
            want += 1
        assert _fast_length(n) == want, n


def test_convolve_commutes():
    rng = np.random.default_rng(103)
    a = rng.uniform(-1, 1, 37)
    x = rng.uniform(-1, 1, 90)
    assert_close(convolve_fft(a, x), convolve_fft(x, a), rtol=1e-12)


def test_convolve_rejects_bad_input():
    with pytest.raises(ValueError):
        convolve_direct([], [1.0])
    with pytest.raises(ValueError):
        convolve_direct([1.0, np.nan], [1.0])
    with pytest.raises(ValueError):
        convolve_fft([[1.0, 2.0]], [1.0])


def test_as_vector_casts_ints():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64


# ---------------------------------------------------------------------------
# partition


def test_partition_example_with_padding():
    np.testing.assert_array_equal(partition([1, 2, 3, 4, 5], 2),
                                  [[1, 2], [3, 4], [5, 0]])


def test_partition_exact_fit():
    np.testing.assert_array_equal(partition(np.arange(6.0), 3),
                                  [[0, 1, 2], [3, 4, 5]])


def test_partition_round_trip_random():
    rng = np.random.default_rng(104)
    for _ in range(30):
        n = int(rng.integers(1, 200))
        length = int(rng.integers(1, 50))
        v = rng.uniform(-1, 1, n)
        pieces = partition(v, length)
        assert pieces.shape == (-(-n // length), length)
        np.testing.assert_array_equal(pieces.reshape(-1)[:n], v)
        assert not pieces.reshape(-1)[n:].any()


def test_partition_rejects_bad_length():
    with pytest.raises(ValueError):
        partition([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        partition([1.0, 2.0], -3)
    with pytest.raises(ValueError):
        partition([1.0, 2.0], 1.5)


# ---------------------------------------------------------------------------
# encoding matrix


def test_matrix_entries_are_chebyshev_polynomials_at_the_points():
    # T_j(cos t) = cos(j t), an oracle apart from chebvander's recurrence.
    m = make_encoding_matrix(6, 4)
    points = encoding_points(6)
    assert m.shape == (6, 4)
    for i in range(6):
        for j in range(4):
            want = np.cos(j * np.arccos(points[i]))
            assert m[i, j] == pytest.approx(want, abs=1e-15)


def test_codes_are_shared_read_only_constants():
    m = make_encoding_matrix(6, 4)
    assert make_encoding_matrix(6, 4) is m
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 2.0
    np.testing.assert_array_equal(
        m, np.polynomial.chebyshev.chebvander(encoding_points(6), 3))


def test_matrix_points_distinct_and_bounded():
    # Column 1, T_1(x) = x, holds the evaluation points.
    points = make_encoding_matrix(40, 8)[:, 1]
    assert len(np.unique(points)) == 40
    assert np.all(np.abs(points) < 1.0)


def test_matrix_any_square_submatrix_invertible():
    # Vandermonde on distinct points: every subset determinant is nonzero.
    m = make_encoding_matrix(8, 4)
    for sub in itertools.combinations(range(8), 4):
        det = np.linalg.det(m[list(sub)])
        assert abs(det) > 1e-12


def _radical_inverse(i: int) -> float:
    """Base-2 radical inverse of a non-negative integer (van der Corput)."""
    f, r = 0.5, 0.0
    while i:
        if i & 1:
            r += f
        i >>= 1
        f *= 0.5
    return r


def test_encoding_points_match_radical_inverse_order():
    # Reference: sort the Chebyshev nodes by the radical inverse of their
    # index.  The key of index i does not depend on the count.
    keys = np.array([_radical_inverse(i) for i in range(2048)])
    for count in range(1, 2049):
        idx = np.arange(1, count + 1)
        nodes = np.cos(np.pi * (2 * idx - 1) / (2 * count))
        want = nodes[np.argsort(keys[:count], kind="stable")]
        np.testing.assert_array_equal(encoding_points(count), want)


def test_encoding_points_prefix_is_spread():
    # Any prefix of the reordered points covers both halves of (-1, 1).
    pts = encoding_points(256)[:8]
    assert pts.min() < -0.3 and pts.max() > 0.3


def test_matrix_rejects_bad_shape():
    with pytest.raises(ValueError):
        make_encoding_matrix(0, 1)
    with pytest.raises(ValueError):
        make_encoding_matrix(3, 0)


# ---------------------------------------------------------------------------
# encode / decode


def test_encode_example():
    m = np.vander([1.0, 2.0, 3.0], 2, increasing=True)
    pieces = np.array([[1.0, 0.0], [0.0, 1.0]])
    coded = mds_encode(pieces, m, 1)
    np.testing.assert_array_equal(coded, [1.0, 2.0])


def test_decode_hand_solved_two_by_two():
    # Rows with points 2 and 3 give the system [[1,2],[1,3]] Z = [[1,2],[1,3]],
    # whose solution (by hand: subtract rows, back substitute) is the identity.
    m = np.vander([1.0, 2.0, 3.0], 2, increasing=True)
    results = [(1, np.array([1.0, 2.0])), (2, np.array([1.0, 3.0]))]
    recovered = mds_decode(results, m)
    np.testing.assert_allclose(recovered, np.eye(2), atol=1e-12)


def test_decode_round_trip_exhaustive_subsets():
    # Every 6-subset of 9 rows must recover the pieces (MDS property).
    rng = np.random.default_rng(105)
    pieces = rng.uniform(-1, 1, (6, 17))
    m = make_encoding_matrix(9, 6)
    coded = [(r, mds_encode(pieces, m, r)) for r in range(9)]
    for sub in itertools.combinations(range(9), 6):
        recovered = mds_decode([coded[i] for i in sub], m)
        assert_close(recovered, pieces, rtol=1e-6)


@pytest.mark.parametrize("count", [2, 4], ids=["fewer", "more"])
def test_decode_needs_exactly_cols_results(count):
    m = make_encoding_matrix(5, 3)
    pieces = np.ones((3, 4))
    coded = [(r, mds_encode(pieces, m, r)) for r in range(count)]
    with pytest.raises(ValueError, match="exactly 3"):
        mds_decode(coded, m)


def test_decode_duplicate_rows_rejected():
    m = make_encoding_matrix(5, 2)
    pieces = np.ones((2, 4))
    c = (1, mds_encode(pieces, m, 1))
    with pytest.raises(ValueError):
        mds_decode([c, c], m)


@pytest.mark.parametrize("points, match", [
    # Nearly coincident points make the system numerically singular.
    ([0.5, 0.5 + 1e-15, -0.5], None),
    # Exactly coincident points make it singular outright.
    ([0.5, 0.5, -0.5], "singular"),
], ids=["nearly_coincident", "coincident"])
def test_decode_ill_conditioned_raises(points, match):
    m = np.vander(points, 3, increasing=True)
    pieces = np.ones((3, 2))
    coded = [(r, m[r] @ pieces) for r in range(3)]
    with pytest.raises(DecodeFailure, match=match):
        mds_decode(coded, m)


def test_decode_factors_square_system_holds_up_to_31_pieces(rcond_limit):
    # The verdict needs only the rows.  31 pieces is the piece-count cap
    # on ScenarioConfig.traditional_s and the automatic chunk length, not
    # a decode limit: square systems pass RCOND_LIMIT well past it.
    assert MAX_SQUARE_PIECES == 31
    for m in (MAX_SQUARE_PIECES, 32, 64, 128):
        decode_factors(make_encoding_matrix(m, m), range(m))
    # A limit between the 31- and 32-piece rconds (2.53e-2 and 2.45e-2)
    # refuses the larger system alone.
    rcond_limit(0.025)
    decode_factors(make_encoding_matrix(31, 31), range(31))
    with pytest.raises(DecodeFailure):
        decode_factors(make_encoding_matrix(32, 32), range(32))


@given(st.integers(1, 100_000))
def test_shortest_piece_is_the_cap_on_piece_count(n):
    # ScenarioConfig's dynamic_b and traditional_s, sweep_b's grid and
    # select_s's lower bound all refuse a length shorter than this.
    length = shortest_piece(n)
    assert -(-n // length) <= MAX_SQUARE_PIECES
    assert length == 1 or -(-n // (length - 1)) > MAX_SQUARE_PIECES


def test_decode_verdict_memo_raises_every_failure_again(monkeypatch,
                                                        rcond_limit):
    # Under a limit of 0.025 the 32-piece square system fails; its memoized
    # verdict must fail on every hit, not only on the call that computed it.
    calls = []

    def counted(matrix, rows):
        calls.append(tuple(rows))
        return decode_factors(matrix, rows)

    monkeypatch.setattr(coding, "decode_factors", counted)
    rcond_limit(0.025)
    for _ in range(3):
        with pytest.raises(DecodeFailure, match="rcond"):
            check_decodable(32, 32, range(32))
        check_decodable(31, 31, range(31))
    assert calls == [tuple(range(32)), tuple(range(31))]
    # The verdict is per row set: a permutation of a judged set is a hit.
    check_decodable(31, 31, reversed(range(31)))
    assert len(calls) == 2


def test_decode_verdict_memo_is_bounded():
    coding._decode_failure.cache_clear()
    for first in range(VERDICTS_KEPT + 10):
        check_decodable(VERDICTS_KEPT + 10, 1, [first])
    assert coding._decode_failure.cache_info().currsize == VERDICTS_KEPT


# The code shapes the strategies build: dynamic (m + max(64, 8p), m) for
# m pieces on p workers; traditional square (k, k), past the piece-count
# cap too, and tall (r, k) when the workers outnumber the pieces.
code_shapes = st.one_of(
    st.builds(lambda m, p: (m + max(64, 8 * p), m),
              st.integers(1, 16), st.integers(1, 16)),
    st.integers(1, MAX_SQUARE_PIECES + 4).map(lambda k: (k, k)),
    st.integers(1, 16).flatmap(
        lambda k: st.integers(k + 1, 64).map(lambda r: (r, k))),
)


@st.composite
def row_set_orders(draw):
    """A code shape, and three arrival orders of one row set of it."""
    rows, cols = draw(code_shapes)
    chosen = draw(st.lists(st.integers(0, rows - 1), min_size=cols,
                           max_size=cols, unique=True))
    return rows, cols, [draw(st.permutations(chosen)) for _ in range(3)]


@settings(max_examples=150, deadline=None)
@given(row_set_orders())
def test_decode_verdict_is_per_row_set(case):
    # Every arrival order of a row set gets the verdict of the set decoded
    # in ascending row order, and only the first of them computes it.
    rows, cols, orders = case
    ascending = tuple(sorted(orders[0]))
    try:
        decode_factors(make_encoding_matrix(rows, cols), ascending)
        failure = None
    except DecodeFailure as exc:
        failure = str(exc)
    calls = []

    def counted(matrix, order):
        calls.append(tuple(order))
        return decode_factors(matrix, order)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coding, "decode_factors", counted)
        coding._decode_failure.cache_clear()
        for order in orders:
            if failure is None:
                check_decodable(rows, cols, order)
            else:
                with pytest.raises(DecodeFailure) as raised:
                    check_decodable(rows, cols, order)
                assert str(raised.value) == failure
    assert calls == [ascending]


def test_decode_factors_verdict_follows_the_one_norm_condition(rcond_limit):
    # The verdict reads the exact 1-norm condition number (largest column
    # sums of the system and its inverse), so it must agree with
    # 1 / cond(sub, 1).  Under a limit of 0.025 the systems of 32 pieces
    # and more fail; with the infinity norm every one would pass (the
    # 32-piece system's rconds are 2.45e-2 in the 1-norm, 3.4e-2 in it).
    limit = 0.025
    rcond_limit(limit)
    for m in range(24, 36):
        matrix = make_encoding_matrix(m, m)
        rcond = 1.0 / np.linalg.cond(matrix, 1)
        if rcond >= limit:
            decode_factors(matrix, range(m))
        else:
            with pytest.raises(DecodeFailure, match="rcond"):
                decode_factors(matrix, range(m))


def test_encode_linearity_under_convolution():
    # Convolving an encoded piece equals encoding the convolved pieces.
    rng = np.random.default_rng(107)
    a = rng.uniform(-1, 1, 33)
    xp = partition(rng.uniform(-1, 1, 40), 8)
    m = make_encoding_matrix(7, len(xp))
    for row in range(7):
        coded = mds_encode(xp, m, row)
        lhs = convolve_fft(a, coded)
        rhs = mds_encode(
            np.stack([convolve_fft(a, piece) for piece in xp]), m, row)
        assert_close(lhs, rhs, rtol=1e-9)


# ---------------------------------------------------------------------------
# overlap_add


def test_overlap_add_single_partial():
    np.testing.assert_array_equal(
        overlap_add([[3.0, 10.0, 8.0]], 2, 3), [3.0, 10.0, 8.0])


def test_overlap_add_example():
    # a=[1,2], x=[3,4,5,6] split at b=2: partials a*x_1 and a*x_2.
    parts = [[3.0, 10.0, 8.0], [5.0, 16.0, 12.0]]
    np.testing.assert_array_equal(
        overlap_add(parts, 2, 5), [3.0, 10.0, 13.0, 16.0, 12.0])


def test_overlap_add_reconstructs_block_convolution():
    rng = np.random.default_rng(108)
    a = rng.uniform(-1, 1, 64)
    x = rng.uniform(-1, 1, 64)
    parts = [convolve_fft(a, piece) for piece in partition(x, 16)]
    got = overlap_add(parts, 16, len(a) + len(x) - 1)
    assert_close(got, convolve_direct(a, x), rtol=1e-9)


def test_overlap_add_with_padding_truncates_correctly():
    rng = np.random.default_rng(109)
    a = rng.uniform(-1, 1, 50)
    x = rng.uniform(-1, 1, 41)          # 41 does not divide by 16
    parts = [convolve_fft(a, piece) for piece in partition(x, 16)]
    got = overlap_add(parts, 16, len(a) + len(x) - 1)
    assert_close(got, convolve_direct(a, x), rtol=1e-9)


def test_overlap_add_zero_extends():
    out = overlap_add([[1.0, 1.0]], 1, 5)
    np.testing.assert_array_equal(out, [1.0, 1.0, 0.0, 0.0, 0.0])


def test_overlap_add_rejects_bad_args():
    with pytest.raises(ValueError):
        overlap_add([], 1, 3)
    with pytest.raises(ValueError):
        overlap_add([[1.0], [1.0, 2.0]], 1, 3)
    with pytest.raises(ValueError):
        overlap_add([[1.0]], 0, 3)
    with pytest.raises(ValueError):
        overlap_add([[1.0]], 1, 0)
