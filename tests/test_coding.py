"""Tests for the convolution / partitioning / erasure-coding primitives."""

import itertools

import numpy as np
import pytest

from codedconv.coding import (
    CodedPiece,
    DecodeFailure,
    EncodingMatrix,
    InsufficientResults,
    MAX_SQUARE_PIECES,
    RCOND_LIMIT,
    as_vector,
    convolve_direct,
    convolve_fft,
    decode_factors,
    encoding_points,
    make_encoding_matrix,
    mds_decode,
    mds_encode,
    overlap_add,
    partition,
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
    for n1, n2 in [(1, 1), (5, 3), (64, 64), (257, 129), (1024, 513), (4096, 31)]:
        a = rng.uniform(-1, 1, n1)
        x = rng.uniform(-1, 1, n2)
        want = convolve_direct(a, x)
        got = convolve_fft(a, x)
        assert got.shape == want.shape == (n1 + n2 - 1,)
        assert_close(got, want, rtol=1e-9)


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
    p = partition([1, 2, 3, 4, 5], 2)
    assert p.count == 3
    assert p.pad_count == 1
    np.testing.assert_array_equal(p.pieces, [[1, 2], [3, 4], [5, 0]])
    np.testing.assert_array_equal(p.reconstruct(), [1, 2, 3, 4, 5])


def test_partition_exact_fit():
    p = partition(np.arange(6.0), 3)
    assert p.count == 2
    assert p.pad_count == 0
    np.testing.assert_array_equal(p.reconstruct(), np.arange(6.0))


def test_partition_round_trip_random():
    rng = np.random.default_rng(104)
    for _ in range(30):
        n = int(rng.integers(1, 200))
        length = int(rng.integers(1, 50))
        v = rng.uniform(-1, 1, n)
        p = partition(v, length)
        assert p.count == -(-n // length)
        assert p.pieces.shape == (p.count, length)
        np.testing.assert_array_equal(p.reconstruct(), v)


def test_partition_rejects_bad_length():
    with pytest.raises(ValueError):
        partition([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        partition([1.0, 2.0], -3)
    with pytest.raises(ValueError):
        partition([1.0, 2.0], 1.5)


# ---------------------------------------------------------------------------
# encoding matrix


def test_matrix_structure_integer_points():
    m = make_encoding_matrix(3, 2, points=[1.0, 2.0, 3.0])
    np.testing.assert_array_equal(m.entries, [[1, 1], [1, 2], [1, 3]])
    assert m.rows == 3 and m.cols == 2


def test_matrix_entries_are_point_powers():
    m = make_encoding_matrix(6, 4)
    for i in range(6):
        for j in range(4):
            assert m.entries[i, j] == pytest.approx(m.points[i] ** j, rel=1e-15)


def test_matrix_points_distinct_and_bounded():
    m = make_encoding_matrix(40, 8)
    assert len(np.unique(m.points)) == 40
    assert np.all(np.abs(m.points) < 1.0)


def test_matrix_any_square_submatrix_invertible():
    # Vandermonde on distinct points: every subset determinant is nonzero.
    m = make_encoding_matrix(8, 4)
    for sub in itertools.combinations(range(8), 4):
        det = np.linalg.det(m.entries[list(sub)])
        assert abs(det) > 1e-12


def test_encoding_points_prefix_is_spread():
    # Any prefix of the reordered budget covers both halves of (-1, 1).
    pts = encoding_points(8, budget=256)
    assert pts.min() < -0.3 and pts.max() > 0.3


def test_matrix_rejects_duplicate_points():
    with pytest.raises(ValueError):
        make_encoding_matrix(3, 2, points=[1.0, 1.0, 2.0])


def test_matrix_rejects_bad_shape():
    with pytest.raises(ValueError):
        make_encoding_matrix(0, 1)
    with pytest.raises(ValueError):
        make_encoding_matrix(3, 0)
    with pytest.raises(ValueError):
        make_encoding_matrix(3, 2, points=[1.0, 2.0])


# ---------------------------------------------------------------------------
# encode / decode


def test_encode_example():
    m = make_encoding_matrix(3, 2, points=[1.0, 2.0, 3.0])
    pieces = np.array([[1.0, 0.0], [0.0, 1.0]])
    coded = mds_encode(pieces, m, 1)
    assert coded.row_index == 1
    np.testing.assert_array_equal(coded.values, [1.0, 2.0])


def test_decode_hand_solved_two_by_two():
    # Rows with points 2 and 3 give the system [[1,2],[1,3]] Z = [[1,2],[1,3]],
    # whose solution (by hand: subtract rows, back substitute) is the identity.
    m = make_encoding_matrix(3, 2, points=[1.0, 2.0, 3.0])
    results = [CodedPiece(1, np.array([1.0, 2.0])), CodedPiece(2, np.array([1.0, 3.0]))]
    recovered = mds_decode(results, m)
    np.testing.assert_allclose(recovered, np.eye(2), atol=1e-12)


def test_decode_round_trip_exhaustive_subsets():
    # Every 6-subset of 9 rows must recover the pieces (MDS property).
    rng = np.random.default_rng(105)
    pieces = rng.uniform(-1, 1, (6, 17))
    m = make_encoding_matrix(9, 6)
    coded = [mds_encode(pieces, m, r) for r in range(9)]
    for sub in itertools.combinations(range(9), 6):
        recovered = mds_decode([coded[i] for i in sub], m)
        assert_close(recovered, pieces, rtol=1e-6)


def test_decode_uses_extras_as_consistency_check():
    rng = np.random.default_rng(106)
    pieces = rng.uniform(-1, 1, (4, 9))
    m = make_encoding_matrix(7, 4)
    coded = [mds_encode(pieces, m, r) for r in range(6)]
    recovered = mds_decode(coded, m)
    assert_close(recovered, pieces, rtol=1e-9)
    # A corrupted held-out row trips the guard.
    coded[5] = CodedPiece(5, coded[5].values + 1.0)
    with pytest.raises(DecodeFailure):
        mds_decode(coded, m)


def test_decode_insufficient_results():
    m = make_encoding_matrix(5, 3)
    pieces = np.ones((3, 4))
    coded = [mds_encode(pieces, m, r) for r in range(2)]
    with pytest.raises(InsufficientResults):
        mds_decode(coded, m)


def test_decode_duplicate_rows_rejected():
    m = make_encoding_matrix(5, 2)
    pieces = np.ones((2, 4))
    c = mds_encode(pieces, m, 1)
    with pytest.raises(ValueError):
        mds_decode([c, c], m)


def test_decode_ill_conditioned_raises():
    # Nearly coincident points make the system numerically singular.
    m = EncodingMatrix(
        entries=np.vander([0.5, 0.5 + 1e-15, -0.5], 3, increasing=True),
        points=np.array([0.5, 0.5 + 1e-15, -0.5]),
    )
    pieces = np.ones((3, 2))
    coded = [CodedPiece(r, m.entries[r] @ pieces) for r in range(3)]
    with pytest.raises(DecodeFailure):
        mds_decode(coded, m)


def test_decode_factors_square_system_holds_up_to_31_pieces():
    # The verdict needs only the rows; 31 is the last square system that
    # passes RCOND_LIMIT, which is what caps ScenarioConfig.traditional_s
    # and the automatic chunk length.
    assert MAX_SQUARE_PIECES == 31
    decode_factors(make_encoding_matrix(31, 31), range(31))
    with pytest.raises(DecodeFailure):
        decode_factors(make_encoding_matrix(32, 32), range(32))


def test_decode_factors_verdict_follows_the_one_norm_condition():
    # dgecon is asked for the 1-norm estimate, so the verdict must agree
    # with the exact 1-norm condition number; with the infinity norm the
    # 32-piece system (1-norm rcond 9.9e-13) would pass.
    for m in range(24, 36):
        matrix = make_encoding_matrix(m, m)
        rcond = 1.0 / np.linalg.cond(matrix.entries, 1)
        if rcond >= RCOND_LIMIT:
            decode_factors(matrix, range(m))
        else:
            with pytest.raises(DecodeFailure, match="rcond"):
                decode_factors(matrix, range(m))


def test_encode_linearity_under_convolution():
    # Convolving an encoded piece equals encoding the convolved pieces.
    rng = np.random.default_rng(107)
    a = rng.uniform(-1, 1, 33)
    xp = partition(rng.uniform(-1, 1, 40), 8)
    m = make_encoding_matrix(7, xp.count)
    for row in range(7):
        coded = mds_encode(xp, m, row)
        lhs = convolve_fft(a, coded.values)
        rhs = mds_encode(
            np.stack([convolve_fft(a, piece) for piece in xp.pieces]), m, row).values
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
    xp = partition(x, 16)
    parts = [convolve_fft(a, piece) for piece in xp.pieces]
    got = overlap_add(parts, 16, len(a) + len(x) - 1)
    assert_close(got, convolve_direct(a, x), rtol=1e-9)


def test_overlap_add_with_padding_truncates_correctly():
    rng = np.random.default_rng(109)
    a = rng.uniform(-1, 1, 50)
    x = rng.uniform(-1, 1, 41)          # 41 does not divide by 16
    xp = partition(x, 16)
    parts = [convolve_fft(a, piece) for piece in xp.pieces]
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
