import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankhash import (
    Dataset,
    GroundTruth,
    HashModel,
    Hyperparams,
    ValidationError,
    aggregate_runs,
    average_precision,
    build_table,
    encode_dataset,
    knn_hamming,
    knn_weighted,
    lookup,
    pr_curve_by_radius,
    relevant_hits,
    seeded_rng,
)
from rankhash import evaluation
from rankhash.evaluation import _as_codes

from oracles import groundtruth_from_lists, neighbor_list

# ------------------------------------------------------ reference oracles
#
# Scalar and per-query implementations that the vectorised evaluation code
# must match exactly.


def symbol_hamming(a, b) -> int:
    """Number of positions where two equal-length codes disagree."""
    a = _as_codes(a, (1,))
    b = _as_codes(b, (1,))
    if a.shape != b.shape:
        raise ValidationError("codes must have equal length")
    return int(np.count_nonzero(a != b))


def weighted_similarity(a, b, theta) -> float:
    """Sum of per-position weights over agreeing positions."""
    a = _as_codes(a, (1,))
    b = _as_codes(b, (1,))
    theta = np.asarray(theta, dtype=np.float64)
    if a.shape != b.shape or theta.shape != a.shape:
        raise ValidationError("codes and weights must have equal length")
    return float(theta[a == b].sum())


def precision(retrieved, relevant):
    """|retrieved & relevant| / |retrieved|; None when nothing was retrieved."""
    retrieved = set(retrieved)
    if not retrieved:
        return None
    return len(retrieved & set(relevant)) / len(retrieved)


def recall(retrieved, relevant):
    """|retrieved & relevant| / |relevant|; None when nothing is relevant."""
    relevant = set(relevant)
    if not relevant:
        return None
    return len(set(retrieved) & relevant) / len(relevant)


def reference_knn_hamming(codes, ids, query, k):
    """Full lexsort ranking by (Hamming distance, id)."""
    dists = np.count_nonzero(codes != query, axis=1)
    return ids[np.lexsort((ids, dists))[:k]]


def reference_knn_weighted(codes, ids, query, theta, k):
    """Full lexsort ranking by (-weighted similarity, id)."""
    sims = np.where(codes == query, theta, 0.0).sum(axis=1)
    return ids[np.lexsort((ids, -sims))[:k]]


def reference_pr_curve(codes, ids, query_codes, gt):
    """The radius-sweep PR curve, one query at a time over (N, L) codes."""
    L = codes.shape[1]
    prec_sum = np.zeros(L + 1)
    prec_count = np.zeros(L + 1, dtype=np.int64)
    recall_sum = np.zeros(L + 1)
    evaluated = 0
    for q in range(query_codes.shape[0]):
        relevant = neighbor_list(gt, q)
        if relevant.size == 0:
            continue
        evaluated += 1
        dists = np.count_nonzero(codes != query_codes[q], axis=1)
        total = np.bincount(dists, minlength=L + 1).cumsum()
        rel_mask = np.isin(ids, relevant)
        rel = np.bincount(dists[rel_mask], minlength=L + 1).cumsum()
        answered = total > 0
        prec_sum[answered] += rel[answered] / total[answered]
        prec_count += answered
        recall_sum += rel / relevant.size
    curve = []
    for R in range(L + 1):
        p = prec_sum[R] / prec_count[R] if prec_count[R] else float("nan")
        curve.append((R, p, recall_sum[R] / evaluated))
    return curve


def linear_scan(codes, ids, query, radius) -> np.ndarray:
    """Ids within `radius` of `query`, one code at a time, in row order."""
    return np.array([i for c, i in zip(codes, ids) if symbol_hamming(c, query) <= radius],
                    dtype=np.int64)


def assert_ids(got, want):
    """`got` is a 1-D int64 id array equal to `want`, order included."""
    assert isinstance(got, np.ndarray) and got.dtype == np.int64 and got.ndim == 1
    assert np.array_equal(got, want)


def test_symbol_hamming_examples():
    assert symbol_hamming([0, 1, 2], [0, 1, 2]) == 0
    assert symbol_hamming([0, 1, 2], [0, 2, 2]) == 1
    assert symbol_hamming([0] * 8, [1] * 8) == 8


def test_symbol_hamming_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        symbol_hamming([0, 1], [0, 1, 2])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    L=st.integers(min_value=1, max_value=16),
    K=st.integers(min_value=2, max_value=6),
)
def test_symbol_hamming_is_a_metric(seed, L, K):
    rng = seeded_rng(seed)
    a, b, c = (rng.integers(0, K, size=L) for _ in range(3))
    dab = symbol_hamming(a, b)
    assert dab >= 0
    assert dab == symbol_hamming(b, a)
    assert symbol_hamming(a, a) == 0
    assert dab <= symbol_hamming(a, c) + symbol_hamming(c, b)


def test_weighted_similarity_examples():
    theta = np.array([0.4, 1.1, 0.5])
    assert weighted_similarity([1, 2, 0], [1, 2, 0], theta) == pytest.approx(theta.sum())
    ones = np.ones(3)
    assert weighted_similarity([1, 2, 0], [1, 0, 0], ones) == 3 - symbol_hamming([1, 2, 0], [1, 0, 0])
    # agreement only on the zero-weight position scores nothing
    assert weighted_similarity([0, 1], [1, 1], np.array([2.0, 0.0])) == 0.0


def random_table(seed, n=40, L=6, K=3):
    rng = seeded_rng(seed)
    codes = rng.integers(0, K, size=(n, L))
    ids = rng.permutation(1000)[:n]
    return build_table(codes, ids, K), codes, ids


def test_build_table_partitions_ids():
    table, codes, ids = random_table(0)
    seen = []
    for key, members in table.buckets.items():
        for ident in members:
            row = np.where(ids == ident)[0][0]
            assert tuple(codes[row]) == key
            seen.append(int(ident))
    assert sorted(seen) == sorted(ids.tolist())


def test_lookup_radius_zero_is_exact_bucket():
    table, codes, ids = random_table(1)
    got = lookup(table, codes[0], 0)
    expected = [i for c, i in zip(codes, ids) if np.array_equal(c, codes[0])]
    assert_ids(got, expected)


def test_lookup_radius_L_is_everything():
    table, codes, ids = random_table(2)
    assert_ids(lookup(table, codes[0], table.L), ids)


def test_lookup_matches_linear_scan_and_strategies_agree():
    table, codes, ids = random_table(3)
    rng = seeded_rng(4)
    for _ in range(20):
        query = rng.integers(0, 3, size=6)
        for radius in range(4):
            brute = linear_scan(codes, ids, query, radius)
            assert_ids(lookup(table, query, radius, strategy="expand"), brute)
            assert_ids(lookup(table, query, radius, strategy="scan"), brute)
            assert_ids(lookup(table, query, radius), brute)


@pytest.mark.parametrize("K", [2, 3, 300])
def test_lookup_strategies_match_linear_scan_with_foreign_symbols(K):
    rng = seeded_rng(40 + K)
    n, L = 60, 5
    codes = rng.integers(0, K, size=(n, L))
    codes[20:30] = codes[0]  # a crowded bucket
    ids = rng.permutation(10 * n)[:n] * 7 - 100
    table = build_table(codes, ids, K)
    assert table.columns.shape == (L, n)
    assert table.columns.dtype == (np.uint8 if K <= 256 else np.uint16)
    foreign = [-1, K, K + 1, 255, 256, 257, 65536 + 1, -(2**40)]
    for trial in range(30):
        query = codes[trial].copy() if trial % 3 else rng.integers(0, K, size=L)
        # positions holding a symbol outside [0, K) must never match
        for p in rng.choice(L, size=trial % 3, replace=False):
            query[p] = foreign[(trial + p) % len(foreign)]
        for radius in range(L + 1):
            brute = linear_scan(codes, ids, query, radius)
            assert_ids(lookup(table, query, radius, strategy="scan"), brute)
            assert_ids(lookup(table, query, radius), brute)
            if K < 300 or radius <= 1:
                assert_ids(lookup(table, query, radius, strategy="expand"), brute)


@pytest.mark.parametrize("K", [3, 300])
def test_lookup_scans_the_store_without_building_buckets(K):
    rng = seeded_rng(13 + K)
    n, L = 200, 5
    codes = rng.integers(0, K, size=(n, L))
    ids = rng.permutation(10 * n)[:n]
    table = build_table(codes, ids, K)
    for query in (codes[0], rng.integers(0, K, size=L), np.array([-1, K, 0, 1, 2 ** 20])):
        for radius in range(L + 1):
            brute = linear_scan(codes, ids, query, radius)
            for strategy in ("auto", "expand", "scan"):
                assert_ids(lookup(table, query, radius, strategy), brute)
    assert "buckets" not in vars(table)
    with pytest.raises(ValidationError):
        lookup(table, codes[0], 1, "probe")


def test_lookup_returns_int64_ids_in_table_row_order():
    rng = seeded_rng(90)
    n, L, K = 120, 5, 3
    codes = rng.integers(0, K, size=(n, L)).astype(np.uint8)
    ids = rng.permutation(10 * n)[:n].astype(np.int32) - 300  # unsorted, some negative
    table = build_table(codes, ids, K)
    for query in (codes[3], rng.integers(0, K, size=L), np.array([1, 0, K, 2, 1])):
        for radius in range(L + 1):
            assert_ids(lookup(table, query, radius),
                       ids[np.count_nonzero(codes != query, axis=1) <= radius])
    # nothing in range: an empty (0,) id array
    missed = lookup(table, np.full(L, K), L - 1)
    assert missed.shape == (0,) and missed.dtype == np.int64


def test_lookup_monotone_in_radius():
    table, codes, _ = random_table(5)
    query = codes[7]
    prev = np.empty(0, dtype=np.int64)
    for radius in range(table.L + 1):
        got = lookup(table, query, radius)
        assert np.isin(prev, got).all()
        prev = got


def test_lookup_rejects_bad_radius():
    table, _, _ = random_table(6)
    with pytest.raises(ValidationError):
        lookup(table, np.zeros(6, dtype=int), table.L + 1)


def test_lookup_rejects_non_integer_radius():
    table, _, _ = random_table(6)
    for radius in (True, False, 1.0, 2.5, "1"):
        with pytest.raises(ValidationError):
            lookup(table, np.zeros(6, dtype=int), radius)
    assert_ids(lookup(table, np.zeros(6, dtype=int), np.int64(6)), table.ids)


def test_build_table_rejects_non_integer_K():
    codes = np.zeros((3, 2), dtype=int)
    for K in (True, 2.0, "2"):
        with pytest.raises(ValidationError):
            build_table(codes, np.arange(3), K)


# ----------------------------------------------------------------- ranking


def test_knn_returns_all_sorted():
    table, codes, ids = random_table(7, n=15)
    query = codes[3]
    got = knn_hamming(codes, ids, query, 15)
    dists = [symbol_hamming(c, query) for c in codes]
    expected = [int(i) for _, i in sorted(zip(dists, ids.tolist()))]
    assert got.tolist() == expected


def test_knn_exact_match_ranks_first():
    codes = np.array([[0, 1], [0, 1], [2, 2]])
    ids = np.array([30, 10, 5])
    got = knn_hamming(codes, ids, np.array([0, 1]), 2)
    # both zero-distance ids qualify; the smaller id comes first
    assert got.tolist() == [10, 30]


def test_knn_insertion_order_invariant():
    table, codes, ids = random_table(8, n=25)
    query = codes[0]
    perm = seeded_rng(9).permutation(25)
    a = knn_hamming(codes, ids, query, 10)
    b = knn_hamming(codes[perm], ids[perm], query, 10)
    assert np.array_equal(a, b)


def test_knn_uniform_weights_match_hamming():
    table, codes, ids = random_table(10, n=30, L=5)
    query = codes[2]
    theta = np.ones(5)
    assert np.array_equal(
        knn_weighted(codes, ids, query, theta, 12),
        knn_hamming(codes, ids, query, 12),
    )


def test_knn_rejects_bad_k():
    _, codes, ids = random_table(11, n=10)
    with pytest.raises(ValidationError):
        knn_hamming(codes, ids, codes[0], 0)
    with pytest.raises(ValidationError):
        knn_hamming(codes, ids, codes[0], 11)


def test_knn_rejects_non_integer_k():
    _, codes, ids = random_table(11, n=10)
    theta = np.ones(codes.shape[1])
    for k in (2.5, True, False, "3", None):
        with pytest.raises(ValidationError):
            knn_hamming(codes, ids, codes[0], k)
        with pytest.raises(ValidationError):
            knn_weighted(codes, ids, codes[0], theta, k)
    assert knn_hamming(codes, ids, codes[0], np.int64(10)).size == 10


def test_knn_rejects_misaligned_ids_and_bad_theta():
    _, codes, ids = random_table(14, n=10)
    with pytest.raises(ValidationError):
        knn_hamming(codes, ids[:-1], codes[0], 3)
    for theta in (np.ones(5), np.array([1.0, np.nan, 0, 0, 0, 0]), np.full(6, np.inf)):
        with pytest.raises(ValidationError):
            knn_weighted(codes, ids, codes[0], theta, 3)


# theta values whose sums round differently with the order of addition, so
# any change in summation order shows up as a reordered ranking
TIE_THETA = (0.0, 0.1, 0.2, 0.3, 0.7, 0.7, 1.0 / 3.0)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=80),
    L=st.integers(min_value=1, max_value=9),
    K=st.integers(min_value=2, max_value=4),
    distinct=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_knn_matches_lexsort_reference(seed, n, L, K, distinct, data):
    rng = seeded_rng(seed)
    # few distinct rows, so most rows are duplicates and ties are everywhere
    codes = rng.integers(0, K, size=(distinct, L))[rng.integers(0, distinct, size=n)]
    ids = rng.permutation(20 * n)[:n] * 3 - 5 * n  # unsorted, gapped, some negative
    query = codes[0] if rng.random() < 0.5 else rng.integers(0, K, size=L)
    theta = rng.choice(TIE_THETA, size=L) if rng.random() < 0.7 else rng.random(L)
    k = data.draw(st.sampled_from([1, n, data.draw(st.integers(1, n))]))
    assert np.array_equal(knn_hamming(codes, ids, query, k),
                          reference_knn_hamming(codes, ids, query, k))
    assert np.array_equal(knn_weighted(codes, ids, query, theta, k),
                          reference_knn_weighted(codes, ids, query, theta, k))


@pytest.mark.parametrize("L", [5, 8, 9, 10])
@pytest.mark.parametrize("extra", [0, 37])
def test_knn_weighted_pattern_table_is_bit_exact(L, extra):
    # 2**L <= N selects the score table; 8 or more positions make numpy
    # sum each row pairwise, so the table must reproduce that rounding
    rng = seeded_rng(L)
    n = (1 << L) + extra
    codes = rng.integers(0, 2, size=(n, L))
    ids = rng.permutation(n) + 1000
    for theta in (rng.choice(TIE_THETA, size=L), rng.random(L) * 1e-3 + 0.1, np.ones(L)):
        for query in (codes[0], 1 - codes[1]):
            got = knn_weighted(codes, ids, query, theta, n)
            assert np.array_equal(got, reference_knn_weighted(codes, ids, query, theta, n))
            # a column-major copy ranks the same
            assert np.array_equal(knn_weighted(np.asfortranarray(codes), ids, query, theta, n), got)
            assert np.array_equal(knn_weighted(codes, ids, query, theta, 17),
                                  reference_knn_weighted(codes, ids, query, theta, 17))
    # below the switch the direct sum is used, and must agree as well
    small = codes[: (1 << L) - 1]
    theta = rng.choice(TIE_THETA, size=L)
    k = min(40, small.shape[0])
    want = reference_knn_weighted(small, ids[: small.shape[0]], codes[0], theta, k)
    for layout in (small, np.asfortranarray(small)):
        assert np.array_equal(knn_weighted(layout, ids[: small.shape[0]], codes[0], theta, k), want)


def fresh_pattern_ranks(theta):
    """The (bit, rank) tables built from scratch, as every call built them
    before they were cached."""
    L = theta.size
    bit = (1 << np.arange(L)).astype(np.min_scalar_type((1 << L) - 1))
    agree = (np.arange(1 << L)[:, None] & bit) == 0
    scores, rank = np.unique(-np.where(agree, theta, 0.0).sum(axis=1), return_inverse=True)
    return bit, rank.astype(evaluation._key_type(scores.size - 1))


@pytest.mark.parametrize("L", [1, 3, 8, 9, 12])
def test_cached_pattern_ranks_equal_a_fresh_build(L):
    rng = seeded_rng(70 + L)
    thetas = [rng.random(L), rng.choice(TIE_THETA, size=L), np.full(L, 0.7),
              np.zeros(L), -np.zeros(L), np.where(rng.random(L) < 0.5, -0.0, 0.0),
              np.where(rng.random(L) < 0.5, 0.0, rng.choice([0.1, 0.2, 0.3], size=L))]
    for theta in thetas:
        evaluation._pattern_ranks.cache_clear()
        bit, rank = evaluation._pattern_ranks(theta.tobytes())
        want_bit, want_rank = fresh_pattern_ranks(theta)
        for got, want in ((bit, want_bit), (rank, want_rank)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            with pytest.raises(ValueError):
                got[0] = 1
        again = evaluation._pattern_ranks(theta.copy().tobytes())
        assert again[0] is bit and again[1] is rank
    # -0.0 is its own cache entry, with the same ranks as 0.0
    zero = evaluation._pattern_ranks(np.zeros(L).tobytes())[1]
    assert np.array_equal(evaluation._pattern_ranks((-np.zeros(L)).tobytes())[1], zero)


@pytest.mark.parametrize("L", [4, 9])
def test_knn_weighted_builds_pattern_ranks_once_per_theta(L):
    rng = seeded_rng(80 + L)
    theta = rng.choice(TIE_THETA, size=L)
    for n in ((1 << L) + 5, (1 << L) - 1):  # the pattern table, then the direct sum
        codes = rng.integers(0, 3, size=(n, L))
        ids = rng.permutation(n) + 7
        evaluation._pattern_ranks.cache_clear()
        for query in (codes[0], codes[1]):
            got = knn_weighted(codes, ids, query, list(theta), 11)
            assert np.array_equal(got, reference_knn_weighted(codes, ids, query, theta, 11))
        info = evaluation._pattern_ranks.cache_info()
        patterns = (1 << L) <= n
        assert (info.misses, info.hits) == ((1, 1) if patterns else (0, 0))


def test_knn_reads_a_column_store_like_int64_codes():
    # single queries and batches against a uint8 (K = 3) and a uint16
    # (K = 300) store, on both sides of the weighted pattern table's switch
    # (2^6 <= N, 2^8 > N). Symbols the store's dtype cannot hold must match
    # nothing: on uint8, -1, 300, 256, 257 and -255 would wrap onto 255, 44,
    # 0, 1 and 1; on uint16, -1, 65537 and -2^40 onto 65535, 1 and 0, and
    # 300 fits but lies outside [0, K).
    rng = seeded_rng(30)
    n = 70
    ids = rng.permutation(300)[:n]
    for K, dtype, foreign in ((3, np.uint8, [-1, 300, 256, 257, -255]),
                              (300, np.uint16, [-1, 300, 65537, -2**40])):
        symbols = [0, 1, 2, K - 1]  # few, and 0 and 1 among them, so wraps could match
        for L in (6, 8):
            codes = rng.choice(symbols, size=(n, L))
            table = build_table(codes, ids, K)
            assert table.columns.dtype == dtype
            theta = rng.choice(TIE_THETA, size=L)
            queries = np.vstack([codes[:4], rng.choice(symbols, size=(3, L)),
                                 np.resize(foreign, L), rng.choice(foreign + symbols, size=(3, L))])
            for q in queries:
                for k in (1, 9, n):
                    want = reference_knn_hamming(codes, ids, q, k)
                    assert np.array_equal(knn_hamming(table.columns.T, ids, q, k), want)
                    want = reference_knn_weighted(codes, ids, q, theta, k)
                    assert np.array_equal(knn_weighted(table.columns.T, ids, q, theta, k), want)
                for radius in range(L + 1):
                    assert_ids(lookup(table, q, radius), linear_scan(codes, ids, q, radius))
            for k in (1, 9, n):
                assert np.array_equal(knn_hamming(table.columns.T, ids, queries, k),
                                      knn_hamming(codes, ids, queries, k))
                assert np.array_equal(knn_weighted(table.columns.T, ids, queries, theta, k),
                                      knn_weighted(codes, ids, queries, theta, k))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    pattern_table=st.booleans(),
    L=st.integers(min_value=1, max_value=9),
    K=st.sampled_from([2, 3, 4, 257]),
    distinct=st.integers(min_value=1, max_value=12),
    B=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_store_layout_codes_rank_like_int64_codes(seed, pattern_table, L, K, distinct, B, data):
    # encode_dataset's (N, L) uint8/uint16 view of an (L, N) store, and a
    # row-major int64 copy of it, give every reader the same answers
    rng = seeded_rng(seed)
    if pattern_table:  # 2^L <= N: weighted keys from the pattern table
        L = min(L, 6)
        n = (1 << L) + data.draw(st.integers(0, 20))
    else:  # 2^L > N: weighted keys summed row by row
        L = max(L, 2)
        n = data.draw(st.integers(1, min(80, (1 << L) - 1)))
    d = 5
    model = HashModel(rng.standard_normal((L, K, d)), None, Hyperparams(K=K, L=L))
    # few distinct rows, so most codes repeat and ties are everywhere
    rows = rng.standard_normal((distinct, d))[rng.integers(0, distinct, size=n)]
    codes = encode_dataset(Dataset(rows, np.arange(n)), model)
    query_rows = np.vstack([rows[:B], rng.standard_normal((B, d))])
    queries = encode_dataset(Dataset(query_rows, np.arange(len(query_rows))), model)
    assert codes.T.flags.c_contiguous and codes.dtype == np.min_scalar_type(K - 1)
    wide, wide_queries = (np.ascontiguousarray(c, dtype=np.int64) for c in (codes, queries))
    ids = rng.permutation(20 * n)[:n] * 3 - 5 * n
    theta = rng.choice(TIE_THETA, size=L) if rng.random() < 0.7 else rng.random(L)
    k = data.draw(st.integers(1, n))
    assert np.array_equal(knn_hamming(codes, ids, queries, k),
                          knn_hamming(wide, ids, wide_queries, k))
    assert np.array_equal(knn_weighted(codes, ids, queries, theta, k),
                          knn_weighted(wide, ids, wide_queries, theta, k))
    for q, wide_q in zip(queries, wide_queries):
        assert np.array_equal(knn_weighted(codes, ids, q, theta, k),
                              reference_knn_weighted(wide, ids, wide_q, theta, k))
    table, wide_table = build_table(codes, ids, K), build_table(wide, ids, K)
    assert table.columns.tobytes() == wide_table.columns.tobytes()
    for q, wide_q in zip(queries, wide_queries):
        for radius in range(L + 1):
            assert_ids(lookup(table, q, radius), lookup(wide_table, wide_q, radius))
    gt = groundtruth_from_lists(
        [rng.choice(ids, size=int(rng.integers(0, n + 1)), replace=False)
         for _ in range(len(queries) - 1)] + [ids[:1]])
    assert_same_curve(pr_curve_by_radius(table, queries, gt),
                      pr_curve_by_radius(wide_table, wide_queries, gt))


def test_build_table_owns_its_store():
    rng = seeded_rng(32)
    n, L, K = 300, 5, 4
    wide = rng.integers(0, K, size=(n, L))
    ids = rng.permutation(n) + 10
    store = np.array(wide.T, dtype=np.uint8, order="C")  # (L, N), as encode_dataset writes
    inputs = {"int64": wide, "uint8 C-order": np.ascontiguousarray(store.T),
              "uint8 F-order": store.T}
    assert inputs["uint8 F-order"].flags.f_contiguous
    tables = {name: build_table(codes, ids, K) for name, codes in inputs.items()}
    for table in tables.values():
        assert table.columns.flags.c_contiguous and table.columns.dtype == np.uint8
        assert table.columns.tobytes() == tables["int64"].columns.tobytes()
    queries = np.vstack([wide[:5], rng.integers(0, K, size=(5, L))])
    before = {name: [lookup(t, q, r) for q in queries for r in range(L + 1)]
              for name, t in tables.items()}
    for codes in inputs.values():
        codes[:] = (codes + 1) % K  # the caller reuses its array
    for name, table in tables.items():
        assert not np.shares_memory(table.columns, inputs[name])
        after = [lookup(table, q, r) for q in queries for r in range(L + 1)]
        assert len(after) == len(before[name])
        for got, want in zip(after, before[name]):
            assert_ids(got, want)


def test_readers_reject_non_integer_codes():
    table, codes, ids = random_table(33, n=20, L=4)
    gt = groundtruth_from_lists([ids[:3]] * 2)
    for bad in (codes * 0.5, codes.astype(bool)):
        with pytest.raises(ValidationError):
            build_table(bad, ids, 3)
        with pytest.raises(ValidationError):
            knn_hamming(bad, ids, codes[0], 3)
        with pytest.raises(ValidationError):
            knn_weighted(bad, ids, codes[0], np.ones(4), 3)
        with pytest.raises(ValidationError):
            pr_curve_by_radius(table, bad[:2], gt)
    with pytest.raises(ValidationError):
        build_table(codes + 3, ids, 3)  # symbols outside [0, K)


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_build_table_rejects_codes_with_no_positions(dtype):
    # an L = 0 table could not be queried: lookup and kNN refuse an empty code
    with pytest.raises(ValidationError, match="non-empty"):
        build_table(np.zeros((3, 0), dtype), np.arange(3), 2)


@pytest.mark.parametrize("L", [6, 9])
def test_weighted_keys_are_small_integer_ranks_on_the_pattern_table(L):
    # 2^L <= N: each row gathers its pattern's int16 rank, equal scores
    # sharing one, so (rank, id) order is (score, id) order
    rng = seeded_rng(34)
    n = 1 << L
    columns = rng.integers(0, 3, size=(L, n)).astype(np.uint8)
    theta = rng.choice(TIE_THETA, size=L)
    queries = columns[:, :3].T
    keys = evaluation._keys(columns, queries, theta)
    assert keys.dtype == np.int16 and keys.shape == (3, n)
    for b in range(3):
        # the row-major (N, L) sums of reference_knn_weighted
        scores = -np.where(np.ascontiguousarray(columns.T) == queries[b], theta, 0.0).sum(axis=1)
        order = np.lexsort((np.arange(n), keys[b]))
        assert np.array_equal(order, np.lexsort((np.arange(n), scores)))
        assert np.array_equal(np.unique(keys[b], return_inverse=True)[1].ravel(),
                              np.unique(scores, return_inverse=True)[1].ravel())
    # one code's keys are its row of a block's in every form: Hamming, the
    # one-byte (L = 6) or two-byte (L = 9) pattern bits, and the direct sum
    # (N < 2^L); the block compares into part of a larger mask, as kNN does
    for weights, stored in ((None, columns), (theta, columns), (theta, columns[:, 1:])):
        mask = np.empty((L, 5, stored.shape[1]), dtype=bool)
        block = evaluation._keys(stored, queries, weights, mask[:, :3])
        for b in range(3):
            assert np.array_equal(evaluation._keys(stored, queries[b], weights), block[b])


def test_knn_query_shapes():
    _, codes, ids = random_table(31, n=12, L=4)
    theta = np.ones(4)
    assert knn_hamming(codes, ids, codes[0], 3).shape == (3,)
    assert knn_hamming(codes, ids, codes[:1], 3).shape == (1, 3)
    assert knn_weighted(codes, ids, codes[:5].tolist(), theta, 3).shape == (5, 3)
    for bad in (np.empty((0, 4), dtype=np.int64), codes[:2, :3], codes[None, :2], codes[:2] * 0.5):
        with pytest.raises(ValidationError):
            knn_hamming(codes, ids, bad, 3)
        with pytest.raises(ValidationError):
            knn_weighted(codes, ids, bad, theta, 3)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=70),
    L=st.integers(min_value=1, max_value=8),
    K=st.integers(min_value=2, max_value=4),
    distinct=st.integers(min_value=1, max_value=10),
    B=st.integers(min_value=1, max_value=9),
    data=st.data(),
)
def test_knn_block_rows_equal_single_queries(seed, n, L, K, distinct, B, data):
    # Few distinct rows, so ties are everywhere; ids unsorted, gapped and
    # partly negative, or ascending (with repeats: the sort then needs no id
    # key); L on both sides of the weighted pattern table's switch
    # (2^L <= N); theta with equal entries, so different agreement patterns
    # score the same.
    rng = seeded_rng(seed)
    codes = rng.integers(0, K, size=(distinct, L))[rng.integers(0, distinct, size=n)]
    ids = data.draw(st.sampled_from([
        rng.permutation(20 * n)[:n] * 3 - 5 * n, np.sort(rng.integers(-n, n, size=n))]))
    queries = rng.integers(0, K, size=(B, L))
    from_db = rng.random(B) < 0.5
    queries[from_db] = codes[rng.integers(0, n, size=from_db.sum())]
    theta = data.draw(st.sampled_from([
        rng.choice(TIE_THETA, size=L), rng.choice([0.25, 0.5], size=L), rng.random(L)]))
    k = data.draw(st.sampled_from([1, n, data.draw(st.integers(1, n))]))
    store = data.draw(st.sampled_from([codes, build_table(codes, ids, K).columns.T]))
    hamming = knn_hamming(store, ids, queries, k)
    weighted = knn_weighted(store, ids, queries, theta, k)
    assert hamming.shape == weighted.shape == (B, k)
    for b in range(B):
        assert np.array_equal(hamming[b], knn_hamming(codes, ids, queries[b], k))
        assert np.array_equal(hamming[b], reference_knn_hamming(codes, ids, queries[b], k))
        assert np.array_equal(weighted[b], knn_weighted(codes, ids, queries[b], theta, k))
        assert np.array_equal(weighted[b], reference_knn_weighted(codes, ids, queries[b], theta, k))


# weighted keys: 2^L <= N with one-byte agreement patterns, 2^L > N (a
# direct sum), and 2^L <= N with two-byte patterns
@pytest.mark.parametrize("L", [6, 9, 10])
@pytest.mark.parametrize("rows", [1, 4])  # one code per block; 4, which does not divide 23
def test_knn_query_blocks_cover_every_query(monkeypatch, L, rows):
    # a batch is ranked in blocks of its distinct codes, every block
    # written into the same buffers; each query's answer must come from its
    # own code, not from what an earlier block left
    rng = seeded_rng(32)
    n, Q, k = (300 if L < 10 else 1100), 23, 40
    codes = rng.integers(0, 3, size=(n, L))
    ids = rng.permutation(n) * 2 + 1
    distinct = rng.integers(0, 3, size=(Q, L))
    distinct[::2] = codes[:Q:2]
    assert len(np.unique(distinct, axis=0)) == Q
    # every code once, 12 of them twice or more, in shuffled order
    queries = distinct[rng.permutation(np.concatenate([np.arange(Q), rng.integers(0, Q, size=12)]))]
    theta = rng.choice(TIE_THETA, size=L)
    want_h = np.array([reference_knn_hamming(codes, ids, q, k) for q in queries])
    want_w = np.array([reference_knn_weighted(codes, ids, q, theta, k) for q in queries])
    blocks = []
    first_k = evaluation._first_k

    def counting_first_k(keys, k, ids=None):
        blocks.append(keys.shape[0])
        return first_k(keys, k, ids)

    monkeypatch.setattr(evaluation, "KNN_BLOCK_CELLS", rows * L * n + L * n - 1)
    monkeypatch.setattr(evaluation, "_first_k", counting_first_k)
    assert np.array_equal(knn_hamming(codes, ids, queries, k), want_h)
    assert blocks == [rows] * (Q // rows) + ([Q % rows] if Q % rows else [])
    blocks.clear()
    assert np.array_equal(knn_weighted(codes, ids, queries, theta, k), want_w)
    assert sum(blocks) == Q and max(blocks) == rows


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    pattern_table=st.booleans(),
    L=st.integers(min_value=1, max_value=8),
    K=st.integers(min_value=2, max_value=4),
    n_codes=st.integers(min_value=1, max_value=3),
    B=st.integers(min_value=2, max_value=12),
    id_kind=st.sampled_from(["ascending", "permuted", "repeated"]),
    data=st.data(),
)
def test_batches_of_few_distinct_codes(seed, pattern_table, L, K, n_codes, B, id_kind, data):
    # Query blocks drawn from 1-3 codes (one code: every query equal), so
    # a batch ranks and counts a few codes for many queries. Each query's
    # kNN row must equal its single-query answer and the full ranking,
    # whatever the ids (ascending, permuted and gapped, or ascending with
    # repeats) and on both sides of the weighted pattern table's switch
    # (2^L <= N). The PR curve must equal the per-query reference for
    # unique ids, and refuses ids that repeat.
    rng = seeded_rng(seed)
    if pattern_table:
        L = min(L, 6)
        n = (1 << L) + data.draw(st.integers(0, 20))
    else:
        L = max(L, 2)
        n = data.draw(st.integers(1, min(70, (1 << L) - 1)))
    codes = rng.integers(0, K, size=(4, L))[rng.integers(0, 4, size=n)]
    ids = {"ascending": np.arange(n) * 3 - n,
           "permuted": rng.permutation(20 * n)[:n] * 3 - 5 * n,
           "repeated": np.sort(rng.integers(-n, n, size=n))}[id_kind]
    pool = rng.integers(0, K, size=(n_codes, L))
    from_db = rng.random(n_codes) < 0.5
    pool[from_db] = codes[rng.integers(0, n, size=from_db.sum())]
    queries = pool[rng.integers(0, n_codes, size=B)]
    theta = data.draw(st.sampled_from([
        rng.choice(TIE_THETA, size=L), rng.choice([0.25, 0.5], size=L), rng.random(L)]))
    k = data.draw(st.sampled_from([1, n, data.draw(st.integers(1, n))]))
    hamming = knn_hamming(codes, ids, queries, k)
    weighted = knn_weighted(codes, ids, queries, theta, k)
    assert hamming.shape == weighted.shape == (B, k)
    for b in range(B):
        assert np.array_equal(hamming[b], knn_hamming(codes, ids, queries[b], k))
        assert np.array_equal(hamming[b], reference_knn_hamming(codes, ids, queries[b], k))
        assert np.array_equal(weighted[b], knn_weighted(codes, ids, queries[b], theta, k))
        assert np.array_equal(weighted[b], reference_knn_weighted(codes, ids, queries[b], theta, k))
    # listed ids: some the table holds, some it lacks; some lists empty
    members = np.unique(np.concatenate([ids, [-100 * n - 1, 100 * n + 7]]))
    lists = [rng.choice(members, size=int(rng.integers(0, min(8, members.size) + 1)),
                        replace=False) for _ in range(B - 1)]
    gt = groundtruth_from_lists([ids[:1]] + lists)
    table = build_table(codes, ids, K)
    if np.unique(ids).size < n:
        with pytest.raises(ValidationError, match="^ids must be unique$"):
            pr_curve_by_radius(table, queries, gt)
        return
    assert_same_curve(pr_curve_by_radius(table, queries, gt),
                      reference_pr_curve(codes, ids, queries, gt))


def test_single_queries_skip_the_distinct_pass(monkeypatch):
    # a served single query, 1-D or a (1, L) block, is one key row and one
    # select: no distinct pass and no block select. A batch of two or more
    # makes one of each, and a batch of one code keeps the ascending-id
    # shortcut. Hamming keys, the weighted pattern table (2^6 <= N) and the
    # weighted direct sum (2^8 > N) all route alike.
    rng = seeded_rng(33)
    n, k = 200, 15
    ids = np.arange(n) + 4
    calls, tie_ids = [], []
    distinct, first_k = evaluation._distinct, evaluation._first_k

    def counting_distinct(codes):
        calls.append(codes.shape[0])
        return distinct(codes)

    def recording_first_k(keys, k, ids=None):
        tie_ids.append(ids)
        return first_k(keys, k, ids)

    monkeypatch.setattr(evaluation, "_distinct", counting_distinct)
    monkeypatch.setattr(evaluation, "_first_k", recording_first_k)
    short, long = rng.integers(0, 3, size=(n, 6)), rng.integers(0, 3, size=(n, 8))
    theta6, theta8 = rng.choice(TIE_THETA, size=6), rng.choice(TIE_THETA, size=8)
    for codes, knn in ((short, lambda q: knn_hamming(short, ids, q, k)),
                       (short, lambda q: knn_weighted(short, ids, q, theta6, k)),
                       (long, lambda q: knn_weighted(long, ids, q, theta8, k))):
        calls.clear()
        tie_ids.clear()
        L = codes.shape[1]
        for q in (codes[0], rng.integers(0, 3, size=L), np.array([-1] + [300] * (L - 1))):
            one = knn(q)
            assert one.shape == (k,)
            assert np.array_equal(knn(q[None]), one[None])
        assert calls == [] and tie_ids == []
        assert knn(np.repeat(codes[:1], 9, axis=0)).shape == (9, k)
        assert calls == [9] and tie_ids == [None]
        assert knn(codes[:2]).shape == (2, k)
        assert calls == [9, 2] and len(tie_ids) == 2
        assert knn(codes[:7]).shape == (7, k)
        assert calls == [9, 2, 7] and len(tie_ids) == 3


@pytest.mark.parametrize(  # queries per relevance block; db ids 0..4, each its own row
    "rows, by_position", [(1, False), (2, False), (None, False), (1, True)],
    ids=["1", "2", "None", "by-position"])
def test_relevant_hits_marks_listed_ids(monkeypatch, rows, by_position):
    db_ids = np.array([40, 7, 12, 3, 25])
    if rows is not None:
        monkeypatch.setattr(evaluation, "BLOCK_CELLS", rows * db_ids.size)
    hits = np.array([[7, 3, 40], [3, 12, 40], [3, 3, 99], [25, 7, 12]])
    lists = [np.array([3, 40, 1000]), np.array([-5, 8, 1000]), np.array([3, -5, 40, 99]),
             np.array([], dtype=np.int64)]
    # -5, 8, 99 and 1000 are in no database row (they sort next to 3, 12 and
    # 40); 99 is no valid hit either, though it sorts next to the listed 40
    if by_position:
        # the same database with ids 0..4, and 99 renamed to 5, one past
        # them: each id is its own row, so nothing is sorted or searched
        rename = {40: 0, 7: 1, 12: 2, 3: 3, 25: 4, 99: 5}
        db_ids, hits = np.arange(5), np.vectorize(lambda i: rename.get(i, i))(hits)
        lists = [np.array([rename.get(i, i) for i in lst], dtype=np.int64) for lst in lists]
        for name in ("argsort", "searchsorted"):
            monkeypatch.setattr(np, name, lambda *args, name=name, **kwargs: pytest.fail(name))
    queries = np.arange(len(lists))
    assert relevant_hits(hits, db_ids, groundtruth_from_lists(lists), queries).tolist() == [
        [False, True, True], [False, False, False], [True, True, False], [False, False, False]]
    with pytest.raises(ValidationError):
        relevant_hits(hits, db_ids, groundtruth_from_lists(lists[:2]), queries)


def assert_rows_of_lists(gt, ids):
    """`gt.rows_in(ids)` is a GroundTruth of gt's threshold whose list q
    holds, ascending, the rows of the ids that list q names."""
    row_of = {int(i): row for row, i in enumerate(ids)}
    rows = gt.rows_in(ids)
    assert isinstance(rows, GroundTruth) and rows.threshold == gt.threshold
    assert rows.offsets.size == gt.offsets.size
    for q in range(gt.offsets.size - 1):
        want = sorted(row_of[i] for i in neighbor_list(gt, q).tolist() if i in row_of)
        assert neighbor_list(rows, q).tolist() == want


@pytest.mark.parametrize(
    "ids", [np.arange(6), np.array([5, 0, 3, 1, 4, 2]), np.array([40, 7, 12, 3, 25, 9]),
            np.array([-3, -1, 0, 2, 8, 9])],
    ids=["positions", "shuffled-positions", "permuted", "ascending-gapped"])
def test_resolved_groundtruth_is_the_lists_mapped_to_rows(ids):
    # listed ids the database holds, ids it lacks (negative, N, past every
    # id) and empty lists, with a distance threshold kept; then only the
    # ids it holds
    lists = [[0, 3, 9, 40], [], [-3, -1, 6, 7, 25], [2, 4, 8, 12, 10 ** 12], [1, 5, 100]]
    held = [np.intersect1d(lst, ids) for lst in lists]
    for threshold in (None, 0.75):
        assert_rows_of_lists(groundtruth_from_lists(lists, threshold), ids)
        assert_rows_of_lists(groundtruth_from_lists(held, threshold), ids)


def reference_hit_marks(hits, ids, lists):
    """Per hit: the database holds its id and the query's list names it."""
    return np.array([np.isin(row, lst) & np.isin(row, ids) for row, lst in zip(hits, lists)])


@pytest.mark.parametrize("spread", [1, 7])  # ids dense in their range, spaced apart
def test_one_groundtruth_resolves_against_each_table(spread):
    # one groundtruth, four tables with the same codes: ascending ids,
    # permuted ids with listed ids the table lacks, ids 0..n-1 and a
    # permutation of them. Each table gets its own rows, however often the
    # groundtruth switches between them, and a rewritten ids array is
    # resolved again.
    rng = seeded_rng(41)
    n, L, K, Q, k = 400, 6, 3, 30, 25
    codes = rng.integers(0, K, size=(n, L))
    queries = rng.integers(0, K, size=(Q, L))
    queries[::3] = codes[:Q:3]
    ascending = np.arange(n) * spread + 5
    permuted = rng.permutation(ascending)
    permuted[3::40] = -1000 - np.arange(10)  # 10 listed ids gone, 10 ids no list names
    absent = np.array([-spread, 5 - spread, n * spread + 5, 10 ** 12])
    lists = []
    for q in range(Q):
        members = rng.choice(ascending, size=int(rng.integers(0, 40)), replace=False)
        if q % 3 == 1:
            members = np.concatenate([members, rng.choice(absent, size=2, replace=False)])
        lists.append(rng.permutation(members))
    # ids 0..n-1 in row order are found by position, a permutation of them by
    # search; -1, n and 10**12 are listed and hit, and match no row of either
    positions, shuffled = np.arange(n), rng.permutation(n)
    edges = np.array([-1, n, 10 ** 12])
    lists[1] = np.union1d(lists[1], np.concatenate([edges, rng.choice(n, 20, replace=False)]))
    lists[4] = np.union1d(lists[4], rng.choice(n, 20, replace=False))
    gt = groundtruth_from_lists(lists)
    other = groundtruth_from_lists(lists[::-1])
    asked = np.flatnonzero([len(lst) for lst in lists])
    curves = []
    for ids in (ascending, permuted, ascending.copy(), permuted, positions, shuffled, positions):
        assert_rows_of_lists(gt, ids)
        table = build_table(codes, ids, K)
        curve = pr_curve_by_radius(table, queries, gt)
        assert_same_curve(curve, reference_pr_curve(codes, ids, queries, gt))
        curves.append(curve)
        assert_same_curve(pr_curve_by_radius(table, queries[::-1], other),
                          reference_pr_curve(codes, ids, queries[::-1], other))
        hits = knn_hamming(codes, ids, queries[asked], k)
        marks = relevant_hits(hits, ids, gt, asked)
        assert marks.tolist() == reference_hit_marks(hits, ids, [lists[q] for q in asked]).tolist()
        # queries in any order, one of them twice
        mixed = np.concatenate([asked[::-1], asked[:1]])
        mixed_hits = hits[np.searchsorted(asked, mixed)]
        assert relevant_hits(mixed_hits, ids, gt, mixed).tolist() == reference_hit_marks(
            mixed_hits, ids, [lists[q] for q in mixed]).tolist()
        # ids the table lacks, among the hits
        edge_hits = hits.copy()
        edge_hits[:, -3:] = edges
        edge_marks = relevant_hits(edge_hits, ids, gt, asked)
        if ids is positions or ids is shuffled:
            assert not edge_marks[:, -3:].any()
        assert edge_marks.tolist() == reference_hit_marks(
            edge_hits, ids, [lists[q] for q in asked]).tolist()
    assert [c[2] for c in curves[0]] != [c[2] for c in curves[1]]  # a stale resolution would show
    # equal ids in another array reuse the resolution; rewritten ids do not
    ids = ascending.copy()
    assert gt.rows_in(ids) is gt.rows_in(ascending)
    ids[:40] = ids[39::-1]
    table = build_table(codes, ids, K)
    assert_same_curve(pr_curve_by_radius(table, queries, gt),
                      reference_pr_curve(codes, ids, queries, gt))


# ----------------------------------------------------------------- metrics


def test_precision_recall_examples():
    assert precision({1, 2, 3, 4}, {2, 4, 7}) == pytest.approx(0.5)
    assert recall({1, 2, 3, 4}, {2, 4, 7}) == pytest.approx(2 / 3)
    assert precision({2, 4}, {2, 4, 7}) == 1.0
    assert precision(set(), {1}) is None
    assert recall({1}, set()) is None


def test_pr_curve_perfect_retrieval():
    codes = np.array([[0, 0], [0, 0], [1, 1]])
    ids = np.array([0, 1, 2])
    table = build_table(codes, ids, 2)
    gt = groundtruth_from_lists([[0, 1]])
    curve = pr_curve_by_radius(table, np.array([[0, 0]]), gt)
    assert curve[0] == (0, 1.0, 1.0)
    assert average_precision(curve) == 1.0


def test_pr_curve_skips_empty_relevant_queries():
    codes = np.array([[0], [1]])
    table = build_table(codes, np.array([0, 1]), 2)
    gt = groundtruth_from_lists([[0], []])
    curve = pr_curve_by_radius(table, np.array([[0], [1]]), gt)
    # only the first query counts; it retrieves its neighbor at R=0
    assert curve[0][1] == 1.0 and curve[0][2] == 1.0


def test_pr_curve_rejects_all_empty():
    codes = np.array([[0]])
    table = build_table(codes, np.array([0]), 2)
    with pytest.raises(ValidationError):
        pr_curve_by_radius(table, np.array([[0]]), groundtruth_from_lists([[]]))


def test_pr_curve_and_ap_match_brute_force():
    rng = seeded_rng(12)
    n, L, K, Q = 30, 5, 3, 8
    codes = rng.integers(0, K, size=(n, L))
    ids = np.arange(n)
    table = build_table(codes, ids, K)
    queries = rng.integers(0, K, size=(Q, L))
    gt = groundtruth_from_lists(
        [rng.choice(n, size=rng.integers(1, 6), replace=False) for _ in range(Q)])
    curve = pr_curve_by_radius(table, queries, gt)

    # independent recomputation through lookup()
    for R in range(L + 1):
        precisions, recalls = [], []
        for q in range(Q):
            got = set(lookup(table, queries[q], R).tolist())
            relevant = set(neighbor_list(gt, q).tolist())
            p = precision(got, relevant)
            if p is not None:
                precisions.append(p)
            recalls.append(len(got & relevant) / len(relevant))
        want_p = float(np.mean(precisions)) if precisions else float("nan")
        if math.isnan(want_p):
            assert math.isnan(curve[R][1])
        else:
            assert curve[R][1] == pytest.approx(want_p)
        assert curve[R][2] == pytest.approx(float(np.mean(recalls)))

    # step-sum oracle over the curve itself
    ap = 0.0
    prev = 0.0
    for _, p, r in curve:
        if r > prev:
            ap += (r - prev) * p
        prev = r
    assert average_precision(curve) == pytest.approx(ap)
    assert 0.0 <= average_precision(curve) <= 1.0


def assert_same_curve(got, want):
    assert len(got) == len(want)
    for (r1, p1, c1), (r2, p2, c2) in zip(got, want):
        assert r1 == r2
        assert p1 == p2 or (math.isnan(p1) and math.isnan(p2))
        assert c1 == c2


def block_rows(n, L, paired=True):
    """Distinct query codes per PR-curve block. Each holds a mask row and a
    count row. Single keys are one intp per cell, which bincount reads in
    place; paired keys are one per two cells (the count row padded to even
    length), in the narrowest dtype that holds a lane of two counts and
    every key below block * (L + 1)^2, and bincount copies them to intp."""
    count = np.min_scalar_type(L).itemsize
    if not paired:
        return max(1, evaluation.BLOCK_CELLS // (n * (L + count + 8)))

    def rows(key):
        cost = L * n + count * (n + n % 2) + (key + 8) * (n // 2)
        return max(1, evaluation.BLOCK_CELLS // cost)

    block = rows(2 * count)
    return rows(max(2 * count, np.min_scalar_type(block * (L + 1) ** 2 - 1).itemsize))


def assert_curve_of_distinct_codes(rng, codes, ids, K, distinct):
    """The PR curve over a table of `codes` and `ids` equals the per-query
    reference, for queries whose relevant sets are non-empty exactly when
    their codes are the rows of `distinct`: each row is asked at least once,
    some several times, with queries whose list is empty in between, and
    some lists name ids the table lacks."""
    Q, L = distinct.shape
    table = build_table(codes, ids, K)
    asked = distinct[rng.permutation(np.concatenate([np.arange(Q),
                                                     rng.integers(0, Q, size=Q // 2 + 1)]))]
    absent = np.arange(-50, 0)  # ids the table does not hold
    lists = []
    for q in range(len(asked)):
        size = int(rng.integers(1, min(60, ids.size + 1)))
        members = rng.choice(ids, size=size, replace=False)
        if q % 4 == 1:
            members = np.concatenate([members, rng.choice(absent, size=3, replace=False)])
        lists.append(rng.permutation(members))
    if Q == 1:
        lists[0] = [ids[5], -7]  # one list holding an absent id
    # queries with no relevant id do not count, whatever their codes
    skipped = rng.integers(0, K, size=(len(asked) // 7 + 1, L))
    order = rng.permutation(len(asked) + len(skipped))
    queries = np.vstack([asked, skipped])[order]
    gt = groundtruth_from_lists([(lists + [[]] * len(skipped))[i] for i in order])
    held = np.flatnonzero(np.diff(gt.offsets))
    assert len(np.unique(queries[held], axis=0)) == Q
    assert_same_curve(pr_curve_by_radius(table, queries, gt),
                      reference_pr_curve(codes, ids, queries, gt))


@pytest.mark.parametrize("which", ["one", "block-1", "block+1", "many"])
def test_pr_curve_matches_per_query_reference(which):
    # `which` counts the distinct codes of the queries with a relevant set,
    # the unit the PR curve blocks by
    rng = seeded_rng(21)
    n, L, K = 2000, 8, 3
    codes = rng.integers(0, K, size=(n, L))
    codes[100:400] = codes[:300]  # duplicate rows
    ids = rng.permutation(5 * n)[:n] + 17
    block = block_rows(n, L)
    Q = {"one": 1, "block-1": block - 1, "block+1": block + 1, "many": 2 * block + 5}[which]
    pool = np.unique(np.vstack([codes[rng.integers(0, n, size=Q)],
                                rng.integers(0, K, size=(2 * Q, L))]), axis=0)
    assert_curve_of_distinct_codes(rng, codes, ids, K, pool[rng.permutation(len(pool))[:Q]])


def foreign_codes(rng, codes, K, Q):
    """Q distinct query codes, some of the table's and some drawn at random,
    a fifth of them holding a symbol outside [0, K): -1, K, or one that the
    store's dtype wraps to 0."""
    n, L = codes.shape
    pool = np.vstack([codes[rng.integers(0, n, size=Q)], rng.integers(0, K, size=(2 * Q + 8, L))])
    stranger = np.flatnonzero(rng.random(len(pool)) < 0.2)
    wrap = np.iinfo(np.min_scalar_type(K - 1)).max + 1
    pool[stranger, rng.integers(0, L, size=stranger.size)] = rng.choice([-1, K, wrap],
                                                                         size=stranger.size)
    pool = np.unique(pool, axis=0)
    assert len(pool) >= Q
    return pool[rng.permutation(len(pool))[:Q]]


U1, U2, U4, INTP = (np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.intp))


@pytest.mark.parametrize("n, L, K, pairs, Q, paired, count_type, key_type", [
    # odd n: the last column has its own bincount
    (1, 3, 3, True, 10, True, U1, U2),
    (3, 5, 3, True, 20, True, U1, U2),
    (2001, 8, 4, None, 30, True, U1, U2),
    (4999, 8, 8, None, 30, True, U1, U2),
    # the count, and so the lane, widens at L = 256; six codes of at least
    # 2^16 bins each take uint32 keys
    (9, 255, 3, True, 6, True, U1, U4),
    (10, 256, 3, True, 6, True, U2, U4),
    (9, 255, 3, None, 6, False, U1, INTP),
    (10, 256, 3, None, 6, False, U2, INTP),
    # 809 codes of 81 bins are keys below 2^16; 810 are not
    (5, 8, 4, True, 809, True, U1, U2),
    (5, 8, 4, True, 810, True, U1, U4),
    # (L + 1)^2 = 324 bins pay against 1000 pairs, 361 do not
    (2000, 17, 3, None, 40, True, U1, U2),
    (2000, 18, 3, None, 40, False, U1, INTP),
    # a uint16 store
    (300, 4, 300, True, 40, True, U1, U2),
    (300, 4, 300, False, 40, False, U1, INTP),
    # block edges of single keys and of paired keys over odd n
    (2000, 8, 3, False, block_rows(2000, 8, False) - 1, False, U1, INTP),
    (2000, 8, 3, False, block_rows(2000, 8, False) + 1, False, U1, INTP),
    (2001, 8, 3, None, block_rows(2001, 8) - 1, True, U1, U2),
    (2001, 8, 3, None, block_rows(2001, 8) + 1, True, U1, U2),
], ids=["n1", "n3", "n2001", "n4999", "L255-paired", "L256-paired", "L255", "L256",
        "keys-u2", "keys-u4", "bins-below-rule", "bins-above-rule", "K300-paired", "K300-single",
        "single-block-1", "single-block+1", "odd-block-1", "odd-block+1"])
def test_pr_curve_counts_match_reference_on_every_branch(
        monkeypatch, n, L, K, pairs, Q, paired, count_type, key_type):
    # `pairs` forces paired or single keys; None leaves the choice to n and L
    if pairs is not None:
        monkeypatch.setattr(evaluation, "_pairs_pay", lambda n, L: pairs)
    made = []

    class Recording(evaluation._DistanceCounter):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(evaluation, "_DistanceCounter", Recording)
    rng = seeded_rng(35)
    codes = rng.integers(0, K, size=(n, L))
    codes[n // 3:] = codes[rng.integers(0, n // 3 + 1, size=n - n // 3)]  # repeated rows
    ids = rng.permutation(3 * n + 6)[:n] + 1
    assert_curve_of_distinct_codes(rng, codes, ids, K, foreign_codes(rng, codes, K, Q))
    counter, = made
    assert (counter.paired, counter.counts.dtype, counter.keys.dtype) == (
        paired, count_type, key_type)
    assert counter.block == min(Q, block_rows(n, L, paired))


def test_pr_curve_holds_no_more_than_its_block_buffers():
    # 1000 queries over 5000 codes of L = 8, as a distance_file eval scores
    # them. Counted with one intp key per cell, the curve's peak was at
    # least 2448698 bytes (numpy 2.4.6, lowest of five runs); the paired keys
    # and bincount's intp copy of them must fit in the same block budget.
    rng = seeded_rng(36)
    n, L, K, Q = 5000, 8, 8, 1000
    table = build_table(rng.integers(0, K, size=(n, L)), np.arange(n), K)
    queries = rng.integers(0, K, size=(Q, L))
    gt = groundtruth_from_lists([rng.choice(n, size=50, replace=False) for _ in range(Q)])
    gt.rows_in(table.ids)  # resolved once per database, outside the curve
    tracemalloc.start()
    try:
        pr_curve_by_radius(table, queries, gt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2448698, peak


def test_pr_curve_nothing_retrieved_at_small_radii():
    codes = np.array([[0, 1, 0], [1, 1, 0], [0, 0, 0]])
    ids = np.array([9, 4, 6])
    table = build_table(codes, ids, 3)
    queries = np.array([[2, 2, 2], [2, 2, 1], [2, 2, 2]])
    gt = groundtruth_from_lists([[4], [9, 6, 12], []])
    curve = pr_curve_by_radius(table, queries, gt)
    assert math.isnan(curve[0][1]) and math.isnan(curve[1][1])
    assert curve[0][2] == 0.0
    assert_same_curve(curve, reference_pr_curve(codes, ids, queries, gt))


def test_pr_curve_and_hit_marks_refuse_repeated_table_ids():
    # a table and kNN take repeated ids, but a groundtruth resolves against
    # unique ones only, by the rule Dataset applies
    rng = seeded_rng(23)
    codes = rng.integers(0, 2, size=(50, 4))
    for ids in (rng.integers(0, 20, size=50), np.r_[np.arange(49), 48]):
        table = build_table(codes, ids, 2)
        queries = rng.integers(0, 2, size=(9, 4))
        gt = groundtruth_from_lists([rng.choice(25, size=4, replace=False) for _ in range(9)])
        hits = knn_hamming(codes, ids, queries, 3)
        for score in (lambda: pr_curve_by_radius(table, queries, gt),
                      lambda: relevant_hits(hits, ids, gt, np.arange(9)),
                      lambda: Dataset(np.zeros((50, 1)), ids)):
            with pytest.raises(ValidationError, match="^ids must be unique$"):
                score()


def test_pr_curve_wide_alphabet_and_foreign_query_symbols():
    rng = seeded_rng(24)
    n, L, K = 300, 4, 300
    codes = rng.integers(0, 5, size=(n, L)) * 60  # symbols 0..240 of 300
    ids = np.arange(n)
    table = build_table(codes, ids, K)
    queries = codes[:12].copy()
    queries[1, 0] = -1
    queries[2, 1] = K
    queries[3, 2] = 65536 + 60  # wraps to 60 in a uint16 store
    queries[4] = [256 + 60, 60, 60, 60]
    gt = groundtruth_from_lists([rng.choice(n, size=10, replace=False) for _ in range(12)])
    assert_same_curve(pr_curve_by_radius(table, queries, gt),
                      reference_pr_curve(codes, ids, queries, gt))


def test_aggregate_runs():
    out = aggregate_runs({"ap": [0.5, 0.5, 0.5]}, 3)
    assert out["ap"] == (0.5, 0.0)
    out = aggregate_runs({"ap": [0.0, 1.0]}, 2)
    assert out["ap"][0] == pytest.approx(0.5)
    assert out["ap"][1] == pytest.approx(math.sqrt(0.5))
    out = aggregate_runs({"ap": [0.7]}, 1)
    assert out["ap"] == (0.7, 0.0)
    # a radius that retrieved nothing: one seed or several, mean and std
    # are both NaN
    for values in ([math.nan], [math.nan, 0.5]):
        mean, std = aggregate_runs({"precision_r0": values}, len(values))["precision_r0"]
        assert math.isnan(mean) and math.isnan(std)


def test_aggregate_runs_checks_length():
    with pytest.raises(ValidationError):
        aggregate_runs({"ap": [0.1, 0.2]}, 3)
