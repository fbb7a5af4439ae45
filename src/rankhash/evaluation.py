"""Retrieval evaluation: range lookup, kNN ranking, and PR summaries.

The database codes are kept once, as an (L, N) column store, and one
mismatch count over that store serves range lookup, kNN and the PR curve.
`encode_dataset` already writes that layout (its (N, L) result is the
transpose of a C-contiguous uint8 store), and every reader here keeps the
integer dtype it is given, so no code is widened to int64 on the way.
`lookup` answers with an int64 array of ids in table row order, and
weighted kNN keeps the rank tables of its last few weight vectors, so a
stream of single queries against one model rebuilds neither per call.
The PR curve and `relevant_hits` take a `GroundTruth` (one flat id array
cut by offsets) and read its relevant rows from `GroundTruth.rows_in`, a
`GroundTruth` over database rows, which resolves the lists against each
set of unique database ids once, so the models of one eval share one
resolution; `relevant_hits` finds each hit's row by the same lookup (by
position when the ids are 0..N-1 in row order, else by search). Both
refuse a table whose ids repeat. A single range or kNN query is one (L, N)
mismatch pass over the store, plus one select of the k nearest for kNN.
One key function (`_keys`) gives kNN its Hamming or weighted keys, for one
code or a block. Batched kNN, the PR curve and `relevant_hits` work in blocks
of queries and write every block's mask into one buffer allocated per call;
kNN's multi-byte pattern terms and direct weighted sums are allocated per block.
Short codes send many queries to one code, so a batch of kNN queries ranks
each distinct code once and the PR curve counts each distinct code's
distances once (`_distinct`). The PR curve counts a block's distances with
one bincount: while the (L + 1)^2 bins of a pair key number at most a third
of the N / 2 pairs of adjacent stored codes, each key reads two adjacent
mismatch counts at once, through a view of the count buffer as lanes of
twice its width, so there are half as many keys to count
(`_DistanceCounter`).
All distances here are symbol-level Hamming distances (count of positions
where two codes disagree), never distances between packed bit strings. A
query that retrieves nothing has no defined precision; it is excluded from
precision means, while its recall counts as 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import ValidationError, _as_count, _as_ints, _as_reals, _frozen_array
from .data import GroundTruth, _id_rows

__all__ = [
    "HashTable",
    "build_table",
    "lookup",
    "knn_hamming",
    "knn_weighted",
    "relevant_hits",
    "pr_curve_by_radius",
    "average_precision",
    "aggregate_runs",
]

# The PR curve works in blocks of distinct query codes whose mask, counts,
# bincount keys and bincount's own intp copy of narrow keys hold about
# BLOCK_CELLS bytes. At L < 256 a (code, row) cell costs L + 1 + 8 bytes
# with one intp key per cell, which bincount reads in place, and
# L + 1 + (2 + 8) / 2 with one uint16 key per two cells, which it copies to
# intp. `relevant_hits` marks blocks of (B, N) cells. kNN compares blocks of
# a batch's distinct codes whose (L, B, N) comparison mask holds about
# KNN_BLOCK_CELLS cells, so that a block's mask and keys stay in a 2 MB L2
# cache while it is ranked (its direct weighted sum adds 8 bytes of float
# terms per cell). Each pass allocates its mask (and the PR curve its counts
# and keys) once per call and writes every block into it, so transient
# memory stays at a few MB whatever the table size, and a pass faults in its
# pages once. kNN's multi-byte pattern terms and direct weighted sums are
# the exception, allocated per block.
BLOCK_CELLS = 1 << 21
KNN_BLOCK_CELLS = 1 << 19


def _as_codes(codes, ndims=(1, 2), L: int | None = None) -> np.ndarray:
    """Integer code symbols in the dtype given, as one code (1-D) or a
    non-empty (B, L) block, each of the `ndims` allowed; a code holds at
    least one symbol, and L of them when L is given."""
    codes = _as_ints(codes, "code symbols", None)
    if codes.ndim not in ndims or codes.size < 1 or (L is not None and codes.shape[-1] != L):
        forms = " or ".join(("one code", "a (B, L) block")[n - 1] for n in ndims)
        raise ValidationError(f"codes must be {forms} of integer symbols, non-empty"
                              + ("" if L is None else f", with L = {L}"))
    return codes


def _row_ids(ids: np.ndarray, codes: np.ndarray) -> np.ndarray:
    if ids.shape != (codes.shape[0],):
        raise ValidationError("ids must align with code rows")
    return ids


@dataclass(frozen=True)
class HashTable:
    """Database codes stored by column, for mismatch-counting scans.

    `columns` is the (L, N) code store in the smallest unsigned dtype that
    holds K - 1; row n of the database is column n, with id `ids[n]`.
    """

    columns: np.ndarray
    ids: np.ndarray
    L: int
    K: int

    @cached_property
    def buckets(self) -> dict:
        """Each stored code (a tuple of symbols) mapped to the list of ids
        stored under it, in database order.

        A diagnostic view of bucket occupancy, derived from the store on
        first access; no lookup reads it.
        """
        buckets: dict = {}
        for key, ident in zip(map(tuple, self.columns.T.tolist()), self.ids.tolist()):
            buckets.setdefault(key, []).append(ident)
        return buckets


def build_table(codes, ids, K: int) -> HashTable:
    """Store database codes by column in the smallest dtype that holds K - 1.

    The table owns its store and its ids: both are fresh read-only copies,
    the columns C-contiguous, so writing into `codes` or `ids` afterwards
    changes no lookup. From `encode_dataset`'s output the copy of the
    columns is one contiguous memcpy.
    """
    codes = _as_codes(codes, (2,))
    ids = _row_ids(_frozen_array(ids, np.int64, "ids"), codes)
    K = _as_count("K", K, 1)
    if codes.min() < 0 or codes.max() >= K:
        raise ValidationError(f"symbols must lie in [0, {K})")
    columns = _frozen_array(codes.T, np.min_scalar_type(K - 1), "codes")
    return HashTable(columns=columns, ids=ids, L=codes.shape[1], K=K)


def _differ(columns: np.ndarray, queries: np.ndarray, out=None) -> np.ndarray:
    """(L, B, N) mask of the positions where each of B query codes differs
    from each of the N stored codes in the (L, N) `columns`, written into
    `out` when given; one 1-D query code gives an (L, N) mask.

    A query symbol that the store's dtype cannot hold (negative, say)
    matches nothing.
    """
    symbols = queries.astype(columns.dtype, copy=False)
    store = columns if queries.ndim == 1 else columns[:, None, :]
    differ = np.not_equal(store, symbols.T[..., None], out=out, order="C")
    if symbols is not queries:
        beyond = symbols != queries  # the cast wrapped these
        if beyond.any():
            differ |= beyond.T[..., None]
    return differ


def _mismatches(columns: np.ndarray, queries: np.ndarray, mask=None, out=None) -> np.ndarray:
    """(B, N) count of positions where each of B query codes differs from
    each of the N stored codes in the (L, N) `columns`; (N,) for one code.

    Compares every position at once (into the (L, B, N) `mask` when given)
    and sums the mask over positions, one whole-row vector add per
    position, into `out` when given. The mask's bytes are 0 or 1, so they
    are summed as uint8, which spares numpy's cast from bool.
    """
    return np.add.reduce(_differ(columns, queries, mask).view(np.uint8), axis=0,
                         dtype=np.min_scalar_type(columns.shape[0]), out=out)


def lookup(table: HashTable, code, radius: int, strategy: str = "auto") -> np.ndarray:
    """The database ids whose codes lie within `radius` symbol flips, as a
    1-D int64 array in table row order (empty when nothing is in range).

    One count of mismatches over the whole column store answers every
    radius. `strategy` ("auto", "expand" or "scan") is accepted for
    compatibility and selects nothing: all three run the same scan. Query
    symbols outside [0, K) match no stored symbol.
    """
    code = _as_codes(code, (1,), table.L)
    radius = _as_count("radius", radius, 0, table.L)
    if strategy not in ("auto", "expand", "scan"):
        raise ValidationError("strategy must be auto, expand, or scan")
    near = _mismatches(table.columns, code) <= radius
    return table.ids[near]


def _distinct(codes: np.ndarray):
    """(distinct, which) for a (B, L) block of codes: its distinct rows, and
    for each row the index of its row in `distinct`, so that
    distinct[which] equals `codes`.

    Each row is viewed as one opaque scalar of its bytes, which np.unique
    sorts many times faster than rows compared with axis=0; the order of
    the distinct rows is that byte order, not a numeric one."""
    codes = np.ascontiguousarray(codes)
    rows = codes.view(np.dtype((np.void, codes.dtype.itemsize * codes.shape[1]))).ravel()
    _, first, which = np.unique(rows, return_index=True, return_inverse=True)
    return codes[first], which


def _knn(codes, ids, query, k, theta=None) -> np.ndarray:
    """The kNN functions' one body: Hamming keys, or weighted keys when
    `theta` is given; (k,) ids for one code, (B, k) for a block.

    One code (or a block of one) is one key row and one select. A larger
    batch ranks each of its distinct codes once, each query taking its
    code's row, in blocks whose (L, B, N) comparison mask holds about
    KNN_BLOCK_CELLS cells; every block's mask is written into one buffer
    allocated once per call."""
    queries = _as_codes(query)
    codes = _as_codes(codes, (2,), queries.shape[-1])
    ids = _row_ids(_as_ints(ids, "ids"), codes)
    k = _as_count("k", k, 1, codes.shape[0])
    columns = codes.T
    L, n = columns.shape
    if theta is not None:
        if theta.shape != (L,):
            raise ValidationError("theta must match the query length")
        if not np.isfinite(theta).all():
            raise ValidationError("theta must be finite")
    if queries.size == L:
        keys = _keys(columns, queries.reshape(L), theta)
        cand = np.flatnonzero(keys <= np.partition(keys, k - 1)[k - 1])
        found = ids[cand]
        return found[np.lexsort((found, keys[cand]))[:k]].reshape(queries.shape[:-1] + (k,))
    queries, which = _distinct(queries)
    block = min(queries.shape[0], max(1, KNN_BLOCK_CELLS // (L * n)))
    mask = np.empty((L, block, n), dtype=bool)
    # ascending ids (the common case) need no id key in the sort
    ties = None if (ids[1:] >= ids[:-1]).all() else ids
    found = []
    for start in range(0, queries.shape[0], block):
        part = queries[start:start + block]
        keys = _keys(columns, part, theta, mask[:, :part.shape[0]])
        found.append(ids[_first_k(keys, k, ties)])
    return np.concatenate(found)[which]


def _keys(columns: np.ndarray, queries: np.ndarray, theta=None, mask=None) -> np.ndarray:
    """(N,) ranking keys of one code against the (L, N) `columns`, or (B, N)
    for a (B, L) block, compared into the (L, B, N) `mask` when given. A key
    is the mismatch count or, with `theta`, minus the sum of theta over the
    positions where the row agrees with the query; a row's key is the same
    whatever the block.

    When 2^L <= N the 2^L agreement patterns are scored once and ranked
    (`_pattern_ranks`), equal scores sharing a rank, so (rank, id) order is
    (score, id) order, and each row gathers its pattern's rank, indexed by
    the positions where it differs, as a small integer key. Otherwise a key
    is a direct sum over a row-major (..., N, L) array.
    """
    L, n = columns.shape
    if theta is None:
        return _mismatches(columns, queries, mask).astype(_key_type(L))
    differ = _differ(columns, queries, mask)
    if (1 << L) <= n:
        bit, rank = _pattern_ranks(theta.tobytes())
        differ = differ.view(np.uint8)
        # one-byte bits scale the mask's own bytes in place
        terms = np.multiply(differ, bit.reshape((L,) + (1,) * (differ.ndim - 1)),
                            out=differ if bit.dtype == np.uint8 else None)
        # take: indexing with a small unsigned index array is ~3x slower
        return rank.take(np.add.reduce(terms, axis=0, dtype=bit.dtype))
    # a position that differs adds theta * 0, a zero
    agree = np.logical_not(np.moveaxis(differ, 0, -1), order="C")
    return -(agree * theta).sum(axis=-1)


def _first_k(keys: np.ndarray, k: int, ids=None) -> np.ndarray:
    """(B, k) columns of each row's k smallest (key, id) pairs, in that order.

    `ids` gives each column's id; None means the columns are already in
    ascending id order. Selects in O(N) per row and sorts only the
    candidates: a row's k-th smallest key by partition, then the cells at or
    below it (k of them plus the surplus tied at the k-th key), sorted by
    (row, key, id), of which each row keeps its first k.
    """
    B, n = keys.shape
    kth = np.partition(keys, k - 1, axis=1)[:, k - 1:k]
    cand = np.flatnonzero(keys <= kth)  # row-major, so grouped by row
    rows = cand // n
    cols = cand - rows * n
    by = (keys.ravel()[cand], rows)
    # lexsort is stable: candidates come in column order within each row
    order = np.lexsort(by if ids is None else (ids[cols],) + by)
    first = np.searchsorted(rows, np.arange(B))
    return cols[order[first[:, None] + np.arange(k)]]


def _key_type(largest: int) -> np.dtype:
    """The dtype of ranking keys up to `largest`: partition is several times
    slower on uint8 keys than on int16 (or wider) ones, and int16 is 2-3x
    faster than intp."""
    return np.promote_types(np.min_scalar_type(largest), np.int16)


def knn_hamming(codes, ids, query, k: int) -> np.ndarray:
    """The k database ids closest in symbol Hamming distance.

    `codes` is (N, L) integer symbols, read by column in their own dtype:
    `encode_dataset`'s output and `table.columns.T` are both (N, L) views
    of a C-contiguous uint8 column store, compared with no copy and no
    widening. `query` is one code, giving a (k,) array, or a (B, L) block
    of codes, giving (B, k) with row b the answer for query b. Ties break
    by ascending id, so the ordering is total and deterministic.
    """
    return _knn(codes, ids, query, k)


@lru_cache(maxsize=4)
def _pattern_ranks(theta_bytes: bytes):
    """(bit, rank) for the float64 weights whose bytes are `theta_bytes`:
    `bit[l]` is 1 << l, and `rank[p]` the rank of agreement pattern p's
    score, minus the sum of theta over the positions whose bit p lacks,
    equal scores sharing a rank.

    Depends on theta alone, so a served stream of single queries against
    one model builds it once; the arrays are shared and read-only.
    """
    theta = np.frombuffer(theta_bytes)
    L = theta.size
    bit = (1 << np.arange(L)).astype(np.min_scalar_type((1 << L) - 1))
    agree = (np.arange(1 << L)[:, None] & bit) == 0
    scores, rank = np.unique(-np.where(agree, theta, 0.0).sum(axis=1), return_inverse=True)
    rank = rank.astype(_key_type(scores.size - 1))
    bit.setflags(write=False)
    rank.setflags(write=False)
    return bit, rank


def knn_weighted(codes, ids, query, theta, k: int) -> np.ndarray:
    """The k database ids with the largest weighted code similarity.

    The similarity of a row is the sum of `theta` over the positions where
    it agrees with the query. `codes` and `query` are as for `knn_hamming`.
    Ties break by ascending id. With uniform weights the ranking coincides
    with `knn_hamming`.
    """
    return _knn(codes, ids, query, k, _as_reals(theta, "theta"))


def relevant_hits(hits, ids, gt: GroundTruth, queries) -> np.ndarray:
    """(B, k) mask of the ids in row b of `hits` that the groundtruth `gt`
    lists for its query queries[b].

    `hits` holds database ids (a kNN result for a block of B queries) and
    `ids` the unique database ids, row n holding ids[n]. The lists are
    resolved to database rows once per database (`GroundTruth.rows_in`),
    and each hit id to its row by the same lookup; each block of queries
    marks its relevant (query, row) cells in one mask of about BLOCK_CELLS
    cells, reads its hits from it and clears the cells it set. An id absent
    from the database, listed or hit, matches nothing.
    """
    hits = _as_ints(hits, "hits")
    queries = _as_ints(queries, "queries")
    if queries.ndim != 1 or not ((queries >= 0) & (queries < gt.offsets.size - 1)).all():
        raise ValidationError("queries must be a 1-D array of groundtruth query indices")
    if hits.ndim != 2 or hits.shape[0] != queries.size:
        raise ValidationError("hits must be (B, k), one row per query")
    ids = _as_ints(ids, "ids")
    rows = gt.rows_in(ids)
    n = ids.size
    found, hit_rows = _id_rows(ids, hits)
    block = max(1, BLOCK_CELLS // n)
    relevant = np.zeros(min(block, queries.size) * n, dtype=bool)
    for start in range(0, queries.size, block):
        owner, marked = rows.pairs(queries[start:start + block])
        cells = owner * n + marked
        at = hit_rows[start:start + block]
        relevant[cells] = True
        found[start:start + block] &= relevant[np.arange(at.shape[0])[:, None] * n + at]
        relevant[cells] = False
    return found


def pr_curve_by_radius(table: HashTable, query_codes, gt: GroundTruth):
    """Mean precision and recall at every radius R = 0..L.

    Retrieval at radius R is the full Hamming ball (equivalent to `lookup`).
    Queries with an empty relevant set are skipped; queries that retrieve
    nothing at some radius are excluded from that radius's precision mean and
    contribute recall 0. Relevant ids absent from the table are never
    retrieved, and a table whose ids repeat is refused. Returns a list of
    (R, precision, recall) where the precision is NaN if no query retrieved
    anything at that radius.

    The distances of each distinct query code are counted once, in blocks
    of distinct codes; each query reads its relevant rows' distances from
    its code's row, and the per-query precision and recall are summed in
    query order.
    """
    query_codes = _as_codes(query_codes, (2,), table.L)
    sizes = np.diff(gt.offsets)
    if sizes.size != query_codes.shape[0]:
        raise ValidationError("groundtruth must have one neighbor list per query")
    asked = np.flatnonzero(sizes)
    if asked.size == 0:
        raise ValidationError("no query has a non-empty relevant set")
    L = table.L
    # every (query, row) whose row id is relevant to the query: an id
    # absent from the table matches no row
    relevant = gt.rows_in(table.ids)
    codes, which = _distinct(query_codes[asked])
    counter = _DistanceCounter(table.ids.size, L, codes.shape[0])
    block = counter.block
    # the asked queries grouped by code, each code's in query order, and
    # where each block of codes starts among them
    holders = np.argsort(which, kind="stable")
    bounds = np.searchsorted(which[holders], np.arange(0, codes.shape[0] + block, block))
    # each asked query's precision and recall rows, after a row of zeros
    terms = np.zeros((asked.size + 1, 2, L + 1))
    prec_count = np.zeros(L + 1, dtype=np.int64)
    for start, lo, hi in zip(range(0, codes.shape[0], block), bounds, bounds[1:]):
        hist = counter.count(table.columns, codes[start:start + block])
        at = holders[lo:hi]
        code = which[at] - start
        qs = asked[at]
        owner, rows = relevant.pairs(qs)
        rel = _cumulative_counts(counter.at(code[owner], rows) + owner * (L + 1), qs.size, L)
        total = hist.cumsum(axis=1)[code]
        answered = total > 0
        terms[1 + at, 0] = np.divide(rel, total, out=np.zeros(total.shape), where=answered)
        terms[1 + at, 1] = rel / sizes[qs, None]
        prec_count += answered.sum(axis=0)
    # cumsum adds row after row, the same order as a per-query loop
    prec_sum, recall_sum = np.cumsum(terms, axis=0)[-1]
    curve = []
    for R in range(L + 1):
        p = prec_sum[R] / prec_count[R] if prec_count[R] else float("nan")
        curve.append((R, p, recall_sum[R] / asked.size))
    return curve


def _cumulative_counts(keys: np.ndarray, B: int, L: int) -> np.ndarray:
    """(B, L + 1) counts of distances <= R per query, from keys that carry
    each query's offset b * (L + 1)."""
    counts = np.bincount(keys.ravel(), minlength=B * (L + 1))
    return counts.reshape(B, L + 1).cumsum(axis=1)


def _pairs_pay(n: int, L: int) -> bool:
    """Whether `_DistanceCounter` counts two distances per bincount key. A
    pair key halves the keys to count but spreads them over (L + 1)^2 bins
    per code, not L + 1, so it pays only while those bins stay well below
    the n // 2 pairs they count. On a 2-core Xeon, 1000-query curves with at
    most a third as many bins as pairs ran 5-40% faster paired; at about
    half as many, paired was as often slower as faster."""
    return 3 * (L + 1) ** 2 <= n // 2


class _DistanceCounter:
    """The buffers in which one PR curve counts its distances, block by
    block. `count` gives, per query code of a block, how many of the n stored
    codes lie at each distance 0..L, and `at` reads the block's mismatch
    counts. A block holds at most `block` codes, so that its mask, counts,
    keys and bincount's intp copy of the keys hold about BLOCK_CELLS bytes.

    The counts are written into one (B, n) buffer of the smallest dtype that
    holds L. Single keys add each code's offset b * (L + 1) to its counts,
    in intp, and count them with one bincount. Paired keys (`_pairs_pay`)
    read two adjacent counts as one unsigned lane of twice the count's width
    s: with M = L + 1 the lane is p = lo + 2^s hi, and
    p - (2^s - M) hi + b M^2 = lo + M hi + b M^2 is a key into code b's
    M x M bins, in the narrowest dtype that holds both the lane and every
    key. One bincount counts half as many keys, and a code's histogram is
    its bins summed over hi plus its bins summed over lo: both marginals are
    added, so which count of a lane is lo, which depends on the byte order,
    changes nothing. The buffer's rows have even length, so the lanes are a
    view with no copy; an odd n's last column is counted by its own small
    bincount.
    """

    def __init__(self, n: int, L: int, codes: int):
        self.n, self.M = n, L + 1
        self.paired = _pairs_pay(n, L)
        count_type = np.min_scalar_type(L)
        width = n + n % 2 if self.paired else n
        self.per_row = n // 2 if self.paired else n
        intp = np.dtype(np.intp)

        def rows(key_type):
            # the mask, the counts, the keys and bincount's intp copy of them
            copy = 0 if key_type == intp else intp.itemsize
            cost = L * n + count_type.itemsize * width + (key_type.itemsize + copy) * self.per_row
            return max(1, min(codes, BLOCK_CELLS // cost))

        if self.paired:
            self.lane = np.dtype(f"u{2 * count_type.itemsize}")
            self.shift = 8 * count_type.itemsize
            self.block = rows(self.lane)
            # a key is below block * M^2: widen it past the lane when it must
            key_type = np.promote_types(self.lane, np.min_scalar_type(self.block * self.M ** 2 - 1))
            self.block = rows(key_type)
            self.offsets = (np.arange(self.block) * self.M ** 2).astype(key_type)[:, None]
        else:
            key_type = intp
            self.block = rows(key_type)
            self.offsets = np.arange(self.block)[:, None] * self.M
        self.mask = np.empty((L, self.block, n), dtype=bool)
        self.counts = np.empty((self.block, width), dtype=count_type)
        self.keys = np.empty((self.block, self.per_row), dtype=key_type)

    def count(self, columns: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """(B, L + 1) counts of the stored codes, the (L, n) `columns`, at
        each distance from each of a (B, L) block of at most `block` query
        codes."""
        b, n, M = queries.shape[0], self.n, self.M
        dists = _mismatches(columns, queries, self.mask[:, :b], self.counts[:b, :n])
        keys = self.keys[:b]
        if not self.paired:
            np.add(dists, self.offsets[:b], out=keys)
            return np.bincount(keys.ravel(), minlength=b * M).reshape(b, M)
        lanes = self.counts[:b].view(self.lane)[:, :self.per_row]
        np.right_shift(lanes, self.shift, out=keys)
        np.multiply(keys, (1 << self.shift) - M, out=keys)
        np.subtract(lanes, keys, out=keys)
        np.add(keys, self.offsets[:b], out=keys)
        bins = np.bincount(keys.ravel(), minlength=b * M * M).reshape(b, M, M)
        hist = bins.sum(axis=1) + bins.sum(axis=2)
        if n % 2:
            hist += np.bincount(dists[:, -1] + np.arange(b) * M, minlength=b * M).reshape(b, M)
        return hist

    def at(self, codes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The mismatch counts of the last block's codes `codes` (indices
        into the block) against the stored codes `rows`."""
        return self.counts.ravel()[codes * self.counts.shape[1] + rows]


def average_precision(curve) -> float:
    """Area under the radius-sweep PR curve.

    Sums (recall_R - recall_{R-1}) * precision_R over the curve with
    recall_{-1} = 0; radii that add no recall contribute nothing.
    """
    ap = 0.0
    prev = 0.0
    for _, prec, rec in curve:
        gain = rec - prev
        if gain > 0:
            ap += gain * prec
        prev = rec
    return ap


def aggregate_runs(metrics, n_seeds: int):
    """Mean and sample standard deviation per metric across seeds.

    `metrics` maps metric name to a length-n_seeds sequence. The standard
    deviation uses the n-1 denominator and is 0.0 for a single seed, except
    that a NaN mean always has a NaN deviation.
    """
    n_seeds = _as_count("n_seeds", n_seeds, 1)
    out = {}
    for name, values in metrics.items():
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (n_seeds,):
            raise ValidationError(f"metric {name} must have exactly {n_seeds} values")
        mean = float(values.mean())
        if np.isnan(mean):
            std = float("nan")
        else:
            std = 0.0 if n_seeds == 1 else float(values.std(ddof=1))
        out[name] = (mean, std)
    return out
