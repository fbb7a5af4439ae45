"""Retrieval evaluation: hash-table lookup, kNN ranking, and PR summaries.

All distances here are symbol-level Hamming distances (count of positions
where two codes disagree), never distances between packed bit strings. A
query that retrieves nothing has no defined precision; it is reported as
None (a distinguished no-result outcome) and excluded from precision means,
while its recall counts as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .core import ValidationError
from .data import GroundTruth

__all__ = [
    "HashTable",
    "build_table",
    "lookup",
    "knn_hamming",
    "knn_weighted",
    "precision",
    "recall",
    "pr_curve_by_radius",
    "average_precision",
    "aggregate_runs",
]

# `auto` lookup expands the Hamming ball only while its probe count times
# PROBE_ROWS stays below the row count N. At L = 8 a probe (tuple build and
# dict get) costs 1-2 us, and a scan about 20 us plus 1.5-3 ns per row, so
# the two break even near N / 600 probes at N = 20000 and N / 300 at 5000.
PROBE_ROWS = 512
# The PR curve compares blocks of queries whose (L, B, N) comparison mask
# holds at most about this many cells, so its transient arrays stay at a
# few MB whatever the table size.
BLOCK_CELLS = 1 << 21


def _as_code(code) -> np.ndarray:
    code = np.asarray(code)
    if code.ndim != 1 or code.size < 1:
        raise ValidationError("a code must be a non-empty 1-D symbol array")
    if not np.issubdtype(code.dtype, np.integer):
        raise ValidationError("code symbols must be integers")
    return code.astype(np.int64, copy=False)


def _as_count(name: str, value, low: int, high: int) -> int:
    """An integer in [low, high]; bools are rejected, not read as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer")
    if not low <= value <= high:
        raise ValidationError(f"{name}={value} must lie in [{low}, {high}]")
    return int(value)


@dataclass(frozen=True)
class HashTable:
    """Codes bucketed by exact value, plus a column store for linear scans.

    `columns` is the (L, N) code store in the smallest unsigned dtype that
    holds K - 1; row n of the database is column n, with id `ids[n]`.
    """

    buckets: dict
    columns: np.ndarray
    ids: np.ndarray
    L: int
    K: int


def build_table(codes, ids, K: int) -> HashTable:
    """Bucket database codes by exact code value and store them by column."""
    codes = np.asarray(codes, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    if codes.ndim != 2 or codes.shape[0] < 1:
        raise ValidationError("codes must be a non-empty (N, L) array")
    if ids.shape != (codes.shape[0],):
        raise ValidationError("ids must align with code rows")
    if isinstance(K, bool) or not isinstance(K, (int, np.integer)):
        raise ValidationError("K must be an integer")
    if codes.size and (codes.min() < 0 or codes.max() >= K):
        raise ValidationError(f"symbols must lie in [0, {K})")
    buckets: dict = {}
    for row, ident in zip(codes, ids.tolist()):
        buckets.setdefault(tuple(row.tolist()), []).append(ident)
    buckets = {key: np.asarray(vals, dtype=np.int64) for key, vals in buckets.items()}
    columns = np.ascontiguousarray(codes.astype(np.min_scalar_type(int(K) - 1)).T)
    return HashTable(buckets=buckets, columns=columns, ids=ids, L=codes.shape[1], K=int(K))


def _mismatches(columns: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(B, N) count of positions where each of B query codes differs from
    each of the N stored codes in the (L, N) `columns`.

    Compares every position at once into an (L, B, N) mask and sums it over
    positions, one whole-row vector add per position. A query symbol that
    the store's dtype cannot hold (negative, say) matches nothing.
    """
    symbols = queries.astype(columns.dtype)
    beyond = symbols != queries  # the cast wrapped these
    differ = np.not_equal(columns[:, None, :], symbols.T[:, :, None], order="C")
    if beyond.any():
        differ |= beyond.T[:, :, None]
    return differ.sum(axis=0, dtype=np.min_scalar_type(columns.shape[0]))


def _expansion_size(L: int, K: int, radius: int) -> int:
    return sum(math.comb(L, r) * (K - 1) ** r for r in range(radius + 1))


def lookup(table: HashTable, code, radius: int, strategy: str = "auto") -> set:
    """All database ids whose codes lie within `radius` symbol flips.

    `strategy` picks how candidates are found: "expand" probes the buckets
    for every code in the Hamming ball, "scan" counts mismatches over the
    whole column store, and "auto" expands only while the ball holds fewer
    than N / PROBE_ROWS codes. The result set is independent of the strategy.
    Query symbols outside [0, K) match no stored symbol.
    """
    code = _as_code(code)
    if code.shape != (table.L,):
        raise ValidationError("query code length does not match the table")
    radius = _as_count("radius", radius, 0, table.L)
    if strategy not in ("auto", "expand", "scan"):
        raise ValidationError("strategy must be auto, expand, or scan")
    if strategy == "auto":
        probes = _expansion_size(table.L, table.K, radius)
        strategy = "expand" if probes * PROBE_ROWS < table.ids.size else "scan"
    if strategy == "scan":
        near = _mismatches(table.columns, code[None, :])[0] <= radius
        return set(table.ids[near].tolist())
    found: set = set()
    base = tuple(code.tolist())
    alphabet = range(table.K)
    for r in range(radius + 1):
        for positions in combinations(range(table.L), r):
            choices = [[sym for sym in alphabet if sym != base[p]] for p in positions]
            for repl in product(*choices):
                probe = list(base)
                for p, sym in zip(positions, repl):
                    probe[p] = sym
                hit = table.buckets.get(tuple(probe))
                if hit is not None:
                    found.update(hit.tolist())
    return found


def _ranking_inputs(codes, ids, query, k):
    # row-major, so a row's weighted sum rounds the same for any input layout
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    query = _as_code(query)
    if codes.ndim != 2 or codes.shape[1] != query.size:
        raise ValidationError("codes must be (N, L) matching the query length")
    if ids.shape != (codes.shape[0],):
        raise ValidationError("ids must align with code rows")
    k = _as_count("k", k, 1, codes.shape[0])
    return codes, ids, query, k


def _first_k(key: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Rows of the k smallest (key, id) pairs, in that order.

    Selects in O(N) and sorts only the k selected rows: the k-th smallest
    key by partition, then every row below it and the smallest ids among
    the rows tied at it.
    """
    if k < key.size:
        kth = np.partition(key, k - 1)[k - 1]
        below = np.flatnonzero(key < kth)
        tied = np.flatnonzero(key == kth)
        need = k - below.size
        if need < tied.size:
            tied = tied[np.argpartition(ids[tied], need - 1)[:need]]
        rows = np.concatenate([below, tied])
    else:
        rows = np.arange(key.size)
    return rows[np.lexsort((ids[rows], key[rows]))]


def knn_hamming(codes, ids, query, k: int) -> np.ndarray:
    """The k database ids closest in symbol Hamming distance.

    Ties break by ascending id, so the ordering is total and deterministic.
    """
    codes, ids, query, k = _ranking_inputs(codes, ids, query, k)
    # partition is several times slower on uint8 than on intp keys
    dists = _mismatches(codes.T, query[None, :])[0].astype(np.intp)
    return ids[_first_k(dists, ids, k)]


def knn_weighted(codes, ids, query, theta, k: int) -> np.ndarray:
    """The k database ids with the largest weighted code similarity.

    The similarity of a row is the sum of `theta` over the positions where
    it agrees with the query. Ties break by ascending id. With uniform
    weights the ranking coincides with `knn_hamming`.
    """
    codes, ids, query, k = _ranking_inputs(codes, ids, query, k)
    theta = np.asarray(theta, dtype=np.float64)
    n, L = codes.shape
    if theta.shape != (L,):
        raise ValidationError("theta must match the query length")
    if not np.isfinite(theta).all():
        raise ValidationError("theta must be finite")
    if (1 << L) <= n:
        # score each of the 2^L agreement patterns once, by the same
        # expression (and so the same rounding) as the direct sum below
        bit = (1 << np.arange(L)).astype(np.min_scalar_type((1 << L) - 1))
        agree = np.equal(codes.T, query[:, None], order="C")
        pattern = (agree * bit[:, None]).sum(axis=0, dtype=bit.dtype)
        patterns = (np.arange(1 << L)[:, None] & bit) != 0
        sims = np.where(patterns, theta, 0.0).sum(axis=1)[pattern]
    else:
        sims = np.where(codes == query, theta, 0.0).sum(axis=1)
    return ids[_first_k(-sims, ids, k)]


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


def pr_curve_by_radius(table: HashTable, query_codes, gt: GroundTruth):
    """Mean precision and recall at every radius R = 0..L.

    Retrieval at radius R is the full Hamming ball (equivalent to `lookup`).
    Queries with an empty relevant set are skipped; queries that retrieve
    nothing at some radius are excluded from that radius's precision mean and
    contribute recall 0. Relevant ids absent from the table are never
    retrieved. Returns a list of (R, precision, recall) where the precision
    is NaN if no query retrieved anything at that radius.
    """
    query_codes = np.asarray(query_codes, dtype=np.int64)
    if query_codes.ndim != 2 or query_codes.shape[1] != table.L:
        raise ValidationError("query codes must be (Q, L) matching the table")
    if len(gt.neighbor_lists) != query_codes.shape[0]:
        raise ValidationError("groundtruth must have one neighbor list per query")
    sizes = np.array([lst.size for lst in gt.neighbor_lists], dtype=np.int64)
    asked = np.flatnonzero(sizes)
    if asked.size == 0:
        raise ValidationError("no query has a non-empty relevant set")
    L = table.L
    by_id = np.argsort(table.ids, kind="stable")
    sorted_ids = table.ids[by_id]
    # running sums, carried across blocks and added to in query order
    prec_sum = np.zeros(L + 1)
    prec_count = np.zeros(L + 1, dtype=np.int64)
    recall_sum = np.zeros(L + 1)
    block = max(1, BLOCK_CELLS // table.columns.size)
    for start in range(0, asked.size, block):
        qs = asked[start:start + block]
        dists = _mismatches(table.columns, query_codes[qs])
        offsets = np.arange(qs.size)[:, None] * (L + 1)
        total = _cumulative_counts(dists + offsets, qs.size, L)
        # every (query, row) whose row id is relevant to the query: an id
        # absent from the table matches no row, a repeated id several
        wanted = np.concatenate([gt.neighbor_lists[q] for q in qs])
        lo = np.searchsorted(sorted_ids, wanted, "left")
        matches = np.searchsorted(sorted_ids, wanted, "right") - lo
        owner = np.repeat(np.repeat(np.arange(qs.size), sizes[qs]), matches)
        run_start = np.repeat(lo - (np.cumsum(matches) - matches), matches)
        rows = by_id[run_start + np.arange(run_start.size)]
        rel = _cumulative_counts(dists[owner, rows] + offsets[owner, 0], qs.size, L)
        answered = total > 0
        prec = np.divide(rel, total, out=np.zeros(total.shape), where=answered)
        # cumsum adds row after row, the same order as a per-query loop
        prec_sum = np.cumsum(np.vstack([prec_sum, prec]), axis=0)[-1]
        prec_count += answered.sum(axis=0)
        recall_sum = np.cumsum(np.vstack([recall_sum, rel / sizes[qs, None]]), axis=0)[-1]
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
    deviation uses the n-1 denominator and is 0.0 for a single seed.
    """
    if not isinstance(n_seeds, (int, np.integer)) or n_seeds < 1:
        raise ValidationError("n_seeds must be an integer >= 1")
    out = {}
    for name, values in metrics.items():
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (n_seeds,):
            raise ValidationError(f"metric {name} must have exactly {n_seeds} values")
        mean = float(values.mean())
        std = 0.0 if n_seeds == 1 else float(values.std(ddof=1))
        out[name] = (mean, std)
    return out
