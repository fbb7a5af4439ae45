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
    "symbol_hamming",
    "weighted_similarity",
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


def _as_code(code) -> np.ndarray:
    code = np.asarray(code)
    if code.ndim != 1 or code.size < 1:
        raise ValidationError("a code must be a non-empty 1-D symbol array")
    if not np.issubdtype(code.dtype, np.integer):
        raise ValidationError("code symbols must be integers")
    return code.astype(np.int64, copy=False)


def symbol_hamming(a, b) -> int:
    """Number of positions where two equal-length codes disagree."""
    a = _as_code(a)
    b = _as_code(b)
    if a.shape != b.shape:
        raise ValidationError("codes must have equal length")
    return int(np.count_nonzero(a != b))


def weighted_similarity(a, b, theta) -> float:
    """Sum of per-position weights over agreeing positions."""
    a = _as_code(a)
    b = _as_code(b)
    theta = np.asarray(theta, dtype=np.float64)
    if a.shape != b.shape or theta.shape != a.shape:
        raise ValidationError("codes and weights must have equal length")
    return float(theta[a == b].sum())


@dataclass(frozen=True)
class HashTable:
    """Codes bucketed by exact value, plus the flat arrays for linear scans."""

    buckets: dict
    codes: np.ndarray
    ids: np.ndarray
    L: int
    K: int


def build_table(codes, ids, K: int) -> HashTable:
    """Bucket database codes by exact code value."""
    codes = np.asarray(codes, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    if codes.ndim != 2 or codes.shape[0] < 1:
        raise ValidationError("codes must be a non-empty (N, L) array")
    if ids.shape != (codes.shape[0],):
        raise ValidationError("ids must align with code rows")
    if codes.size and (codes.min() < 0 or codes.max() >= K):
        raise ValidationError(f"symbols must lie in [0, {K})")
    buckets: dict = {}
    for row, ident in zip(codes, ids.tolist()):
        buckets.setdefault(tuple(row.tolist()), []).append(ident)
    buckets = {key: np.asarray(vals, dtype=np.int64) for key, vals in buckets.items()}
    return HashTable(buckets=buckets, codes=codes, ids=ids, L=codes.shape[1], K=int(K))


def _expansion_size(L: int, K: int, radius: int) -> int:
    return sum(math.comb(L, r) * (K - 1) ** r for r in range(radius + 1))


def lookup(table: HashTable, code, radius: int, strategy: str = "auto") -> set:
    """All database ids whose codes lie within `radius` symbol flips.

    `strategy` picks how buckets are enumerated: "expand" probes every code
    in the Hamming ball, "scan" walks all buckets, and "auto" expands only
    when the ball is smaller than the bucket count. The result set is
    independent of the strategy.
    """
    code = _as_code(code)
    if code.shape != (table.L,):
        raise ValidationError("query code length does not match the table")
    if not isinstance(radius, (int, np.integer)) or not 0 <= radius <= table.L:
        raise ValidationError(f"radius must lie in [0, {table.L}]")
    if strategy not in ("auto", "expand", "scan"):
        raise ValidationError("strategy must be auto, expand, or scan")
    radius = int(radius)
    if strategy == "auto":
        strategy = "expand" if _expansion_size(table.L, table.K, radius) < len(table.buckets) else "scan"
    found: set = set()
    if strategy == "expand":
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
    else:
        for key, members in table.buckets.items():
            if symbol_hamming(np.asarray(key), code) <= radius:
                found.update(members.tolist())
    return found


def knn_hamming(codes, ids, query, k: int) -> np.ndarray:
    """The k database ids closest in symbol Hamming distance.

    Ties break by ascending id, so the ordering is total and deterministic.
    """
    codes = np.asarray(codes, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    query = _as_code(query)
    if codes.ndim != 2 or codes.shape[1] != query.size:
        raise ValidationError("codes must be (N, L) matching the query length")
    if k > codes.shape[0]:
        raise ValidationError(f"k={k} exceeds the database size {codes.shape[0]}")
    if k < 1:
        raise ValidationError("k must be >= 1")
    dists = np.count_nonzero(codes != query, axis=1)
    order = np.lexsort((ids, dists))
    return ids[order[:k]]


def knn_weighted(codes, ids, query, theta, k: int) -> np.ndarray:
    """The k database ids with the largest weighted code similarity.

    Ties break by ascending id. With uniform weights the ranking coincides
    with `knn_hamming`.
    """
    codes = np.asarray(codes, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    query = _as_code(query)
    theta = np.asarray(theta, dtype=np.float64)
    if codes.ndim != 2 or codes.shape[1] != query.size or theta.shape != (query.size,):
        raise ValidationError("codes and theta must match the query length")
    if k > codes.shape[0]:
        raise ValidationError(f"k={k} exceeds the database size {codes.shape[0]}")
    if k < 1:
        raise ValidationError("k must be >= 1")
    sims = np.where(codes == query, theta, 0.0).sum(axis=1)
    order = np.lexsort((ids, -sims))
    return ids[order[:k]]


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
    contribute recall 0. Returns a list of (R, precision, recall) where the
    precision is NaN if no query retrieved anything at that radius.
    """
    query_codes = np.asarray(query_codes, dtype=np.int64)
    if query_codes.ndim != 2 or query_codes.shape[1] != table.L:
        raise ValidationError("query codes must be (Q, L) matching the table")
    if len(gt.neighbor_lists) != query_codes.shape[0]:
        raise ValidationError("groundtruth must have one neighbor list per query")
    L = table.L
    prec_sum = np.zeros(L + 1)
    prec_count = np.zeros(L + 1, dtype=np.int64)
    recall_sum = np.zeros(L + 1)
    evaluated = 0
    for q in range(query_codes.shape[0]):
        relevant = gt.neighbor_lists[q]
        if relevant.size == 0:
            continue
        evaluated += 1
        dists = np.count_nonzero(table.codes != query_codes[q], axis=1)
        total = np.bincount(dists, minlength=L + 1).cumsum()
        rel_mask = np.isin(table.ids, relevant)
        rel = np.bincount(dists[rel_mask], minlength=L + 1).cumsum()
        answered = total > 0
        prec_sum[answered] += rel[answered] / total[answered]
        prec_count += answered
        recall_sum += rel / relevant.size
    if evaluated == 0:
        raise ValidationError("no query has a non-empty relevant set")
    curve = []
    for R in range(L + 1):
        p = prec_sum[R] / prec_count[R] if prec_count[R] else float("nan")
        curve.append((R, p, recall_sum[R] / evaluated))
    return curve


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
