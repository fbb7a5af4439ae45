"""Output checks for the benchmark. None of this runs inside a timed region.

Each query result is compared with an answer the benchmark computes on its
own from the encoded database: a linear scan for range lookups and a full
lexsort ranking for kNN. A CLI run is checked through the metrics file it
writes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


def range_oracle(codes, ids, q, radius) -> set:
    """Ids whose codes differ from q in at most `radius` positions."""
    return set(ids[np.count_nonzero(codes != q, axis=1) <= radius].tolist())


def knn_oracle(codes, ids, q, k, theta=None) -> np.ndarray:
    """Top-k ids by Hamming distance, or by theta-weighted agreement when
    theta is given; ties break by ascending id.

    Weighted scores are summed exactly (math.fsum) once per distinct
    agreement pattern, so equal patterns get bit-identical scores.
    """
    agree = codes == q
    if theta is None:
        key = agree.shape[1] - agree.sum(axis=1)
    else:
        packed = agree @ (1 << np.arange(agree.shape[1], dtype=np.int64))
        patterns, inverse = np.unique(packed, return_inverse=True)
        scores = np.array([
            math.fsum(theta[l] for l in range(len(theta)) if (int(p) >> l) & 1)
            for p in patterns
        ])
        key = -scores[inverse]
    return ids[np.lexsort((ids, key))[:k]]


def range_ok(result, codes, ids, q, radius) -> bool:
    return set(result) == range_oracle(codes, ids, q, radius)


def knn_ok(result, codes, ids, q, k, theta=None) -> bool:
    return np.array_equal(np.asarray(result), knn_oracle(codes, ids, q, k, theta))


def read_metrics(path: Path):
    """(mean AP per method, problem) for a `metrics.csv`; problem is None
    when every value is finite and every AP lies in [0, 1]."""
    if not path.is_file():
        return {}, f"{path.name} missing"
    ap = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 2:
        return {}, f"{path.name} has no rows"
    for line in lines[1:]:
        method, _, _, seed, metric, value = line.split(",")
        value = float(value)
        if not math.isfinite(value):
            return ap, f"non-finite {metric} for {method}"
        if metric == "ap" and not 0.0 <= value <= 1.0:
            return ap, f"AP {value} outside [0, 1] for {method}"
        if metric == "ap" and seed == "mean":
            ap[method] = value
    if not ap:
        return ap, "no mean AP rows"
    return ap, None
