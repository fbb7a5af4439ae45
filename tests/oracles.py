"""Scalar reference implementations the tests check the package against.

Each is the plain one-pair, one-vector or full-matrix form of something the
package computes in bulk, kept here rather than in the package because no
package code calls it:

* learning: `pair_error`, `loss_adjusted_inference` (the K x K scan),
  `surrogate_pair`, `pair_gradient_step` (the public-pieces training step)
  and `objective_arrays` (the objective over an (n, K, K) cell tensor);
* hashers: `rsh_encode`, `wta_encode` and `lsh_encode` for one vector;
* data: `center_and_normalize`, which fits the mean it applies, and
  `groundtruth_from_lists` with its reader `neighbor_list`, the per-query
  list form of a `GroundTruth`.

The K x K offsets are built here, not taken from `rankhash.learning`, so an
oracle shares no code with the step it checks.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from rankhash.core import Dataset, Hyperparams, ValidationError
from rankhash.data import GroundTruth, apply_center_and_normalize
from rankhash.hashers import LshSpec, WtaSpec

# ----------------------------------------------------------------- learning


def _check_penalties(rho: float, lam: float) -> tuple[float, float]:
    rho = float(rho)
    lam = float(lam)
    if not (np.isfinite(rho) and rho >= 0):
        raise ValidationError("rho must be finite and >= 0")
    if not (np.isfinite(lam) and lam >= 0):
        raise ValidationError("lam must be finite and >= 0")
    return rho, lam


def _check_similarity(s) -> int:
    if isinstance(s, bool) or (not isinstance(s, (int, np.integer))):
        raise ValidationError("s must be the integer 0 or 1")
    s = int(s)
    if s not in (0, 1):
        raise ValidationError("s must be the integer 0 or 1")
    return s


def pair_error(hi: int, hj: int, s: int, rho: float, lam: float) -> float:
    """Misranking cost of one coded pair: rho if a similar pair splits,
    lam if a dissimilar pair collides, else 0."""
    s = _check_similarity(s)
    rho, lam = _check_penalties(rho, lam)
    if s == 1:
        return rho if hi != hj else 0.0
    return lam if hi == hj else 0.0


class AdjustedArgmax(NamedTuple):
    gi_star: int
    gj_star: int
    value: float


def _adjusted_matrix(yi: np.ndarray, yj: np.ndarray, s: int, rho: float, lam: float) -> np.ndarray:
    # cell (k, l) = (yi[k] + yj[l]) + e(k, l, s), with e = rho * s off the
    # diagonal and lam * (1 - s) on it: the training step's float operations
    K = yi.shape[0]
    e = np.full((K, K), rho * s)
    np.fill_diagonal(e, lam * (1 - s))
    m = np.add.outer(yi, yj)
    m += e
    return m


def loss_adjusted_inference(yi, yj, s: int, rho: float, lam: float) -> AdjustedArgmax:
    """Maximize projection score plus pair error over all K x K symbol pairs.

    Returns the lexicographically smallest maximizer (row-major scan) and the
    attained value. O(K^2).
    """
    s = _check_similarity(s)
    rho, lam = _check_penalties(rho, lam)
    yi = np.asarray(yi, dtype=np.float64)
    yj = np.asarray(yj, dtype=np.float64)
    if yi.ndim != 1 or yi.shape != yj.shape or yi.shape[0] < 2:
        raise ValidationError("yi and yj must be 1-D vectors of equal length K >= 2")
    m = _adjusted_matrix(yi, yj, s, rho, lam)
    K = yi.shape[0]
    flat = int(np.argmax(m))
    gi, gj = flat // K, flat % K
    return AdjustedArgmax(gi, gj, float(m[gi, gj]))


def surrogate_pair(W, xi, xj, s: int, rho: float, lam: float) -> float:
    """Upper bound on `pair_error` for one pair under projections W.

    Equals the adjusted maximum minus the scores of the emitted symbols;
    always >= the actual pair error and >= 0.
    """
    W = np.asarray(W, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    xj = np.asarray(xj, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] < 2:
        raise ValidationError("W must be a (K, d) matrix with K >= 2")
    if xi.shape != (W.shape[1],) or xj.shape != (W.shape[1],):
        raise ValidationError("xi and xj must match the projection input dimension")
    yi = W @ xi
    yj = W @ xj
    adj = loss_adjusted_inference(yi, yj, s, rho, lam)
    # grouped so the bound collapses to exactly 0.0 when both losses are 0:
    # the matrix cell at the emitted symbols holds this same single-rounded sum
    return adj.value - (float(yi[np.argmax(yi)]) + float(yj[np.argmax(yj)]))


def pair_gradient_step(W, xi, xj, s: int, hyper: Hyperparams, weight: float = 1.0) -> np.ndarray:
    """One online update from a single pair.

    Adds eta * weight * x to the row of each emitted symbol and subtracts it
    from the row of the adjusted competitor, per point. Returns W unchanged
    (same object) when emitted symbols and competitors coincide.
    """
    W = np.asarray(W, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    xj = np.asarray(xj, dtype=np.float64)
    weight = float(weight)
    if not (np.isfinite(weight) and weight > 0):
        raise ValidationError("weight must be finite and > 0")
    yi = W @ xi
    yj = W @ xj
    hi = int(np.argmax(yi))
    hj = int(np.argmax(yj))
    adj = loss_adjusted_inference(yi, yj, s, hyper.rho, hyper.lam)
    if adj.gi_star == hi and adj.gj_star == hj:
        return W
    step = hyper.eta * weight
    out = W.copy()
    if adj.gi_star != hi:
        out[hi] += step * xi
        out[adj.gi_star] -= step * xi
    if adj.gj_star != hj:
        out[hj] += step * xj
        out[adj.gj_star] -= step * xj
    return out


def objective_arrays(X, pi, pj, ps, W, rho, lam):
    """Total surrogate, total empirical error and per-pair errors, from the
    full (n, K, K) tensor of loss-adjusted cells.

    Each cell is (yi[k] + yj[l]) + rho * s off the diagonal; the diagonal is
    written afresh as (yi + yj) + lam * (1 - s), the same two sums per cell
    as `loss_adjusted_inference`.
    """
    K = W.shape[0]
    Y = X @ W.T
    yi = Y[pi]
    yj = Y[pj]
    sf = ps.astype(np.float64)
    m = yi[:, :, None] + yj[:, None, :]
    m += (rho * sf)[:, None, None]
    flat = m.reshape(-1, K * K)
    np.add(yi + yj, (lam * (1.0 - sf))[:, None], out=flat[:, :: K + 1])
    value = flat.max(axis=1)
    surrogate = value - (yi.max(axis=1) + yj.max(axis=1))
    hi = yi.argmax(axis=1)
    hj = yj.argmax(axis=1)
    err = np.where(ps == 1, rho * (hi != hj), lam * (hi == hj))
    return float(surrogate.sum()), float(err.sum()), err


# ------------------------------------------------------------------ hashers


def _as_projection(W) -> np.ndarray:
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ValidationError("projection matrix must be 2-D")
    if W.shape[0] < 2:
        raise ValidationError("projection matrix needs K >= 2 rows")
    if not np.all(np.isfinite(W)):
        raise ValidationError("projection matrix must be finite")
    return W


def rsh_encode(x, W) -> int:
    """Hash one vector to the index of its largest projection.

    Ties resolve to the smallest index. The symbol depends only on the
    ordering of the projections, so positive rescaling of x (or W) never
    changes it.
    """
    W = _as_projection(W)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (W.shape[1],):
        raise ValidationError(
            f"dimension mismatch: vector has shape {x.shape}, projections expect ({W.shape[1]},)"
        )
    return int(np.argmax(W @ x))


def wta_encode(x, spec: WtaSpec) -> np.ndarray:
    """Per permutation, the argmax position within its first-K window."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.d,):
        raise ValidationError(
            f"dimension mismatch: vector has shape {x.shape}, spec expects ({spec.d},)"
        )
    windows = x[spec.permutations[:, : spec.window]]
    return np.argmax(windows, axis=1).astype(np.int64)


def lsh_encode(x, spec: LshSpec) -> np.ndarray:
    """Binary code: bit b is 1 iff hyperplane b's projection is >= 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.d,):
        raise ValidationError(
            f"dimension mismatch: vector has shape {x.shape}, spec expects ({spec.d},)"
        )
    return (spec.hyperplanes @ x >= 0).astype(np.int64)


# --------------------------------------------------------------------- data


def center_and_normalize(data: Dataset) -> tuple[Dataset, np.ndarray]:
    """Subtract the per-dimension mean, then unit-normalize each row.

    Returns the transformed dataset and the mean vector, which must be reused
    verbatim to transform query-side data.
    """
    mean = data.features.mean(axis=0)
    return apply_center_and_normalize(data, mean), mean


def groundtruth_from_lists(lists, threshold=None) -> GroundTruth:
    """The `GroundTruth` of per-query integer id lists, each sorted
    ascending; a repeated id stays, and so does a list that is not 1-D,
    for the constructor to refuse."""
    lists = [np.sort(np.asarray(lst, dtype=np.int64)) for lst in lists]
    flat = np.concatenate(lists) if lists else np.zeros(0, dtype=np.int64)
    return GroundTruth(flat, np.cumsum([0] + [lst.size for lst in lists]), threshold)


def neighbor_list(gt: GroundTruth, q: int) -> np.ndarray:
    """Query q's id list, a view of `gt.flat`."""
    return gt.flat[gt.offsets[q]:gt.offsets[q + 1]]
