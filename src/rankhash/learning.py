"""Pairwise surrogate loss and the online trainers.

The empirical error of a code bit charges rho for a similar pair (s=1) whose
symbols differ and lam for a dissimilar pair (s=0) whose symbols collide.
Because the hash is an argmax, that error is not differentiable; training
instead minimizes a convex-in-the-max upper bound per pair:

    max_{k,l} [ y_i[k] + y_j[l] + e(k, l, s) ] - y_i[h_i] - y_j[h_j]

with y = W @ x and h the emitted symbols. The maximizing (k, l) is the
error-adjusted competitor: the online step finds it with a K x K scan (the
row-major first maximizer) and moves the rows of W so the emitted symbols
beat it. The trainer runs that step on a block of pairs at a time, in one
stacked gemv and one (B, K, K) scan per block, and applies the block's
first update. Off its diagonal the adjusted matrix adds one constant to
every sum y_i[k] + y_j[l], so the objective pass takes its maximum from each
pair's emitted symbols, top two scores per side and best diagonal sum
(`_pair_scores`) without building it. The scalar per-pair forms these are
checked against live in `tests/oracles.py`.

`train_rsh` learns all L projection matrices independently from derived
child seeds. `train_srsh` learns them sequentially, reweighting pairs after
each bit the way boosting does, and returns per-bit fusion weights theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    Dataset,
    HashModel,
    Hyperparams,
    PairSet,
    ValidationError,
    child_seed,
    init_projection,
    seeded_rng,
)

__all__ = [
    "ObjectiveValues",
    "BitTrace",
    "TrainLog",
    "objective",
    "boost_step",
    "train_rsh",
    "train_rsh_bit",
    "train_srsh",
]


def _pair_offsets(K: int, rho: float, lam: float) -> np.ndarray:
    # offsets[s][k, l] = e(k, l, s): rho off the diagonal for s=1, lam on it
    # for s=0, and 0.0 elsewhere, so every loss-adjusted cell is the one sum
    # (yi[k] + yj[l]) + e(k, l, s). Adding 0.0 changes no value but the sign
    # of a zero, which no comparison sees.
    offsets = np.zeros((2, K, K))
    offsets[1] += rho
    kk = np.arange(K)
    offsets[1, kk, kk] = 0.0
    offsets[0, kk, kk] = lam
    return offsets


class ObjectiveValues(NamedTuple):
    surrogate: float
    empirical: float


class _PairScores(NamedTuple):
    hi: np.ndarray  # emitted symbols of the first and second points
    hj: np.ndarray
    a1: np.ndarray  # top two scores of yi, a1 >= a2 (equal on a tie)
    a2: np.ndarray
    b1: np.ndarray  # top two scores of yj
    b2: np.ndarray
    best_diag: np.ndarray  # max_k (yi[k] + yj[k])


def _pair_scores(Y, pi, pj) -> _PairScores:
    """Per pair, what the loss-adjusted maximum depends on.

    Y holds one row of projections per point; pi and pj index (or slice)
    its rows. Off its diagonal the adjusted K x K matrix adds one constant
    to every sum yi[k] + yj[l], so its maximum needs only the argmaxes, the
    top two scores of each side and the best diagonal sum.
    """
    K = Y.shape[1]
    h = Y.argmax(axis=1)
    top = np.partition(Y, K - 2, axis=1)
    t1, t2 = top[:, -1], top[:, -2]
    best_diag = (Y[pi] + Y[pj]).max(axis=1)
    return _PairScores(h[pi], h[pj], t1[pi], t2[pi], t1[pj], t2[pj], best_diag)


def _objective_arrays(X, pi, pj, ps, W, rho, lam):
    """Total surrogate, total empirical error, and the per-pair errors.

    The best off-diagonal cell is a1 + b1 when the emitted symbols differ;
    otherwise one side gives up its top score for its second. Rounding is
    monotone, so adding rho * s or lam * (1 - s) after the maximum gives the
    same float as adding it to every cell before.
    """
    sc = _pair_scores(X @ W.T, pi, pj)
    same = sc.hi == sc.hj
    sf = ps.astype(np.float64)
    off = np.where(same, np.maximum(sc.a1 + sc.b2, sc.a2 + sc.b1), sc.a1 + sc.b1)
    value = np.maximum(off + rho * sf, sc.best_diag + lam * (1.0 - sf))
    surrogate = value - (sc.a1 + sc.b1)
    err = np.where(ps == 1, rho * ~same, lam * same)
    return float(surrogate.sum()), float(err.sum()), err


def objective(data: Dataset, pairs: PairSet, W, hyper: Hyperparams) -> ObjectiveValues:
    """Total surrogate and total empirical error of one projection matrix."""
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape != (hyper.K, data.dim):
        raise ValidationError("W must have shape (hyper.K, data.dim)")
    X, pi, pj, ps = _prepare(data, pairs)
    surrogate, empirical, _ = _objective_arrays(X, pi, pj, ps, W, hyper.rho, hyper.lam)
    return ObjectiveValues(surrogate, empirical)


@dataclass
class BitTrace:
    """Per-bit training record: objective traces (one entry before training,
    then one per epoch), per epoch the fraction of pair visits that took an
    update step, and, for the sequential trainer, the weighted error rate,
    fusion weight, and pair-weight state."""

    bit: int
    objective_trace: list[float]
    empirical_trace: list[float]
    eps: float | None = None
    theta: float | None = None
    alpha_sum: float | None = None
    alpha_min: float | None = None
    update_fraction: list[float] = field(default_factory=list)


@dataclass
class TrainLog:
    bits: list[BitTrace] = field(default_factory=list)


def _prepare(data: Dataset, pairs: PairSet):
    if len(pairs) == 0:
        raise ValidationError("training requires at least one pair")
    if int(pairs.j.max()) >= data.n:
        raise ValidationError("pair indices exceed the dataset size")
    return data.features, pairs.i, pairs.j, pairs.s


# Block size of `_train_bit`'s exact block step. Outputs do not depend on
# these constants, only the time spent does. A block is twice the longer of
# the last gap between two updates and the current run of visits without
# one, within [_BLOCK_MIN, _BLOCK_MAX] pairs and at most _BLOCK_CELLS
# loss-adjusted cells (but at least one pair).
_BLOCK_MIN = 4
_BLOCK_MAX = 256
_BLOCK_CELLS = 1 << 16


def _train_bit(X, pi, pj, ps, hyper: Hyperparams, bit_seed: int, alpha=None):
    """Online training of one projection matrix.

    Epochs visit the pairs in a freshly shuffled order with step size
    eta / (1 + epoch); training stops at the epoch cap or when the relative
    change of the surrogate objective between epochs drops below tol.
    Returns W, the surrogate and empirical traces (one entry before training
    and one per epoch), per epoch the fraction of pair visits that took an
    update step, and the per-pair errors of the final W (its last objective
    pass).

    Each visit is the exact per-pair step, run a block of visits at a time.
    `np.matmul(W, cols[ends])` projects the block's endpoints with one gemv
    per stacked column, the BLAS call behind `W.dot(x)`, so every y is the
    float a one-pair step computes. The block's K x K loss-adjusted cells
    are the step's own sums (yi[k] + yj[l]) + e(k, l, s), and a row's flat
    argmax is the row-major first maximiser. The first pair whose maximiser
    is not its emitted cell (hi, hj) takes the update, exactly as a one-pair
    step would, and the next block starts at the pair after it.
    """
    rng = seeded_rng(bit_seed)
    K = hyper.K
    W = init_projection(K, X.shape[1], rng)
    rho, lam = hyper.rho, hyper.lam
    omega, emp, err = _objective_arrays(X, pi, pj, ps, W, rho, lam)
    surr_trace = [omega]
    emp_trace = [emp]
    update_trace = []
    cols = X[:, :, None]
    w_rows = list(W)
    offsets = _pair_offsets(K, rho, lam)
    n = pi.size
    block_max = max(1, min(_BLOCK_MAX, _BLOCK_CELLS // (K * K)))
    ends = np.empty(2 * n, dtype=np.intp)  # the epoch's endpoint rows, interleaved
    quiet_run = 0  # visits since the last update
    last_gap = 0  # visits between the last two updates
    for epoch in range(hyper.epochs):
        base_step = hyper.eta / (1.0 + epoch)
        order = rng.permutation(n)
        ends[0::2] = pi[order]
        ends[1::2] = pj[order]
        sims = ps[order]
        updates = 0
        pos = 0
        while pos < n:
            size = min(max(2 * max(quiet_run, last_gap), _BLOCK_MIN), block_max)
            stop = min(pos + size, n)
            y = np.matmul(W, cols[ends[2 * pos : 2 * stop]])[:, :, 0]
            m = y[0::2, :, None] + y[1::2, None, :]
            m += offsets[sims[pos:stop]]
            g = m.reshape(stop - pos, K * K).argmax(axis=1)
            h = y.argmax(axis=1)
            moved = g != h[0::2] * K + h[1::2]
            r = int(moved.argmax())
            if not moved[r]:
                quiet_run += stop - pos
                pos = stop
                continue
            updates += 1
            last_gap = quiet_run + r + 1
            quiet_run = 0
            gi, gj = divmod(int(g[r]), K)
            hi, hj = int(h[2 * r]), int(h[2 * r + 1])
            step = base_step if alpha is None else base_step * float(alpha[order[pos + r]])
            pos += r + 1
            if gi != hi:
                dx = step * X[ends[2 * pos - 2]]
                w_rows[hi] += dx
                w_rows[gi] -= dx
            if gj != hj:
                dx = step * X[ends[2 * pos - 1]]
                w_rows[hj] += dx
                w_rows[gj] -= dx
        update_trace.append(updates / n)
        omega_new, emp_new, err = _objective_arrays(X, pi, pj, ps, W, rho, lam)
        surr_trace.append(omega_new)
        emp_trace.append(emp_new)
        if abs(omega_new - omega) / max(abs(omega), 1e-12) < hyper.tol:
            break
        omega = omega_new
    return W, surr_trace, emp_trace, update_trace, err


def train_rsh(data: Dataset, pairs: PairSet, hyper: Hyperparams, log: TrainLog | None = None) -> HashModel:
    """Learn L projection matrices independently.

    Bit l trains from child_seed(hyper.seed, l), so results do not depend on
    the order bits are trained in, and identical seeds reproduce identical
    models bit for bit.
    """
    X, pi, pj, ps = _prepare(data, pairs)
    mats = []
    for l in range(hyper.L):
        W, surr, emp, upd, _ = _train_bit(X, pi, pj, ps, hyper, child_seed(hyper.seed, l))
        mats.append(W)
        if log is not None:
            log.bits.append(
                BitTrace(bit=l, objective_trace=surr, empirical_trace=emp, update_fraction=upd)
            )
    return HashModel(np.stack(mats), None, hyper)


def train_rsh_bit(data: Dataset, pairs: PairSet, hyper: Hyperparams, bit_seed: int) -> np.ndarray:
    """Train a single projection matrix from an explicit seed.

    `train_rsh` is exactly this, run once per bit with derived child seeds.
    """
    X, pi, pj, ps = _prepare(data, pairs)
    W = _train_bit(X, pi, pj, ps, hyper, bit_seed)[0]
    return W


def boost_step(alpha, norm_err, eps_min: float):
    """One boosting-style reweighting round.

    norm_err holds per-pair errors normalized to [0, 1]. The weighted error
    rate eps is clamped to [eps_min, 1 - eps_min], theta = ln((1 - eps) / eps),
    and weights scale by exp(theta * norm_err), then rescale so their total is
    preserved. Returns (new_alpha, eps, theta).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    norm_err = np.asarray(norm_err, dtype=np.float64)
    if alpha.ndim != 1 or alpha.shape != norm_err.shape or alpha.size == 0:
        raise ValidationError("alpha and norm_err must be 1-D arrays of equal nonzero length")
    if alpha.min() <= 0:
        raise ValidationError("alpha must be strictly positive")
    if norm_err.min() < 0 or norm_err.max() > 1:
        raise ValidationError("norm_err must lie in [0, 1]")
    if not 0 < eps_min < 0.5:
        raise ValidationError("eps_min must lie strictly between 0 and 0.5")
    total = float(alpha.sum())
    eps = float((alpha * norm_err).sum() / total)
    eps = min(max(eps, eps_min), 1.0 - eps_min)
    theta = math.log((1.0 - eps) / eps)
    out = alpha * np.exp(theta * norm_err)
    out *= total / out.sum()
    return out, eps, theta


def train_srsh(data: Dataset, pairs: PairSet, hyper: Hyperparams, log: TrainLog | None = None) -> HashModel:
    """Learn L projection matrices sequentially with pair reweighting.

    Every pair starts at weight 1. Bit l trains with the current weights
    multiplying its update steps; afterwards the weighted error rate of its
    final code determines the fusion weight theta_l and the weights of erring
    pairs grow by exp(theta_l * normalized error), rescaled so the total
    weight stays equal to the pair count. The returned model carries the
    theta values for weighted ranking.
    """
    X, pi, pj, ps = _prepare(data, pairs)
    alpha = np.ones(pi.size, dtype=np.float64)
    emax = max(hyper.rho, hyper.lam)
    mats = []
    thetas = []
    for l in range(hyper.L):
        W, surr, emp, upd, err = _train_bit(
            X, pi, pj, ps, hyper, child_seed(hyper.seed, l), alpha=alpha
        )
        norm_err = err / emax if emax > 0 else np.zeros(pi.size)
        alpha, eps, theta = boost_step(alpha, norm_err, hyper.eps_min)
        mats.append(W)
        thetas.append(theta)
        if log is not None:
            log.bits.append(
                BitTrace(
                    bit=l,
                    objective_trace=surr,
                    empirical_trace=emp,
                    eps=eps,
                    theta=theta,
                    alpha_sum=float(alpha.sum()),
                    alpha_min=float(alpha.min()),
                    update_fraction=upd,
                )
            )
    return HashModel(np.stack(mats), np.asarray(thetas), hyper)
