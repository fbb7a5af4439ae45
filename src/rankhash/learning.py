"""Pairwise surrogate loss and the online trainers.

The empirical error of a code bit charges rho for a similar pair (s=1) whose
symbols differ and lam for a dissimilar pair (s=0) whose symbols collide.
Because the hash is an argmax, that error is not differentiable; training
instead minimizes a convex-in-the-max upper bound per pair:

    max_{k,l} [ y_i[k] + y_j[l] + e(k, l, s) ] - y_i[h_i] - y_j[h_j]

with y = W @ x and h the emitted symbols. The maximizing (k, l) is the
error-adjusted competitor: the online step finds it with a K x K scan (the
row-major first maximizer) and moves the rows of W so the emitted symbols
beat it. The trainer (`_lockstep`) runs that step on a block of pairs
at a time and trains a stack of independent bits in rounds: each round
decides one block of every bit still training, with one stacked gemv and
one (A, S, K, K) scan for all A bits, and applies each bit's first update
in its block. The objective pass (`_objective_arrays`) takes each pair's
maximum without building the adjusted matrix. The scalar per-pair forms
these are checked against live in `tests/oracles.py`.

`train_rsh` learns all L projection matrices independently from derived
child seeds, as one stack of L bits. `train_srsh` learns them sequentially,
a stack of one bit at a time, reweighting pairs after each bit the way
boosting does, and returns per-bit fusion weights theta. A bit trained at
unit pair weights is trained once per PairSet (`_train_bits`): srsh's first
bit is rsh's first bit.
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
    _as_real,
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


def _objective_arrays(X, pi, pj, ps, W, rho, lam):
    """Total surrogate, total empirical error, and the per-pair errors.

    Off its diagonal the adjusted K x K matrix adds one constant to every
    sum yi[k] + yj[l], so its maximum needs only the emitted symbols hi and
    hj, the top two scores of each side (a1 >= a2, b1 >= b2, equal on a
    tie) and the best diagonal sum max_k (yi[k] + yj[k]). The best
    off-diagonal cell is a1 + b1 when the emitted symbols differ; otherwise
    one side gives up its top score for its second. Rounding is monotone, so
    adding rho * s or lam * (1 - s) after the maximum gives the same float
    as adding it to every cell before. max is exact in any order, so the
    diagonal maximum is taken one column at a time over all pairs.
    """
    Y = X @ W.T
    h = Y.argmax(axis=1)
    top = np.partition(Y, Y.shape[1] - 2, axis=1)
    t1, t2 = top[:, -1], top[:, -2]
    a1, a2, b1, b2 = t1[pi], t2[pi], t1[pj], t2[pj]
    same = h[pi] == h[pj]
    sf = ps.astype(np.float64)
    off = np.where(same, np.maximum(a1 + b2, a2 + b1), a1 + b1)
    # a max along the length-K axis runs row by row; one np.maximum per
    # column spans every pair
    sums = np.add(Y.take(pi, axis=0), Y.take(pj, axis=0))
    diag = sums[:, 0].copy()
    for column in sums.T[1:]:
        np.maximum(diag, column, out=diag)
    value = np.maximum(off + rho * sf, diag + lam * (1.0 - sf))
    surrogate = value - (a1 + b1)
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


# Block sizes of `_lockstep`'s exact block step. Outputs do not depend on
# these constants, only the time spent does. Each bit asks for twice the
# longer of the last gap between two of its updates and its current run of
# visits without one, within [_BLOCK_MIN, _BLOCK_MAX] pairs. A round decides
# the smallest ask for every bit still training, cut so that each of its
# buffers holds at most _BLOCK_CELLS floats: the A * S * K * K loss-adjusted
# cells and the A * 2S * d gathered endpoint values (but at least one pair
# per bit), and rounded down to a power of two. A lone bit's window holds as
# many pairs as one such buffer.
_BLOCK_MIN = 4
_BLOCK_MAX = 256
_BLOCK_CELLS = 1 << 16


class _Bit:
    """One bit's state inside `_lockstep`."""

    def __init__(self, seed, hyper, X, pi, pj, ps, pad):
        self.rng = seeded_rng(seed)
        self.W = init_projection(hyper.K, X.shape[1], self.rng)
        self.omega, emp, self.err = _objective_arrays(X, pi, pj, ps, self.W, hyper.rho, hyper.lam)
        self.surr, self.emp, self.upd = [self.omega], [emp], []
        # the epoch's visits in order: first rows, second rows, similarities,
        # padded with zeros for rounds that run past its end
        self.plan = np.zeros((3, pi.size + pad), dtype=np.min_scalar_type(max(X.shape[0] - 1, 1)))
        self.epoch = 0
        self.quiet = 0  # visits since the last update
        self.gap = 0  # visits between the last two updates
        self.done = False


class _Round(NamedTuple):
    """A round's views of `_lockstep`'s buffers, for A bits and S pairs each."""

    E: np.ndarray  # (A, 2S, d, 1) endpoint columns, first and second points interleaved
    pair_cols: np.ndarray  # E as (A * S, 2, d, 1)
    Y: np.ndarray  # (A, 2S, K, 1) projections
    y: np.ndarray  # (A, 2S, K)
    yi: np.ndarray  # (A, S, K, 1) first points' projections
    yj: np.ndarray  # (A, S, 1, K) second points'
    cells: np.ndarray  # (A, S, K, K) loss-adjusted cells
    flat: np.ndarray  # (A, S, K * K) the cells, one row per pair
    offsets: np.ndarray  # (A, S, K, K) e(k, l, s)
    h: np.ndarray  # (A, 2S) emitted symbols
    pairs: np.ndarray  # (A, S, 2) the emitted symbols (hi, hj) of each pair
    g: np.ndarray  # (A, S) flat argmax cell
    e: np.ndarray  # (A, S) flat emitted cell hi * K + hj
    moved: np.ndarray  # (A, S) g != e: the pair takes an update


def _train_bits(X, pairs: PairSet, hyper: Hyperparams, seeds, alpha=None):
    """`_lockstep` on the rows X and `pairs`, with each bit trained at unit
    pair weights (alpha None or all ones) done once per PairSet.

    Such a bit's W, three traces and per-pair errors are kept, read-only, in
    `pairs._bits`, for the one features array X last trained on (by
    identity), under its seed and the hyperparameters its training reads.
    A call trains only the seeds it lacks, which is exact because a bit's
    outputs do not depend on the bits it shares rounds with, and returns
    every seed's bit from that store.
    """
    if alpha is not None and not (alpha == 1.0).all():
        return _lockstep(X, pairs.i, pairs.j, pairs.s, hyper, seeds, alpha)
    if pairs._bits is None or pairs._bits[0] is not X:
        object.__setattr__(pairs, "_bits", (X, {}))
    kept = pairs._bits[1]
    new = [seed for seed in dict.fromkeys(seeds) if _bit_key(hyper, seed) not in kept]
    trained = _lockstep(X, pairs.i, pairs.j, pairs.s, hyper, new) if new else []
    for seed, (W, surr, emp, upd, err) in zip(new, trained):
        W = W.copy()
        for arr in (W, err):
            arr.setflags(write=False)
        kept[_bit_key(hyper, seed)] = (W, tuple(surr), tuple(emp), tuple(upd), err)
    return [(W, list(surr), list(emp), list(upd), err)
            for W, surr, emp, upd, err in (kept[_bit_key(hyper, seed)] for seed in seeds)]


def _bit_key(hyper: Hyperparams, seed: int) -> tuple:
    # what a bit's training reads besides its rows and pairs
    return hyper.K, hyper.rho, hyper.lam, hyper.eta, hyper.epochs, hyper.tol, seed


def _lockstep(X, pi, pj, ps, hyper: Hyperparams, seeds, alpha=None):
    """Online training of independent projection matrices, one per seed.

    Each bit's epochs visit the pairs in a freshly shuffled order from its
    own rng, with step size eta / (1 + epoch); a bit stops at the epoch cap
    or when the relative change of its surrogate objective between epochs
    drops below tol. alpha, if given, multiplies each pair's step. Returns,
    per seed, W, the surrogate and empirical traces (one entry before
    training and one per epoch), per epoch the fraction of pair visits that
    took an update step, and the per-pair errors of the final W.

    Each visit is the exact per-pair step, run a block of visits at a time,
    and each round decides one block of S visits for every bit still
    training. `np.matmul` of the stacked W with the block's gathered (d, 1)
    endpoint columns runs one gemv per column, the BLAS call behind
    `W.dot(x)`, so every y is the float a one-pair step computes. The
    (A, S, K, K) cells are the step's own sums (yi[k] + yj[l]) + e(k, l, s),
    and a row's flat argmax is the row-major first maximiser. Per bit, the
    first pair whose maximiser is not its emitted cell (hi, hj) takes the
    update, exactly as a one-pair step would, and that bit's next block
    starts at the pair after it. So outputs depend neither on S nor on how
    many bits share a round: every kept decision is made with the bit's W
    as the one-pair step would see it, decisions past a bit's first update
    are dropped, and bits share buffers but no values.

    A lone bit (srsh, an L = 1 rsh, or the last bit still training) reads
    its blocks' endpoint columns and offsets e(., ., s) as slices of a
    window gathered ahead; a stack of bits gathers each round's with one
    take each. An update's two deltas step * x are one multiply of the
    round's gathered columns, and each epoch computes its visits' steps once:
    step * alpha[t] is alpha[t] * step, the same float.
    """
    K, d, n = hyper.K, X.shape[1], pi.size
    L = len(seeds)
    width = max(K * K, 2 * d)  # floats per pair in the widest round buffer
    # cap[A]: the most pairs per bit in a round of A bits
    cap = [0] + [max(1, min(_BLOCK_MAX, _BLOCK_CELLS // (A * width), n)) for A in range(1, L + 1)]
    span = max(A * cap[A] for A in range(1, L + 1))  # pairs of the largest round
    window = min(n, max(1, _BLOCK_CELLS // width))  # pairs a lone bit's window holds
    bits = [_Bit(seed, hyper, X, pi, pj, ps, cap[2] if L > 1 else 0) for seed in seeds]
    weights = np.ones(n) if alpha is None else alpha
    offsets = _pair_offsets(K, hyper.rho, hyper.lam)
    cols = X[:, :, None]
    col_buf = np.empty((2 * max(window, span), d, 1))
    offset_buf = np.empty((max(window, span), K, K))
    y_buf = np.empty(2 * span * K)
    cell_buf = np.empty(span * K * K)
    sym_buf = np.empty(4 * span, dtype=np.intp)  # emitted symbols, argmax cells, emitted cells
    moved_buf = np.empty(span, dtype=bool)
    dx = np.empty((2, d))  # the update's step times its first and second point
    dxi, dxj = dx
    flat_cell = np.array([K, 1], dtype=np.intp)  # (hi, hj) . flat_cell = hi * K + hj
    win = [0, 0]  # the lone bit's window [lo, hi) of visits; hi = 0 forces a refill

    def round_views(A, S):
        E = col_buf[: 2 * A * S].reshape(A, 2 * S, d, 1)
        Y = y_buf[: 2 * A * S * K].reshape(A, 2 * S, K, 1)
        y = Y[..., 0]
        cells = cell_buf[: A * S * K * K].reshape(A, S, K, K)
        h = sym_buf[: 2 * A * S].reshape(A, 2 * S)
        g, e = sym_buf[2 * A * S : 4 * A * S].reshape(2, A, S)
        return _Round(
            E, E.reshape(A * S, 2, d, 1), Y, y, y[:, 0::2, :, None], y[:, 1::2, None, :],
            cells, cells.reshape(A, S, K * K), offset_buf[: A * S].reshape(A, S, K, K),
            h, h.reshape(A, S, 2), g, e, moved_buf[: A * S].reshape(A, S),
        )

    shaped = {}  # (A, S) -> _Round

    def start_epoch(b):
        b.order = b.rng.permutation(n)
        # per visit, the step eta / (1 + epoch) times the pair's weight
        b.steps = weights[b.order] * (hyper.eta / (1.0 + b.epoch))
        b.plan[0, :n] = pi[b.order]
        b.plan[1, :n] = pj[b.order]
        b.plan[2, :n] = ps[b.order]
        b.pos = b.updates = 0
        win[1] = 0

    def end_epoch(b):
        """Close b's epoch; True when b has finished training."""
        b.upd.append(b.updates / n)
        omega, emp, b.err = _objective_arrays(X, pi, pj, ps, b.W, hyper.rho, hyper.lam)
        b.surr.append(omega)
        b.emp.append(emp)
        b.epoch += 1
        if b.epoch == hyper.epochs or abs(omega - b.omega) / max(abs(b.omega), 1e-12) < hyper.tol:
            return True
        b.omega = omega
        start_epoch(b)
        return False

    def stack(active):
        Ws = np.stack([b.W for b in active])
        for b, W in zip(active, Ws):
            b.W, b.rows = W, list(W)
        win[1] = 0
        return Ws[:, None]

    for b in bits:
        start_epoch(b)
    active = bits
    Ws = stack(active)  # (A, 1, K, d)
    ask, left = _BLOCK_MIN, n  # the smallest ask and the longest rest of an epoch
    while active:
        A = len(active)
        # a power of two, so that a call builds views for few round shapes
        S = 1 << (min(ask, cap[A], left).bit_length() - 1)
        v = shaped.get((A, S)) or shaped.setdefault((A, S), round_views(A, S))
        if A == 1:
            b = active[0]
            if b.pos + S > win[1]:
                win[:] = b.pos, min(b.pos + window, n)
                plan = b.plan[:, win[0] : win[1]]
                cols.take(plan[:2].T, axis=0, out=col_buf[: 2 * plan.shape[1]].reshape(-1, 2, d, 1),
                          mode="clip")
                offsets.take(plan[2], axis=0, out=offset_buf[: plan.shape[1]], mode="clip")
            at = b.pos - win[0]
            E = col_buf[None, 2 * at : 2 * (at + S)]
            adjust = offset_buf[None, at : at + S]
        else:
            plan = np.concatenate([b.plan[:, b.pos : b.pos + S] for b in active], axis=1)
            cols.take(plan[:2].T, axis=0, out=v.pair_cols, mode="clip")
            E = v.E
            adjust = offsets.take(plan[2].reshape(A, S), axis=0, out=v.offsets, mode="clip")
        np.matmul(Ws, E, out=v.Y)
        np.add(v.yi, v.yj, out=v.cells)
        np.add(v.cells, adjust, out=v.cells)
        v.flat.argmax(axis=2, out=v.g)
        v.y.argmax(axis=2, out=v.h)
        np.dot(v.pairs, flat_cell, out=v.e)
        moved = np.not_equal(v.g, v.e, out=v.moved)
        ask, left, finished = _BLOCK_MAX, 0, False
        for a, r in enumerate(moved.argmax(axis=1).tolist()):
            b = active[a]
            if r < n - b.pos and moved[a, r]:
                b.updates += 1
                b.gap = b.quiet + r + 1
                b.quiet = 0
                gi, gj = divmod(int(v.g[a, r]), K)
                hi, hj = v.pairs[a, r].tolist()
                np.multiply(E[a, 2 * r : 2 * r + 2, :, 0], b.steps[b.pos + r], out=dx)
                b.pos += r + 1
                if gi != hi:
                    b.rows[hi] += dxi
                    b.rows[gi] -= dxi
                if gj != hj:
                    b.rows[hj] += dxj
                    b.rows[gj] -= dxj
            else:  # no update in b's block, which may end with its epoch
                taken = min(S, n - b.pos)
                b.quiet += taken
                b.pos += taken
            if b.pos == n and end_epoch(b):
                b.done = finished = True
            else:
                ask = min(ask, max(2 * max(b.quiet, b.gap), _BLOCK_MIN))
                left = max(left, n - b.pos)
        if finished:
            active = [b for b in active if not b.done]
            Ws = stack(active) if active else None
    return [(b.W, b.surr, b.emp, b.upd, b.err) for b in bits]


def train_rsh(data: Dataset, pairs: PairSet, hyper: Hyperparams, log: TrainLog | None = None) -> HashModel:
    """Learn L projection matrices independently.

    Bit l trains from child_seed(hyper.seed, l), so results do not depend on
    the order bits are trained in, and identical seeds reproduce identical
    models bit for bit. The bits train in lockstep, one block of each per
    round (`_lockstep`). A bit already trained on these pairs and rows with
    the same seed and hyperparameters, by either trainer, is taken from
    `pairs` rather than trained again (`_train_bits`).
    """
    X = _prepare(data, pairs)[0]
    seeds = [child_seed(hyper.seed, l) for l in range(hyper.L)]
    trained = _train_bits(X, pairs, hyper, seeds)
    if log is not None:
        for l, (_, surr, emp, upd, _) in enumerate(trained):
            log.bits.append(
                BitTrace(bit=l, objective_trace=surr, empirical_trace=emp, update_fraction=upd)
            )
    return HashModel(np.stack([W for W, *_ in trained]), None, hyper)


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
    if not (np.isfinite(alpha).all() and np.isfinite(norm_err).all()):
        raise ValidationError("alpha and norm_err must be finite")
    if alpha.min() <= 0:
        raise ValidationError("alpha must be strictly positive")
    if norm_err.min() < 0 or norm_err.max() > 1:
        raise ValidationError("norm_err must lie in [0, 1]")
    eps_min = _as_real("eps_min", eps_min, 0, 0.5, open=True)
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

    Bit 0 trains at unit weights, so it is rsh's bit 0, and is taken from
    `pairs`, with its per-pair errors, when rsh (or srsh) has trained it on
    these rows before.
    """
    X = _prepare(data, pairs)[0]
    alpha = np.ones(len(pairs), dtype=np.float64)
    emax = max(hyper.rho, hyper.lam)
    mats = []
    thetas = []
    for l in range(hyper.L):
        [(W, surr, emp, upd, err)] = _train_bits(
            X, pairs, hyper, [child_seed(hyper.seed, l)], alpha=alpha
        )
        norm_err = err / emax if emax > 0 else np.zeros(len(pairs))
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
