import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankhash import (
    Dataset,
    Hyperparams,
    PairSet,
    TrainLog,
    ValidationError,
    boost_step,
    child_seed,
    init_projection,
    objective,
    seeded_rng,
    train_rsh,
    train_srsh,
)
from rankhash import learning
from rankhash.hashers import encode_dataset

from oracles import (
    loss_adjusted_inference,
    objective_arrays,
    pair_error,
    pair_gradient_step,
    rsh_encode,
    surrogate_pair,
)


def test_pair_error_examples():
    assert pair_error(2, 2, 1, 1.0, 1.0) == 0.0
    assert pair_error(0, 3, 1, 2.0, 1.0) == 2.0
    assert pair_error(1, 1, 0, 1.0, 0.5) == 0.5
    assert pair_error(0, 1, 0, 1.0, 0.5) == 0.0


def brute_force_adjusted(yi, yj, s, rho, lam):
    """Row-major scan over all K*K one-hot pairs, first maximum kept."""
    K = len(yi)
    best = None
    for k in range(K):
        for l in range(K):
            bonus = rho * s if k != l else lam * (1 - s)
            value = (yi[k] + yj[l]) + bonus
            if best is None or value > best[2]:
                best = (k, l, value)
    return best


def test_loss_adjusted_inference_frozen_instance():
    # m = [[1, 3], [1, 1]]: off-diagonal bonus rho lifts (0, 1) to 3
    got = loss_adjusted_inference([1.0, 0.0], [0.0, 1.0], 1, 1.0, 1.0)
    assert (got.gi_star, got.gj_star, got.value) == (0, 1, 3.0)


def test_loss_adjusted_inference_rho_zero_decouples():
    rng = seeded_rng(0)
    for _ in range(50):
        yi, yj = rng.standard_normal(5), rng.standard_normal(5)
        got = loss_adjusted_inference(yi, yj, 1, 0.0, 1.0)
        assert got.gi_star == int(yi.argmax())
        assert got.gj_star == int(yj.argmax())


def test_loss_adjusted_inference_shift_invariant_argmax():
    rng = seeded_rng(1)
    yi, yj = rng.standard_normal(4), rng.standard_normal(4)
    base = loss_adjusted_inference(yi, yj, 0, 2.0, 0.5)
    shifted = loss_adjusted_inference(yi + 10.0, yj, 0, 2.0, 0.5)
    assert (shifted.gi_star, shifted.gj_star) == (base.gi_star, base.gj_star)
    assert shifted.value == pytest.approx(base.value + 10.0)


def test_loss_adjusted_inference_tie_is_lexicographic():
    got = loss_adjusted_inference([0.0, 0.0], [0.0, 0.0], 1, 0.0, 0.0)
    assert (got.gi_star, got.gj_star) == (0, 0)
    # all off-diagonal cells tie at 1: row-major order picks (0, 1)
    got = loss_adjusted_inference([0.0, 0.0], [0.0, 0.0], 1, 1.0, 0.0)
    assert (got.gi_star, got.gj_star) == (0, 1)


@settings(max_examples=300, deadline=None)
@given(
    K=st.sampled_from([2, 4, 8]),
    s=st.sampled_from([0, 1]),
    rho=st.floats(min_value=0.0, max_value=3.0),
    lam=st.floats(min_value=0.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_loss_adjusted_inference_matches_brute_force(K, s, rho, lam, seed):
    rng = seeded_rng(seed)
    yi, yj = rng.standard_normal(K), rng.standard_normal(K)
    got = loss_adjusted_inference(yi, yj, s, rho, lam)
    k, l, value = brute_force_adjusted(yi, yj, s, rho, lam)
    assert (got.gi_star, got.gj_star) == (k, l)
    assert got.value == value


# ---------------------------------------------------------------- surrogate


def test_surrogate_zero_loss_collapses():
    rng = seeded_rng(2)
    W = rng.standard_normal((4, 6))
    for _ in range(20):
        xi, xj = rng.standard_normal(6), rng.standard_normal(6)
        assert surrogate_pair(W, xi, xj, 1, 0.0, 0.0) == 0.0


def test_surrogate_hand_instance():
    # yi = (1, 0), yj = (0, 1): adjusted max 3 minus the argmax sum 2
    W = np.eye(2)
    assert surrogate_pair(W, [1.0, 0.0], [0.0, 1.0], 1, 1.0, 1.0) == 1.0


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    s=st.sampled_from([0, 1]),
    rho=st.floats(min_value=0.0, max_value=3.0),
    lam=st.floats(min_value=0.0, max_value=3.0),
)
def test_surrogate_upper_bounds_pair_error(seed, s, rho, lam):
    rng = seeded_rng(seed)
    K, d = int(rng.integers(2, 6)), int(rng.integers(2, 8))
    W = rng.standard_normal((K, d))
    xi, xj = rng.standard_normal(d), rng.standard_normal(d)
    hi, hj = rsh_encode(xi, W), rsh_encode(xj, W)
    surr = surrogate_pair(W, xi, xj, s, rho, lam)
    assert surr >= pair_error(hi, hj, s, rho, lam) - 1e-12
    assert surr >= -1e-12


# ------------------------------------------------------------- update step


def test_gradient_step_noop_returns_same_object():
    # a similar pair already apart: the adjusted argmax equals the code, no move
    W = np.array([[1.0], [-1.0]])
    hyper = Hyperparams(K=2, L=1, rho=1.0, lam=1.0, eta=0.1)
    out = pair_gradient_step(W, np.array([1.0]), np.array([-1.0]), 1, hyper)
    assert out is W


def test_gradient_step_hand_expansion():
    # yi = (1.0, 0.9), yj = (0.95, 0.855): both encode 0, but the adjusted
    # argmax is (0, 1), so only the j-side rows move by eta * xj
    W = np.array([[1.0], [0.9]])
    hyper = Hyperparams(K=2, L=1, rho=1.0, lam=1.0, eta=0.1)
    out = pair_gradient_step(W, np.array([1.0]), np.array([0.95]), 1, hyper)
    assert out is not W
    assert out[0, 0] == pytest.approx(1.0 + 0.1 * 0.95)
    assert out[1, 0] == pytest.approx(0.9 - 0.1 * 0.95)


def test_gradient_step_linear_in_weight():
    rng = seeded_rng(3)
    W = rng.standard_normal((3, 4))
    xi, xj = rng.standard_normal(4), rng.standard_normal(4)
    hyper = Hyperparams(K=3, L=1, rho=2.0, lam=1.0, eta=0.05)
    one = pair_gradient_step(W, xi, xj, 0, hyper, weight=1.0)
    two = pair_gradient_step(W, xi, xj, 0, hyper, weight=2.0)
    assert np.allclose(two - W, 2.0 * (one - W))


# ---------------------------------------------------------------- objective


def random_problem(seed, n=12, d=5, n_pairs=8, K=3):
    rng = seeded_rng(seed)
    data = Dataset(rng.standard_normal((n, d)), np.arange(n))
    idx = {tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(n_pairs)}
    idx = sorted(idx)
    i = np.array([a for a, _ in idx])
    j = np.array([b for _, b in idx])
    s = rng.integers(0, 2, size=i.size)
    return data, PairSet(i, j, s), rng.standard_normal((K, d))


def test_objective_singleton_equals_surrogate():
    # the two paths take different matmul routes, so equality is up to rounding
    for seed in range(50):
        data, pairs, W = random_problem(seed, n_pairs=1)
        hyper = Hyperparams(K=3, L=1, rho=1.5, lam=0.5)
        got = objective(data, pairs, W, hyper)
        a, b, s = int(pairs.i[0]), int(pairs.j[0]), int(pairs.s[0])
        xi, xj = data.features[a], data.features[b]
        assert got.surrogate == pytest.approx(
            surrogate_pair(W, xi, xj, s, 1.5, 0.5), abs=1e-12
        )
        hi, hj = rsh_encode(xi, W), rsh_encode(xj, W)
        assert got.empirical == pair_error(hi, hj, s, 1.5, 0.5)


def test_objective_matches_scalar_sum():
    for seed in range(10):
        data, pairs, W = random_problem(seed, n_pairs=10)
        hyper = Hyperparams(K=3, L=1, rho=0.7, lam=1.3)
        got = objective(data, pairs, W, hyper)
        surr = emp = 0.0
        for a, b, s in zip(pairs.i, pairs.j, pairs.s):
            xi, xj = data.features[a], data.features[b]
            surr += surrogate_pair(W, xi, xj, int(s), 0.7, 1.3)
            hi, hj = rsh_encode(xi, W), rsh_encode(xj, W)
            emp += pair_error(hi, hj, int(s), 0.7, 1.3)
        assert got.surrogate == pytest.approx(surr, abs=1e-9)
        assert got.empirical == pytest.approx(emp, abs=1e-9)
        assert got.surrogate >= got.empirical - 1e-9


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    K=st.integers(min_value=2, max_value=16),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    rho=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    lam=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    integer_w=st.booleans(),
)
def test_objective_pass_matches_cell_tensor_bit_for_bit(seed, K, scale, rho, lam, integer_w):
    # the top-2 pass against the (n, K, K) oracle: integer features with
    # zero and duplicate rows, and integer W, tie top scores and symbols
    data, pairs = tie_heavy_problem(seed)
    X = data.features * scale
    rng = seeded_rng(seed)
    shape = (K, data.dim)
    W = rng.integers(-2, 3, size=shape).astype(np.float64) if integer_w else rng.standard_normal(shape)
    got = learning._objective_arrays(X, pairs.i, pairs.j, pairs.s, W, rho, lam)
    want = objective_arrays(X, pairs.i, pairs.j, pairs.s, W, rho, lam)
    assert (repr(got[0]), repr(got[1])) == (repr(want[0]), repr(want[1]))
    assert np.array_equal(got[2], want[2])


def test_objective_zero_losses_zero():
    data, pairs, W = random_problem(4)
    hyper = Hyperparams(K=3, L=1, rho=0.0, lam=0.0)
    got = objective(data, pairs, W, hyper)
    assert got.surrogate == 0.0 and got.empirical == 0.0


# ------------------------------------------------------------ gradient check


def analytic_gradient(W, xi, xj, s, rho, lam):
    """d surrogate / dW as one-hot outer products."""
    K = W.shape[0]
    yi, yj = W @ xi, W @ xj
    hi, hj = int(yi.argmax()), int(yj.argmax())
    adj = loss_adjusted_inference(yi, yj, s, rho, lam)
    grad = np.zeros_like(W)
    grad[adj.gi_star] += xi
    grad[hi] -= xi
    grad[adj.gj_star] += xj
    grad[hj] -= xj
    return grad


def generic_case(rng, K=4, d=6, margin=1e-4):
    """Rejection-sample a case where all four argmaxes are uniquely attained."""
    while True:
        W = rng.standard_normal((K, d))
        xi, xj = rng.standard_normal(d), rng.standard_normal(d)
        s = int(rng.integers(0, 2))
        rho, lam = float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3))
        yi, yj = W @ xi, W @ xj
        gaps = []
        for y in (yi, yj):
            top = np.sort(y)[-2:]
            gaps.append(top[1] - top[0])
        m = np.add.outer(yi, yj)
        diag = np.diag(m).copy()
        m = m + rho * s
        np.fill_diagonal(m, diag + lam * (1 - s))
        flat = np.sort(m.ravel())[-2:]
        gaps.append(flat[1] - flat[0])
        if min(gaps) > margin:
            return W, xi, xj, s, rho, lam


def test_gradient_matches_finite_differences():
    rng = seeded_rng(5)
    for _ in range(25):
        W, xi, xj, s, rho, lam = generic_case(rng)
        grad = analytic_gradient(W, xi, xj, s, rho, lam)
        for _ in range(3):
            D = rng.standard_normal(W.shape)
            D /= np.linalg.norm(D)
            h = 1e-7
            fd = (
                surrogate_pair(W + h * D, xi, xj, s, rho, lam)
                - surrogate_pair(W - h * D, xi, xj, s, rho, lam)
            ) / (2 * h)
            expected = float((grad * D).sum())
            scale = max(abs(expected), 1.0)
            assert abs(fd - expected) / scale < 1e-6


# ----------------------------------------------------------------- training


def two_cluster_problem(seed=0, n_per=25, d=6):
    # wide clusters on purpose: narrow ones put every pair outside the
    # margin zone at init and training has nothing to move
    rng = seeded_rng(seed)
    centers = np.stack([np.ones(d), -np.ones(d)])
    X = np.concatenate(
        [centers[c] + 0.8 * rng.standard_normal((n_per, d)) for c in range(2)]
    )
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    labels = np.repeat([0, 1], n_per)
    data = Dataset(X, np.arange(2 * n_per))
    same = np.equal.outer(labels, labels)
    iu, ju = np.triu_indices(2 * n_per, k=1)
    keep = rng.choice(iu.size, 300, replace=False)
    keep.sort()
    pairs = PairSet(iu[keep], ju[keep], same[iu[keep], ju[keep]].astype(int))
    return data, pairs


def test_train_rsh_deterministic():
    # fresh rows and pairs per side, so that neither side reads bits the
    # other trained
    data, pairs = two_cluster_problem()
    hyper = Hyperparams(K=2, L=3, epochs=10, seed=11)
    a = train_rsh(data, pairs, hyper)
    b = train_rsh(*two_cluster_problem(), hyper)
    assert np.array_equal(a.projections, b.projections)
    assert a.weights is None


def lone_bit(data, pairs, hyper, bit_seed):
    """One bit trained alone from an explicit seed: `_train_bits` with one
    seed, the lone-bit path srsh takes, on a fresh PairSet so that it trains
    the bit rather than read one kept from an earlier call."""
    return learning._train_bits(data.features, PairSet(pairs.i, pairs.j, pairs.s), hyper,
                                [bit_seed])[0][0]


def test_train_rsh_bits_are_independent():
    # an L=2 model is exactly the two single-bit runs with the child seeds
    data, pairs = two_cluster_problem()
    hyper = Hyperparams(K=2, L=2, epochs=10, seed=13)
    model = train_rsh(data, pairs, hyper)
    for l in range(2):
        W = lone_bit(data, pairs, hyper, child_seed(13, l))
        assert np.array_equal(model.projections[l], W)


def test_train_rsh_reduces_objective():
    # seed chosen so neither bit happens to init beyond every margin
    # (a lucky init leaves nothing to reduce and the trace stays flat)
    data, pairs = two_cluster_problem()
    log = TrainLog()
    hyper = Hyperparams(K=2, L=2, epochs=20, tol=0.0, seed=11)
    train_rsh(data, pairs, hyper, log=log)
    assert len(log.bits) == 2
    for trace in log.bits:
        assert trace.objective_trace[0] > 1.0
        assert trace.objective_trace[-1] < trace.objective_trace[0]
        assert all(np.isfinite(trace.objective_trace))


def test_train_rejects_empty_pairs():
    data, _ = two_cluster_problem()
    empty = PairSet(np.array([], dtype=int), np.array([], dtype=int), np.array([], dtype=int))
    with pytest.raises(ValidationError):
        train_rsh(data, empty, Hyperparams(K=2, L=1))


def test_train_rejects_out_of_range_pairs():
    data, _ = two_cluster_problem()
    pairs = PairSet(np.array([0]), np.array([data.n]), np.array([1]))
    with pytest.raises(ValidationError):
        train_rsh(data, pairs, Hyperparams(K=2, L=1))


# ----------------------------------------------------------------- boosting


def test_boost_step_quarter_error():
    alpha = np.ones(4)
    new, eps, theta = boost_step(alpha, np.array([1.0, 0.0, 0.0, 0.0]), 1e-4)
    assert eps == pytest.approx(0.25)
    assert theta == pytest.approx(math.log(3.0))
    assert new.sum() == pytest.approx(4.0)
    # the erring pair triples before the rescale: 3 / (3 + 3) * 4 = 2
    assert new[0] == pytest.approx(2.0)
    assert new[1] == pytest.approx(2.0 / 3.0)


def test_boost_step_half_error_is_identity():
    # weighted error (1*1.0 + 2*0.25) / 3 = 0.5, so theta = 0 and nothing moves
    alpha = np.array([1.0, 2.0])
    new, eps, theta = boost_step(alpha, np.array([1.0, 0.25]), 1e-4)
    assert eps == pytest.approx(0.5)
    assert theta == 0.0
    assert np.allclose(new, alpha)


def test_boost_step_clamps_eps():
    _, eps, theta = boost_step(np.ones(3), np.zeros(3), 0.01)
    assert eps == 0.01
    assert theta == pytest.approx(math.log(99.0))
    _, eps, theta = boost_step(np.ones(3), np.ones(3), 0.01)
    assert eps == 0.99
    assert theta == pytest.approx(-math.log(99.0))


@pytest.mark.parametrize(
    "alpha,norm_err",
    [
        ([1.0, np.nan], [0.0, 1.0]),
        ([1.0, np.inf], [0.0, 1.0]),
        ([1.0, 1.0], [np.nan, 1.0]),
    ],
)
def test_boost_step_rejects_non_finite_inputs(alpha, norm_err):
    # a NaN passes the range checks and would come back as NaN weights,
    # eps and theta
    with pytest.raises(ValidationError, match="finite"):
        boost_step(np.array(alpha), np.array(norm_err), 1e-4)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_boost_step_preserves_total_and_positivity(seed):
    rng = seeded_rng(seed)
    n = int(rng.integers(2, 30))
    alpha = rng.uniform(0.1, 5.0, size=n)
    err = rng.uniform(0.0, 1.0, size=n)
    new, eps, theta = boost_step(alpha, err, 1e-4)
    assert new.sum() == pytest.approx(alpha.sum(), rel=1e-12)
    assert new.min() > 0
    assert 1e-4 <= eps <= 1 - 1e-4


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_boost_step_single_level_errors_never_lose_weight(seed):
    # with one error magnitude (rho == lam) each erring pair's weight can
    # only grow while theta > 0
    rng = seeded_rng(seed)
    n = int(rng.integers(3, 30))
    alpha = rng.uniform(0.1, 5.0, size=n)
    err = (rng.uniform(size=n) < 0.3).astype(float)
    if err.sum() == 0:
        err[0] = 1.0
    new, eps, theta = boost_step(alpha, err, 1e-4)
    if theta > 0:
        assert np.all(new[err == 1.0] >= alpha[err == 1.0] - 1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_boost_step_errors_outgrow_correct_pairs(seed):
    rng = seeded_rng(seed)
    n = int(rng.integers(3, 30))
    alpha = rng.uniform(0.1, 5.0, size=n)
    err = rng.uniform(0.0, 1.0, size=n) * (rng.uniform(size=n) < 0.5)
    new, eps, theta = boost_step(alpha, err, 1e-4)
    growth = new / alpha
    if theta > 0 and err.max() > 0 and err.min() == 0:
        assert growth[err > 0].min() >= growth[err == 0].max() - 1e-12


def test_theta_strictly_decreasing_in_eps():
    thetas = []
    for e in np.linspace(0.05, 0.95, 19):
        _, _, theta = boost_step(np.ones(2), np.array([e, e]), 1e-4)
        thetas.append(theta)
    assert all(a > b for a, b in zip(thetas, thetas[1:]))


def test_train_srsh_bookkeeping_and_weights():
    data, pairs = two_cluster_problem(seed=23)
    log = TrainLog()
    hyper = Hyperparams(K=2, L=4, epochs=8, seed=29, eps_min=1e-4)
    model = train_srsh(data, pairs, hyper, log=log)
    assert model.weights is not None and model.weights.shape == (4,)
    assert np.isfinite(model.weights).all()
    assert len(log.bits) == 4
    for trace in log.bits:
        assert trace.alpha_sum == pytest.approx(len(pairs), abs=1e-9)
        assert trace.alpha_min > 0
        assert 1e-4 <= trace.eps <= 1 - 1e-4
        assert trace.theta == pytest.approx(math.log((1 - trace.eps) / trace.eps), abs=1e-12)
    assert np.array_equal(model.weights, [t.theta for t in log.bits])


def test_train_srsh_first_bit_matches_rsh():
    # all pair weights start at 1, so bit 0 trains exactly like plain rsh;
    # each side trains it on its own rows and pairs
    hyper = Hyperparams(K=2, L=1, epochs=8, seed=37)
    rsh = train_rsh(*two_cluster_problem(seed=31), hyper)
    srsh = train_srsh(*two_cluster_problem(seed=31), hyper)
    assert np.array_equal(rsh.projections[0], srsh.projections[0])


def test_train_srsh_codes_in_range():
    data, pairs = two_cluster_problem(seed=41)
    model = train_srsh(data, pairs, Hyperparams(K=2, L=4, epochs=5, seed=43))
    codes = encode_dataset(data, model)
    assert codes.min() >= 0 and codes.max() < 2


def counted_lockstep(monkeypatch):
    """Record how many bits each `_lockstep` call trains."""
    counts = []
    lockstep = learning._lockstep

    def counting(X, pi, pj, ps, hyper, seeds, alpha=None):
        counts.append(len(seeds))
        return lockstep(X, pi, pj, ps, hyper, seeds, alpha)

    monkeypatch.setattr(learning, "_lockstep", counting)
    return counts


def fresh(pairs):
    return PairSet(pairs.i, pairs.j, pairs.s)


def assert_same_training(a, b):
    (model_a, log_a), (model_b, log_b) = a, b
    assert model_a.projections.tobytes() == model_b.projections.tobytes()
    assert (model_a.weights is None) == (model_b.weights is None)
    if model_a.weights is not None:
        assert model_a.weights.tobytes() == model_b.weights.tobytes()
    assert log_a == log_b


def trained(trainer, data, pairs, hyper):
    log = TrainLog()
    return trainer(data, pairs, hyper, log=log), log


@pytest.mark.parametrize("first, second", [(train_rsh, train_srsh), (train_srsh, train_rsh)])
def test_a_unit_weight_bit_trains_once_per_pairset(first, second, monkeypatch):
    # srsh's bit 0 trains at unit weights, like every rsh bit: whichever
    # trainer runs second on the same pairs takes that bit from the first,
    # and still returns what it returns on fresh pairs. The pairs' random
    # similarities leave every bit some errors, so srsh's later bits train
    # at other weights (on the separable clusters its weights stay at 1)
    data, pairs = tie_heavy_problem(5)
    hyper = Hyperparams(K=3, L=3, epochs=4, tol=0.0, seed=53)
    counts = counted_lockstep(monkeypatch)
    callers = []
    objective_arrays = learning._objective_arrays

    def recording(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return objective_arrays(*args)

    monkeypatch.setattr(learning, "_objective_arrays", recording)
    shared = [trained(first, data, pairs, hyper), trained(second, data, pairs, hyper)]
    assert sum(counts) == 2 * hyper.L - 1
    # the kept bit 0 comes with its per-pair errors: every objective pass is
    # one of training's own, none srsh's
    assert callers and "train_srsh" not in callers
    del counts[:]
    alone = [trained(first, data, fresh(pairs), hyper), trained(second, data, fresh(pairs), hyper)]
    assert sum(counts) == 2 * hyper.L
    for a, b in zip(shared, alone):
        assert_same_training(a, b)


@pytest.mark.parametrize("change", [
    dict(rho=0.5), dict(lam=2.0), dict(eta=0.2), dict(K=4), dict(epochs=3), dict(tol=0.5),
    dict(seed=54)])
def test_kept_bits_answer_only_their_own_training(change, monkeypatch):
    # a kept bit is reused only for the same rows (by identity), pairs,
    # seed and the hyperparameters its training reads
    data, pairs = two_cluster_problem(seed=47)
    hyper = Hyperparams(K=3, L=2, epochs=4, tol=0.0, seed=53)
    counts = counted_lockstep(monkeypatch)
    first = trained(train_rsh, data, pairs, hyper)
    assert_same_training(trained(train_rsh, data, pairs, hyper), first)
    assert counts == [2]
    other = replace(hyper, **change)
    assert_same_training(trained(train_rsh, data, pairs, other),
                         trained(train_rsh, data, fresh(pairs), other))
    assert counts == [2, 2, 2]
    # the first training is still kept beside it
    assert_same_training(trained(train_rsh, data, pairs, hyper), first)
    assert counts == [2, 2, 2]


def test_kept_bits_belong_to_one_dataset_and_one_pairset(monkeypatch):
    data, pairs = two_cluster_problem(seed=47)
    hyper = Hyperparams(K=3, L=2, epochs=4, tol=0.0, seed=53)
    counts = counted_lockstep(monkeypatch)
    first = trained(train_rsh, data, pairs, hyper)
    # equal rows and pairs, but other objects: both train again
    copy = Dataset(data.features, data.ids)
    assert_same_training(trained(train_rsh, copy, pairs, hyper), first)
    assert_same_training(trained(train_rsh, data, fresh(pairs), hyper), first)
    assert counts == [2, 2, 2]
    # other rows of the same shape give other bits
    moved = Dataset(data.features[::-1], data.ids)
    assert trained(train_rsh, moved, pairs, hyper)[0].projections.tobytes() != \
        first[0].projections.tobytes()
    assert counts == [2, 2, 2, 2]


# ------------------------------------------------------------ training oracle


def reference_train_bit(data, pairs, hyper, bit_seed, alpha=None, init=init_projection):
    """Online training of one bit rebuilt from the oracles.

    Returns W, the surrogate and empirical traces, and the per-epoch
    fraction of pair visits where `pair_gradient_step` moved W. The traces
    come from the (n, K, K) objective oracle.
    """
    rng = seeded_rng(bit_seed)
    W = init(hyper.K, data.dim, rng)
    X = data.features

    def traces(W):
        return objective_arrays(X, pairs.i, pairs.j, pairs.s, W, hyper.rho, hyper.lam)[:2]

    omega, start_emp = traces(W)
    surr, emp, fractions = [omega], [start_emp], []
    for epoch in range(hyper.epochs):
        epoch_hyper = replace(hyper, eta=hyper.eta / (1 + epoch))
        updates = 0
        for t in rng.permutation(len(pairs)):
            weight = 1.0 if alpha is None else alpha[t]
            moved = pair_gradient_step(
                W, X[pairs.i[t]], X[pairs.j[t]], int(pairs.s[t]), epoch_hyper, weight=weight
            )
            updates += moved is not W
            W = moved
        fractions.append(updates / len(pairs))
        now, now_emp = traces(W)
        surr.append(now)
        emp.append(now_emp)
        if abs(now - omega) / max(abs(omega), 1e-12) < hyper.tol:
            break
        omega = now
    return W, surr, emp, fractions


def reference_train_srsh(data, pairs, hyper):
    """train_srsh rebuilt from reference_train_bit and boost_step."""
    alpha = np.ones(len(pairs))
    emax = max(hyper.rho, hyper.lam)
    bits = []
    for l in range(hyper.L):
        W, surr, emp, fractions = reference_train_bit(
            data, pairs, hyper, child_seed(hyper.seed, l), alpha=alpha
        )
        codes = np.argmax(data.features @ W.T, axis=1)
        hi, hj = codes[pairs.i], codes[pairs.j]
        err = np.where(pairs.s == 1, hyper.rho * (hi != hj), hyper.lam * (hi == hj))
        norm_err = err / emax if emax > 0 else np.zeros(len(pairs))
        alpha, eps, theta = boost_step(alpha, norm_err, hyper.eps_min)
        bits.append((W, surr, emp, fractions, theta))
    return bits


def tie_heavy_problem(seed, n=30, d=5, n_pairs=120):
    """Small integer features with duplicate rows and all-zero rows, so many
    projections tie exactly; pairs include duplicate-to-duplicate and
    zero-to-zero pairs."""
    rng = seeded_rng(seed)
    X = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    X[[3, 7, 11]] = 0.0
    X[[4, 8]] = X[5]
    X[20] = X[21]
    iu, ju = np.triu_indices(n, k=1)
    keep = np.sort(rng.choice(iu.size, n_pairs, replace=False))
    forced = [(3, 7), (4, 5), (5, 8), (20, 21), (7, 11)]
    idx = sorted(set(zip(iu[keep].tolist(), ju[keep].tolist())) | set(forced))
    i = np.array([a for a, _ in idx])
    j = np.array([b for _, b in idx])
    s = rng.integers(0, 2, size=i.size)
    return Dataset(X, np.arange(n)), PairSet(i, j, s)


ORACLE_CASES = [
    # (problem, K, rho, lam, epochs, tol)
    ("ties", 3, 1.0, 1.0, 4, 0.0),
    ("ties", 2, 1.0, 1.0, 4, 0.0),
    ("ties", 4, 0.0, 1.5, 3, 0.0),
    ("ties", 3, 2.0, 0.0, 3, 0.0),
    ("ties", 2, 0.0, 0.0, 2, 0.0),
    ("ties", 3, 1.0, 0.5, 30, 1e-3),
    ("clusters", 2, 1.0, 1.0, 6, 0.0),
    ("clusters", 4, 0.5, 2.0, 5, 1e-4),
]


def oracle_problem(name, seed):
    return tie_heavy_problem(seed) if name == "ties" else two_cluster_problem(seed=seed)


def assert_matches_oracle(problem, K, rho, lam, epochs, tol, seed):
    data, pairs = oracle_problem(problem, seed)
    hyper = Hyperparams(K=K, L=3, rho=rho, lam=lam, eta=0.1, epochs=epochs, tol=tol, seed=seed)
    log = TrainLog()
    model = train_rsh(data, pairs, hyper, log=log)
    for l, trace in enumerate(log.bits):
        bit_seed = child_seed(seed, l)
        W, surr, emp, fractions = reference_train_bit(data, pairs, hyper, bit_seed)
        assert np.array_equal(model.projections[l], W)
        assert np.array_equal(lone_bit(data, pairs, hyper, bit_seed), W)
        assert trace.objective_trace == surr
        assert trace.empirical_trace == emp
        assert trace.update_fraction == fractions
    log = TrainLog()
    model = train_srsh(data, pairs, hyper, log=log)
    for l, (W, surr, emp, fractions, theta) in enumerate(reference_train_srsh(data, pairs, hyper)):
        assert np.array_equal(model.projections[l], W)
        assert log.bits[l].objective_trace == surr
        assert log.bits[l].empirical_trace == emp
        assert log.bits[l].update_fraction == fractions
        assert model.weights[l] == theta


@pytest.mark.parametrize("case", ORACLE_CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_training_matches_reference_loop(case, seed):
    # the block step against the public per-pair step: models and traces
    # equal bit for bit
    assert_matches_oracle(*case, seed=seed)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_training_matches_reference_loop_screening_every_block(case, monkeypatch):
    # the block step at both extremes of its size: one pair per block (the
    # per-pair step), then blocks of at least n pairs, so each block runs to
    # its first update or the end of the epoch
    monkeypatch.setattr(learning, "_BLOCK_MIN", 1)
    monkeypatch.setattr(learning, "_BLOCK_MAX", 1)
    assert_matches_oracle(*case, seed=2)
    monkeypatch.setattr(learning, "_BLOCK_MIN", 4096)
    monkeypatch.setattr(learning, "_BLOCK_MAX", 4096)
    monkeypatch.setattr(learning, "_BLOCK_CELLS", 1 << 40)
    assert_matches_oracle(*case, seed=2)


@pytest.mark.parametrize("case", [case for case in ORACLE_CASES if case[0] == "ties"])
def test_lone_bit_windows_refill_like_the_reference(case, monkeypatch):
    # a lone bit reads its endpoint columns and its pairs' offsets from a
    # window gathered ahead. At three pairs per window, against blocks of one
    # or two pairs, each epoch of 122 pairs refills it over 40 times,
    # often with the window's last pair left over; srsh's bits and rsh's last
    # bit still train like the reference, zero rho or lam included
    problem, K = case[:2]
    data, _ = oracle_problem(problem, 3)
    monkeypatch.setattr(learning, "_BLOCK_CELLS", 3 * max(K * K, 2 * data.dim))
    assert_matches_oracle(*case, seed=3)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    K=st.integers(min_value=2, max_value=16),
    d=st.integers(min_value=1, max_value=80),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    integer_w=st.booleans(),
    A=st.integers(min_value=1, max_value=8),
)
def test_stacked_matmul_matches_row_gemv_bit_for_bit(seed, K, d, scale, integer_w, A):
    # the block step's projections: np.matmul of W with gathered (d, 1)
    # columns runs one gemv per column, the same BLAS call as W.dot on a row
    # view of X, so every projection is the same float. K starts at 2, as in
    # training: a (1, 1) W goes through dot instead, and a zero product can
    # come out as -0.0 on one side and 0.0 on the other.
    rng = seeded_rng(seed)
    X = rng.standard_normal((12, d)) * scale
    shape = (A, K, d)
    if integer_w:
        Ws = rng.integers(-3, 4, size=shape).astype(np.float64)
    else:
        Ws = rng.standard_normal(shape)
    ends = rng.integers(0, 12, size=int(rng.integers(1, 40)))
    stacked = np.matmul(Ws[0], X[:, :, None][ends])[:, :, 0]
    rows = np.stack([Ws[0].copy().dot(X[e]) for e in ends])
    assert stacked.tobytes() == rows.tobytes()
    # the lockstep shapes: A stacked W broadcast over (A, 2S, d, 1) columns,
    # written into a slice of a persistent buffer. A lone W reads its
    # columns as a slice of a window gathered ahead; a stack gathers each
    # round's columns into the front of a persistent buffer.
    cols = X[:, :, None]
    col_buf = np.empty((2 * 8 * 20 + 16, d, 1))
    y_buf = np.full(2 * 8 * 20 * K, np.nan)
    for S in sorted({1, int(rng.integers(1, 21))}):
        ends = rng.integers(0, 12, size=(A, 2 * S))
        if A == 1:
            lo = int(rng.integers(0, 8))
            before, after = rng.integers(0, 12, size=lo), rng.integers(0, 12, size=8)
            window = np.concatenate([before, ends[0], after])
            cols.take(window, axis=0, out=col_buf[: window.size], mode="clip")
            E = col_buf[None, lo : lo + 2 * S]
        else:
            E = col_buf[: 2 * A * S].reshape(A, 2 * S, d, 1)
            cols.take(ends, axis=0, out=E, mode="clip")
        Y = y_buf[: 2 * A * S * K].reshape(A, 2 * S, K, 1)
        np.matmul(np.stack(list(Ws))[:, None], E, out=Y)
        want = np.stack([[Ws[a].copy().dot(X[e]) for e in ends[a]] for a in range(A)])
        assert Y[..., 0].tobytes() == want.tobytes()


def test_zero_rows_train_like_the_reference():
    # every row zero: every projection is 0.0, every K x K cell ties, and the
    # row-major first maximiser decides each step
    data, pairs = tie_heavy_problem(3)
    blank = Dataset(np.zeros_like(data.features), data.ids)
    for s in (None, 0, 1):
        p = pairs if s is None else PairSet(pairs.i, pairs.j, np.full(len(pairs), s))
        hyper = Hyperparams(K=3, L=1, epochs=3, tol=0.0, seed=5)
        log = TrainLog()
        model = train_rsh(blank, p, hyper, log=log)
        W, surr, emp, fractions = reference_train_bit(blank, p, hyper, child_seed(5, 0))
        assert np.array_equal(model.projections[0], W)
        assert log.bits[0].objective_trace == surr
        assert log.bits[0].empirical_trace == emp
        assert log.bits[0].update_fraction == fractions


@pytest.mark.parametrize("seed, d", [(7, 6), (7, 33), (8, 33)])
def test_rounding_tie_rows_train_like_the_reference(seed, d, monkeypatch):
    # rows that are permutations of each other project to scores equal in
    # exact arithmetic but possibly a few ulps apart after rounding; on the
    # constant rows below they are the top two. Training starts from that W
    # and must match the one-pair reference step for step; a matrix product
    # in place of the per-column gemv rounds these ties differently.
    rng = seeded_rng(seed)
    base = rng.standard_normal(d)
    W0 = np.stack([base, base[::-1], base - 1.0])
    X = np.concatenate([np.ones((4, d)) * rng.uniform(0.5, 2.0, size=(4, 1)),
                        rng.standard_normal((4, d))])
    data = Dataset(X, np.arange(8))
    iu, ju = np.triu_indices(8, k=1)

    def tie_init(K, dim, bit_rng):
        init_projection(K, dim, bit_rng)  # keep the seed stream of a real start
        return W0.copy()

    monkeypatch.setattr(learning, "init_projection", tie_init)
    for s in (0, 1):
        pairs = PairSet(iu, ju, np.full(iu.size, s))
        hyper = Hyperparams(K=3, L=1, rho=1.0, lam=1.0, epochs=3, tol=0.0, seed=11)
        log = TrainLog()
        model = train_rsh(data, pairs, hyper, log=log)
        W, surr, _, fractions = reference_train_bit(data, pairs, hyper, child_seed(11, 0),
                                                    init=tie_init)
        assert np.array_equal(model.projections[0], W)
        assert log.bits[0].objective_trace == surr
        assert log.bits[0].update_fraction == fractions


def test_production_blocks_span_many_pairs(monkeypatch):
    # with the production constants, a problem whose pairs rarely update W
    # is decided in blocks of more than one pair, and still matches the
    # reference. The block step's operand stacks (A, 2S, d, 1) endpoint
    # columns: S pairs for each of A bits.
    sizes = []
    matmul = np.matmul

    def recording(a, b, *args, **kwargs):
        sizes.extend([b.shape[1] // 2] * b.shape[0])
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    data, pairs = two_cluster_problem(seed=3, n_per=40)
    hyper = Hyperparams(K=2, L=1, epochs=6, tol=0.0, seed=9)
    log = TrainLog()
    model = train_rsh(data, pairs, hyper, log=log)
    monkeypatch.undo()
    visits = 6 * len(pairs)
    assert sum(sizes) >= visits and len(sizes) < visits / 4
    assert max(sizes) == learning._BLOCK_MAX
    W, surr, _, fractions = reference_train_bit(data, pairs, hyper, child_seed(9, 0))
    assert np.array_equal(model.projections[0], W)
    assert log.bits[0].objective_trace == surr
    assert log.bits[0].update_fraction == fractions


def assert_bits_match_reference(data, pairs, hyper, log, model):
    for l, trace in enumerate(log.bits):
        W, surr, emp, fractions = reference_train_bit(data, pairs, hyper, child_seed(hyper.seed, l))
        assert np.array_equal(model.projections[l], W)
        assert trace.objective_trace == surr
        assert trace.empirical_trace == emp
        assert trace.update_fraction == fractions


@pytest.mark.parametrize("problem, seed", [("clusters", 3), ("ties", 2)])
def test_lockstep_bits_stop_at_their_own_epochs(problem, seed):
    # rsh's bits train in one stack of rounds. Under tol each bit leaves the
    # stack at its own epoch, the rest go on in smaller rounds, down to a
    # lone bit, and every bit still trains like the one-pair reference
    data, pairs = oracle_problem(problem, seed)
    hyper = Hyperparams(K=3, L=4, rho=1.0, lam=0.5, eta=0.1, epochs=30, tol=1e-3, seed=seed)
    log = TrainLog()
    model = train_rsh(data, pairs, hyper, log=log)
    epochs = [len(trace.update_fraction) for trace in log.bits]
    assert len(set(epochs)) > 1 and max(epochs) < hyper.epochs
    assert_bits_match_reference(data, pairs, hyper, log, model)


def test_lockstep_rounds_respect_the_cell_cap(monkeypatch):
    # with _BLOCK_CELLS low, the cap of A * S * max(K^2, 2d) floats per
    # round buffer cuts every block below what the bits ask for (at least
    # _BLOCK_MIN pairs), for the stack of three rsh bits and for srsh's lone
    # bits alike, and training still matches the reference
    data, pairs = tie_heavy_problem(4)
    K, width = 3, max(3 * 3, 2 * data.dim)
    rounds = []
    matmul = np.matmul

    def recording(a, b, *args, **kwargs):
        rounds.append((b.shape[0], b.shape[1] // 2))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(learning, "_BLOCK_CELLS", 8 * width)
    monkeypatch.setattr(np, "matmul", recording)
    assert_matches_oracle("ties", K, 1.0, 1.0, 4, 0.0, seed=4)
    monkeypatch.undo()
    # the three bits need different numbers of rounds for their four epochs,
    # so the stack shrinks as they finish
    assert {A for A, _ in rounds} == {1, 2, 3}
    assert all(S <= 8 // A for A, S in rounds)
    assert max(S for A, S in rounds if A == 3) == 2 < learning._BLOCK_MIN
    assert max(S for A, S in rounds if A == 1) == 8
