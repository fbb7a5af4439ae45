"""End-to-end checks: exact oracles, bookkeeping invariants, retrieval trends.

Each test prints a one-line measurement (visible under -s) so a verbose run
doubles as a report. Time budgets are asserted where a check is only useful
if it stays cheap.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from rankhash.cli import main
from rankhash.core import (
    Dataset,
    HashModel,
    Hyperparams,
    child_seed,
    init_projection,
    seeded_rng,
)
from rankhash.data import (
    apply_center_and_normalize,
    groundtruth_from_labels,
    make_pairs_from_labels,
    synth_clusters,
)
from rankhash.evaluation import (
    average_precision,
    build_table,
    knn_hamming,
    lookup,
    pr_curve_by_radius,
)
from rankhash.hashers import (
    encode_dataset,
    lsh_as_rsh,
    make_lsh_spec,
    make_wta_spec,
    wta_as_rsh,
)
from rankhash.learning import (
    TrainLog,
    train_rsh,
    train_srsh,
)

from oracles import (
    center_and_normalize,
    loss_adjusted_inference,
    neighbor_list,
    pair_error,
    rsh_encode,
    surrogate_pair,
    wta_encode,
)


def test_adjusted_inference_matches_exhaustive_scan():
    rng = seeded_rng(101)
    t0 = time.monotonic()
    for trial in range(1000):
        K = (2, 4, 8)[trial % 3]
        yi, yj = rng.standard_normal(K), rng.standard_normal(K)
        s = int(rng.integers(0, 2))
        rho, lam = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
        got = loss_adjusted_inference(yi, yj, s, rho, lam)
        best = None
        for gi in range(K):
            for gj in range(K):
                val = yi[gi] + yj[gj]
                if s == 1 and gi != gj:
                    val = val + rho
                elif s == 0 and gi == gj:
                    val = val + lam
                if best is None or val > best[2]:
                    best = (gi, gj, val)
        assert (got.gi_star, got.gj_star) == best[:2]
        assert abs(got.value - best[2]) <= 1e-12
    elapsed = time.monotonic() - t0
    print(f"\nadjusted inference: 1000 instances match the K^2 scan, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_surrogate_never_falls_below_pair_error():
    rng = seeded_rng(202)
    t0 = time.monotonic()
    min_slack = np.inf
    for trial in range(10_000):
        K = (2, 4, 8)[trial % 3]
        W = rng.standard_normal((K, 6))
        xi, xj = rng.standard_normal(6), rng.standard_normal(6)
        s = int(rng.integers(0, 2))
        rho, lam = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
        bound = surrogate_pair(W, xi, xj, s, rho, lam)
        hi, hj = int(np.argmax(W @ xi)), int(np.argmax(W @ xj))
        slack = bound - pair_error(hi, hj, s, rho, lam)
        min_slack = min(min_slack, slack)
        assert slack >= -1e-12
    elapsed = time.monotonic() - t0
    print(f"\nupper bound: min slack {min_slack:+.2e} over 10000 draws, {elapsed:.2f}s")
    assert elapsed < 5.0


def _analytic_gradient(W, xi, xj, s, rho, lam):
    yi, yj = W @ xi, W @ xj
    hi, hj = int(yi.argmax()), int(yj.argmax())
    adj = loss_adjusted_inference(yi, yj, s, rho, lam)
    grad = np.zeros_like(W)
    grad[adj.gi_star] += xi
    grad[hi] -= xi
    grad[adj.gj_star] += xj
    grad[hj] -= xj
    return grad


def _generic_case(rng, K=4, d=6, margin=1e-4):
    # all four argmaxes uniquely attained, so the surrogate is differentiable
    # in an h-neighborhood and central differences are exact to O(h^2)
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


def test_gradient_agrees_with_finite_differences():
    rng = seeded_rng(303)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(200):
        W, xi, xj, s, rho, lam = _generic_case(rng)
        grad = _analytic_gradient(W, xi, xj, s, rho, lam)
        for _ in range(5):
            D = rng.standard_normal(W.shape)
            D /= np.linalg.norm(D)
            h = 1e-7
            fd = (
                surrogate_pair(W + h * D, xi, xj, s, rho, lam)
                - surrogate_pair(W - h * D, xi, xj, s, rho, lam)
            ) / (2 * h)
            expected = float((grad * D).sum())
            rel = abs(fd - expected) / max(abs(expected), 1.0)
            worst = max(worst, rel)
            assert rel < 1e-6
    elapsed = time.monotonic() - t0
    print(f"\ngradient: worst rel err {worst:.2e} over 200 points x 5 dirs, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_window_hash_agrees_with_its_projection_form():
    rng = seeded_rng(404)
    checked = 0
    for _ in range(100):
        K = int(rng.integers(2, 7))
        d = int(rng.integers(K, 13))
        L = int(rng.integers(1, 7))
        spec = make_wta_spec(L, K, d, rng)
        model = wta_as_rsh(spec)
        for _ in range(100):
            x = rng.standard_normal(d)
            direct = wta_encode(x, spec)
            via_rsh = np.array([rsh_encode(x, P) for P in model.projections])
            assert np.array_equal(direct, via_rsh)
            checked += 1
    print(f"\nwindow hash: {checked} encodings agree exactly")


def test_codes_invariant_to_positive_scaling():
    rng = seeded_rng(505)
    checked = 0
    for _ in range(1000):
        K = (2, 4, 8)[checked % 3]
        d = 8
        W = rng.standard_normal((K, d))
        x = rng.standard_normal(d)
        c = 100.0 * (1.0 - rng.random())  # (0, 100]
        y = W @ x
        top = np.sort(y)[-2:]
        if top[1] - top[0] <= 0.0:  # precondition: unique winner
            continue
        assert rsh_encode(c * x, W) == rsh_encode(x, W)
        checked += 1
    print(f"\nscaling: {checked}/1000 draws met the precondition, all codes equal")
    assert checked >= 990


def test_ball_lookup_matches_linear_scan():
    rng = seeded_rng(606)
    db = Dataset(rng.standard_normal((500, 16)), np.arange(500))
    hyper = Hyperparams(K=4, L=16, seed=606)
    model = HashModel(
        tuple(init_projection(4, 16, seeded_rng(child_seed(606, l))) for l in range(16)),
        None,
        hyper,
    )
    codes = encode_dataset(db, model)
    table = build_table(codes, db.ids, 4)
    q_codes = encode_dataset(Dataset(rng.standard_normal((50, 16)), np.arange(50)), model)
    ids = np.asarray(db.ids)
    for q in q_codes:
        dists = (codes != q).sum(axis=1)
        for R in range(4):
            expected = ids[dists <= R]
            for strategy in ("expand", "scan"):
                got = lookup(table, q, R, strategy=strategy)
                assert got.dtype == np.int64 and np.array_equal(got, expected)
    print("\nlookup: 50 queries x radii 0-3, expand and scan both match the scan filter")


def test_sequential_reweighting_bookkeeping():
    full, labels = synth_clusters(2, 40, 6, 6.0, 1.0, seeded_rng(3))
    data, _ = center_and_normalize(full)
    pairs = make_pairs_from_labels(labels, 500, 0.4, seeded_rng(4))
    hyper = Hyperparams(K=4, L=16, epochs=10, tol=1e-3, seed=5, eps_min=0.05)
    log = TrainLog()
    train_srsh(data, pairs, hyper, log=log)
    assert len(log.bits) == 16
    n = len(pairs)
    worst_drift = 0.0
    for trace in log.bits:
        worst_drift = max(worst_drift, abs(trace.alpha_sum - n))
        assert trace.alpha_sum == pytest.approx(n, abs=1e-9)
        assert trace.alpha_min > 0.0
        assert hyper.eps_min <= trace.eps <= 1.0 - hyper.eps_min
        assert trace.theta == pytest.approx(
            np.log((1.0 - trace.eps) / trace.eps), abs=1e-12
        )
    print(f"\nreweighting: 16 bits, max |sum(alpha) - {n}| = {worst_drift:.1e}")


# --------------------------------------------------------- cluster benchmark
#
# Shared by the three trend checks below: 4 Gaussian clusters in d = 16
# (separation 10, sigma 1), 400 database points + 200 queries, class labels
# as supervision, 10 independent seeds. Codes use K = 4; the sign-projection
# baseline gets L * log2(K) binary functions so the packed budget matches.


@pytest.fixture(scope="session")
def cluster_benchmark():
    t0 = time.monotonic()
    full, labels = synth_clusters(4, 150, 16, 10.0, 1.0, seeded_rng(0))
    block = np.arange(4)[:, None] * 150
    db_rows = (block + np.arange(100)).ravel()
    query_rows = (block + 100 + np.arange(50)).ravel()
    db, db_labels = full.subset(db_rows), labels[db_rows]
    queries, q_labels = full.subset(query_rows), labels[query_rows]
    db, mean = center_and_normalize(db)
    queries = apply_center_and_normalize(queries, mean)
    pairs = make_pairs_from_labels(db_labels, 2000, 0.3, seeded_rng(1))
    gt = groundtruth_from_labels(db.ids, db_labels, q_labels)

    def ap_of(model):
        codes = encode_dataset(db, model)
        q_codes = encode_dataset(queries, model)
        table = build_table(codes, db.ids, model.K)
        return average_precision(pr_curve_by_radius(table, q_codes, gt))

    runs = {"p50": [], "ap_rsh": {4: [], 8: [], 16: []}, "ap_srsh": [], "ap_lsh": []}
    for run in range(10):
        seed = child_seed(0, 100 + run)
        hyper = Hyperparams(K=4, L=16, epochs=30, tol=1e-3, seed=seed, eps_min=0.1)
        # bit seeds do not depend on L, so the L = 16 prefix slices are the
        # models the shorter trainings would produce
        m16 = train_rsh(db, pairs, hyper)
        for L in (4, 8, 16):
            sliced = HashModel(m16.projections[:L], None, replace(hyper, L=L))
            runs["ap_rsh"][L].append(ap_of(sliced))
        m8 = HashModel(m16.projections[:8], None, replace(hyper, L=8))
        db_codes = encode_dataset(db, m8)
        q_codes = encode_dataset(queries, m8)
        hits = []
        for q in range(queries.n):
            found = knn_hamming(db_codes, db.ids, q_codes[q], 50)
            hits.append(np.isin(found, neighbor_list(gt, q)).sum() / 50.0)
        runs["p50"].append(float(np.mean(hits)))
        srsh = train_srsh(db, pairs, replace(hyper, L=8))
        runs["ap_srsh"].append(ap_of(srsh))
        lsh = lsh_as_rsh(make_lsh_spec(16, db.dim, seeded_rng(seed)))
        runs["ap_lsh"].append(ap_of(lsh))
    runs["elapsed"] = time.monotonic() - t0
    return runs


def test_trained_codes_retrieve_clusters(cluster_benchmark):
    b = cluster_benchmark
    mean_p50 = float(np.mean(b["p50"]))
    wins = sum(r > l for r, l in zip(b["ap_rsh"][8], b["ap_lsh"]))
    print(
        f"\nretrieval: mean P@50 {mean_p50:.3f}, trained beats random projections "
        f"on AP {wins}/10, benchmark took {b['elapsed']:.1f}s"
    )
    assert b["elapsed"] < 120.0
    assert mean_p50 >= 0.90
    assert wins >= 9


def test_sequential_weighting_does_not_hurt(cluster_benchmark):
    b = cluster_benchmark
    wins = sum(s >= r for s, r in zip(b["ap_srsh"], b["ap_rsh"][8]))
    print(f"\nsequential: AP at least matches plain training {wins}/10")
    assert wins >= 7


def test_ap_non_decreasing_in_code_length(cluster_benchmark):
    b = cluster_benchmark
    stats = {
        L: (float(np.mean(values)), float(np.std(values, ddof=1)))
        for L, values in b["ap_rsh"].items()
    }
    print(
        "\nlength sweep: AP "
        + ", ".join(f"L={L}: {m:.4f}+-{s:.4f}" for L, (m, s) in sorted(stats.items()))
    )
    for shorter, longer in ((4, 8), (8, 16)):
        mean_a, std_a = stats[shorter]
        mean_b, std_b = stats[longer]
        pooled = np.sqrt((std_a**2 + std_b**2) / 2.0)
        assert mean_b >= mean_a - pooled


def test_benchmark_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "synthetic = true\n"
        "clusters = 4\n"
        "per_cluster = 60\n"
        "query_per_cluster = 15\n"
        "dim = 12\n"
        "separation = 8.0\n"
        "noise_sigma = 1.0\n"
        "methods = rsh, srsh, wta, lsh\n"
        "K = 4\n"
        "L = 4\n"
        "L_list = 4,8\n"
        "epochs = 10\n"
        "tol = 1e-3\n"
        "max_pairs = 1500\n"
        "pos_fraction = 0.3\n"
        "seeds = 3\n"
        "radius_list = 1,2\n"
        "k_list = 10\n"
        "seed = 7\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["benchmark", "--config", str(cfg), "--out", str(out2)]) == 0
    first = (out1 / "metrics.csv").read_bytes()
    assert first == (out2 / "metrics.csv").read_bytes()
    print(f"\ndeterminism: {len(first.splitlines())}-row metrics CSV is byte-identical")
