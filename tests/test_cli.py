import json
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from rankhash import (
    Dataset,
    calibrate_groundtruth,
    encode_dataset,
    groundtruth_from_labels,
    load_fvec,
    load_model,
    row_normalize,
    save_fvec,
    seeded_rng,
)
from rankhash import cli
from rankhash.cli import ConfigError, ExperimentConfig, main, parse_config, validate_config

from oracles import neighbor_list

BASE = """
synthetic = true
clusters = 3
per_cluster = 30
query_per_cluster = 10
dim = 8
separation = 8.0
noise_sigma = 1.0
methods = rsh
K = 4
L = 4
epochs = 4
tol = 1e-3
max_pairs = 600
pos_fraction = 0.3
seeds = 2
radius_list = 1,2
k_list = 5,10
seed = 0
"""


def write_config(tmp_path, extra="", base=BASE):
    """Write `base` with each `key = value` line of `extra` in place of the
    base's line for that key, or after the base when it has none."""
    lines = base.splitlines()
    keys = [line.partition("=")[0].strip() for line in lines]
    for line in extra.splitlines():
        key = line.partition("=")[0].strip()
        if key in keys:
            lines[keys.index(key)] = line
        else:
            lines.append(line)
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_parse_config_basics():
    cfg = parse_config("K = 8\nlambda = 2.5  # inline comment\nmethods = rsh, lsh\n")
    assert cfg.K == 8
    assert cfg.lam == 2.5
    assert cfg.methods == ("rsh", "lsh")


def test_parse_config_round_trips_every_key():
    text = """
input = data/points.csv
synthetic = yes
clusters = 5
per_cluster = 7
dim = 9
separation = 2.5
noise_sigma = 0.25
query_per_cluster = 3
train_count = 11
query_count = 13
center = false
pca = 6
methods = RSH, Lsh
K = 3
L = 5
rho = 0.75
lambda = 1.5
eta = 0.05
epochs = 9
tol = 0.001
eps_min = 0.2
seed = 18446744073709551615
max_pairs = 123
pos_fraction = 0.4
neighbor_avg = 12.5
sweep = true
rho_grid = 0.5, 2
lambda_grid = 4
radius_list = 0, 1, 4
k_list = 7
seeds = 3
L_list = 2, 6
data_dir = stage/data
models_dir = stage/models
"""
    expected = ExperimentConfig(
        input="data/points.csv", synthetic=True, clusters=5, per_cluster=7, dim=9,
        separation=2.5, noise_sigma=0.25, query_per_cluster=3, train_count=11,
        query_count=13, center=False, pca=6, methods=("rsh", "lsh"), K=3, L=5,
        rho=0.75, lam=1.5, eta=0.05, epochs=9, tol=0.001, eps_min=0.2,
        seed=2**64 - 1, max_pairs=123, pos_fraction=0.4, neighbor_avg=12.5,
        sweep=True, rho_grid=(0.5, 2.0), lambda_grid=(4.0,), radius_list=(0, 1, 4),
        k_list=(7,), seeds=3, L_list=(2, 6), data_dir="stage/data",
        models_dir="stage/models",
    )
    cfg = parse_config(text)
    assert cfg == expected
    # every key above moves its field off the default, so each parser ran
    for f in fields(ExperimentConfig):
        assert getattr(cfg, f.name) != f.default, f.name
    assert isinstance(cfg.seed, int) and isinstance(cfg.rho, float)
    assert all(isinstance(v, float) for v in cfg.rho_grid)
    assert all(isinstance(v, int) for v in cfg.L_list)


def test_parse_config_unknown_key_names_line():
    with pytest.raises(ConfigError, match=r"line 2.*wat"):
        parse_config("K = 4\nwat = 7\n")


def test_parse_config_repeated_key_names_both_lines(tmp_path, capsys):
    # a later line used to replace the earlier value silently
    with pytest.raises(ConfigError, match=r"line 3: K .*line 1"):
        parse_config("K = 4\nL = 2\nK = 8\n")
    with pytest.raises(ConfigError, match=r"line 2: lambda .*line 1"):
        parse_config("lambda = 1\nlambda = 1\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BASE + "seeds = 1\n")
    out = tmp_path / "out"
    assert main(["preprocess", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:config: line ")
    assert not out.exists()


def test_parse_config_bad_value_names_key():
    with pytest.raises(ConfigError, match="epochs"):
        parse_config("epochs = soon\n")


def test_parse_config_requires_assignment():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just words\n")


def test_validate_config_names_field():
    cfg = parse_config("synthetic = true\nK = 1\n")
    with pytest.raises(ConfigError, match="K"):
        validate_config(cfg, "train")
    cfg = parse_config("synthetic = true\nmethods = rsh, magic\n")
    with pytest.raises(ConfigError, match="methods"):
        validate_config(cfg, "train")


@pytest.mark.parametrize(
    "line, key",
    [
        ("seed = 18446744073709551616", "seed"),
        ("rho = nan", "rho"),
        ("lambda = nan", "lambda"),
        ("eta = inf", "eta"),
        ("rho_grid = nan, 1", "rho_grid"),
        ("lambda_grid = nan", "lambda_grid"),
        ("methods = rsh, rsh", "methods"),
        ("sweep = true\nrho_grid = 1, 0.5, 1.0", "rho_grid"),
        ("lambda_grid = 2, 2", "lambda_grid"),
        ("radius_list = 1, 1", "radius_list"),
        ("k_list = 5, 10, 5", "k_list"),
        ("L_list = 2, 2", "L_list"),
        ("L_list = 2, 0", "L_list"),
        ("neighbor_avg = nan", "neighbor_avg"),
        ("separation = nan", "separation"),
        ("noise_sigma = nan", "noise_sigma"),
        ("neighbor_avg = inf", "neighbor_avg"),
        ("separation = inf", "separation"),
        ("noise_sigma = inf", "noise_sigma"),
        ("epochs = 4294967296", "epochs"),
        ("max_pairs = 0", "max_pairs"),
        ("pca = -1", "pca"),
        ("radius_list = 1, -1", "radius_list"),
        ("k_list = 0", "k_list"),
    ],
)
def test_invalid_config_exits_2_before_writing(tmp_path, capsys, line, key):
    cfg = write_config(tmp_path, extra=line + "\n")
    out = tmp_path / "out"
    code = main(["preprocess", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error:config: {key}: ")
    assert not out.exists()


# ------------------------------------------------------------ preprocess


def test_preprocess_outputs_and_manifest(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["preprocess", "--config", str(cfg), "--out", str(out)]) == 0
    train = load_fvec(out / "train.rshv")
    query = load_fvec(out / "query.rshv")
    assert train.n == 90 and train.dim == 8
    assert query.n == 30 and query.dim == 8
    labels = np.load(out / "train_labels.npy")
    assert labels.shape == (90,)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 0
    assert manifest["shapes"]["train"] == [90, 8]
    # center=true stores the training mean for later stages
    assert (out / "center_mean.npy").exists()


def test_preprocess_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["preprocess", "--config", str(cfg), "--out", str(out1)])
    main(["preprocess", "--config", str(cfg), "--out", str(out2)])
    for name in ("train.rshv", "query.rshv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_preprocess_reads_a_config_with_a_byte_order_mark(tmp_path):
    # read as plain UTF-8, a BOM makes the first key "\ufeffsynthetic", unknown
    cfg = write_config(tmp_path)
    plain, bom = tmp_path / "plain", tmp_path / "bom"
    assert main(["preprocess", "--config", str(cfg), "--out", str(plain)]) == 0
    cfg.write_text(cfg.read_text().lstrip(), encoding="utf-8-sig")
    assert cfg.read_bytes().startswith(b"\xef\xbb\xbfsynthetic")
    assert main(["preprocess", "--config", str(cfg), "--out", str(bom)]) == 0
    for name in ("train.rshv", "query.rshv", "manifest.json"):
        assert (bom / name).read_bytes() == (plain / name).read_bytes()


def test_preprocess_full_rank_pca_preserves_distances(tmp_path):
    base = BASE.replace("methods = rsh", "methods = rsh\ncenter = false")
    raw_cfg = write_config(tmp_path, base=base)
    pca_cfg = tmp_path / "pca.cfg"
    pca_cfg.write_text(base + "pca = 8\n")
    out_raw, out_pca = tmp_path / "raw", tmp_path / "pca"
    main(["preprocess", "--config", str(raw_cfg), "--out", str(out_raw)])
    main(["preprocess", "--config", str(pca_cfg), "--out", str(out_pca)])
    a = load_fvec(out_raw / "train.rshv").features
    b = load_fvec(out_pca / "train.rshv").features
    rng = np.random.default_rng(0)
    for _ in range(10):
        p, q = rng.choice(len(a), 2, replace=False)
        da = np.linalg.norm(a[p] - a[q])
        db = np.linalg.norm(b[p] - b[q])
        assert db == pytest.approx(da, rel=1e-4)


def test_config_json_holds_every_field_and_rebuilds_the_config(tmp_path):
    extra = ("methods = wta, lsh\nrho_grid = 0.5, 2\nlambda_grid = 1\nL_list = 2, 3\n"
             "radius_list = 0, 1\nk_list = 3\nseeds = 1\n")
    path = write_config(tmp_path, extra=extra)
    cfg = parse_config(path.read_text())
    out = tmp_path / "out"
    for command in ("preprocess", "benchmark"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
    names = {f.name for f in fields(ExperimentConfig)}
    for written in ("manifest.json", "summary.json"):
        config = json.loads((out / written).read_text())["config"]
        assert set(config) == names
        for name in names:
            assert isinstance(config[name], list) == isinstance(getattr(cfg, name), tuple)
        rebuilt = {k: tuple(v) if isinstance(v, list) else v for k, v in config.items()}
        assert ExperimentConfig(**rebuilt) == cfg


def test_seed_override_changes_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["preprocess", "--config", str(cfg), "--out", str(out1)])
    main(["preprocess", "--config", str(cfg), "--out", str(out2), "--seed", "123"])
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 123
    assert (out1 / "train.rshv").read_bytes() != (out2 / "train.rshv").read_bytes()


# ----------------------------------------------------------------- train


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One preprocess + train + eval run shared by the assertions below."""
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(tmp, extra="methods = rsh, srsh, wta, lsh\n")
    out = tmp / "out"
    assert main(["preprocess", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out


def test_train_writes_models_and_logs(pipeline):
    _, out = pipeline
    for run in range(2):
        assert (out / f"model_rsh_rho1_lam1_seed{run}.rshm").exists()
        assert (out / f"model_srsh_rho1_lam1_seed{run}.rshm").exists()
        assert (out / f"model_wta_seed{run}.rshm").exists()
        assert (out / f"model_lsh_seed{run}.rshm").exists()
    srsh = load_model(out / "model_srsh_rho1_lam1_seed0.rshm")
    assert srsh.weights is not None and srsh.weights.shape == (4,)
    lsh = load_model(out / "model_lsh_seed0.rshm")
    assert lsh.K == 2 and lsh.L == 8  # 4 symbols * 2 bits each at K=4


def assert_shortest_floats(lines, columns):
    # a float cell is its own shortest round-trip text: no numpy repr, no
    # truncation (repr(nan) is "nan"); update_fraction is blank on epoch 0
    for line in lines[1:]:
        cells = line.split(",")
        for col in columns:
            assert cells[col] == "" or repr(float(cells[col])) == cells[col], line


def test_write_csv_formats_every_cell_by_one_rule(tmp_path):
    path = tmp_path / "t.csv"
    # a numpy float64 is a float, and is written as the builtin float's repr
    cli._write_csv(path, "a,b,c,d", [
        (np.float64(0.1), 2 / 3, np.float64("nan"), 1.0),
        ("mean", 3, "", 1e-300),
    ])
    assert path.read_text() == "a,b,c,d\n0.1,0.6666666666666666,nan,1.0\nmean,3,,1e-300\n"


def test_train_log_traces(pipeline):
    _, out = pipeline
    lines = (out / "train_log.csv").read_text().splitlines()
    assert lines[0] == "method,rho,lambda,seed,bit,epoch,surrogate,empirical,update_fraction"
    assert_shortest_floats(lines, (1, 2, 6, 7, 8))
    surrogates = [float(line.split(",")[6]) for line in lines[1:]]
    assert surrogates and all(np.isfinite(surrogates))
    for line in lines[1:]:
        epoch, fraction = line.split(",")[5], line.split(",")[8]
        if epoch == "0":
            assert fraction == ""
        else:
            assert 0.0 <= float(fraction) <= 1.0
    boost = (out / "boost_log.csv").read_text().splitlines()
    assert boost[0] == "method,rho,lambda,seed,bit,eps,theta,alpha_sum,alpha_min"
    assert_shortest_floats(boost, (1, 2, 5, 6, 7, 8))
    # srsh: 2 seeds x 4 bits
    assert len(boost) == 1 + 8


def test_grid_sweep_trains_every_cell(tmp_path):
    cfg = write_config(
        tmp_path,
        extra="seeds = 1\nrho_grid = 0.5,1\nlambda_grid = 1,2\n",
    )
    out = tmp_path / "out"
    main(["preprocess", "--config", str(cfg), "--out", str(out)])
    main(["train", "--config", str(cfg), "--out", str(out)])
    models = sorted(p.name for p in out.glob("model_rsh_*.rshm"))
    assert models == [
        "model_rsh_rho0.5_lam1_seed0.rshm",
        "model_rsh_rho0.5_lam2_seed0.rshm",
        "model_rsh_rho1_lam1_seed0.rshm",
        "model_rsh_rho1_lam2_seed0.rshm",
    ]


# ------------------------------------------------------------------ eval


def test_eval_csv_shape_and_ranges(pipeline):
    _, out = pipeline
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "method,L_bits,K,seed,metric,value"
    # 4 methods x (2 seeds + mean + std) x 5 metrics
    assert len(lines) == 1 + 4 * 4 * 5
    assert_shortest_floats(lines, (5,))
    for line in lines[1:]:
        method, L_bits, K, seed, metric, value = line.split(",")
        assert method in ("rsh", "srsh", "wta", "lsh")
        assert int(L_bits) == 8
        assert seed in ("0", "1", "mean", "std")
        assert metric in ("precision_r1", "precision_r2", "precision_k5", "precision_k10", "ap")
        value = float(value)
        if seed != "std" and not np.isnan(value):
            assert 0.0 <= value <= 1.0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["methods"]) == {"rsh", "srsh", "wta", "lsh"}
    assert summary["methods"]["rsh"]["selected_cell"] == {"rho": 1.0, "lambda": 1.0}


def test_eval_rerun_identical(pipeline):
    cfg, out = pipeline
    first = (out / "metrics.csv").read_bytes()
    assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "metrics.csv").read_bytes() == first


def run_pipeline(cfg, out):
    for stage in ("preprocess", "train", "eval"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0, stage


def reject_constant(name):
    raise ValueError(f"summary.json holds the non-JSON constant {name}")


def test_summary_json_is_strict_when_a_radius_retrieves_nothing(tmp_path):
    # 16 symbols of 16 values: no query's code recurs exactly in the
    # database, so the radius-0 precision is a mean over no query
    cfg = write_config(
        tmp_path, extra="dim = 32\nseparation = 0\nmethods = wta, lsh\nK = 16\nL = 16\n"
        "seeds = 1\nradius_list = 0, 1\nk_list = 5\n",
    )
    out = tmp_path / "out"
    run_pipeline(cfg, out)
    assert "wta,64,16,mean,precision_r0,nan" in (out / "metrics.csv").read_text().splitlines()
    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
    metric = summary["methods"]["wta"]["metrics"]["precision_r0"]
    assert metric["mean"] is None and metric["per_seed"] == [None]


def test_single_seed_nan_mean_is_written_with_nan_std(tmp_path):
    # with seeds = 1 a radius that retrieves nothing has no deviation either:
    # nan in metrics.csv and null in summary.json, like its mean
    cfg = write_config(
        tmp_path, extra="dim = 32\nseparation = 0\nmethods = wta\nK = 16\nL = 16\n"
        "seeds = 1\nradius_list = 0\nk_list = 5\n",
    )
    out = tmp_path / "out"
    run_pipeline(cfg, out)
    lines = (out / "metrics.csv").read_text().splitlines()
    assert "wta,64,16,mean,precision_r0,nan" in lines
    assert "wta,64,16,std,precision_r0,nan" in lines
    assert "wta,64,16,std,ap,0.0" in lines
    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
    metric = summary["methods"]["wta"]["metrics"]["precision_r0"]
    assert metric["mean"] is None and metric["std"] is None


def test_center_without_pca_holds_each_split_once():
    # 20000 x 32 training and 5000 x 32 query rows are 6.1 MiB as float64.
    # With nothing between centering and scaling, each split is centered and
    # scaled in one pass; centering into a Dataset and then row-normalizing
    # a copy read 11.4 MiB. The bytes are those of the two-step path.
    rng = seeded_rng(30)
    train = Dataset.from_features(rng.standard_normal((20_000, 32)) + 3.0)
    query = Dataset.from_features(rng.standard_normal((5_000, 32)) + 3.0)
    tracemalloc.start()
    try:
        got = cli._transform(ExperimentConfig(center=True), train, query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20, peak / 2**20
    mean = train.features.mean(axis=0)
    assert got[2].keys() == {"center_mean"} and got[2]["center_mean"].tobytes() == mean.tobytes()
    for split, out in zip((train, query), got):
        centered = Dataset(split.features - mean, split.ids)
        assert out.features.tobytes() == row_normalize(centered).features.tobytes()
        assert out.ids is split.ids


def test_identical_rows_center_to_zero_and_collide(tmp_path):
    # every row centers to the zero vector: all projections tie, every
    # method emits symbol 0 everywhere, every pair is similar, and each
    # query retrieves the whole database at radius 0
    csv = tmp_path / "same.csv"
    csv.write_text("1.5,-2,3,0.25,7,1\n" * 60)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"input = {csv}\ntrain_count = 40\nquery_count = 20\nmethods = rsh, srsh, wta, lsh\n"
        "K = 4\nL = 4\nepochs = 2\nmax_pairs = 200\nneighbor_avg = 5\nradius_list = 0, 1\n"
        "k_list = 5\nseeds = 1\nseed = 0\n"
    )
    out = tmp_path / "out"
    run_pipeline(cfg, out)
    db, query = load_fvec(out / "train.rshv"), load_fvec(out / "query.rshv")
    assert not db.features.any() and not query.features.any()
    models = sorted(out.glob("model_*.rshm"))
    assert len(models) == 4
    for path in models:
        model = load_model(path)
        assert not encode_dataset(db, model).any() and not encode_dataset(query, model).any()
    aps = {}
    for line in (out / "metrics.csv").read_text().splitlines()[1:]:
        method, _, _, seed, metric, value = line.split(",")
        if seed == "0" and metric == "ap":
            aps[method] = float(value)
    assert aps == {"rsh": 1.0, "srsh": 1.0, "wta": 1.0, "lsh": 1.0}


def per_query_precision_at_k(model, db, query, gt, k):
    """The per-query precision@k loop that eval's batched kNN replaced:
    a full lexsort ranking per query, averaged over queries in order."""
    db_codes = encode_dataset(db, model)
    q_codes = encode_dataset(query, model)
    per_query = []
    for q in range(query.n):
        relevant = neighbor_list(gt, q)
        if relevant.size == 0:
            continue
        if model.weights is not None:
            key = -np.where(db_codes == q_codes[q], model.weights, 0.0).sum(axis=1)
        else:
            key = np.count_nonzero(db_codes != q_codes[q], axis=1)
        hits = db.ids[np.lexsort((db.ids, key))[:k]]
        per_query.append(np.isin(hits, relevant).sum() / k)
    return float(np.mean(per_query))


def assert_precision_at_k_matches_loop(out, gt, k_list):
    db, query = load_fvec(out / "train.rshv"), load_fvec(out / "query.rshv")
    rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]]
    checked = 0
    for method, _, _, seed, metric, value in rows:
        if not metric.startswith("precision_k") or seed in ("mean", "std"):
            continue
        k = int(metric[len("precision_k"):])
        assert k in k_list
        model = load_model(next(out.glob(f"model_{method}_*seed{seed}.rshm")))
        assert value == repr(per_query_precision_at_k(model, db, query, gt, k))
        checked += 1
    return checked


def test_eval_precision_at_k_matches_per_query_loop(pipeline):
    _, out = pipeline
    gt = groundtruth_from_labels(load_fvec(out / "train.rshv").ids,
                                 np.load(out / "train_labels.npy"), np.load(out / "query_labels.npy"))
    # 4 methods x 2 seeds x 2 cutoffs
    assert assert_precision_at_k_matches_loop(out, gt, (5, 10)) == 16


def test_eval_precision_at_k_matches_loop_on_distance_groundtruth(tmp_path):
    # 70 database rows: srsh's weighted keys take the direct sum (2^8 > 70),
    # lsh codes are 16 binary symbols, and k = 70 ranks the whole database
    rng = np.random.default_rng(5)
    save_fvec(Dataset.from_features(rng.standard_normal((100, 6))), tmp_path / "data.rshv")
    base = BASE.replace("synthetic = true\n", "")
    cfg = write_config(tmp_path, base=base, extra=(
        f"input = {tmp_path / 'data.rshv'}\ntrain_count = 70\nquery_count = 30\n"
        "neighbor_avg = 6\nmethods = rsh, srsh, wta, lsh\nL = 8\nk_list = 1, 7, 70\n"))
    out = tmp_path / "out"
    for stage in ("preprocess", "train", "eval"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    db, query = load_fvec(out / "train.rshv"), load_fvec(out / "query.rshv")
    gt = calibrate_groundtruth(db, query, 6.0)
    assert assert_precision_at_k_matches_loop(out, gt, (1, 7, 70)) == 4 * 2 * 3


# -------------------------------------------------------------- benchmark


def test_benchmark_sweeps_lengths(tmp_path):
    cfg = write_config(
        tmp_path,
        extra="methods = rsh, lsh\nL_list = 2,4\nseeds = 2\nradius_list = 1\nk_list = 5\n",
    )
    out = tmp_path / "out"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    # 2 lengths x 2 methods x (2 seeds + mean + std) x 3 metrics
    assert len(lines) == 1 + 2 * 2 * 4 * 3
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["results"]) == {"rsh_L2", "rsh_L4", "lsh_L2", "lsh_L4"}
    # equal bit budget: lsh gets L * 2 binary functions at K = 4
    assert summary["results"]["lsh_L4"]["L_bits"] == 8


def test_benchmark_rerun_identical(tmp_path):
    cfg = write_config(tmp_path, extra="methods = rsh, wta\nseeds = 1\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["benchmark", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


# ----------------------------------------------------------- error paths


def _file_input(tmp_path):
    """40 rows of 6 features, split 30 / 10."""
    rows = np.random.default_rng(9).standard_normal((40, 6))
    save_fvec(Dataset.from_features(rows), tmp_path / "rows.rshv")
    return (f"input = {tmp_path / 'rows.rshv'}\ntrain_count = 30\nquery_count = 10\n"
            "methods = rsh\nK = 4\nL = 4\nepochs = 2\nmax_pairs = 200\nseeds = 1\n"
            "radius_list = 1\nk_list = 5\nneighbor_avg = 3\n")


_STAGES = ("preprocess", "train", "eval")


@pytest.mark.parametrize(
    "source, extra, stage, key",
    [
        ("synthetic", "pca = 9\n", "preprocess", "pca"),  # min(N, d) = 8
        ("file", "pca = 7\n", "preprocess", "pca"),  # min(N, d) = 6
        ("synthetic", "k_list = 5, 91\n", "eval", "k_list"),  # N = 90
        ("synthetic", "k_list = 5, 91\n", "train", "k_list"),
        ("synthetic", "radius_list = 1, 5\n", "eval", "radius_list"),  # L = 4
        ("synthetic", "radius_list = 1, 9\n", "train", "radius_list"),
        ("file", "methods = srsh, lsh\nL_list = 2\nradius_list = 3\n", "benchmark",
         "radius_list"),  # srsh L = 2, lsh 4
        ("file", "neighbor_avg = 5000\n", "train", "neighbor_avg"),  # 435 pairs
        ("file", "neighbor_avg = 5000\n", "eval", "neighbor_avg"),  # 300 distances
        ("file", "neighbor_avg = 1e308\n", "train", "neighbor_avg"),
        ("file", "neighbor_avg = 1e308\n", "eval", "neighbor_avg"),
        ("synthetic", "methods = wta\nK = 9\n", "train", "K"),  # d = 8
        ("file", "methods = wta\nK = 7\n", "benchmark", "K"),  # d = 6
        ("synthetic", "separation = 1e308\ndim = 3\n", "preprocess", "separation"),
        ("synthetic", "noise_sigma = 1e308\n", "preprocess", "noise_sigma"),
    ],
    ids=["pca_synthetic", "pca_file", "k_list", "k_list_train", "radius_eval", "radius_train",
         "radius_benchmark", "pairs_5000", "groundtruth_5000",
         "pairs_1e308", "groundtruth_1e308", "wta_train", "wta_benchmark",
         "separation_1e308", "noise_1e308"],
)
def test_data_dependent_bound_exits_2_before_writing(tmp_path, capsys, source, extra, stage, key):
    # bounds that only the data can decide are the library's rules, named by
    # the config key they came from; the stage writes nothing
    base = BASE if source == "synthetic" else _file_input(tmp_path)
    cfg = write_config(tmp_path, base=base)
    out = tmp_path / "out"
    for before in _STAGES[:_STAGES.index(stage)] if stage in _STAGES else ():
        assert main([before, "--config", str(cfg), "--out", str(out)]) == 0, before
    written = sorted(out.iterdir()) if out.exists() else []
    write_config(tmp_path, base=base, extra=extra)  # the same file, now with the bound broken
    capsys.readouterr()
    assert main([stage, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error:config: {key}: ")
    assert (sorted(out.iterdir()) if out.exists() else []) == written


@pytest.mark.parametrize("stage", ["train", "eval", "benchmark"])
def test_k_list_beyond_n_exits_2_before_fitting(tmp_path, capsys, monkeypatch, stage):
    # k_list is checked against N once the data is loaded: no model is
    # trained, loaded or encoded first
    import rankhash.cli as cli

    cfg = write_config(tmp_path, extra="methods = srsh\n")
    out = tmp_path / "out"
    for before in _STAGES[:_STAGES.index(stage)] if stage in _STAGES else ():
        assert main([before, "--config", str(cfg), "--out", str(out)]) == 0, before
    write_config(tmp_path, extra="methods = srsh\nepochs = 100\nk_list = 5, 91\n")  # N = 90

    def refuse(*args, **kwargs):
        raise AssertionError("a model was fitted or encoded before the k_list check")

    for name in ("train_srsh", "load_model", "encode_dataset"):
        monkeypatch.setattr(cli, name, refuse)
    capsys.readouterr()
    assert main([stage, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:config: k_list: ")


@pytest.mark.parametrize("stage", ["train", "eval", "benchmark"])
def test_radius_beyond_a_code_length_exits_2_before_fitting(tmp_path, capsys, monkeypatch, stage):
    # every radius is checked against every code length before any model is
    # fitted or encoded; lsh codes (L = 8 at K = 4) come first and would fit
    import rankhash.cli as cli

    cfg = write_config(tmp_path, extra="methods = lsh, srsh\n")
    out = tmp_path / "out"
    for before in _STAGES[:_STAGES.index(stage)] if stage in _STAGES else ():
        assert main([before, "--config", str(cfg), "--out", str(out)]) == 0, before
    write_config(tmp_path, extra="methods = lsh, srsh\nepochs = 100\nradius_list = 1, 5\n")

    def refuse(*args, **kwargs):
        raise AssertionError("a model was fitted or encoded before the radius_list check")

    for name in ("train_srsh", "make_lsh_spec", "encode_dataset"):
        monkeypatch.setattr(cli, name, refuse)
    capsys.readouterr()
    assert main([stage, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error:config: radius_list: must be an integer in [0, 4], got 5")


def test_lsh_radius_is_bounded_by_its_binary_code_length(tmp_path):
    # lsh spends L * ceil(log2 K) = 4 binary symbols at L = 2, K = 4, so
    # radius 3 lies beyond L but within its codes
    cfg = write_config(tmp_path, extra="methods = lsh\nL_list = 2\nradius_list = 3\nseeds = 1\n")
    out = tmp_path / "out"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
    metrics = json.loads((out / "summary.json").read_text())["results"]["lsh_L2"]["metrics"]
    assert set(metrics) == {"precision_r3", "precision_k5", "precision_k10", "ap"}


def test_row_norm_overflow_exits_5_without_data(tmp_path, capsys):
    # rows of about 1e200 have norms beyond the float range; dividing by inf
    # wrote all-zero rows
    cfg = write_config(tmp_path, extra="noise_sigma = 1e200\n")
    out = tmp_path / "out"
    assert main(["preprocess", "--config", str(cfg), "--out", str(out)]) == 5
    assert capsys.readouterr().err.startswith("error:data: row norms")
    assert not (out / "train.rshv").exists()


def test_float32_overflow_exits_5_before_writing(tmp_path, capsys):
    # uncentred rows near 1e200 were cast to float32 unchecked: preprocess
    # exited 0 after writing train.rshv and query.rshv full of inf. Only
    # the query split's rows overflow here, and neither file is written
    rows = np.random.default_rng(13).uniform(0.5, 1.5, (60, 4))
    csv = tmp_path / "big.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"input = {csv}\ntrain_count = 40\nquery_count = 20\ncenter = false\n"
                   "methods = rsh\nK = 4\nL = 4\nseeds = 1\n")
    csv.write_text("1,2,3,4\n" * 60)  # the split depends only on the row count and seed
    rows[cli._source_data(parse_config(cfg.read_text()))[1].ids] *= 1e200
    csv.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in rows) + "\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["preprocess", "--config", str(cfg), "--out", str(out)]) == 5
    assert capsys.readouterr().err == (
        "error:data: features beyond the float32 range cannot be written\n")
    assert not list(out.glob("*.rshv"))


def test_squared_distance_overflow_exits_5(tmp_path, capsys):
    # uncentred rows near 1e200 overflow their squared distances: benchmark
    # exited 0 on an infinite pair threshold, printing only RuntimeWarnings
    rows = np.random.default_rng(12).uniform(0.5, 1.5, (60, 4)) * 1e200
    csv = tmp_path / "big.csv"
    csv.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in rows) + "\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"input = {csv}\ntrain_count = 40\nquery_count = 20\ncenter = false\n"
                   "methods = rsh\nK = 4\nL = 4\nepochs = 2\nmax_pairs = 200\nseeds = 1\n"
                   "radius_list = 1\nk_list = 5\nneighbor_avg = 3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 5
    assert capsys.readouterr().err == "error:data: squared distances overflow the float range\n"


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:config:")


def test_missing_input_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "empty")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error:io:")


def test_corrupt_data_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["preprocess", "--config", str(cfg), "--out", str(out)])
    (out / "train.rshv").write_bytes(b"RSHV1garbage")
    code = main(["train", "--config", str(cfg), "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err.startswith("error:format:")


def test_non_finite_csv_field_exits_4(tmp_path, capsys):
    # Dataset refused the whole file as data (exit 5), naming no line
    csv = tmp_path / "points.csv"
    csv.write_text("".join(f"{i},{i + 1}\n" for i in range(40)).replace("7,8", "7,1e400"))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"input = {csv}\ntrain_count = 20\nquery_count = 10\nmethods = rsh\n")
    code = main(["preprocess", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 4
    assert capsys.readouterr().err == "error:format: line 8: non-finite field '1e400'\n"


def test_non_finite_rshv_value_exits_4(tmp_path, capsys):
    # Dataset refused the whole file as data (exit 5), naming no offset
    rows = np.random.default_rng(14).standard_normal((40, 3))
    rows[7, 1] = np.nan
    path = tmp_path / "points.rshv"
    path.write_bytes(b"RSHV1" + np.array([40, 3], "<u8").tobytes() + rows.astype("<f4").tobytes())
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"input = {path}\ntrain_count = 20\nquery_count = 10\nmethods = rsh\n")
    code = main(["preprocess", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 4
    assert capsys.readouterr().err == f"error:format: non-finite value at offset {21 + 4 * 22}\n"


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("name", ["train_labels.npy", "query_labels.npy"])
def test_corrupt_labels_file_exits_4(tmp_path, capsys, command, name):
    # numpy's ValueError escaped as a traceback (exit 1)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["preprocess", "--config", str(cfg), "--out", str(out)]) == 0
    if command == "eval":
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    (out / name).write_bytes(b"garbage\n")
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith(f"error:format: {out / name}: not a readable .npy")


@pytest.mark.parametrize("offset, value, message", [
    (20, -1.0, "invalid model header: rho must be a finite number >= 0, got -1.0 at offset 20"),
    (72, np.nan, "non-finite value at offset 72"),
], ids=["rho", "projection"])
def test_model_breaking_a_rule_exits_4(tmp_path, capsys, offset, value, message):
    # both exited 4 naming the rule, not the offset
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["preprocess", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    model = sorted(out.glob("model_*.rshm"))[0]
    blob = bytearray(model.read_bytes())
    blob[offset:offset + 8] = np.array(value, "<f8").tobytes()
    model.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 4
    assert capsys.readouterr().err == f"error:format: {message}\n"


def test_invalid_split_exits_5(tmp_path, capsys):
    csv = tmp_path / "tiny.csv"
    csv.write_text("\n".join(f"{i},{i + 1}" for i in range(10)) + "\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"input = {csv}\ntrain_count = 8\nquery_count = 5\nmethods = rsh\nK = 2\nL = 2\n"
    )
    code = main(["preprocess", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 5
    assert capsys.readouterr().err.startswith("error:data:")


@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_wta_window_wider_than_dim_exits_2_before_fitting(tmp_path, capsys, command):
    # K is the wta window, so K > d is a config error, found before any model
    cfg = write_config(tmp_path, extra="dim = 3\nmethods = rsh, srsh, wta, lsh\nK = 8\n")
    out = tmp_path / "out"
    if command == "train":
        assert main(["preprocess", "--config", str(cfg), "--out", str(out)]) == 0
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error:config: K: must be an integer in [2, 3], got 8\n"
    assert list(out.glob("model_*.rshm")) == []
    assert not (out / "train_log.csv").exists()
    assert not (out / "metrics.csv").exists()


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rankhash

    # the child finds the package where this process did, installed or not
    src = str(Path(rankhash.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "rankhash", "preprocess", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0
    assert (out / "manifest.json").exists()
