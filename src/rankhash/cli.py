"""Command line pipeline: preprocess, train, eval, benchmark.

Every command reads a flat `key = value` config file (# comments allowed),
takes `--out` for its output directory, and is a pure function of the config,
its input files, and the seed, so reruns are byte-identical. Failures exit
nonzero with a single `error:<category>: message` line on stderr.

Metrics CSVs use the schema `method,L_bits,K,seed,metric,value`, with
summary rows using seed = "mean" and "std". L_bits is the packed bit budget
L * ceil(log2 K), which makes rows comparable across methods.

Every CSV cell is written by one rule (`_write_csv`): a float as
repr(float(v)), the shortest text that reads back as the same float (NaN as
`nan`), and anything else as str(v).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .core import (
    Dataset,
    FormatError,
    HashModel,
    Hyperparams,
    RankHashError,
    ValidationError,
    _as_count,
    _as_real,
    child_seed,
    load_model,
    save_model,
    seeded_rng,
)
from .data import (
    _check_float32,
    apply_center_and_normalize,
    apply_pca,
    calibrate_groundtruth,
    calibrate_pair_threshold,
    fit_pca,
    groundtruth_from_labels,
    load_csv,
    load_fvec,
    make_pairs,
    make_pairs_from_labels,
    row_normalize,
    save_fvec,
    split_dataset,
    synth_clusters,
)
from .evaluation import (
    aggregate_runs,
    average_precision,
    build_table,
    knn_hamming,
    knn_weighted,
    pr_curve_by_radius,
    relevant_hits,
)
from .hashers import (
    check_wta_window,
    encode_dataset,
    lsh_as_rsh,
    make_lsh_spec,
    make_wta_spec,
    symbol_bits,
    wta_as_rsh,
)
from .learning import TrainLog, train_rsh, train_srsh

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config", "main"]

KNOWN_METHODS = ("rsh", "srsh", "wta", "lsh")
_TRAINED = ("rsh", "srsh")

# Fixed child-seed indices for the pipeline's independent random streams;
# per-run seeds start at _SEED_RUN0 so they never collide with these.
_SEED_DATA = 1
_SEED_PAIRS = 2
_SEED_RUN0 = 100


class ConfigError(RankHashError):
    """A config file entry is missing, unknown, or out of range."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment. Config keys are the field names, except `lambda`
    for `lam`; each value is parsed by its field's annotation."""

    # data source: either a file to split or a synthetic cluster spec
    input: str = ""
    synthetic: bool = False
    clusters: int = 4
    per_cluster: int = 100
    dim: int = 16
    separation: float = 10.0
    noise_sigma: float = 1.0
    query_per_cluster: int = 50
    train_count: int = 1000
    query_count: int = 3000
    # preprocessing
    center: bool = True
    pca: int = 0
    # methods and hyperparameters
    methods: tuple[str, ...] = ("rsh",)
    K: int = 4
    L: int = 8
    rho: float = Hyperparams.rho
    lam: float = Hyperparams.lam
    eta: float = Hyperparams.eta
    epochs: int = Hyperparams.epochs
    tol: float = Hyperparams.tol
    eps_min: float = Hyperparams.eps_min
    seed: int = Hyperparams.seed
    # supervision
    max_pairs: int = 20000
    pos_fraction: float = 0.3
    neighbor_avg: float = 50.0
    # (rho, lam) sweep
    sweep: bool = False
    rho_grid: tuple[float, ...] = ()
    lambda_grid: tuple[float, ...] = ()
    # evaluation
    radius_list: tuple[int, ...] = (2, 3)
    k_list: tuple[int, ...] = (50, 100)
    seeds: int = 10
    # benchmark code-length sweep
    L_list: tuple[int, ...] = ()
    # stage wiring (default: the --out directory itself)
    data_dir: str = ""
    models_dir: str = ""


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _field_parser(hint):
    """Parser for one annotated field; tuple fields take comma-separated
    lists, and str lists (method names) are case-insensitive."""
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        parse_item = str.lower if item is str else item
        return lambda raw: tuple(parse_item(p.strip()) for p in raw.split(",") if p.strip())
    if hint is bool:
        return _parse_bool
    return lambda raw: hint(raw.strip())


# field names whose config key differs ("lambda" is a Python keyword)
_KEY_OF_FIELD = {"lam": "lambda"}
# config key -> (dataclass field, parser)
_KEY_TABLE = {
    _KEY_OF_FIELD.get(name, name): (name, _field_parser(hint))
    for name, hint in get_type_hints(ExperimentConfig).items()
}

_DEFAULT_GRID = (0.5, 1.0, 2.0)


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat `key = value` config text with # comments, each key set once."""
    values, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in _KEY_TABLE:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:  # a later line would silently win
            raise ConfigError(f"line {lineno}: {key} is already set on line {first_line[key]}")
        first_line[key] = lineno
        field_name, parser = _KEY_TABLE[key]
        try:
            values[field_name] = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="utf-8-sig"))


def _hyperparams(cfg: ExperimentConfig, **overrides) -> Hyperparams:
    """The training parameters a config implies (every Hyperparams field is
    also an ExperimentConfig field), with per-run overrides."""
    values = {f.name: getattr(cfg, f.name) for f in fields(Hyperparams)}
    return Hyperparams(**{**values, **overrides})


@contextmanager
def _config_keys(**keys):
    """Turn a library rule's ValidationError into a ConfigError naming the
    config key. The message opens with the offending parameter's name; `keys`
    maps names whose value came from another key. An error that names no
    config key is about the data and passes through."""
    try:
        yield
    except ValidationError as exc:
        name, _, why = str(exc).partition(" ")
        key = keys.get(name, _KEY_OF_FIELD.get(name, name))
        if key not in _KEY_TABLE:
            raise
        raise ConfigError(f"{key}: {why}") from exc


def validate_config(cfg: ExperimentConfig, command: str) -> None:
    def bad(field_name: str, why: str):
        raise ConfigError(f"{field_name}: {why}")

    if not cfg.methods:
        bad("methods", "must list at least one method")
    for method in cfg.methods:
        if method not in KNOWN_METHODS:
            bad("methods", f"unknown method {method!r}; choose from {', '.join(KNOWN_METHODS)}")
    # a list key names each entry once: a repeat would fit, write or score twice
    for key, (name, _) in _KEY_TABLE.items():
        entries = getattr(cfg, name)
        for i, entry in enumerate(entries if isinstance(entries, tuple) else ()):
            if entry in entries[:i]:
                bad(key, f"{entry!r} is listed more than once")
    # each value goes through the rule the library applies to it
    with _config_keys():
        _hyperparams(cfg)
        _as_count("max_pairs", cfg.max_pairs, 1)
        _as_real("neighbor_avg", cfg.neighbor_avg, 1)
        _as_count("seeds", cfg.seeds, 1)
        _as_real("pos_fraction", cfg.pos_fraction, 0, 1, open=True)
        if not cfg.radius_list:
            bad("radius_list", "must list at least one radius")
        for R in cfg.radius_list:
            _as_count("radius_list", R, 0)
        for k in cfg.k_list:
            _as_count("k_list", k, 1)
        if cfg.synthetic:
            for key in ("clusters", "per_cluster", "query_per_cluster", "dim"):
                _as_count(key, getattr(cfg, key), 1)
            _as_real("separation", cfg.separation, 0)
            _as_real("noise_sigma", cfg.noise_sigma, 0)
        elif command in ("preprocess", "benchmark"):
            if not cfg.input:
                bad("input", "required unless synthetic = true")
            _as_count("train_count", cfg.train_count, 1)
            _as_count("query_count", cfg.query_count, 1)
        _as_count("pca", cfg.pca, 0)
    # without a sweep the one cell is (rho, lam), checked above
    with _config_keys(rho="rho_grid", lam="lambda_grid"):
        for rho, lam in _grid_cells(cfg):
            _hyperparams(cfg, rho=rho, lam=lam)
    with _config_keys(L="L_list"):
        for L in cfg.L_list:
            _hyperparams(cfg, L=L)


def _grid_cells(cfg: ExperimentConfig):
    if cfg.sweep or cfg.rho_grid or cfg.lambda_grid:
        rhos = cfg.rho_grid or _DEFAULT_GRID
        lams = cfg.lambda_grid or _DEFAULT_GRID
        return [(float(r), float(l)) for r in rhos for l in lams]
    return [(float(cfg.rho), float(cfg.lam))]


def _load_input(cfg: ExperimentConfig) -> Dataset:
    path = Path(cfg.input)
    if path.suffix == ".csv":
        return load_csv(path)
    if path.suffix == ".rshv":
        return load_fvec(path)
    raise ConfigError(f"input: unsupported extension {path.suffix!r} (use .csv or .rshv)")


def _source_data(cfg: ExperimentConfig):
    """Produce (train, query, train_labels, query_labels); labels are None
    for file-backed data."""
    rng = seeded_rng(child_seed(cfg.seed, _SEED_DATA))
    if cfg.synthetic:
        per = cfg.per_cluster + cfg.query_per_cluster
        full, labels = synth_clusters(cfg.clusters, per, cfg.dim, cfg.separation,
                                      cfg.noise_sigma, rng)
        block = np.arange(cfg.clusters)[:, None] * per
        train_rows = (block + np.arange(cfg.per_cluster)).ravel()
        query_rows = (block + cfg.per_cluster + np.arange(cfg.query_per_cluster)).ravel()
        return (full.subset(train_rows), full.subset(query_rows),
                labels[train_rows], labels[query_rows])
    train, query = split_dataset(_load_input(cfg), cfg.train_count, cfg.query_count, rng)
    return train, query, None, None


def _transform(cfg: ExperimentConfig, train: Dataset, query: Dataset):
    """Center on the training mean, optionally project with PCA, then
    row-normalize; fit everything on the training split only."""
    artifacts = {}
    if cfg.center:
        mean = train.features.mean(axis=0)
        artifacts["center_mean"] = mean
        if cfg.pca == 0:  # nothing between centering and scaling: one pass per split
            return (apply_center_and_normalize(train, mean),
                    apply_center_and_normalize(query, mean), artifacts)
        train = Dataset._adopt(train.features - mean, train.ids)
        query = Dataset._adopt(query.features - mean, query.ids)
    if cfg.pca > 0:
        basis = fit_pca(train, cfg.pca)
        artifacts["pca_mean"] = basis.mean
        artifacts["pca_components"] = basis.components
        train = apply_pca(basis, train)
        query = apply_pca(basis, query)
    if cfg.center:
        train = row_normalize(train)
        query = row_normalize(query)
    return train, query, artifacts


def _null_nan(value):
    # JSON has no NaN; a precision mean over no query is written as null
    if isinstance(value, dict):
        return {key: _null_nan(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_nan(v) for v in value]
    if isinstance(value, float) and np.isnan(value):
        return None
    return value


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(_null_nan(payload), indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")


def _write_csv(path: Path, header: str, rows) -> None:
    # rows are tuples of cells, each written by the module's cell rule
    lines = [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
             for row in rows]
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")


def cmd_preprocess(cfg: ExperimentConfig, out: Path) -> None:
    train, query, train_labels, query_labels = _source_data(cfg)
    train, query, artifacts = _transform(cfg, train, query)
    _check_float32(train, query)  # before either file is written
    save_fvec(train, out / "train.rshv")
    save_fvec(query, out / "query.rshv")
    written = {"train": "train.rshv", "query": "query.rshv"}
    if train_labels is not None:
        np.save(out / "train_labels.npy", train_labels)
        np.save(out / "query_labels.npy", query_labels)
        written["train_labels"] = "train_labels.npy"
        written["query_labels"] = "query_labels.npy"
    for name, arr in artifacts.items():
        np.save(out / f"{name}.npy", arr)
        written[name] = f"{name}.npy"
    manifest = {
        "config": asdict(cfg),
        "outputs": written,
        "shapes": {"train": [train.n, train.dim], "query": [query.n, query.dim]},
    }
    _write_json(out / "manifest.json", manifest)


def _load_stage_data(cfg: ExperimentConfig, out: Path):
    data_dir = Path(cfg.data_dir) if cfg.data_dir else out
    train = load_fvec(data_dir / "train.rshv")
    query = load_fvec(data_dir / "query.rshv")
    train_labels = query_labels = None
    if (data_dir / "train_labels.npy").exists():
        train_labels = _load_labels(data_dir / "train_labels.npy")
        query_labels = _load_labels(data_dir / "query_labels.npy")
    return train, query, train_labels, query_labels


def _load_labels(path: Path) -> np.ndarray:
    try:
        return np.load(path)
    except (ValueError, EOFError) as exc:  # numpy's errors for a malformed .npy
        raise FormatError(f"{path}: not a readable .npy array ({exc})") from exc


def _build_pairs(cfg: ExperimentConfig, train: Dataset, train_labels):
    rng = seeded_rng(child_seed(cfg.seed, _SEED_PAIRS))
    if train_labels is not None:
        return make_pairs_from_labels(train_labels, cfg.max_pairs, cfg.pos_fraction, rng)
    threshold = calibrate_pair_threshold(train, cfg.neighbor_avg)
    return make_pairs(train, threshold, cfg.max_pairs, cfg.pos_fraction, rng)


def _check_fits(cfg: ExperimentConfig, dim=None, n=None, lengths=()) -> None:
    """Check the bounds that the data or a code length decides, by the rules
    the library applies, before any model is fitted or encoded: the wta
    window against the dimension `dim`, every k against the database size
    `n`, and every radius against each code length in `lengths`."""
    if dim is not None and "wta" in cfg.methods:
        check_wta_window(cfg.K, dim)
    if n is not None and cfg.k_list:
        _as_count("k", max(cfg.k_list), 1, n)
    if lengths:
        _as_count("radius", max(cfg.radius_list), 0, min(lengths))


def _code_length(cfg: ExperimentConfig, method: str, L: int) -> int:
    """Symbols per code; lsh spends the L * ceil(log2 K) bits on binary functions."""
    return L * symbol_bits(cfg.K) if method == "lsh" else L


def _method_cells(cfg: ExperimentConfig, method: str) -> list:
    """The (rho, lam) cells a method trains on; None for the untrained ones."""
    return _grid_cells(cfg) if method in _TRAINED else [None]


def _model_name(method: str, cell, run: int) -> str:
    if method in _TRAINED:
        rho, lam = cell
        return f"model_{method}_rho{rho:g}_lam{lam:g}_seed{run}.rshm"
    return f"model_{method}_seed{run}.rshm"


def _fit_model(cfg: ExperimentConfig, method: str, cell, run: int, train: Dataset,
               pairs, L: int, log: TrainLog | None = None) -> HashModel:
    run_seed = child_seed(cfg.seed, _SEED_RUN0 + run)
    if method in _TRAINED:
        rho, lam = cell
        hyper = _hyperparams(cfg, L=L, rho=rho, lam=lam, seed=run_seed)
        trainer = train_rsh if method == "rsh" else train_srsh
        return trainer(train, pairs, hyper, log=log)
    if method == "wta":
        spec = make_wta_spec(L, cfg.K, train.dim, seeded_rng(run_seed))
        model = wta_as_rsh(spec)
    else:
        spec = make_lsh_spec(_code_length(cfg, method, L), train.dim, seeded_rng(run_seed))
        model = lsh_as_rsh(spec)
    return HashModel(model.projections, None, replace(model.hyper, seed=run_seed))


def cmd_train(cfg: ExperimentConfig, out: Path) -> None:
    train, _, train_labels, _ = _load_stage_data(cfg, out)
    _check_fits(cfg, train.dim, train.n,
                [_code_length(cfg, method, cfg.L) for method in cfg.methods])
    pairs = _build_pairs(cfg, train, train_labels)
    epoch_rows, boost_rows = [], []
    for method in cfg.methods:
        for cell in _method_cells(cfg, method):
            for run in range(cfg.seeds):
                log = TrainLog()
                model = _fit_model(cfg, method, cell, run, train, pairs, cfg.L, log=log)
                save_model(model, out / _model_name(method, cell, run))
                for trace in log.bits:  # wta and lsh log none, so cell is (rho, lam)
                    head = (method, *cell, run, trace.bit)
                    # update_fraction is blank on epoch 0, the objective before training
                    epoch_rows += [(*head, epoch, *cells) for epoch, cells in enumerate(zip(
                        trace.objective_trace, trace.empirical_trace, ["", *trace.update_fraction]))]
                    if trace.eps is not None:
                        boost_rows.append((*head, trace.eps, trace.theta,
                                           trace.alpha_sum, trace.alpha_min))
    _write_csv(out / "train_log.csv",
               "method,rho,lambda,seed,bit,epoch,surrogate,empirical,update_fraction", epoch_rows)
    if boost_rows:
        _write_csv(out / "boost_log.csv",
                   "method,rho,lambda,seed,bit,eps,theta,alpha_sum,alpha_min", boost_rows)


def _make_groundtruth(cfg: ExperimentConfig, train, query, train_labels, query_labels):
    if train_labels is not None:
        return groundtruth_from_labels(train.ids, train_labels, query_labels)
    return calibrate_groundtruth(train, query, cfg.neighbor_avg)


def _evaluate_model(cfg: ExperimentConfig, model: HashModel, db: Dataset,
                    query: Dataset, gt) -> dict:
    """Metric name -> value for one trained model on one query set."""
    table = build_table(encode_dataset(db, model), db.ids, model.K)
    q_codes = encode_dataset(query, model)
    curve = pr_curve_by_radius(table, q_codes, gt)
    metrics = {}
    for R in cfg.radius_list:
        metrics[f"precision_r{R}"] = curve[R][1]
    if cfg.k_list:
        asked = np.flatnonzero(np.diff(gt.offsets))
        # ties break by id, so each shorter top-k list is a prefix of the longest
        k_top = max(cfg.k_list)
        if model.weights is not None:
            hits = knn_weighted(table.columns.T, db.ids, q_codes[asked], model.weights, k_top)
        else:
            hits = knn_hamming(table.columns.T, db.ids, q_codes[asked], k_top)
        relevant = relevant_hits(hits, db.ids, gt, asked)
        for k in cfg.k_list:
            # one value per query, averaged in query order
            metrics[f"precision_k{k}"] = float(np.mean(relevant[:, :k].sum(axis=1) / k))
    metrics["ap"] = average_precision(curve)
    return metrics


def _evaluate_seeds(cfg: ExperimentConfig, method: str, models, db: Dataset,
                    query: Dataset, gt):
    """Evaluate one model per seed (`models` yields them in seed order).

    Returns the key (method, L_bits, K), metric name -> per-seed values,
    metric name -> (mean, std), and the metrics.csv rows: per-seed rows,
    then mean/std rows. L_bits and K come from the models themselves: lsh
    spends the bit budget on binary functions."""
    per_seed: dict = {}
    for model in models:
        for name, value in _evaluate_model(cfg, model, db, query, gt).items():
            per_seed.setdefault(name, []).append(value)
    key = (method, model.L * symbol_bits(model.K), model.K)
    summary = aggregate_runs(per_seed, cfg.seeds)
    rows = [(*key, run, name, values[run])
            for run in range(cfg.seeds) for name, values in per_seed.items()]
    rows += [(*key, seed, name, value)
             for name, stats in summary.items() for seed, value in zip(("mean", "std"), stats)]
    return key, per_seed, summary, rows


def _write_results(cfg: ExperimentConfig, out: Path, rows, key: str, summary: dict) -> None:
    _write_csv(out / "metrics.csv", "method,L_bits,K,seed,metric,value", rows)
    _write_json(out / "summary.json", {"config": asdict(cfg), key: summary})


def cmd_eval(cfg: ExperimentConfig, out: Path) -> None:
    train, query, train_labels, query_labels = _load_stage_data(cfg, out)
    _check_fits(cfg, n=train.n)
    models_dir = Path(cfg.models_dir) if cfg.models_dir else out
    # every model is loaded, and its code length checked, before any is encoded
    models = {(method, cell): [load_model(models_dir / _model_name(method, cell, run))
                               for run in range(cfg.seeds)]
              for method in cfg.methods for cell in _method_cells(cfg, method)}
    _check_fits(cfg, lengths=[model.L for runs in models.values() for model in runs])
    gt = _make_groundtruth(cfg, train, query, train_labels, query_labels)
    rows = []
    summary: dict = {}
    for method in cfg.methods:
        cells = _method_cells(cfg, method)
        runs = [_evaluate_seeds(cfg, method, models[method, cell], train, query, gt)
                for cell in cells]
        # winner: best mean AP, grid order breaking ties
        best = max(range(len(cells)), key=lambda c: (runs[c][2]["ap"][0], -c))
        _, per_seed, stats, best_rows = runs[best]
        rows += best_rows
        cell = cells[best]
        summary[method] = {
            "selected_cell": {"rho": cell[0], "lambda": cell[1]} if cell else None,
            "cells_swept": len(cells),
            "metrics": {name: {"mean": mean, "std": std, "per_seed": per_seed[name]}
                        for name, (mean, std) in stats.items()},
        }
    _write_results(cfg, out, rows, "methods", summary)


def cmd_benchmark(cfg: ExperimentConfig, out: Path) -> None:
    """Code-length sweep at an equal packed-bit budget for every method."""
    train, query, train_labels, query_labels = _source_data(cfg)
    train, query, _ = _transform(cfg, train, query)
    L_list = cfg.L_list or (cfg.L,)
    _check_fits(cfg, train.dim, train.n,
                [_code_length(cfg, method, L) for L in L_list for method in cfg.methods])
    pairs = _build_pairs(cfg, train, train_labels)
    gt = _make_groundtruth(cfg, train, query, train_labels, query_labels)
    cell = (float(cfg.rho), float(cfg.lam))
    rows = []
    summary: dict = {}
    for L in L_list:
        for method in cfg.methods:
            method_cell = cell if method in _TRAINED else None
            models = (_fit_model(cfg, method, method_cell, run, train, pairs, L)
                      for run in range(cfg.seeds))
            key, _, stats, method_rows = _evaluate_seeds(cfg, method, models, train, query, gt)
            rows += method_rows
            summary[f"{method}_L{L}"] = {"method": method, "L": L, "L_bits": key[1], "metrics": {
                name: {"mean": mean, "std": std} for name, (mean, std) in stats.items()}}
    _write_results(cfg, out, rows, "results", summary)


_COMMANDS = {
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "eval": cmd_eval,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rankhash",
        description="Train and evaluate rank-order hash codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("preprocess", "split, transform, and write train/query data"),
        ("train", "train models on preprocessed data"),
        ("eval", "evaluate trained models and pick sweep winners"),
        ("benchmark", "end-to-end code-length sweep at equal bit budgets"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        validate_config(cfg, args.command)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # the bounds that the data or a code length decides are the library's own rules
        with _config_keys(m="pca", k="k_list", radius="radius_list", target_avg="neighbor_avg",
                          window="K"):
            _COMMANDS[args.command](cfg, out)
        return 0
    except ConfigError as exc:
        print(f"error:config: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"error:format: {exc}", file=sys.stderr)
        return 4
    except RankHashError as exc:
        print(f"error:data: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
