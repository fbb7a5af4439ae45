"""The three benchmark workloads and the loop that runs them.

Every workload trains models through the CLI (`preprocess -> train -> eval`,
called in-process through `rankhash.cli.main`) and then serves queries from
one trained model through the library: the index is built with
`encode_dataset` + `build_table`, then a closed loop with one client sends a
seeded mix of `lookup` range queries (radius 1-3, `auto` strategy) and top-k
kNN queries, one after another. The workloads differ in which part carries
the weight:

* train_labels  - labelled clusters; learning is most of the time.
* distance_file - an unlabelled `.rshv` file with distance supervision; the
                  all-pairs calibration, groundtruth and the eval loop dominate.
* query_stream  - a 20k-row database served from an srsh model; the CLI run
                  that trains the model is part of set-up, and the timed part
                  is index builds and queries only.

A workload's inputs (config text and files) are a function of the workload
seed alone. One run cycles through `VARIANTS` input sets drawn from its seed
(cycle n uses variant n mod `VARIANTS`), so that a run's means, and its AP,
average over several draws of the data instead of following one draw. Where
the data comes from a file, the config's own `seed` (which draws the models)
is fixed, so that AP varies only with the data: with a fresh model draw per
seed, WTA's AP moves by 15-25% between seeds.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import rankhash.cli as cli
from rankhash.core import Dataset, load_model
from rankhash.data import apply_center_and_normalize, load_fvec, save_fvec
from rankhash.evaluation import build_table, knn_hamming, knn_weighted, lookup
from rankhash.hashers import encode_dataset
from rankhash.learning import objective

from checks import knn_ok, range_ok, read_metrics
from tracing import Tracer, clock

STAGES = ("preprocess", "train", "eval")
METHODS = ("rsh", "srsh", "wta", "lsh")
RADII = (1, 2, 3)
STRATEGIES = ("expand", "scan", "auto")
# index builds per serving phase, spread evenly through its queries;
# index_build_s is the mean over all of them. The host's speed switches every
# few seconds, so samples taken back to back would all land at one speed and
# move together.
BUILDS_PER_CYCLE = 10
# input sets drawn from one workload seed and cycled through within a run
VARIANTS = 3

# The host runs this code at two speeds about 1.5x apart, switching every few
# seconds and, for minutes at a time, favouring one, so raw CPU times moved
# by up to 40% between runs. The run therefore also times a fixed loop of
# interpreter, dict and small matrix-vector work (no rankhash code) between
# its timed regions, and end-to-end times are scaled by
# CALIBRATION_REF_S / (the loop's mean time in the run): CPU seconds at the
# host's full speed. CALIBRATION_REF_S is the loop's time at full speed on
# the 2-vCPU Xeon host this was tuned on (Python 3.11.7, numpy 2.4.6).
CALIBRATION_REF_S = 1.0e-3
_CAL_W = np.random.default_rng(0).standard_normal((8, 32))
_CAL_X = np.random.default_rng(1).standard_normal((256, 32))

# Layer functions `rankhash.cli` imports; the traced run swaps them for
# wrappers in the `rankhash.cli` namespace, so each CLI stage splits into
# calls into the layers plus the CLI's own time.
CLI_LAYER_NAMES = (
    "load_model", "save_model",
    "apply_pca", "calibrate_groundtruth", "calibrate_pair_threshold", "fit_pca",
    "groundtruth_from_labels", "load_csv", "load_fvec", "make_pairs",
    "make_pairs_from_labels", "row_normalize", "save_fvec", "split_dataset",
    "synth_clusters",
    "aggregate_runs", "average_precision", "build_table", "knn_hamming",
    "knn_weighted", "pr_curve_by_radius",
    "encode_dataset", "lsh_as_rsh", "make_lsh_spec", "make_wta_spec", "wta_as_rsh",
    "train_rsh", "train_srsh",
)

PAIR_FNS = ("data.calibrate_pair_threshold", "data.make_pairs", "data.make_pairs_from_labels")
GROUNDTRUTH_FNS = ("data.calibrate_groundtruth", "data.groundtruth_from_labels")


def _all_pairs(n: int) -> dict:
    return {"pairs_enumerated": n * (n - 1) // 2}


# work counts recorded on a span when the traced call returns
COUNTERS = {
    "data.calibrate_pair_threshold": lambda args, out: _all_pairs(args[0].n),
    "data.make_pairs": lambda args, out: dict(_all_pairs(args[0].n), pairs_sampled=len(out)),
    "data.make_pairs_from_labels": lambda args, out: dict(
        _all_pairs(len(args[0])), pairs_sampled=len(out)),
    "hashers.encode_dataset": lambda args, out: {"rows": args[0].n},
}


def _config(**entries) -> str:
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


def _clusters(shape, rng, n, d, n_clusters, separation, noise):
    centers = shape.standard_normal((n_clusters, d)) * separation / math.sqrt(2.0 * d)
    return centers[rng.integers(n_clusters, size=n)] + noise * rng.standard_normal((n, d))


def _low_rank(shape, rng, n, d, rank, noise):
    basis = shape.standard_normal((rank, d))
    return rng.standard_normal((n, rank)) @ basis + noise * rng.standard_normal((n, d))


class Workload:
    """Inputs and serving set-up of one workload at one seed."""

    name = ""
    cli_in_setup = False     # True: the CLI run is set-up, cycles only serve
    served = "srsh"          # the model the serving phase loads; srsh ranks
                             # kNN by weighted agreement, the others by Hamming
    queries_per_cycle = 600
    knn_k = 100

    def __init__(self, seed: int, work: Path, tiny: bool = False, variant: int = 0):
        self.seed = seed
        self.variant = variant
        self.tiny = tiny
        self.work = work
        self.out = work / "out"
        self.config_path = work / "exp.cfg"
        self.config = self.make_config()
        if tiny:
            self.queries_per_cycle = 40
            self.knn_k = 20

    def rng(self):
        """Draws the rows: a fresh generator from the workload seed and the
        variant, so every set-up of one variant writes identical inputs."""
        return np.random.default_rng([self.seed, self.variant, sum(map(ord, self.name))])

    def distribution(self):
        """Draws the distribution the rows come from (cluster centers, a
        low-rank basis); fixed per workload, so that seeds vary the sample,
        not the problem."""
        return np.random.default_rng(sum(map(ord, self.name)))

    def make_config(self) -> dict:
        raise NotImplementedError

    def write_inputs(self) -> None:
        """Write the config text (and any input files) for the CLI."""
        self.config_path.write_text(_config(**self.config), encoding="utf-8")

    def serve_data(self, ops):
        """(database, queries) for the serving phase, already preprocessed."""
        return ops["load_fvec"](self.out / "train.rshv"), ops["load_fvec"](self.out / "query.rshv")

    def sizes(self) -> dict:
        c = self.config
        return {"K": c["K"], "L": c["L"], "pairs": c["max_pairs"], "epochs": c["epochs"],
                "queries_per_cycle": self.queries_per_cycle, "knn_k": self.knn_k}


class TrainLabels(Workload):
    name = "train_labels"
    # rsh puts each cluster in one bucket or two (8-9 buckets on every seed
    # tried); srsh's 10-25 made lookup latency follow the seed
    served = "rsh"
    # queries take about 0.1 ms here; enough of them that a cycle's serving
    # phase lasts about a second and spans several of the host's episodes
    queries_per_cycle = 3000

    def make_config(self):
        clusters, per, per_q, dim = (4, 30, 10, 8) if self.tiny else (8, 250, 50, 32)
        return dict(
            synthetic="true", clusters=clusters, per_cluster=per, query_per_cluster=per_q,
            dim=dim, separation=24.0, methods=", ".join(METHODS), K=8, L=8,
            max_pairs=300 if self.tiny else 5000, epochs=1 if self.tiny else 3, tol=0,
            seeds=1, radius_list="1, 2, 3", k_list=10 if self.tiny else 50,
            seed=int(np.random.SeedSequence([self.seed, self.variant]).generate_state(1)[0]),
        )

    def sizes(self):
        c = self.config
        return dict(super().sizes(), N_train=c["clusters"] * c["per_cluster"],
                    N_query=c["clusters"] * c["query_per_cluster"], d=c["dim"])


class DistanceFile(Workload):
    name = "distance_file"
    served = "rsh"
    queries_per_cycle = 300

    def make_config(self):
        n, d = (400, 16) if self.tiny else (6000, 64)
        self.n_rows, self.dim = n, d
        return dict(
            input=self.work / "data.rshv",
            train_count=300 if self.tiny else 5000, query_count=100 if self.tiny else 1000,
            pca=8 if self.tiny else 32, methods=", ".join(METHODS), K=8, L=8,
            max_pairs=300 if self.tiny else 5000, epochs=1, tol=0, seeds=1,
            neighbor_avg=10 if self.tiny else 50, radius_list="1, 2, 3",
            k_list=10 if self.tiny else 50, seed=0,
        )

    def write_inputs(self):
        n, d = self.n_rows, self.dim
        rank = 4 if self.tiny else 16
        rows = _low_rank(self.distribution(), self.rng(), n, d, rank, 0.5)
        save_fvec(Dataset.from_features(rows), self.work / "data.rshv")
        super().write_inputs()

    def sizes(self):
        c = self.config
        return dict(super().sizes(), N_file=self.n_rows, N_train=c["train_count"],
                    N_query=c["query_count"], d=self.dim, pca=c["pca"])


class QueryStream(Workload):
    name = "query_stream"
    cli_in_setup = True

    def make_config(self):
        self.n_db, self.n_stream, self.dim = (1500, 200, 8) if self.tiny else (20000, 2000, 32)
        return dict(
            input=self.work / "sample.rshv",
            train_count=300 if self.tiny else 2000, query_count=100 if self.tiny else 600,
            methods=", ".join(METHODS), K=4, L=8,
            max_pairs=300 if self.tiny else 3000, epochs=1 if self.tiny else 2, tol=0,
            seeds=1, neighbor_avg=10 if self.tiny else 50, radius_list="1, 2, 3",
            k_list=10 if self.tiny else 50, seed=0,
        )

    def write_inputs(self):
        c = self.config
        n_clusters = 10 if self.tiny else 100
        rng = self.rng()
        rows = _clusters(self.distribution(), rng, self.n_db + self.n_stream, self.dim,
                         n_clusters, 6.0, 1.0)
        db = Dataset.from_features(rows[: self.n_db])
        save_fvec(db, self.work / "db.rshv")
        save_fvec(Dataset.from_features(rows[self.n_db:]), self.work / "stream.rshv")
        sample = rng.choice(self.n_db, c["train_count"] + c["query_count"], replace=False)
        save_fvec(db.subset(np.sort(sample)), self.work / "sample.rshv")
        super().write_inputs()

    def serve_data(self, ops):
        mean = np.load(self.out / "center_mean.npy")
        db = ops["load_fvec"](self.work / "db.rshv")
        stream = ops["load_fvec"](self.work / "stream.rshv")
        return apply_center_and_normalize(db, mean), apply_center_and_normalize(stream, mean)

    def sizes(self):
        c = self.config
        return dict(super().sizes(), N_db=self.n_db, N_stream=self.n_stream,
                    N_train=c["train_count"], N_query=c["query_count"], d=self.dim)


WORKLOADS = {w.name: w for w in (TrainLabels, DistanceFile, QueryStream)}


class Books:
    """Everything a run measures or checks, outside the tracer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.stage_s: list[dict] = []
        self.ap: dict = {}                     # variant -> {method: AP}
        self.metrics_csv: dict = {}            # variant -> bytes
        self.build_s: list[float] = []
        self.range_us: list[float] = []
        self.knn_us: list[float] = []
        self.candidates = {r: [] for r in RADII}
        self.cycle_s = {False: [], True: []}   # by traced
        self.epochs_run: dict = {}              # unit -> sum over trained bits
        self.served_index = None
        self.calibration_s: list[float] = []

    def check(self, ok: bool, problem: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok


def _epochs_run(train_log: Path) -> int:
    """Sum over trained (method, seed, bit) of the epochs run, read from
    `train_log.csv` (epoch 0 is the objective before training)."""
    last: dict = {}
    for line in train_log.read_text(encoding="utf-8").splitlines()[1:]:
        method, rho, lam, seed, bit, epoch = line.split(",")[:6]
        if method in ("rsh", "srsh"):
            key = (method, rho, lam, seed, bit)
            last[key] = max(last.get(key, 0), int(epoch))
    return sum(last.values())


def calibrate(books: Books) -> None:
    """Time the calibration loop once. It allocates nothing the garbage
    collector tracks, so no collection lands in it."""
    t0 = clock()
    sums: dict = {}
    for i in range(4000):
        key = i % 97
        sums[key] = sums.get(key, 0) + i
    for x in _CAL_X:
        int((_CAL_W @ x).argmax())
    books.calibration_s.append(clock() - t0)


def run_cli(wl: Workload, tracer: Tracer, books: Books, stages=STAGES,
            calibrating: bool = False) -> bool:
    """Run the CLI stages; with `calibrating`, time the calibration loop
    before each stage (never inside a timed set-up)."""
    spent = {}
    with tracer.patched(cli, CLI_LAYER_NAMES):
        for stage in stages:
            if calibrating:
                calibrate(books)
            with tracer.span(f"cli.{stage}", "cli"):
                t0 = clock()
                rc = cli.main([stage, "--config", str(wl.config_path), "--out", str(wl.out)])
                spent[stage] = clock() - t0
            if not books.check(rc == 0, f"{stage} exited {rc}"):
                return False
    if "eval" not in stages:
        return True
    csv = wl.out / "metrics.csv"
    ap, problem = read_metrics(csv)
    if not books.check(problem is None, problem):
        return False
    blob = csv.read_bytes()
    if wl.variant not in books.metrics_csv:
        books.metrics_csv[wl.variant], books.ap[wl.variant] = blob, ap
    elif not books.check(blob == books.metrics_csv[wl.variant],
                         "metrics.csv differs between runs of one input set"):
        return False
    books.stage_s.append(spent)
    if tracer.enabled:
        books.epochs_run[tracer.unit] = _epochs_run(wl.out / "train_log.csv")
    return True


def _query_plan(rng, n_queries: int, n_rows: int):
    """Half range lookups (radius cycling 1..3), half kNN, in seeded order."""
    kinds = [("range", RADII[i % len(RADII)]) for i in range(n_queries // 2)]
    kinds += [("knn", 0)] * (n_queries - len(kinds))
    order = rng.permutation(len(kinds))
    rows = rng.integers(n_rows, size=len(kinds))
    return [(kinds[i][0], int(row), kinds[i][1]) for i, row in zip(order, rows)]


def serve(wl: Workload, tracer: Tracer, books: Books, rng) -> None:
    ops = {fn.__name__: tracer.wrap(fn) for fn in (
        load_model, load_fvec, encode_dataset, build_table, lookup, knn_hamming, knn_weighted)}
    with tracer.span("bench.serve", "bench"):
        model = ops["load_model"](next(wl.out.glob(f"model_{wl.served}_*seed0.rshm")))
        db, queries = wl.serve_data(ops)
        q_codes = ops["encode_dataset"](queries, model)
        theta = model.weights
        knn = ops["knn_weighted"] if theta is not None else ops["knn_hamming"]
        knn_args = (theta, wl.knn_k) if theta is not None else (wl.knn_k,)
        plan = _query_plan(rng, wl.queries_per_cycle, queries.n)
        per_build = math.ceil(len(plan) / BUILDS_PER_CYCLE)
        for i, (kind, row, radius) in enumerate(plan):
            if i % per_build == 0:
                calibrate(books)
                t0 = clock()
                codes = ops["encode_dataset"](db, model)
                table = ops["build_table"](codes, db.ids, model.K)
                books.build_s.append(clock() - t0)
                books.check(sum(len(v) for v in table.buckets.values()) == db.n,
                            "buckets lose rows")
            q = q_codes[row]
            if kind == "range":
                t0 = clock()
                found = ops["lookup"](table, q, radius)
                books.range_us.append((clock() - t0) * 1e6)
                books.candidates[radius].append(len(found))
                books.check(range_ok(found, codes, db.ids, q, radius),
                            f"lookup r={radius} differs from a linear scan")
            else:
                t0 = clock()
                hits = knn(codes, db.ids, q, *knn_args)
                books.knn_us.append((clock() - t0) * 1e6)
                books.check(knn_ok(hits, codes, db.ids, q, wl.knn_k, theta),
                            "kNN differs from the full ranking")
        books.served_index = (table, codes, db.ids, q_codes)


def setup(wl: Workload, tracer: Tracer, books: Books) -> None:
    """Write the inputs; run the CLI pipeline when it belongs to set-up,
    else one preprocess stage to check the inputs before timing."""
    wl.work.mkdir(parents=True, exist_ok=True)
    wl.out.mkdir(parents=True, exist_ok=True)
    with tracer.span("bench.setup", "bench"):
        wl.write_inputs()
        run_cli(wl, tracer, books, STAGES if wl.cli_in_setup else ("preprocess",))


def cycle(wl: Workload, tracer: Tracer, books: Books, rng) -> None:
    t0 = clock()
    if wl.cli_in_setup or run_cli(wl, tracer, books, calibrating=True):
        serve(wl, tracer, books, rng)
    books.cycle_s[tracer.enabled].append(clock() - t0)


def timed_setup(wl, tracer, books, traced: bool, unit: str) -> None:
    calibrate(books)
    tracer.enabled, tracer.unit = traced, unit
    t0 = clock()
    setup(wl, tracer, books)
    books.setup_s.append(clock() - t0)


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, tiny: bool = False):
    """Run one workload; returns (metrics, books, info, tracer)."""
    wls = [WORKLOADS[name](seed, work / f"v{v}", tiny, v) for v in range(VARIANTS)]
    tracer = Tracer(COUNTERS)
    books = Books()
    # The run sets up every input set before its first cycle and, when it
    # measures end to end, sets up again after every cycle the set it just
    # used, so that set-up samples spread over the run like the cycles do.
    # The traced run sets up each input set once, traced.
    for wl in wls:
        timed_setup(wl, tracer, books, trace, f"setup{wl.variant}")
    # Cycles run until the next would overrun `seconds`, but at least one
    # per input set (end-to-end) or two untraced and two traced, alternating
    # (traced run; the difference between the two kinds is the tracing
    # overhead).
    min_cycles = 4 if trace else max(3, VARIANTS)
    # The deadline is on the wall clock, which runs ahead of `clock` by the
    # time the host takes the CPU away.
    wall0, cpu0 = time.perf_counter(), clock()
    step_walls: list[float] = []
    n = 0
    while books.failed == 0 and (n < min_cycles or time.perf_counter() - wall0
                                 + statistics.median(step_walls) <= seconds):
        step_start = time.perf_counter()
        wl = wls[n % VARIANTS]
        tracer.enabled = trace and n % 2 == 1
        tracer.unit = f"cycle{n}"
        cycle(wl, tracer, books, np.random.default_rng([seed, n]))
        n += 1
        if not trace and books.failed == 0:
            timed_setup(wl, tracer, books, False, f"setup{VARIANTS + n - 1}")
        step_walls.append(time.perf_counter() - step_start)
    tracer.enabled = False
    info = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "cycles": n, "variants": VARIANTS, "sizes": wls[0].sizes(),
        "wall_s": time.perf_counter() - wall0, "cpu_s": clock() - cpu0,
        "buckets": len(books.served_index[0].buckets) if books.served_index else None,
        "samples": {"setup": len(books.setup_s), "pipeline": len(books.stage_s),
                    "index_build": len(books.build_s), "range": len(books.range_us),
                    "knn": len(books.knn_us)},
        # unscaled CPU times, for comparison with the scaled metrics
        "raw_cpu": {name: {"mean": statistics.mean(values), "median": statistics.median(values)}
                    for name, values in _time_samples(books).items() if values},
        "calibration": {"samples": len(books.calibration_s),
                        "mean_s": statistics.mean(books.calibration_s),
                        "speed_factor": speed_factor(books)},
        "latency_us": {kind: {f"p{q}": _pct(values, q) for q in (50, 90, 99)}
                       for kind, values in (("range", books.range_us), ("knn", books.knn_us))
                       if values},
        "problems": books.problems,
    }
    if books.failed:
        return {}, books, info, tracer
    if not trace:
        return end_to_end(books), books, info, tracer
    info["self_s_by_stage"] = tracer.stage_breakdown({f"cli.{stage}" for stage in STAGES})
    return layer_metrics(tracer, books), books, info, tracer


def _pct(values, q):
    return float(np.percentile(np.asarray(values), q))


def _time_samples(books: Books) -> dict:
    return {
        "setup_s": books.setup_s,
        "pipeline_s": [sum(w.values()) for w in books.stage_s],
        "train_s": [w["train"] for w in books.stage_s],
        "eval_s": [w["eval"] for w in books.stage_s],
        "index_build_s": books.build_s,
        "range_us": books.range_us,
        "knn_us": books.knn_us,
    }


def speed_factor(books: Books) -> float:
    """CALIBRATION_REF_S over the calibration loop's mean time in this run."""
    return CALIBRATION_REF_S / statistics.mean(books.calibration_s)


def end_to_end(books: Books) -> dict:
    """Times are means over the run and tails are percentiles, all scaled by
    `speed_factor`. Short samples each fall in one of the host's two speeds,
    so a median of them jumps between the two with the share of time the
    run spent in each; a mean moves in proportion to it, as the calibration
    loop's mean does."""
    f = speed_factor(books)
    mean = {name: statistics.mean(values) * f
            for name, values in _time_samples(books).items()}
    out = {
        "setup_s": (mean["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pipeline_s": (mean["pipeline_s"], "s"),
        "train_s": (mean["train_s"], "s"),
        "eval_s": (mean["eval_s"], "s"),
        "index_build_s": (mean["index_build_s"], "s"),
        "range_mean_us": (mean["range_us"], "us"),
        "range_p90_us": (_pct(books.range_us, 90) * f, "us"),
        "knn_mean_us": (mean["knn_us"], "us"),
        "knn_p90_us": (_pct(books.knn_us, 90) * f, "us"),
    }
    for method in METHODS:
        out[f"ap_{method}"] = (statistics.mean(ap[method] for ap in books.ap.values()), "ratio")
    return out


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return statistics.median(times)


def layer_metrics(tracer: Tracer, books: Books) -> dict:
    """Per-layer numbers from the traced units: each is summed within a unit
    (one set-up or cycle) and reported as the median over the units in
    which that layer ran."""
    spans = tracer.self_times()
    by_id = {s["id"]: s for s in spans}
    units: dict = {}
    per_call = {"evaluation.knn_hamming": [], "evaluation.knn_weighted": []}

    def add(unit, key, value):
        units.setdefault(unit, {})
        units[unit][key] = units[unit].get(key, 0.0) + value

    for s in spans:
        name, unit = s["name"], s["unit"]
        if s["layer"] == "cli":
            add(unit, "cli.self_s", s["self"])
        if name in ("core.save_model", "core.load_model"):
            add(unit, "core.model_io_s", s["dur"])
        parent = by_id.get(s["parent"])
        if s["layer"] == "data" and parent is not None and parent["name"] == "cli.preprocess":
            add(unit, "data.preprocess_s", s["self"])
        if name in PAIR_FNS:
            add(unit, "data.pairs_s", s["dur"])
            add(unit, "data.pairs_enumerated", s["pairs_enumerated"])
            add(unit, "data.pairs_sampled", s.get("pairs_sampled", 0))
        if name in GROUNDTRUTH_FNS:
            add(unit, "data.groundtruth_s", s["dur"])
        if name in ("learning.train_rsh", "learning.train_srsh"):
            add(unit, f"{name}_s", s["dur"])
        if name == "hashers.encode_dataset":
            add(unit, "hashers.encode_s", s["dur"])
            add(unit, "rows", s["rows"])
        if name == "evaluation.build_table":
            add(unit, "evaluation.build_table_s", s["dur"])
        if name == "evaluation.pr_curve_by_radius":
            add(unit, "evaluation.pr_curve_s", s["dur"])
        if name in per_call:
            per_call[name].append(s["dur"] * 1e6)
    for unit, epochs in books.epochs_run.items():
        u = units[unit]
        u["learning.pair_steps"] = epochs * u["data.pairs_sampled"]
        trained_s = u["learning.train_rsh_s"] + u["learning.train_srsh_s"]
        u["learning.us_per_pair_step"] = trained_s * 1e6 / u["learning.pair_steps"]
    for u in units.values():
        if "hashers.encode_s" in u:
            u["hashers.encode_rows_per_s"] = u.pop("rows") / u["hashers.encode_s"]

    def median_over_units(key):
        return statistics.median(u[key] for u in units.values() if key in u)

    metric_units = {
        "cli.self_s": "s", "core.model_io_s": "s", "data.preprocess_s": "s",
        "data.pairs_s": "s", "data.pairs_enumerated": "count", "data.pairs_sampled": "count",
        "data.groundtruth_s": "s", "learning.train_rsh_s": "s", "learning.train_srsh_s": "s",
        "learning.pair_steps": "count", "learning.us_per_pair_step": "us",
        "hashers.encode_s": "s", "hashers.encode_rows_per_s": "1/s",
        "evaluation.build_table_s": "s", "evaluation.pr_curve_s": "s",
    }
    out = {key: (median_over_units(key), dim) for key, dim in metric_units.items()}
    for name, values in per_call.items():
        out[f"{name}_us"] = (statistics.median(values), "us")

    # replayed outside the pipeline, untraced
    (data, pairs, hyper), model = tracer.last_call["learning.train_rsh"]
    out["learning.objective_ms"] = (
        _median_time(lambda: objective(data, pairs, model.projections[0], hyper), 5) * 1e3, "ms")
    table, codes, ids, q_codes = books.served_index
    out["evaluation.buckets"] = (len(table.buckets), "count")
    out["evaluation.max_bucket"] = (max(len(v) for v in table.buckets.values()), "count")
    sample = q_codes[:: max(1, len(q_codes) // 11)][:11]
    for r in RADII:
        out[f"evaluation.probes.r{r}"] = (
            sum(math.comb(table.L, i) * (table.K - 1) ** i for i in range(r + 1)), "count")
        out[f"evaluation.candidates.r{r}"] = (statistics.mean(books.candidates[r]), "count")
        for strategy in STRATEGIES:
            times = []
            for q in sample:
                t0 = clock()
                found = lookup(table, q, r, strategy)
                times.append((clock() - t0) * 1e6)
                books.check(range_ok(found, codes, ids, q, r),
                            f"lookup r={r} {strategy} differs from a linear scan")
            out[f"evaluation.lookup_us.r{r}.{strategy}"] = (statistics.median(times), "us")
    out["trace.overhead_s"] = (
        statistics.median(books.cycle_s[True]) - statistics.median(books.cycle_s[False]), "s")
    return out
