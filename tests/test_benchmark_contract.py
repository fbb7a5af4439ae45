"""The package names the benchmark harness relies on.

`perfbench/workloads.py` imports names from the package, patches every
`CLI_LAYER_NAMES` entry in the `rankhash.cli` namespace for its traced run,
reads `HashTable.buckets` for its occupancy counts, and calls `lookup` with
each `STRATEGIES` entry. Its per-layer metrics also need the CLI to call
the layers they take medians of. It is read here as source, not imported,
so a renamed or removed name fails this suite rather than only the
benchmark.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

import rankhash.cli as cli
from rankhash.evaluation import build_table, lookup

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
CLI = ROOT / "src" / "rankhash" / "cli.py"


def workloads_tree() -> ast.Module:
    return ast.parse(WORKLOADS.read_text(encoding="utf-8"))


def workloads_constant(name: str):
    for node in workloads_tree().body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {WORKLOADS.name}")


def test_package_exports_every_name_the_benchmark_imports():
    imported = [(node.module, alias.name) for node in ast.walk(workloads_tree())
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rankhash")
                for alias in node.names]
    assert imported
    missing = [(module, name) for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_cli_exposes_every_layer_name_the_benchmark_traces():
    names = workloads_constant("CLI_LAYER_NAMES")
    assert names
    assert [name for name in names if not hasattr(cli, name)] == []


def test_cli_calls_every_layer_the_traced_metrics_need():
    # `layer_metrics` takes medians over the spans of these calls, and only
    # the CLI makes them (serving calls one of the two kNN functions); a
    # CLI that stopped calling one would fail only the traced benchmark run
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    needed = ("pr_curve_by_radius", "knn_hamming", "knn_weighted")
    assert [name for name in needed if name not in called] == []
    # the trainers are picked per method, then called
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert {"train_rsh", "train_srsh"} <= read
    pair_fns = [name.rpartition(".")[2] for name in workloads_constant("PAIR_FNS")]
    assert pair_fns and called.intersection(pair_fns)


def test_distance_pairs_are_built_by_the_two_traced_calls():
    # `data.pairs_s` sums the spans of PAIR_FNS. The distance branch of
    # `_build_pairs` calibrates and samples in one triangle pass, which runs
    # inside `calibrate_pair_threshold`; it must still call both names, so
    # that the spans cover the pass and the sampling
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    build = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_build_pairs")
    called = {node.func.id for node in ast.walk(build)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert {"calibrate_pair_threshold", "make_pairs"} <= called
    pair_fns = {name.rpartition(".")[2] for name in workloads_constant("PAIR_FNS")}
    assert {"calibrate_pair_threshold", "make_pairs"} <= pair_fns


def test_table_and_lookup_serve_what_the_benchmark_reads():
    codes = np.array([[0, 1, 2], [0, 1, 2], [2, 1, 0]])
    table = build_table(codes, np.arange(3), 3)
    assert table.buckets == {(0, 1, 2): [0, 1], (2, 1, 0): [2]}
    strategies = workloads_constant("STRATEGIES")
    assert strategies
    for strategy in strategies:
        found = lookup(table, codes[0], 1, strategy)
        assert found.dtype == np.int64 and np.array_equal(found, [0, 1])
