"""Train rank-order codes on separable Gaussian clusters and compare
retrieval quality against the data-agnostic baselines at an equal packed
bit budget.

Writes a config for `rankhash benchmark` into --out, runs it, and prints the
mean AP per method from the resulting summary.json.

Usage:
    python3 scripts/cluster_benchmark.py [--seeds 5] [--L 8] [--K 4] [--out DIR]
"""

import argparse
import json
import time
from pathlib import Path

from rankhash.cli import main as rankhash_main
from rankhash.hashers import symbol_bits

CONFIG = """\
synthetic = true
clusters = 4
per_cluster = 100
query_per_cluster = 50
dim = 16
separation = 10.0
noise_sigma = 1.0

methods = rsh, srsh, wta, lsh
K = {K}
L = {L}
epochs = 30
tol = 1e-3
eps_min = 0.1
max_pairs = 2000
pos_fraction = 0.3

seeds = {seeds}
radius_list = 1
k_list =
seed = {seed}
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--L", type=int, default=8)
    ap.add_argument("--K", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="runs/cluster_benchmark")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "benchmark.cfg"
    cfg.write_text(CONFIG.format(K=args.K, L=args.L, seeds=args.seeds, seed=args.seed))

    t0 = time.monotonic()
    code = rankhash_main(["benchmark", "--config", str(cfg), "--out", str(out)])
    if code != 0:
        raise SystemExit(code)
    elapsed = time.monotonic() - t0

    results = json.loads((out / "summary.json").read_text())["results"]
    bits = args.L * symbol_bits(args.K)
    print("4 clusters in d=16, 400 database points, 200 queries")
    print(f"L={args.L}, K={args.K} ({bits} packed bits), {args.seeds} seeds, {elapsed:.1f}s")
    print()
    print(f"{'method':<8} {'mean AP':>8} {'std':>8}")
    for method in ("rsh", "srsh", "wta", "lsh"):
        ap_stats = results[f"{method}_L{args.L}"]["metrics"]["ap"]
        print(f"{method:<8} {ap_stats['mean']:>8.4f} {ap_stats['std']:>8.4f}")
    print(f"\nartifacts in {out}/ (metrics.csv, summary.json)")


if __name__ == "__main__":
    main()
