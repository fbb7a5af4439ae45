#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes (a few seconds).

    python3 perfbench/smoke.py

Runs every workload named in `BENCHMARK.json` untraced and traced and
asserts that each emits exactly the metrics the file lists, with their
units, and no failed check. Then feeds the output checks deliberately
corrupted results and asserts that each one is flagged.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import run


def check_metrics(spec: dict) -> None:
    import workloads

    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[group]}
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=run.OUT) as work:
                metrics, books, _, _ = workloads.run(name, 5, 0.0, trace, Path(work), tiny=True)
            assert books.failed == 0, (name, books.problems)
            got = {key: unit for key, (_, unit) in metrics.items()}
            assert got == expected, (name, group, set(got) ^ set(expected))
            for key, (value, _) in metrics.items():
                assert math.isfinite(value), (name, key, value)
            print(f"ok  {name:14s} {group:10s} {len(metrics)} metrics, {books.attempted} checks")


def check_oracles() -> None:
    import numpy as np
    from checks import knn_oracle, knn_ok, range_oracle, range_ok, read_metrics

    rng = np.random.default_rng(0)
    codes = rng.integers(0, 4, size=(200, 6))
    ids = np.arange(1000, 1200)
    q = codes[7]
    theta = rng.random(6)

    found = range_oracle(codes, ids, q, 2)
    assert range_ok(found, codes, ids, q, 2)
    assert not range_ok(found - {min(found)}, codes, ids, q, 2), "dropped id not flagged"
    assert not range_ok(found | {int(ids.max()) + 1}, codes, ids, q, 2), "extra id not flagged"

    for weights in (None, theta):
        hits = knn_oracle(codes, ids, q, 10, weights)
        assert knn_ok(hits, codes, ids, q, 10, weights)
        assert not knn_ok(hits[::-1], codes, ids, q, 10, weights), "reordered kNN not flagged"
        wrong = hits.copy()
        wrong[-1] = int(ids.max()) + 1
        assert not knn_ok(wrong, codes, ids, q, 10, weights), "wrong kNN id not flagged"

    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        path = Path(tmp) / "metrics.csv"
        assert read_metrics(path)[1], "missing metrics.csv not flagged"
        header = "method,L_bits,K,seed,metric,value\n"
        bad_rows = ("rsh,24,8,mean,ap,1.5\n", "rsh,24,8,mean,ap,nan\n",
                    "rsh,24,8,0,precision_r1,inf\n")
        for bad in bad_rows:
            path.write_text(header + "rsh,24,8,mean,ap,0.5\n" + bad, encoding="utf-8")
            assert read_metrics(path)[1], f"bad row {bad.strip()} not flagged"
        path.write_text(header + "rsh,24,8,mean,ap,0.5\n", encoding="utf-8")
        assert read_metrics(path) == ({"rsh": 0.5}, None)
    print("ok  corrupted results are flagged")


def main() -> int:
    run.import_package()
    run.OUT.mkdir(parents=True, exist_ok=True)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_oracles()
    check_metrics(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
