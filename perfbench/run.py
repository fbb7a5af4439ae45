#!/usr/bin/env python3
"""rankhash benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload train_labels --seed 1 --seconds 25 --trace 0

Workloads are defined in `workloads.py` and listed with their metrics in
`BENCHMARK.json`. `--trace 0` prints the end-to-end metrics; `--trace 1` runs
the same workload with spans around every layer call and prints the per-layer
metrics instead. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it records the machine,
the seed, the generated sizes and the sample count behind every mean and
percentile. Both are also written under `perfbench/out/`, with the spans of a
traced run.

The package is imported from `src/` of the checkout this file sits in, never
from an installed copy; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


# BLAS runs on one thread. With OpenBLAS's default of one thread per core,
# its spinning workers compete with the interpreter for the two cores this
# benchmark was tuned on, and a 5000-row encode took 4 ms or 80 ms by turns.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_package():
    """Import `rankhash` from this checkout's `src/`, or exit 2. Call before
    anything imports numpy."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "rankhash" / "__init__.py").is_file():
        _fail(f"{SRC / 'rankhash'} not found; run from a rankhash checkout")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("rankhash")
    if Path(package.__file__).resolve().parent != SRC / "rankhash":
        _fail(f"imported rankhash from {package.__file__}, not {SRC}")
    return package


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    metrics, books, info, tracer = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), OUT / "work" / args.workload)
    info.update(nproc=os.cpu_count(), python=platform.python_version(), numpy=np.__version__)
    result = {
        "correct": books.failed == 0,
        "attempted": books.attempted,
        "failed": books.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write(OUT / "results" / f"{tag}.spans.json", {"info": info})
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
