"""Summarise paired benchmark runs of two checkouts into one trajectory file.

Reads the `perfbench/out/results/*.json` that `perfbench/run.py` left in a
parent checkout and in a change checkout, pairs the runs by workload, seed
and trace mode, and writes one JSON file with, per workload and metric, the
median and interquartile range of each side, how many pairs the change won
(by the metric's direction in `BENCHMARK.json`), each run's seed and
`speed_factor`, and the machine the runs came from. Per workload and side it
also records the median `speed_factor` and the median of the runs' raw
(unscaled) CPU means, `info.raw_cpu`, and per metric with a raw sample how
many pairs the change won on the raw means as well. It prints these beside
the scaled medians and wins: a side whose calibration loop ran faster reads
slower when scaled, though its raw CPU time may have fallen.

Usage:
    python3 scripts/bench_trajectory.py PARENT_CHECKOUT CHANGE_CHECKOUT --out BENCH_<n>.json

Run the two sides alternately (parent, change, parent, ...) with the same
seeds, so that both see the same phases of the host's speed.
"""

import argparse
import json
import platform
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# the raw_cpu sample each scaled mean is taken from, where the names differ
RAW_NAMES = {"range_mean_us": "range_us", "knn_mean_us": "knn_us"}


def load_runs(checkout: Path) -> dict:
    """{(workload, trace, seed): (info, metric values)} for one checkout."""
    runs = {}
    for path in sorted((checkout / "perfbench" / "out" / "results").glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        info, result = record["info"], record["result"]
        if not result.get("correct") or result.get("failed"):
            raise SystemExit(f"{path.name}: the run failed its output checks")
        values = {name: m["value"] for name, m in result["metrics"].items()}
        runs[(info["workload"], info["trace"], info["seed"])] = (info, values)
    return runs


def spread(values: list) -> dict:
    """Median and interquartile range (inclusive quartiles) of `values`."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1, "values": values}


def wins(pairs, direction):
    """"x/n": in how many (parent, change) pairs the change is better, by
    the metric's direction; None for a metric with none."""
    if not direction:
        return None
    pairs = list(pairs)
    won = sum((c < p) if direction == "lower" else (c > p) for p, c in pairs)
    return f"{won}/{len(pairs)}"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def trajectory(parent: dict, change: dict, spec: dict) -> dict:
    better = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"] + spec["per_layer"]}
    shared = sorted(set(parent) & set(change))
    if not shared:
        raise SystemExit("no run (workload, trace, seed) is present on both sides")
    info = change[shared[0]][0]
    machine = {key: info[key] for key in ("nproc", "python", "numpy")}
    machine.update(machine=platform.machine(), cpu=cpu_model())
    workloads = {}
    for key in shared:
        workload, trace, seed = key
        sides = {"parent": parent[key], "change": change[key]}
        entry = workloads.setdefault(workload if trace == 0 else f"{workload} (traced)", {
            "trace": trace, "runs": [], "metrics": {}, "raw_cpu": {side: {} for side in SIDES},
            "raw_pairs": {}})
        entry["runs"].append({"seed": seed, "seconds": sides["change"][0]["seconds"], **{
            f"{side}_speed_factor": sides[side][0]["calibration"]["speed_factor"]
            for side in SIDES}})
        raw = {side: sides[side][0]["raw_cpu"] for side in SIDES}
        for side in SIDES:
            for name, sample in raw[side].items():
                entry["raw_cpu"][side].setdefault(name, []).append(sample["mean"])
        for name in raw["parent"].keys() & raw["change"].keys():
            entry["raw_pairs"].setdefault(name, []).append(
                (raw["parent"][name]["mean"], raw["change"][name]["mean"]))
        for name, value in sides["change"][1].items():
            if name in sides["parent"][1]:
                metric = entry["metrics"].setdefault(name, {"parent": [], "change": []})
                metric["parent"].append(sides["parent"][1][name])
                metric["change"].append(value)
    for entry in workloads.values():
        entry["speed_factor"] = {side: statistics.median(run[f"{side}_speed_factor"]
                                                         for run in entry["runs"])
                                 for side in SIDES}
        entry["raw_cpu"] = {side: {name: statistics.median(v) for name, v in raw.items()}
                            for side, raw in entry["raw_cpu"].items()}
        raw_pairs = entry.pop("raw_pairs")
        for name, metric in entry["metrics"].items():
            unit, direction = better.get(name, (None, None))
            raw = raw_pairs.get(RAW_NAMES.get(name, name))
            entry["metrics"][name] = {
                "unit": unit, "better": direction,
                "parent": spread(metric["parent"]), "change": spread(metric["change"]),
                "change_better_pairs": wins(zip(metric["parent"], metric["change"]), direction),
                "raw_better_pairs": wins(raw, direction) if raw else None,
            }
    return {"machine": machine, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout holding the parent's results")
    parser.add_argument("change", type=Path, help="checkout holding the change's results")
    parser.add_argument("--out", type=Path, required=True, help="trajectory file to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = trajectory(load_runs(args.parent), load_runs(args.change), spec)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, entry in report["workloads"].items():
        factor = entry["speed_factor"]
        print(f"{name}: {len(entry['runs'])} pairs, median speed factor"
              f" {factor['parent']:.3f} -> {factor['change']:.3f}")
        raw = entry["raw_cpu"]
        for metric, m in entry["metrics"].items():
            wins_raw = (f", raw in {m['raw_better_pairs']}"
                        if m["raw_better_pairs"] else "")
            line = (f"  {metric:14s} {m['parent']['median']:12.6g} -> {m['change']['median']:12.6g}"
                    f"  (change better in {m['change_better_pairs']}{wins_raw})")
            sample = RAW_NAMES.get(metric, metric)
            if all(sample in raw[side] for side in SIDES):
                line += f"  raw CPU {raw['parent'][sample]:.6g} -> {raw['change'][sample]:.6g}"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
