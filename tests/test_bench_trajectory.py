"""`scripts/bench_trajectory.py` pairs two checkouts' benchmark results."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_trajectory.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_result(checkout: Path, seed: int, knn_us: float, ap: float, speed: float, ok=True):
    """One run's result file; its raw CPU mean is the scaled value over the
    speed factor, as perfbench's scaling makes it."""
    results = checkout / "perfbench" / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    info = {"workload": "query_stream", "seed": seed, "trace": 0, "seconds": 30.0,
            "nproc": 2, "python": "3.11", "numpy": "2.0",
            "raw_cpu": {"knn_us": {"mean": knn_us / speed, "median": 1.0},
                        "train_s": {"mean": 0.5 / speed, "median": 1.0}},
            "calibration": {"speed_factor": speed}}
    result = {"correct": ok, "attempted": 10, "failed": 0 if ok else 1, "metrics": {
        "knn_mean_us": {"value": knn_us, "unit": "us"},
        "ap_rsh": {"value": ap, "unit": "ratio"}}}
    path = results / f"query_stream-seed{seed}-trace0.json"
    path.write_text(json.dumps({"info": info, "result": result}), encoding="utf-8")
    (results / f"query_stream-seed{seed}-trace0.spans.json").write_text("{}", encoding="utf-8")


def test_pairs_runs_by_seed_and_reports_medians_iqr_and_wins(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, before, after, speed in ((1, 400.0, 260.0, 0.75), (2, 420.0, 270.0, 0.8),
                                       (3, 410.0, 430.0, 0.8), (4, 390.0, 250.0, 0.85),
                                       (5, 430.0, 280.0, 1.0)):
        write_result(parent, seed, before, 0.5, 0.5)
        write_result(change, seed, after, 0.5, speed)
    write_result(change, 9, 100.0, 0.5, 0.8)  # no parent run: left out
    out = tmp_path / "BENCH.json"
    assert load_script().main([str(parent), str(change), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["machine"]["nproc"] == 2
    entry = report["workloads"]["query_stream"]
    assert [run["seed"] for run in entry["runs"]] == [1, 2, 3, 4, 5]
    assert entry["runs"][0] == {"seed": 1, "seconds": 30.0,
                                "parent_speed_factor": 0.5, "change_speed_factor": 0.75}
    # per side, the median speed factor and the median of the runs' raw CPU
    # means, which the scaled medians alone would hide
    assert entry["speed_factor"] == {"parent": 0.5, "change": 0.8}
    assert entry["raw_cpu"]["parent"] == {"knn_us": 820.0, "train_s": 1.0}
    assert entry["raw_cpu"]["change"] == pytest.approx({"knn_us": 337.5, "train_s": 0.625})
    printed = capsys.readouterr().out
    assert "median speed factor 0.500 -> 0.800" in printed
    assert [line.split("raw CPU ")[1] for line in printed.splitlines()
            if "knn_mean_us" in line] == ["820 -> 337.5"]
    assert "raw CPU" not in next(line for line in printed.splitlines() if "ap_rsh" in line)
    knn = entry["metrics"]["knn_mean_us"]
    assert knn["better"] == "lower" and knn["unit"] == "us"
    assert knn["parent"]["median"] == 410.0 and knn["parent"]["iqr"] == 20.0
    assert knn["change"]["median"] == 270.0 and knn["change"]["iqr"] == 20.0
    assert knn["change_better_pairs"] == "4/5"
    # seed 3 reads 410 -> 430 scaled but 820 -> 537.5 raw
    assert knn["raw_better_pairs"] == "5/5"
    assert "(change better in 4/5, raw in 5/5)" in printed
    assert entry["metrics"]["ap_rsh"]["change_better_pairs"] == "0/5"
    assert entry["metrics"]["ap_rsh"]["raw_better_pairs"] is None
    assert "(change better in 0/5)" in printed


def test_counts_raw_cpu_wins_apart_from_scaled_ones(tmp_path, capsys):
    # the change's calibration loop ran slower (speed factor 0.6 against
    # 1.0), so it reads faster scaled in every pair but slower raw in two:
    # 300 / 0.6 = 500 and 330 / 0.6 = 550 raw against the parent's 400
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, after, speed in ((1, 300.0, 0.6), (2, 330.0, 0.6), (3, 350.0, 1.0)):
        write_result(parent, seed, 400.0, 0.5, 1.0)
        write_result(change, seed, after, 0.5, speed)
    out = tmp_path / "BENCH.json"
    assert load_script().main([str(parent), str(change), "--out", str(out)]) == 0
    knn = json.loads(out.read_text(encoding="utf-8"))["workloads"]["query_stream"]["metrics"][
        "knn_mean_us"]
    assert knn["change_better_pairs"] == "3/3"
    assert knn["raw_better_pairs"] == "1/3"
    line = next(line for line in capsys.readouterr().out.splitlines() if "knn_mean_us" in line)
    assert "(change better in 3/3, raw in 1/3)  raw CPU 400 -> 500" in line


def test_refuses_failed_runs_and_unpaired_sides(tmp_path):
    script = load_script()
    write_result(tmp_path / "parent", 1, 400.0, 0.5, 0.7, ok=False)
    with pytest.raises(SystemExit, match="failed"):
        script.load_runs(tmp_path / "parent")
    write_result(tmp_path / "a", 1, 400.0, 0.5, 0.7)
    write_result(tmp_path / "b", 2, 400.0, 0.5, 0.7)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match="both sides"):
        script.main([str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(out)])
    assert not out.exists()
