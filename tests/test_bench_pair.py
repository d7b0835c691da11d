"""tools/bench_pair.py keeps every pair when a benchmark run crashes."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def stub_run(root: Path, body: str) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(body)
    return root


def result(wall: float, failed: int = 0) -> dict:
    return {"attempted": 3, "failed": failed, "correct": True,
            "metrics": {m["name"]: {"value": wall} for m in METRICS}}


def test_run_that_prints_a_traceback_is_kept_without_a_result(tmp_path):
    # the last stdout line is part of a traceback, not JSON: the run is
    # recorded with its return code instead of raising
    root = stub_run(tmp_path, "import sys, traceback\n"
                              "try:\n    1 / 0\n"
                              "except ZeroDivisionError:\n"
                              "    traceback.print_exc(file=sys.stdout)\n"
                              "    sys.exit(3)\n")
    assert bench_pair.run_once(root, "np-paper", 1, 0.1) == {"returncode": 3,
                                                             "result": None}


def test_run_with_a_json_result_is_read(tmp_path):
    root = stub_run(tmp_path, "print('warming up')\n"
                              f"print({json.dumps(json.dumps(result(1.5)))})\n")
    run = bench_pair.run_once(root, "np-paper", 1, 0.1)
    assert run == {"returncode": 0, "result": result(1.5)}


def test_summary_and_report_count_a_lost_run():
    runs = [{"pair": 0, "side": "parent", "result": result(2.0)},
            {"pair": 0, "side": "change", "result": result(1.0, failed=1)},
            {"pair": 1, "side": "change", "result": result(1.0)},
            {"pair": 1, "side": "parent", "result": None}]
    summary = bench_pair.summarize(runs, METRICS)
    assert summary["pairs"] == 2 and summary["change_wins"]["wall_s"] == 1
    assert summary["change_ratio"]["wall_s"] == 0.5
    lines = bench_pair.report("np-paper", summary, METRICS)
    assert len(lines) == len(METRICS)
    assert lines[0] == ("np-paper wall_s: parent 2 (2-2), change 1 s, change won 1/2 "
                        "pairs, median change/parent 0.5; failed ops 0/1, runs 1/2 "
                        "of 2 (parent/change)")


def test_ratio_is_the_median_within_pairs():
    # the change reads 10% below its parent in every pair while the host
    # drifts 3x: the sides' medians are far apart, the within-pair ratio is not
    runs = []
    for i, scale in enumerate((1.0, 3.0, 1.5, 2.0)):
        runs += [{"pair": i, "side": "parent", "result": result(scale)},
                 {"pair": i, "side": "change", "result": result(0.9 * scale)}]
    runs.append({"pair": 4, "side": "parent", "result": result(0.0)})
    runs.append({"pair": 4, "side": "change", "result": result(1.0)})
    summary = bench_pair.summarize(runs, METRICS)
    assert abs(summary["change_ratio"]["wall_s"] - 0.9) < 1e-12
    assert summary["change_wins"]["wall_s"] == 4
    only_zero = bench_pair.summarize(runs[-2:], METRICS)
    assert only_zero["change_ratio"]["wall_s"] is None
    assert "median change/parent n/a;" in bench_pair.report("oracle", only_zero, METRICS)[0]
