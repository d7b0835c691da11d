"""tools/bench_pair.py keeps every pair when a benchmark run crashes, and
judges each metric against its bound."""

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


WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}


def test_verdict_compares_the_median_change_with_the_bound():
    parent = [1.0, 1.0, 1.0, 1.0]
    assert bench_pair.verdict(parent, [1.2] * 4, WALL) == "within bound"
    assert bench_pair.verdict(parent, [0.8] * 4, WALL) == "within bound"
    assert bench_pair.verdict(parent, [1.3, 1.3, 1.3, 0.5], WALL) == "worse"
    assert bench_pair.verdict(parent, [0.7] * 4, WALL) == "better"
    # higher is better: the same readings swap sides
    higher = dict(WALL, better="higher")
    assert bench_pair.verdict(parent, [1.3] * 4, higher) == "better"
    assert bench_pair.verdict(parent, [0.7] * 4, higher) == "worse"


def test_verdict_is_unresolved_when_the_parent_spreads_beyond_the_bound():
    # quartiles 0.925 and 1.45 around a median of 1: a spread of 0.525
    parent = [0.9, 1.0, 1.0, 1.6]
    assert bench_pair.verdict(parent, [1.0] * 4, WALL) == "unresolved"
    assert bench_pair.verdict(parent, [2.0] * 4, WALL) == "unresolved"
    assert bench_pair.verdict(parent, [0.5, 0.5, 0.5, 0.95], WALL) == "unresolved"
    # unless every change run beats every parent run
    assert bench_pair.verdict(parent, [0.85] * 4, WALL) == "within bound"
    assert bench_pair.verdict(parent, [0.5] * 4, WALL) == "better"
    # no run on one side, or no parent median to scale the change by
    assert bench_pair.verdict([], [0.5], WALL) == "unresolved"
    assert bench_pair.verdict([0.0, 0.0], [1.0], WALL) == "unresolved"


def test_summary_holds_a_verdict_per_metric():
    runs = []
    for i in range(4):
        runs += [{"pair": i, "side": "parent", "result": result(1.0)},
                 {"pair": i, "side": "change", "result": result(1.01)}]
    summary = bench_pair.summarize(runs, METRICS)
    # wall_s and setup_s take a 1% change within their 25% bound;
    # peak_rss_mb, bound 5%, does too
    assert summary["verdict"] == {m["name"]: "within bound" for m in METRICS}
    lost = bench_pair.summarize(runs[::2], METRICS)  # no change run at all
    assert set(lost["verdict"].values()) == {"unresolved"}
