#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written to BENCH_<label>.json.

    python3 tools/bench_pair.py --parent ../syzcheck-parent --label orbit-sweep \
        --workloads oracle np-paper np-sharp --pairs 10

`--parent` is a second source checkout, usually of the parent commit. The
change is the checkout this script lives in. Each pair runs
`python3 perfbench/run.py --trace 0` once for each side, for one workload,
with the `run_seconds` of BENCHMARK.json and seed = pair index + 1 (the seed
only names the run's files); which side runs first alternates from pair to
pair. Both sides run the same benchmark code only if `perfbench/` is the
same in both checkouts, which the script checks.

The runs do not happen in the checkouts themselves. `src/` and `perfbench/`
of each side are copied into `parent/` and `change/` of one temporary
directory (under $TMPDIR), so both sides run from paths of equal length
and without leftover files. Peak RSS depends on that path through glibc's
sliding mmap threshold: the same files run from directories whose paths
differ only in length read np-paper peak_rss_mb up to 1.1 MB apart, far
beyond the benchmark's 0.05 MB bound. Each staged copy is byte-compiled
once, and the runs see no PYTHONDONTWRITEBYTECODE, so neither side
compiles its modules inside a round's setup_s.

The output file, at the root of the change checkout, keeps every run's last
stdout line (the benchmark's JSON result, or null with the return code when
the run printed none) and, per workload and side, the median and quartiles
of each end-to-end metric, plus the number of pairs in which the change read
better, as BENCHMARK.json defines better, and the median over pairs of
change/parent. That ratio is taken within a pair, so it cancels the drift of
the host that both runs of one pair share. Each metric also gets a verdict
(see `verdict`): better, within bound, worse or unresolved. The same summary
ends the stderr log: per workload, one line per metric, then one verdict
line per metric.
"""

from __future__ import annotations

import argparse
import compileall
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent
# equal lengths, so the staged copies' paths are equally long
SIDES = ("parent", "change")
# left behind by runs and imports, not part of a checkout's source
LEFTOVERS = ("results", ".scratch", "__pycache__")


def _same_tree(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b, ignore=list(LEFTOVERS))

    def clean(c: filecmp.dircmp) -> bool:
        if c.left_only or c.right_only or c.diff_files or c.funny_files:
            return False
        return all(clean(sub) for sub in c.subdirs.values())

    return clean(cmp)


def stage(checkout: Path, dest: Path) -> Path:
    """Copy the parts of a checkout that perfbench/run.py uses into dest,
    byte-compiled."""
    for part in ("src", "perfbench"):
        shutil.copytree(checkout / part, dest / part,
                        ignore=shutil.ignore_patterns(*LEFTOVERS))
    if not compileall.compile_dir(dest, quiet=1):
        raise RuntimeError(f"byte-compiling {dest} failed")
    return dest


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    # a run that crashed keeps its return code; the pairs so far are kept
    return {"returncode": proc.returncode,
            "result": result if isinstance(result, dict) else None}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    return (tuple(statistics.quantiles(values, n=4)) if len(values) > 1
            else (values[0],) * 3)


def verdict(parent: list[float], change: list[float], metric: dict) -> str:
    """One metric's verdict from its runs on each side. The change of the
    median, relative to the parent's median and signed so that positive is
    worse, is compared with the metric's bound in BENCHMARK.json: worse
    beyond +bound, better beyond -bound, else within bound. When the
    parent's own spread, its interquartile range over its median, exceeds
    the bound, the runs cannot tell a change of that size apart, so the
    verdict is unresolved, unless every change run reads better than every
    parent run. No run on a side, or a parent median of 0, is unresolved."""
    if not parent or not change:
        return "unresolved"
    sign = 1 if metric["better"] == "lower" else -1
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    q1, _, q3 = _quartiles(parent)
    median = statistics.median(parent)
    if not median or ((q3 - q1) / abs(median) > metric["bound"] and not all_better):
        return "unresolved"
    worse = sign * (statistics.median(change) - median) / abs(median)
    if worse > metric["bound"]:
        return "worse"
    return "better" if worse < -metric["bound"] else "within bound"


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per side: median and quartiles of each metric. Per metric, over the
    pairs with both results: the pairs the change won, and the median of
    change/parent within a pair, which cancels drift of the host that both
    runs of a pair share (pairs with a parent value of 0 are left out); and
    over all runs, its `verdict`."""
    out: dict = {}
    values_of: dict[str, dict[str, list[float]]] = {}
    for side in SIDES:
        done = [r["result"] for r in runs if r["side"] == side and r["result"]]
        stats = {"runs": len(done),
                 "attempted": sum(r["attempted"] for r in done),
                 "failed": sum(r["failed"] for r in done),
                 "correct": all(r["correct"] for r in done)}
        values_of[side] = {}
        for m in metrics:
            values = values_of[side][m["name"]] = [r["metrics"][m["name"]]["value"]
                                                   for r in done]
            if not values:
                continue
            q1, _, q3 = _quartiles(values)
            stats[m["name"]] = {"median": statistics.median(values),
                                "q1": q1, "q3": q3, "unit": m["unit"]}
        out[side] = stats
    wins: dict[str, int] = {}
    ratios: dict[str, float | None] = {}
    pairs = sorted({r["pair"] for r in runs})
    for m in metrics:
        sign = -1 if m["better"] == "lower" else 1
        won, within = 0, []
        for i in pairs:
            got = {r["side"]: r["result"] for r in runs if r["pair"] == i}
            if all(got.get(s) for s in SIDES):
                par, chg = (got[s]["metrics"][m["name"]]["value"] for s in SIDES)
                won += sign * (chg - par) > 0
                if par:
                    within.append(chg / par)
        wins[m["name"]] = won
        ratios[m["name"]] = statistics.median(within) if within else None
    out["change_wins"] = wins
    out["change_ratio"] = ratios
    out["verdict"] = {m["name"]: verdict(values_of["parent"][m["name"]],
                                         values_of["change"][m["name"]], m)
                      for m in metrics}
    out["pairs"] = len(pairs)
    return out


def report(workload: str, summary: dict, metrics: list[dict]) -> list[str]:
    """One line per metric: parent median (quartiles), change median, pairs
    the change won, the median change/parent ratio within a pair, and the
    failed operations and finished runs per side."""
    par, chg = summary["parent"], summary["change"]
    tail = (f"failed ops {par['failed']}/{chg['failed']}, "
            f"runs {par['runs']}/{chg['runs']} of {summary['pairs']} (parent/change)")
    lines = []
    for m in metrics:
        name = m["name"]
        if name not in par or name not in chg:
            lines.append(f"{workload} {name}: no result on one side; {tail}")
            continue
        p, c = par[name], chg[name]
        ratio = summary["change_ratio"][name]
        lines.append(f"{workload} {name}: parent {p['median']:.4g} "
                     f"({p['q1']:.4g}-{p['q3']:.4g}), change {c['median']:.4g} "
                     f"{m['unit']}, change won {summary['change_wins'][name]}"
                     f"/{summary['pairs']} pairs, median change/parent "
                     f"{'n/a' if ratio is None else f'{ratio:.4g}'}; {tail}")
    return lines


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((CHANGE / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="root of the parent source checkout")
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        print(f"bench_pair.py: no perfbench/run.py under {parent}", file=sys.stderr)
        return 2
    if not _same_tree(parent / "perfbench", CHANGE / "perfbench"):
        print("bench_pair.py: perfbench/ differs between the checkouts", file=sys.stderr)
        return 2
    if args.pairs < 1:
        print("bench_pair.py: --pairs must be >= 1", file=sys.stderr)
        return 2

    seconds = bench["run_seconds"]
    doc = {
        "label": args.label,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "pairs": args.pairs,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        roots = {side: stage(checkout, Path(tmp) / side)
                 for side, checkout in zip(SIDES, (parent, CHANGE))}
        for workload in args.workloads:
            runs = []
            for i in range(args.pairs):
                seed = i + 1
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = run_once(roots[side], workload, seed, seconds)
                    runs.append({"pair": i, "side": side, "first": side == order[0],
                                 "seed": seed, **run})
                    wall = (run["result"] or {}).get("metrics", {}).get("wall_s", {})
                    print(f"{workload} pair {i} {side}: exit {run['returncode']}, "
                          f"wall_s {wall.get('value')}", file=sys.stderr)
            doc["workloads"][workload] = {"summary": summarize(runs, bench["end_to_end"]),
                                          "runs": runs}
    out = CHANGE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for workload, entry in doc["workloads"].items():
        for line in report(workload, entry["summary"], bench["end_to_end"]):
            print(line, file=sys.stderr)
        for name, said in entry["summary"]["verdict"].items():
            print(f"{workload} {name}: {said}", file=sys.stderr)
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
