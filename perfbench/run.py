#!/usr/bin/env python3
"""Benchmark of syzcheck: certified N_p verdicts and the Koszul oracle.

    python3 perfbench/run.py --workload np-paper|np-sharp|oracle \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src` directory and nowhere else. Every round runs in a fresh interpreter
(worker.py) and repeats whole rounds until S seconds have passed. The last
line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: with --trace 0 the end-to-end metrics (wall_s, setup_s,
peak_rss_mb, medians over the run's rounds and set-ups), with --trace 1
the per-layer metrics of traced rounds, each paired with an untraced
round for the tracing overhead. The workloads' inputs are fixed cases;
the seed only names the run's files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("np-paper", "np-sharp", "oracle")
# set-up-only interpreters per run, on top of the one each round starts
SETUP_SAMPLES = 5
# a run that would end later than this many seconds after its start is killed
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    # the same set and dict layouts in every round
    env["PYTHONHASHSEED"] = "0"
    # one thread, like the workloads; numpy's BLAS would otherwise start a
    # thread per core at import, inside the timed set-up
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _round(workload: str, mode: str, tmp: Path, deadline: float,
           trace_out: Path | None = None) -> tuple[float, dict | None]:
    """Start one worker; return its set-up seconds and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--mode", mode, "--src", str(SRC), "--tmp", str(tmp)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(),
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} round did not finish before the deadline")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    setup = float(lines[0].split()[1]) - started
    result = json.loads(lines[-1]) if mode != "setup" else None
    return setup, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "syzcheck" / "__init__.py").is_file():
        print(f"run.py: no syzcheck package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    tmp = HERE / ".scratch" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    results_dir = HERE / "results"
    tmp.mkdir(parents=True)
    results_dir.mkdir(exist_ok=True)
    try:
        doc = _measure(args, tmp, results_dir, deadline)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


def _measure(args, tmp: Path, results_dir: Path, deadline: float) -> dict:
    # the first interpreter writes the bytecode caches; it is not timed
    _round(args.workload, "setup", tmp, deadline)
    rounds: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    start = time.perf_counter()
    if args.trace:
        while not traced or time.perf_counter() - start < args.seconds:
            rounds.append(_round(args.workload, "run", tmp, deadline)[1])
            out = results_dir / f"spans-{args.workload}-seed{args.seed}-r{len(traced)}.jsonl"
            traced.append(_round(args.workload, "trace", tmp, deadline, out)[1])
    else:
        for _ in range(SETUP_SAMPLES):
            setups.append(_round(args.workload, "setup", tmp, deadline)[0])
        while not rounds or time.perf_counter() - start < args.seconds:
            setup, result = _round(args.workload, "run", tmp, deadline)
            setups.append(setup)
            rounds.append(result)

    everything = rounds + traced
    doc = {
        "correct": all(r["wrong"] == 0 for r in everything),
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
    }
    if args.trace:
        metrics = {name: {"value": statistics.median(t["layers"][name]["value"]
                                                     for t in traced),
                          "unit": first["unit"]}
                   for name, first in traced[0]["layers"].items()}
        plain = statistics.median(r["wall_s"] for r in rounds)
        with_spans = statistics.median(t["wall_s"] for t in traced)
        metrics["trace.untraced_wall_s"] = {"value": plain, "unit": "s"}
        metrics["trace.traced_wall_s"] = {"value": with_spans, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": with_spans - plain, "unit": "s"}
        metrics["trace.overhead_share"] = {"value": (with_spans - plain) / plain,
                                           "unit": "ratio"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    doc["metrics"] = metrics
    return doc


if __name__ == "__main__":
    sys.exit(main())
