"""One round of one workload, in a fresh interpreter started by run.py.

Prints `READY <monotonic clock>` once the imports are done and the inputs
are built, then (unless --mode setup) runs the workload's operations,
checks their outputs and prints one JSON line with the round's figures.
A fresh interpreter per round means the package's lru_caches start cold,
as they do for a command-line user.
"""

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--src", required=True, help="directory that holds the syzcheck package")
    ap.add_argument("--tmp", required=True, help="directory for the round's stores")
    ap.add_argument("--trace-out", help="file for the traced round's spans")
    args = ap.parse_args()

    import syzcheck

    expected = (Path(args.src) / "syzcheck").resolve()
    if Path(syzcheck.__file__).resolve().parent != expected:
        print(f"worker: imported syzcheck from {syzcheck.__file__}, not {expected}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    ops = workload.prepare(tempfile.mkdtemp(dir=args.tmp))
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.mode == "setup":
        return 0

    outputs, errors = [], []
    t0 = time.perf_counter()
    for op in ops:
        try:
            outputs.append(op.run())
            errors.append(None)
        except Exception as exc:  # counted as a failed operation, and reported
            outputs.append(None)
            errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        from tracing import dump, layer_metrics

        # before the checks, whose Koszul calls would add spans
        spans = list(tracer.spans)
        layers = layer_metrics(spans)
        if args.trace_out:
            dump(spans, Path(args.trace_out))

    if any(errors):
        problems = [e or f"{op.name}: not checked, another operation raised"
                    for op, e in zip(ops, errors)]
    else:
        problems = [p and f"{op.name}: {p}" for op, p in zip(ops, workload.check(outputs))]
    for p in problems:
        if p:
            print(f"worker: {args.workload}: {p}", file=sys.stderr)
    print(json.dumps({
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": sum(1 for p in problems if p),
        "wrong": sum(1 for p, e in zip(problems, errors) if p and not e),
        "layers": layers,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
