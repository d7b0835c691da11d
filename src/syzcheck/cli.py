"""Command-line front end.

Every command writes exactly one deterministic document to stdout for a
given flag set: wall-clock numbers and canonicalization notices go to
stderr so reruns are byte-identical. Each command computes its result and
hands it to `_emit` once, as a JSON document, CSV lines and text lines;
only the form that --format names is rendered. `complex` has no CSV form,
`bench` prints text only, and the CSV of `points` has no header row.
Exit codes: 0 success, 1 for a mathematically negative verdict (a
certified obstruction or a pipeline disagreement), 2 for usage,
validation, capacity (memory included) and file errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .complexes import build_slice, slice_to_json, slice_to_text
from .errors import CapacityError, MismatchError
from .homology import reduced_betti
from .koszul import tor_dimension
from .lattice import multidegree, veronese_points
from .npchecker import FAILS, NpQuery, betti_csv_lines, check_np, cross_validate
from .reptheory import tor_schur_decomposition


def _parse_b(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"multidegree {text!r} is not comma-separated integers")


def _canonicalize(coords: tuple[int, ...]) -> tuple[tuple[int, ...], str]:
    canon = tuple(sorted(coords, reverse=True))
    note = f"note: multidegree {coords} canonicalized to {canon}\n"
    return canon, note if canon != coords else ""


def _store(args) -> str | None:
    if args.store is not None:
        return args.store
    return os.environ.get("SYZCHECK_STORE") or None


def _spaced(coords) -> str:
    return " ".join(str(x) for x in coords)


def _emit(fmt: str, doc, csv_lines, text_lines, note: str = "") -> None:
    """Write the note, if any, to stderr, then print the JSON document, or the
    CSV lines, or the text lines, as fmt names: a command that rejects its input
    fails before this and writes no note. Each form is a zero-argument callable,
    so only the chosen one is rendered: the text of a big slice is costly. A reader
    that closes the pipe early ends the output, not the command: stdout goes to os.devnull."""
    sys.stderr.write(note)
    try:
        if fmt == "json":
            print(json.dumps(doc(), sort_keys=True, indent=2))
        else:
            for line in (csv_lines if fmt == "csv" else text_lines)():
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_points(args) -> int:
    points = veronese_points(args.n, args.d).points
    _emit(args.format,
          lambda: {"n": args.n, "d": args.d, "count": len(points),
                   "points": [list(p) for p in points]},
          lambda: (",".join(str(x) for x in p) for p in points),
          lambda: (_spaced(p) for p in points))
    return 0


def cmd_complex(args) -> int:
    if args.format == "csv":
        raise ValueError("complex has no csv form; use text or json")
    config = veronese_points(args.n, args.d)
    coords, note = _canonicalize(_parse_b(args.b))
    try:
        lo, hi = (int(x) for x in args.j.split(","))
    except ValueError:
        raise ValueError(f"-j expects 'lo,hi', got {args.j!r}")
    slc = build_slice(config, coords, lo, hi)
    _emit(args.format, lambda: slice_to_json(slc), None, lambda: [slice_to_text(slc)], note)
    return 0


def cmd_betti(args) -> int:
    config = veronese_points(args.n, args.d)
    coords, note = _canonicalize(_parse_b(args.b))
    b = multidegree(config, coords)  # membership-validating
    slc = build_slice(config, coords, -1, args.j + 1)
    bn = reduced_betti(slc, args.j)
    _emit(args.format,
          lambda: {"b": list(coords), "degree": b.total_degree, "j": bn.j,
                   "value": bn.value, "certified": bn.certified},
          lambda: betti_csv_lines([(coords, bn.j, bn.value)]),
          lambda: [f"reduced homology rank at b={coords}, dimension {bn.j}: "
                   f"{bn.value} (certified)"], note)
    return 0


def cmd_check_np(args) -> int:
    """check-np, and bench: the same verdict in text, its wall time on stderr."""
    start = time.perf_counter()
    verdict = check_np(NpQuery(n=args.n, d=args.d, p=args.p, slack=args.slack,
                               store_path=_store(args)))
    if args.command == "bench":
        print(f"bench: {verdict.jobs_total} jobs in {time.perf_counter() - start:.2f}s "
              f"({verdict.jobs_reused} reused)", file=sys.stderr)
    w = verdict.witness
    _emit(args.format, verdict.to_json,
          lambda: ["status,witness_b,witness_degree,witness_q,value,certified",
                   f"{verdict.status},,,,," if w is None else
                   f"{verdict.status},{_spaced(w.b.coords)},{w.b.total_degree},{w.q},"
                   f"{w.betti.value},{str(w.betti.certified).lower()}"],
          lambda: [verdict.text()])
    return 1 if verdict.status == FAILS else 0


def cmd_koszul(args) -> int:
    weight, note = None, ""
    if args.b is not None:
        weight, note = _canonicalize(_parse_b(args.b))
    slice_ = tor_dimension(args.p, args.q, args.n, args.d, weight=weight)
    rows = sorted(slice_.weights.items(), reverse=True)
    _emit(args.format, slice_.to_json,
          lambda: ["b,mult"] + [f"{_spaced(b)},{m}" for b, m in rows],
          lambda: [f"graded piece (p={args.p}, q={args.q}): total_dim {slice_.total_dim}"]
                  + [f"  weight {b}: {m}" for b, m in rows], note)
    return 0


def cmd_schur(args) -> int:
    terms = tor_schur_decomposition(args.p, args.q, args.d, args.vdim).to_json()
    _emit(args.format, lambda: terms,
          lambda: ["partition,mult"]
                  + [f"{_spaced(t['partition'])},{t['mult']}" for t in terms],
          lambda: [f"partition {tuple(t['partition'])}: multiplicity {t['mult']}"
                   for t in terms] or ["zero representation"])
    return 0


def cmd_cross_validate(args) -> int:
    report = cross_validate(args.n, args.d, args.p, args.q,
                            store_path=_store(args))
    _emit(args.format, report.to_json,
          lambda: ["b,tor,betti"]
                  + [f"{_spaced(pr.coords)},{pr.tor},{pr.tor}" for pr in report.pairs],
          lambda: [f"{report.matches} matches, {report.mismatches} mismatches "
                   f"({report.compared} weights compared)"]
                  + [f"  b={coords}: both pipelines give {value}"
                     for coords, value in report.matched_pairs()])
    return 0


def _at_least(low: int, message: str):
    """An argparse type: an int of at least low, else "<message>, got <int>"."""
    def parse(text: str) -> int:
        try:
            val = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if val < low:
            raise argparse.ArgumentTypeError(f"{message}, got {val}")
        return val
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syzcheck",
        description="certified multigraded Betti numbers and syzygy "
                    "linearity verdicts for Veronese embeddings")
    subs = parser.add_subparsers(dest="command", required=True)
    positive = _at_least(1, "must be a positive integer")

    def command(name, help, func, ints, *flags, fmt=True, store=False):
        """Add subcommand name with, in this order: a required positive int
        -x for each letter x of ints, each flag as (option, add_argument
        keywords), --format if fmt and --store if store. The order is the
        order of the usage line."""
        sp = subs.add_parser(name, help=help)
        for letter in ints:
            sp.add_argument(f"-{letter}", type=positive, required=True)
        for option, kwargs in flags:
            sp.add_argument(option, **kwargs)
        if fmt:
            sp.add_argument("--format", choices=("json", "csv", "text"), default="text")
        if store:
            sp.add_argument("--store", default=None,
                            help="results directory (env SYZCHECK_STORE)")
        # a command without --format prints text
        sp.set_defaults(func=func, format="text")

    slack = ("--slack", dict(type=int, default=None,
                             help="extra degrees beyond q+2 to sweep (default: effective n)"))
    command("points", "list the monomial point configuration", cmd_points, "nd")
    command("complex", "materialize a divisor complex band", cmd_complex, "nd",
            ("-b", dict(required=True, help="bound vector, comma-separated")),
            ("-j", dict(required=True, help="dimension band 'lo,hi'")))
    command("betti", "one reduced homology rank", cmd_betti, "nd",
            ("-b", dict(required=True, help="multidegree, comma-separated")),
            ("-j", dict(type=_at_least(0, "homological dimension must be 0 or more"),
                        required=True, help="homological dimension, 0 or more")))
    command("check-np", "linearity verdict for (n, d, p)", cmd_check_np, "ndp", slack,
            store=True)
    command("koszul", "graded Tor piece from the contraction complex", cmd_koszul, "ndpq",
            ("-b", dict(default=None, help="optional single weight, comma-separated")))
    command("schur", "Schur decomposition of a Tor piece", cmd_schur, "pqd",
            ("--vdim", dict(type=positive, required=True,
                            help="dimension of the underlying space (needs vdim >= p+1)")))
    command("cross-validate", "assert the two pipelines agree at degree p+q",
            cmd_cross_validate, "ndpq", store=True)
    command("bench", "run a verdict and report wall time on stderr", cmd_check_np, "ndp",
            slack, fmt=False, store=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MismatchError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 1
    except (CapacityError, MemoryError) as exc:
        print(f"capacity error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
