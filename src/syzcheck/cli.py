"""Command-line front end.

Every command writes exactly one deterministic document to stdout for a
given flag set: wall-clock numbers and canonicalization notices go to
stderr so reruns are byte-identical. Exit codes: 0 success, 1 for a
mathematically negative verdict (a certified obstruction or a pipeline
disagreement), 2 for usage, validation, capacity and file errors.
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
from .npchecker import FAILS, NpQuery, check_np, cross_validate
from .reptheory import tor_schur_decomposition


def _parse_b(text: str) -> tuple[int, ...]:
    try:
        coords = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"multidegree {text!r} is not comma-separated integers")
    if not coords:
        raise ValueError("empty multidegree")
    return coords


def _canonicalize(coords: tuple[int, ...]) -> tuple[int, ...]:
    canon = tuple(sorted(coords, reverse=True))
    if canon != coords:
        print(f"note: multidegree {coords} canonicalized to {canon}",
              file=sys.stderr)
    return canon


def _store(args) -> str | None:
    if getattr(args, "store", None) is not None:
        return args.store
    return os.environ.get("SYZCHECK_STORE") or None


def _emit_json(doc) -> int:
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def cmd_points(args) -> int:
    config = veronese_points(args.n, args.d)
    if args.format == "json":
        return _emit_json({"n": args.n, "d": args.d,
                           "count": len(config.points),
                           "points": [list(p) for p in config.points]})
    sep = "," if args.format == "csv" else " "
    for point in config.points:
        print(sep.join(str(x) for x in point))
    return 0


def cmd_complex(args) -> int:
    if args.format == "csv":
        raise ValueError("complex has no csv form; use text or json")
    config = veronese_points(args.n, args.d)
    coords = _canonicalize(_parse_b(args.b))
    try:
        lo, hi = (int(x) for x in args.j.split(","))
    except ValueError:
        raise ValueError(f"-j expects 'lo,hi', got {args.j!r}")
    slc = build_slice(config, coords, lo, hi)
    if args.format == "json":
        return _emit_json(slice_to_json(slc))
    print(slice_to_text(slc))
    return 0


def cmd_betti(args) -> int:
    config = veronese_points(args.n, args.d)
    coords = _canonicalize(_parse_b(args.b))
    b = multidegree(config, coords)  # membership-validating
    slc = build_slice(config, coords, -1, args.j + 1)
    bn = reduced_betti(slc, args.j)
    if args.format == "json":
        return _emit_json({"b": list(coords), "degree": b.total_degree,
                           "j": bn.j, "value": bn.value,
                           "certified": bn.certified})
    if args.format == "csv":
        print("b,j,value,certified")
        print(f"{' '.join(str(x) for x in coords)},{bn.j},{bn.value},"
              f"{str(bn.certified).lower()}")
        return 0
    print(f"reduced homology rank at b={coords}, dimension {bn.j}: {bn.value} (certified)")
    return 0


def _build_query(args) -> NpQuery:
    return NpQuery(n=args.n, d=args.d, p=args.p, slack=args.slack,
                   store_path=_store(args))


def cmd_check_np(args) -> int:
    verdict = check_np(_build_query(args))
    if args.format == "json":
        _emit_json(verdict.to_json())
    elif args.format == "csv":
        w = verdict.witness
        print("status,witness_b,witness_degree,witness_q,value,certified")
        if w is None:
            print(f"{verdict.status},,,,,")
        else:
            b = " ".join(str(x) for x in w.b.coords)
            print(f"{verdict.status},{b},{w.b.total_degree},{w.q},"
                  f"{w.betti.value},{str(w.betti.certified).lower()}")
    else:
        print(verdict.text())
    return 1 if verdict.status == FAILS else 0


def cmd_koszul(args) -> int:
    weight = None
    if args.b is not None:
        weight = _canonicalize(_parse_b(args.b))
    slice_ = tor_dimension(args.p, args.q, args.n, args.d, weight=weight)
    if args.format == "json":
        return _emit_json(slice_.to_json())
    if args.format == "csv":
        print("b,mult")
        for b, m in sorted(slice_.weights.items(), reverse=True):
            print(f"{' '.join(str(x) for x in b)},{m}")
        return 0
    print(f"graded piece (p={args.p}, q={args.q}): total_dim {slice_.total_dim}")
    for b, m in sorted(slice_.weights.items(), reverse=True):
        print(f"  weight {b}: {m}")
    return 0


def cmd_schur(args) -> int:
    dec = tor_schur_decomposition(args.p, args.q, args.d, args.vdim)
    if args.format == "json":
        return _emit_json(dec.to_json())
    if args.format == "csv":
        print("partition,mult")
        for term in dec.to_json():
            print(f"{' '.join(str(x) for x in term['partition'])},{term['mult']}")
        return 0
    if not dec.terms:
        print("zero representation")
    for term in dec.to_json():
        print(f"partition {tuple(term['partition'])}: multiplicity {term['mult']}")
    return 0


def cmd_cross_validate(args) -> int:
    report = cross_validate(args.n, args.d, args.p, args.q,
                            store_path=_store(args))
    if args.format == "json":
        return _emit_json(report.to_json())
    if args.format == "csv":
        print("b,tor,betti")
        for pr in report.pairs:
            print(f"{' '.join(str(x) for x in pr.coords)},{pr.tor},{pr.betti}")
        return 0
    print(f"{report.matches} matches, {report.mismatches} mismatches "
          f"({report.compared} weights compared)")
    for coords, value in report.matched_pairs():
        print(f"  b={coords}: both pipelines give {value}")
    return 0


def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    verdict = check_np(_build_query(args))
    total = time.perf_counter() - t0
    print(f"bench: {verdict.jobs_total} jobs in {total:.2f}s "
          f"({verdict.jobs_reused} reused)", file=sys.stderr)
    print(verdict.text())
    return 1 if verdict.status == FAILS else 0


def _add_common(sub, *, fmt=True, store=False):
    if fmt:
        sub.add_argument("--format", choices=("json", "csv", "text"),
                         default="text")
    if store:
        sub.add_argument("--store", default=None,
                         help="results directory (env SYZCHECK_STORE)")


def _positive(text: str) -> int:
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if val < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {val}")
    return val


def _dimension(text: str) -> int:
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if val < 0:
        raise argparse.ArgumentTypeError(
            f"homological dimension must be 0 or more, got {val}")
    return val


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syzcheck",
        description="certified multigraded Betti numbers and syzygy "
                    "linearity verdicts for Veronese embeddings")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("points", help="list the monomial point configuration")
    sp.add_argument("-n", type=_positive, required=True)
    sp.add_argument("-d", type=_positive, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_points)

    sp = subs.add_parser("complex", help="materialize a divisor complex band")
    sp.add_argument("-n", type=_positive, required=True)
    sp.add_argument("-d", type=_positive, required=True)
    sp.add_argument("-b", required=True, help="bound vector, comma-separated")
    sp.add_argument("-j", required=True, help="dimension band 'lo,hi'")
    _add_common(sp)
    sp.set_defaults(func=cmd_complex)

    sp = subs.add_parser("betti", help="one reduced homology rank")
    sp.add_argument("-n", type=_positive, required=True)
    sp.add_argument("-d", type=_positive, required=True)
    sp.add_argument("-b", required=True, help="multidegree, comma-separated")
    sp.add_argument("-j", type=_dimension, required=True,
                    help="homological dimension, 0 or more")
    _add_common(sp)
    sp.set_defaults(func=cmd_betti)

    sp = subs.add_parser("check-np", help="linearity verdict for (n, d, p)")
    sp.add_argument("-n", type=_positive, required=True)
    sp.add_argument("-d", type=_positive, required=True)
    sp.add_argument("-p", type=_positive, required=True)
    sp.add_argument("--slack", type=int, default=None,
                    help="extra degrees beyond q+2 to sweep (default: effective n)")
    _add_common(sp, store=True)
    sp.set_defaults(func=cmd_check_np)

    sp = subs.add_parser("koszul", help="graded Tor piece from the contraction complex")
    sp.add_argument("-n", type=_positive, required=True)
    sp.add_argument("-d", type=_positive, required=True)
    sp.add_argument("-p", type=_positive, required=True)
    sp.add_argument("-q", type=_positive, required=True)
    sp.add_argument("-b", default=None, help="optional single weight, comma-separated")
    _add_common(sp)
    sp.set_defaults(func=cmd_koszul)

    sp = subs.add_parser("schur", help="Schur decomposition of a Tor piece")
    sp.add_argument("-p", type=_positive, required=True)
    sp.add_argument("-q", type=_positive, required=True)
    sp.add_argument("-d", type=_positive, required=True)
    sp.add_argument("--vdim", type=_positive, required=True,
                    help="dimension of the underlying space (needs vdim >= p+1)")
    _add_common(sp)
    sp.set_defaults(func=cmd_schur)

    sp = subs.add_parser("cross-validate",
                         help="assert the two pipelines agree at degree p+q")
    sp.add_argument("-n", type=_positive, required=True)
    sp.add_argument("-d", type=_positive, required=True)
    sp.add_argument("-p", type=_positive, required=True)
    sp.add_argument("-q", type=_positive, required=True)
    _add_common(sp, store=True)
    sp.set_defaults(func=cmd_cross_validate)

    sp = subs.add_parser("bench", help="run a verdict and report wall time on stderr")
    sp.add_argument("-n", type=_positive, required=True)
    sp.add_argument("-d", type=_positive, required=True)
    sp.add_argument("-p", type=_positive, required=True)
    sp.add_argument("--slack", type=int, default=None)
    _add_common(sp, fmt=False, store=True)
    sp.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MismatchError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
