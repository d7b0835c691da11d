"""Spans around the package's module boundaries, recorded from outside.

`Tracer.install` replaces functions where their callers look them up (the
package imports most of them by name, so `syzcheck.npchecker.build_slice`
is patched, not `syzcheck.complexes.build_slice`). Each wrapped call
records a span with its parent, start and end; counts are read from the
arguments and results that cross the call. Spans stay in memory; `dump`
writes them out once the round is over, and `layer_metrics` folds them
into the per-layer figures. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from syzcheck import homology, koszul, npchecker, reptheory

import reference


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "child", "args", "attrs")

    def __init__(self, sid: int, name: str, parent: Span | None, args):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.args = args
        self.child = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, name: str, fn, count=None, before=None):
        """fn with a span per call. before(args) runs ahead of the timed
        call; count(span, args, kwargs, result, before_value) runs after it."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args) if before else None
            parent = stack[-1] if stack else None
            span = Span(len(spans), name, parent, args)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                spans.append(span)
            if count:
                count(span, args, kwargs, result, pre)
            span.args = None  # a slice argument would otherwise outlive the call
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None, before=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count, before))

    def install(self) -> None:
        # the benchmark's own entry points: the roots of every span tree
        self.patch(npchecker, "check_np", "npchecker.check_np", _count_verdict)
        self.patch(npchecker, "cross_validate", "npchecker.cross_validate")
        self.patch(reptheory, "tor_schur_decomposition", "reptheory.tor_schur_decomposition")
        # the layers, where the package calls them
        self.patch(npchecker, "enumerate_multidegrees", "lattice.enumerate_multidegrees")
        self.patch(npchecker, "build_slice", "complexes.build_slice", _count_slice)
        self.patch(npchecker, "reduced_betti", "homology.reduced_betti", _count_band)
        self.patch(homology, "rank_mod_p", "homology.rank_mod_p", _count_matrix)
        self.patch(homology, "rank_exact", "homology.rank_exact")
        self.patch(npchecker, "tor_dimension", "koszul.tor_dimension")
        self.patch(reptheory, "tor_dimension", "koszul.tor_dimension")
        self.patch(koszul, "koszul_map", "koszul.koszul_map", _count_map)
        self.patch(koszul, "rank_mod_p", "koszul.rank_mod_p")
        self.patch(koszul, "rank_exact", "koszul.rank_exact")
        self.patch(reptheory, "schur_decompose", "reptheory.schur_decompose")
        store = npchecker.ResultsStore
        self.patch(store, "get", "npchecker.store.get")
        self.patch(store, "put", "npchecker.store.put", _count_put, _betti_file_size)
        self.patch(store, "write_verdict", "npchecker.store.write_verdict", _count_file)
        self.patch(store, "write_betti_csv", "npchecker.store.write_betti_csv", _count_file)


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds a span adds to one call, measured on a function that does
    nothing. Times the number of spans, this is the tracing overhead free
    of the run-to-run drift that the traced-minus-untraced difference
    carries."""
    def bare():
        return None

    traced = Tracer().wrap("calibration", bare)
    t0 = time.perf_counter()
    for _ in range(calls):
        bare()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls


def dump(spans: list[Span], path: Path) -> None:
    """One JSON line per span."""
    with path.open("w") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s.sid, "parent": s.parent.sid if s.parent else None,
                "name": s.name, "start": s.start, "end": s.end,
                "self": s.self_time, "attrs": s.attrs}) + "\n")


def _count_verdict(span, args, kwargs, verdict, _):
    span.attrs.update(jobs=verdict.jobs_total, jobs_reused=verdict.jobs_reused)


def _count_slice(span, args, kwargs, slc, _):
    config, coords, _, j_hi = args[:4]
    span.attrs.update(
        faces=sum(slc.face_count(t) for t in range(slc.j_lo, slc.j_hi + 1)),
        degree=sum(coords) // config.d, q=j_hi,
        reg=reference.regularity(config.n, config.d))


def _count_band(span, args, kwargs, _bn, _):
    slc, j = args[:2]
    span.attrs["band_faces"] = sum(slc.face_count(t) for t in (j - 1, j, j + 1))


def _count_matrix(span, args, kwargs, _res, _):
    m = args[0]
    threshold = kwargs.get("dense_threshold", homology.DENSE_THRESHOLD)
    span.attrs.update(rows=m.rows, cols=m.cols, nnz=m.nnz,
                      sparse=m.nnz > 0 and max(m.rows, m.cols) > threshold)


def _count_map(span, args, kwargs, m, _):
    span.attrs["nnz"] = m.nnz
    parent = span.parent
    # tor_dimension ranks a weight with the map (p, q) out of the middle
    # term and the map (p+1, q-1) into it; count the weight once
    if parent is not None and parent.name == "koszul.tor_dimension" \
            and tuple(args[:4]) == tuple(parent.args[:4]):
        weight = args[4] if len(args) > 4 else kwargs.get("weight")
        span.attrs["piece"] = list(args[:4])
        span.attrs["weight"] = list(weight) if weight is not None else None


def _betti_file_size(args) -> int:
    store, n, d = args[:3]
    path = store._betti_file(n, d)
    return path.stat().st_size if path.exists() else 0


def _count_put(span, args, kwargs, _, size_before):
    span.attrs["bytes"] = _betti_file_size(args) - size_before


def _count_file(span, args, kwargs, path, _):
    span.attrs["bytes"] = Path(path).stat().st_size


# per-layer metrics in reporting order, with units
LAYER_UNITS = {
    "lattice.enumerate_s": "s",
    "complexes.build_slice_s": "s",
    "complexes.slices": "count",
    "complexes.faces": "count",
    "homology.reduce_s": "s",
    "homology.residual_share": "ratio",
    "homology.rank_mod_p_s": "s",
    "homology.rank_mod_p_calls": "count",
    "homology.rank_nonempty_calls": "count",
    "homology.sparse_rank_calls": "count",
    "homology.rank_exact_s": "s",
    "homology.rank_exact_calls": "count",
    "npchecker.self_s": "s",
    "npchecker.jobs": "count",
    "npchecker.jobs_reused": "count",
    "npchecker.jobs_above_reg": "count",
    "npchecker.store_s": "s",
    "npchecker.store_bytes": "bytes",
    "koszul.map_s": "s",
    "koszul.maps": "count",
    "koszul.map_nnz": "count",
    "koszul.rank_mod_p_s": "s",
    "koszul.rank_exact_s": "s",
    "koszul.rank_exact_calls": "count",
    "koszul.weights": "count",
    "koszul.orbit_share": "ratio",
    "reptheory.decompose_s": "s",
    "trace.spans": "count",
    "trace.span_cost_s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, dict]:
    """Every metric of LAYER_UNITS as {"value", "unit"}."""
    values = _layer_values(spans)
    values["trace.span_cost_s"] = wrapper_cost() * len(spans)
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}


def _layer_values(spans: list[Span]) -> dict[str, float]:
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name: str, key: str | None = None) -> float:
        if key is None:
            return sum(s.duration for s in by_name[name])
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    # residual faces: rows and columns of the lower matrix plus the columns
    # of the upper one, from the two modular ranks under each band
    residual = defaultdict(list)
    for s in by_name["homology.rank_mod_p"]:
        if s.parent is not None and s.parent.name == "homology.reduced_betti":
            residual[s.parent.sid].append(s)
    left = sum(pair[0].attrs["rows"] + pair[0].attrs["cols"] + pair[1].attrs["cols"]
               for pair in residual.values() if len(pair) == 2)
    built = total("homology.reduced_betti", "band_faces")

    pieces = [(tuple(s.attrs["piece"]), tuple(sorted(s.attrs["weight"])))
              for s in by_name["koszul.koszul_map"] if s.attrs.get("weight")]
    ranks = by_name["homology.rank_mod_p"]
    job_slices = [s for s in by_name["complexes.build_slice"]
                  if s.parent is not None and s.parent.name == "npchecker.check_np"]
    return {
        "lattice.enumerate_s": total("lattice.enumerate_multidegrees"),
        "complexes.build_slice_s": total("complexes.build_slice"),
        "complexes.slices": len(by_name["complexes.build_slice"]),
        "complexes.faces": total("complexes.build_slice", "faces"),
        "homology.reduce_s": sum(s.self_time for s in by_name["homology.reduced_betti"]),
        "homology.residual_share": left / built if built else 0.0,
        "homology.rank_mod_p_s": total("homology.rank_mod_p"),
        "homology.rank_mod_p_calls": len(ranks),
        "homology.rank_nonempty_calls": sum(1 for s in ranks if s.attrs["nnz"] > 0),
        "homology.sparse_rank_calls": sum(1 for s in ranks if s.attrs["sparse"]),
        "homology.rank_exact_s": total("homology.rank_exact"),
        "homology.rank_exact_calls": len(by_name["homology.rank_exact"]),
        "npchecker.self_s": sum(s.self_time for name in
                                ("npchecker.check_np", "npchecker.cross_validate")
                                for s in by_name[name]),
        "npchecker.jobs": total("npchecker.check_np", "jobs"),
        "npchecker.jobs_reused": total("npchecker.check_np", "jobs_reused"),
        "npchecker.jobs_above_reg": sum(1 for s in job_slices
                                        if s.attrs["degree"] > s.attrs["q"] + s.attrs["reg"]),
        "npchecker.store_s": sum(s.duration for name, group in by_name.items()
                                 if name.startswith("npchecker.store.") for s in group),
        "npchecker.store_bytes": sum(s.attrs.get("bytes", 0) for name, group in by_name.items()
                                     if name.startswith("npchecker.store.") for s in group),
        "koszul.map_s": total("koszul.koszul_map"),
        "koszul.maps": len(by_name["koszul.koszul_map"]),
        "koszul.map_nnz": total("koszul.koszul_map", "nnz"),
        "koszul.rank_mod_p_s": total("koszul.rank_mod_p"),
        "koszul.rank_exact_s": total("koszul.rank_exact"),
        "koszul.rank_exact_calls": len(by_name["koszul.rank_exact"]),
        "koszul.weights": len(pieces),
        "koszul.orbit_share": len(set(pieces)) / len(pieces) if pieces else 0.0,
        "reptheory.decompose_s": sum(s.self_time for name in
                                     ("reptheory.tor_schur_decomposition",
                                      "reptheory.schur_decompose")
                                     for s in by_name[name]),
        "trace.spans": len(spans),
    }
