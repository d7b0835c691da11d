"""Orchestrates the syzygy-linearity verdict for a Veronese configuration.

The criterion: the embedding satisfies the linearity property at level p
exactly when the reduced homology H~_{q-1} of the divisor complex vanishes
for every q <= p and every multidegree b of lattice degree at least q + 2.
Infinitely many degrees qualify, so the checker sweeps a configurable
finite window, degrees q + 2 up to q + 2 + slack, and reports
holds_up_to_bound, never an unconditional theorem. A single certified
nonzero homology rank is already a complete disproof, reported as fails
with the witness.

Work is organised as one job per coordinate-permutation orbit of bound
vectors: permuting the coordinates of b permutes the points of the
configuration, so the divisor complexes of an orbit are isomorphic. The
jobs of one (q, degree) block, for check_np and for cross_validate alike,
run through one block runner, `_betti_block`, which decides the block at
n' = min(n, q) when its shortcuts are on, as check_np has them, and at
n' = n otherwise, so that cross_validate computes every block at its own
n and stays a comparison of two pipelines. Tor_q in one lattice degree is
a GL(V)-module whose Young diagrams have at most q + 1 rows and do not
depend on V (the row bound of "A result on resolutions of Veronese
embeddings", arXiv math/0309102; see PAPER.md), so a block is zero at n
exactly when it is zero at n'. With the shortcuts, the regularity comes
first: the Veronese ring is Cohen-Macaulay with a-invariant
-ceil((n + 1) / d) (Goto-Watanabe, On graded rings I, 1978), so its
Castelnuovo-Mumford regularity is reg(n, d) = n + 1 - ceil((n + 1) / d)
(Bruns-Herzog, Cohen-Macaulay Rings), Tor_q lives in degrees
q + 1 .. q + reg, and a block above q + reg(n', d) is a certified zero
with no job and no vertex test. Below that, the block's balanced weight
over veronese_points(n', d), degree * d split into n' + 1 parts that
differ by at most 1, decides it, vertex test first, then one job. Tor_q
in that degree is a GL(V)-module, so beta_{q,b} = sum over lambda of
c_lambda K_{lambda,b}, with c_lambda the multiplicity of the Schur module
of shape lambda, and the Kostka number K_{lambda,b} is positive exactly
when lambda dominates sort(b) (Macdonald, Symmetric Functions and Hall
Polynomials, ch. I). Every partition with at most n' + 1 parts dominates
the balanced weight, so the block vanishes exactly when beta does there,
and a zero there certifies every job of the block without building
another face; a balanced weight over capacity ends its block before any
other job runs. A nonzero there sends the block to the loop over its
representatives at n. The n' value is not stored: the store stays keyed
by n. In a nonzero block, jobs coned by a vertex are zeros read off the
point coordinates by one array pass (`vertex_cone_mask`), and never reach
build_slice. Every other job (`_betti_job`) builds its slice and goes
through `reduced_betti`: an element matching certifies nearly all of the
remaining zeros, and the cascade and rank decide the rest, every nonzero
included. Every job runs inline, so the witness is the first nonzero in
the deterministic search order (q ascending, degree ascending, canonical
representative order).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

from .complexes import build_slice, vertex_cone_mask
from .errors import CapacityError, MismatchError
from .homology import DEFAULT_PRIME, BettiNumber, reduced_betti
from .koszul import tor_dimension
from .lattice import (
    Multidegree,
    PointConfig,
    Vector,
    balanced_weight,
    check_weight,
    enumerate_multidegrees,
    orbit_count_floor,
    orbit_expansion,
    veronese_points,
)

HOLDS = "holds_up_to_bound"
FAILS = "fails"

# check_np refuses a window that certainly holds more orbit representatives
# than this, summed over its blocks
WINDOW_ORBIT_GUARD = 10**6


def regularity(n: int, d: int) -> int:
    """The Castelnuovo-Mumford regularity n + 1 - ceil((n + 1) / d) of the
    coordinate ring of the degree-d Veronese embedding of P^n: Tor_q lives
    in degrees q + 1 .. q + regularity(n, d) (see the module docstring)."""
    return n + 1 - -(-(n + 1) // d)


@dataclass(frozen=True)
class NpQuery:
    """One verdict request. slack defaults to the ambient dimension n. Each
    q in 2 .. p is checked at the degrees q + 2 .. q + 2 + slack, one job
    per coordinate-permutation orbit of multidegrees."""

    n: int
    d: int
    p: int
    slack: int | None = None
    store_path: str | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1 or self.p < 1:
            raise ValueError("n, d, p must be positive")
        if self.slack is not None and self.slack < 0:
            raise ValueError("slack must be >= 0")


@dataclass(frozen=True)
class Witness:
    b: Multidegree
    q: int
    betti: BettiNumber


@dataclass(eq=False)
class NpVerdict:
    status: str
    witness: Witness | None
    checked_degrees: dict[int, tuple[int, ...]]
    query: NpQuery
    jobs_total: int
    jobs_reused: int

    def to_json(self) -> dict:
        # no timings: serialized verdicts must be identical across reruns
        # with the same flags. effective_n, degree_bound_mode, field_strategy
        # and prime are constants, kept so that the document's bytes stay
        # the same.
        doc = {
            "status": self.status,
            "n": self.query.n,
            "d": self.query.d,
            "p": self.query.p,
            "effective_n": self.query.n,
            "slack": _effective_slack(self.query),
            "degree_bound_mode": "per_q",
            "field_strategy": "modular_first",
            "prime": DEFAULT_PRIME,
            "checked_degrees": {str(q): list(ds) for q, ds in sorted(self.checked_degrees.items())},
            "jobs_total": self.jobs_total,
            "jobs_reused": self.jobs_reused,
            "witness": None,
        }
        if self.witness is not None:
            doc["witness"] = {
                "b": list(self.witness.b.coords),
                "degree": self.witness.b.total_degree,
                "q": self.witness.q,
                "homological_dim": self.witness.betti.j,
                "value": self.witness.betti.value,
                "certified": self.witness.betti.certified,
            }
        return doc

    def text(self) -> str:
        q = self.query
        head = (f"linearity property at level p={q.p} for the degree-{q.d} "
                f"embedding of projective {q.n}-space")
        if self.status == FAILS:
            w = self.witness
            return (f"{head}: FAILS. Certified witness: homology rank "
                    f"{w.betti.value} in dimension {w.betti.j} at "
                    f"b={w.b.coords} (lattice degree {w.b.total_degree}, q={w.q}).")
        ranges = "; ".join(f"q={qq}: degrees {list(ds)}" for qq, ds in
                           sorted(self.checked_degrees.items()))
        return (f"{head}: holds up to the checked degree bound. No obstruction "
                f"in the finite window ({ranges or 'no q in range'}); degrees "
                f"beyond the window are not covered by this computation.")


def _effective_slack(query: NpQuery) -> int:
    return query.slack if query.slack is not None else query.n


def _query_hash(query: NpQuery) -> str:
    payload = {
        "n": query.n, "d": query.d, "p": query.p, "slack": query.slack,
        # retired options, pinned so that store file names do not move;
        # "modular_first" too, though every rank is now exact
        "q_max": None,
        "degree_bound_mode": "per_q", "explicit_degrees": [],
        "field_strategy": "modular_first", "prime": DEFAULT_PRIME,
        "use_reduction": False, "use_symmetry": True,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _is_record(rec) -> bool:
    """Whether a parsed store line has the fields that put writes, in JSON's exact types."""
    return (type(rec) is dict and type(rec.get("b")) is list
            and all(type(x) is int for x in rec["b"]) and type(rec.get("j")) is int
            and type(rec.get("value")) is int and type(rec.get("certified")) is bool)


# a comma after a closing brace inside one line: the line may hold two
# records, which one parse of all lines as a JSON array would not notice
_COMMA_AFTER_OBJECT = re.compile(rb"}\s*,")


def _parse_records(path: Path, whole: bytes) -> list[dict]:
    """The records of the whole lines of a store file, blank lines skipped,
    parsed as one JSON array. When that array is not one store record per
    line, the lines are parsed one by one to name the first that is not
    JSON or not a store record."""
    lines = whole.split(b"\n")
    kept = [line for line in lines if line.strip()]
    if not _COMMA_AFTER_OBJECT.search(whole):
        try:
            recs = json.loads(b"[" + b",".join(kept) + b"]")
        except ValueError:
            recs = None
        if recs is not None and len(recs) == len(kept) and all(map(_is_record, recs)):
            return recs
    recs = []
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                rec = json.loads(line)
            except ValueError:
                raise ValueError(f"{path} line {number} is not JSON") from None
            if not _is_record(rec):
                raise ValueError(f"{path} line {number} is not a store record")
            recs.append(rec)
    return recs


class ResultsStore:
    """Append-only directory store. Homology values live in one JSON-lines
    file per configuration so distinct queries over the same points share
    work; verdicts are single JSON files keyed by the query content hash.
    Only certified entries are ever reused; get and put take a whole block.
    Each values file is parsed in one pass, all its whole lines as one JSON
    array, the first time a query touches it."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._index: dict[tuple[int, int], dict[tuple[Vector, int], int]] = {}

    def _betti_file(self, n: int, d: int) -> Path:
        return self.root / f"betti-n{n}-d{d}.jsonl"

    def _load(self, n: int, d: int) -> dict[tuple[Vector, int], int]:
        """The certified values of the file of (n, d), read once. A record is
        whole only with its newline, so only the bytes after the last newline
        can be a torn write: they are skipped and cut off, so that the next
        record starts on a fresh line, unless another writer appended since.
        Every line before them is whole; one that is not a store record raises."""
        key = (n, d)
        if key not in self._index:
            path = self._betti_file(n, d)
            data = path.read_bytes() if path.exists() else b""
            whole = data[:data.rfind(b"\n") + 1]
            idx = {(tuple(rec["b"]), rec["j"]): rec["value"]
                   for rec in _parse_records(path, whole) if rec["certified"]}
            if data[len(whole):].strip():
                with path.open("r+b") as fh:
                    if fh.seek(0, os.SEEK_END) == len(data):
                        fh.truncate(len(whole))
            self._index[key] = idx
        return self._index[key]

    def get(self, n: int, d: int, j: int, reps: list[Vector]) -> dict[Vector, int]:
        idx = self._load(n, d)
        return {coords: idx[coords, j] for coords in reps if (coords, j) in idx}

    def put(self, n: int, d: int, j: int, values: dict[Vector, int]) -> None:
        """Append the values in dimension j of keys not yet stored, in one
        write. Each record line has the bytes of json.dumps(record,
        sort_keys=True), formatted here without building the record."""
        idx = self._load(n, d)
        recs = []
        for coords, value in values.items():
            if (coords, j) not in idx:
                idx[coords, j] = value
                recs.append(f'{{"b": [{", ".join(map(str, coords))}], "certified": true, '
                            f'"j": {j}, "value": {value}}}\n')
        if recs:
            with self._betti_file(n, d).open("a") as fh:
                fh.write("".join(recs))

    def _write_atomically(self, name: str, text: str) -> Path:
        """Write text to a temporary file in the store, then rename it over
        root/name: readers see the old file or the new one, never a torn
        one, and a failed write leaves no temporary file behind."""
        path = self.root / name
        tmp = self.root / f".{name}.{os.getpid()}-{os.urandom(6).hex()}.tmp"
        fh = tmp.open("x")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    def write_verdict(self, query_hash: str, doc: dict) -> Path:
        return self._write_atomically(f"verdict-{query_hash}.json",
                                      json.dumps(doc, sort_keys=True, indent=2) + "\n")

    def write_betti_csv(self, query_hash: str,
                        rows: list[tuple[Vector, int, int]]) -> Path:
        return self._write_atomically(f"betti-{query_hash}.csv",
                                      "\n".join(betti_csv_lines(rows)) + "\n")


def betti_csv_lines(rows: list[tuple[Vector, int, int]]) -> list[str]:
    """The Betti CSV of the store and of `betti --format csv`: a header,
    then one row per (b, j, value), b space-joined. Every value is certified."""
    return ["b,j,value,certified"] + [
        f"{' '.join(map(str, coords))},{j},{value},true" for coords, j, value in rows]


def _betti_job(coords: Vector, config: PointConfig, q: int) -> int:
    """The reduced homology rank in dimension q - 1 of one orbit
    representative, or of a block's balanced weight at n' = q, that the
    vertex test did not certify: build the banded slice and take homology
    through `reduced_betti`, where an element matching of dims q-2 .. q
    certifies most zeros, and the cascade and one exact rank per residual
    boundary decide the rest. A cone that the vertex test missed comes out
    0 the same way. Every value is certified; a complex over capacity
    raises its CapacityError.

    The band runs from the empty face up to dimension q even though the
    rank formula only needs [q - 2, q]: level enumeration walks up from
    the vertices either way, and the lower levels are small. The matching
    reads dims q-2 .. q only; for the jobs it leaves to the cascade,
    keeping the lower levels lets pair cancellation start at the bottom,
    which on the fat complexes near the degree bound turns minutes of
    sparse elimination into milliseconds.
    """
    # positional, and looked up at call time: the benchmark's tracer
    # wraps these two names in this module and reads their arguments
    slc = build_slice(config, coords, -1, q)
    return reduced_betti(slc, q - 1).value


def _betti_block(config: PointConfig, reps: list[Vector], q: int,
                 store: ResultsStore | None, *,
                 shortcuts: bool = False) -> tuple[list[int], int]:
    """Certified reduced homology ranks in dimension q - 1 of the orbit
    representatives reps, all of one lattice degree, in the order given,
    and how many of them came from the store.

    The block is decided at n' = min(n, q) with shortcuts, else at n' = n,
    in the order that the module docstring argues. With shortcuts, a degree
    above q + regularity(n', d) is zero with no job or vertex test. Past
    that, the balanced weight over veronese_points(n', d) decides first, by
    its vertex test or one `_betti_job`, never from the store, which holds
    a prefix of each block and never its last representative alone: a 0
    makes every representative a certified zero. Otherwise each
    representative, in order, is read from the store, is a zero when the
    vertex test cones it, or runs `_betti_job` once. The new values,
    certified zeros included, go to the store in one put, keyed by n. A job
    over capacity, the balanced weight's too, ends the block, naming its
    multidegree.
    """
    n, d = config.n, config.d
    cached = store.get(n, d, q - 1, reps) if store else {}
    todo = [coords for coords in reps if coords not in cached]
    new: dict[Vector, int] = {}

    def job(coords: Vector, coned: bool, cfg: PointConfig = config) -> int:
        try:
            return 0 if coned else _betti_job(coords, cfg, q)
        except CapacityError as exc:
            raise CapacityError(f"job at b={coords} (q={q}, degree {sum(coords) // d}) "
                                f"exceeded capacity: {exc}") from None

    # Tor_q is zero at n exactly when it is zero at n' = min(n, q)
    decide_at = veronese_points(min(n, q), d) if shortcuts else config
    try:
        if todo and shortcuts and sum(todo[0]) // d > q + regularity(decide_at.n, d):
            new = dict.fromkeys(todo, 0)
        elif todo:
            # a representative only when n' = n
            top = balanced_weight(sum(todo[0]), decide_at.n + 1)
            top_value = job(top, vertex_cone_mask(decide_at, [top], q)[0], decide_at)
            if top_value == 0:
                new = dict.fromkeys(todo, 0)
            else:
                for coords, coned in zip(todo, vertex_cone_mask(config, todo, q)):
                    new[coords] = top_value if coords == top else job(coords, coned)
    finally:
        if store:
            store.put(n, d, q - 1, new)
    values = {**cached, **new}
    return [values[coords] for coords in reps], len(cached)


def _check_window(n: int, d: int, window: dict[int, range]) -> None:
    """CapacityError, before any job runs, when lattice.check_weight refuses
    the top degree of a nonempty window (the degrees window[q] of each q),
    or when its blocks certainly hold more orbit representatives than
    WINDOW_ORBIT_GUARD, read at each call. Degrees are counted from the
    top, where blocks are largest, and counting stops at the guard, so the
    test is cheap however wide the window."""
    if not window:
        return
    top = max(ds.stop for ds in window.values()) - 1
    check_weight(top * d)
    count = 0
    for deg in range(top, min(ds.start for ds in window.values()) - 1, -1):
        blocks = sum(deg in ds for ds in window.values())
        count += blocks * orbit_count_floor(deg * d, n + 1)
        if count > WINDOW_ORBIT_GUARD:
            raise CapacityError(f"window of q = {min(window)} .. {max(window)} up to degree "
                                f"{top} holds more than {WINDOW_ORBIT_GUARD} orbit "
                                f"representatives")


def check_np(query: NpQuery) -> NpVerdict:
    """Sweep the finite degree window and return the first certified
    obstruction, or holds_up_to_bound with the exact ranges checked. Each
    block is decided at n' = min(n, q), through `_betti_block`'s shortcuts:
    above q + regularity(n', d) it is a certified zero that runs no job. A
    window that `_check_window` refuses raises its CapacityError before the
    points are listed or any job runs; so does a block whose balanced
    weight is over capacity."""
    slack = _effective_slack(query)
    window = {q: range(q + 2, q + 3 + slack) for q in range(2, query.p + 1)}
    _check_window(query.n, query.d, window)
    config = veronese_points(query.n, query.d)
    store = ResultsStore(query.store_path) if query.store_path else None

    checked: dict[int, tuple[int, ...]] = {}
    computed_rows: list[tuple[Vector, int, int]] = []
    jobs_total = 0
    jobs_reused = 0
    witness: Witness | None = None

    for q, deg in [(q, deg) for q, degrees in window.items() for deg in degrees]:
        checked.setdefault(q, tuple(window[q]))
        block = enumerate_multidegrees(config, deg)
        values, reused = _betti_block(config, [m.coords for m in block], q, store, shortcuts=True)
        jobs_reused += reused
        jobs_total += len(block) - reused
        for m, value in zip(block, values):
            computed_rows.append((m.coords, q - 1, value))
            if witness is None and value > 0:
                bn = BettiNumber(j=q - 1, value=value, certified=True)
                witness = Witness(b=m, q=q, betti=bn)
        if witness is not None:
            break

    verdict = NpVerdict(status=FAILS if witness else HOLDS, witness=witness,
                        checked_degrees=checked, query=query,
                        jobs_total=jobs_total, jobs_reused=jobs_reused)
    if store:
        h = _query_hash(query)
        store.write_verdict(h, verdict.to_json())
        store.write_betti_csv(h, computed_rows)
    return verdict


@dataclass(frozen=True)
class CrossPair:
    coords: Vector
    tor: int


@dataclass(eq=False)
class CrossValidationReport:
    n: int
    d: int
    p: int
    q: int
    pairs: list[CrossPair]
    # cross_validate raises at the first disagreement, so a report has none
    mismatches = 0

    @property
    def compared(self) -> int:
        return len(self.pairs)

    @property
    def matches(self) -> int:
        return len(self.matched_pairs())

    def matched_pairs(self) -> list[tuple[Vector, int]]:
        return [(pr.coords, pr.tor) for pr in self.pairs if pr.tor > 0]

    def to_json(self) -> dict:
        # "betti" repeats the agreed value, so that the document's bytes stay
        return {
            "n": self.n, "d": self.d, "p": self.p, "q": self.q,
            "compared": self.compared, "matches": self.matches,
            "mismatches": self.mismatches,
            "pairs": [{"b": list(pr.coords), "tor": pr.tor, "betti": pr.tor}
                      for pr in self.pairs],
        }


def cross_validate(n: int, d: int, p: int, q: int, *,
                   store_path: str | None = None) -> CrossValidationReport:
    """Compare the two pipelines on every multidegree of lattice degree
    p + q: the graded Tor dimension from the explicit contraction complex
    against the divisor-complex homology in dimension p - 1. One rank pair
    is computed per coordinate-permutation orbit and reported for every
    member of the orbit. The homology side is one `_betti_block`, the block
    runner of check_np without its shortcuts; any disagreement raises,
    naming the first disagreeing multidegree. A block that `_check_window` finds too large
    raises its CapacityError before the points are listed or any job runs."""
    if p < 1 or q < 1:
        raise ValueError("need p >= 1 and q >= 1")
    if n < 1 or d < 1:  # veronese_points' check, run ahead of the window guard
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    _check_window(n, d, {p: range(p + q, p + q + 1)})
    config = veronese_points(n, d)
    store = ResultsStore(store_path) if store_path else None
    pairs: list[CrossPair] = []
    reps = [m.coords for m in enumerate_multidegrees(config, p + q)]
    bettis, _ = _betti_block(config, reps, p, store)
    for coords, betti in zip(reps, bettis):
        tor = tor_dimension(p, q, n, d, weight=coords).total_dim
        if tor != betti:
            raise MismatchError(
                f"pipelines disagree at b={coords}: tor={tor}, homology={betti}")
        for member in orbit_expansion(coords):
            pairs.append(CrossPair(coords=member, tor=tor))
    return CrossValidationReport(n=n, d=d, p=p, q=q, pairs=pairs)
