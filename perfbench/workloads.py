"""The benchmark's three workloads: fixed cases with known answers.

Each workload is built in two steps. `prepare` makes the inputs (and any
store directory) before timing starts and returns the operations; `check`
runs after every operation has finished and compares the outputs with
answers obtained without the divisor-complex pipeline: closed formulas
from `reference`, thresholds from the literature, and, for the witnesses,
the Koszul pipeline. No random seed enters any input.

Operations call the package through module attributes (`npchecker.check_np`
and so on) at call time, so the traced run sees them through its wrappers.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Callable

from syzcheck import koszul, npchecker, reptheory

import reference

HOLDS = npchecker.HOLDS
FAILS = npchecker.FAILS

# (n, d, p, status, witness b, witness q): the sharp thresholds of Green
# (1984) and Ottaviani-Paoletti (2001). v_3(P^2) satisfies N_6, not N_7;
# v_2(P^3) satisfies N_5, not N_6; each failure has a single syzygy.
SHARP_CASES = (
    (2, 3, 6, HOLDS, None, None),
    (2, 3, 7, FAILS, (9, 9, 9), 7),
    (3, 2, 5, HOLDS, None, None),
    (3, 2, 6, FAILS, (4, 4, 4, 4), 6),
)

# the paper's theorem: v_3(P^4) satisfies N_4, swept over degrees q+2..q+3,
# which reach q + regularity = q + 3 exactly
PAPER_QUERY = dict(n=4, d=3, p=4, slack=1)
PAPER_WINDOWS = {2: (4, 5), 3: (5, 6), 4: (6, 7)}

# the linear strand of each embedding, up to a p past its end
ORACLE_STRANDS = ((2, 3, 8), (3, 2, 7))
# the pieces (n, d, p, q) that hold each single nonlinear syzygy
ORACLE_FAILURE_PIECES = ((2, 3, 7, 2), (3, 2, 6, 2))
# (p, q, d, vdim): two nonlinear pieces that vanish by Green's N_d theorem
# (v_3(P^3) satisfies N_3, v_2(P^4) satisfies N_5), two linear ones
ORACLE_SCHUR_CASES = ((2, 2, 3, 4), (3, 2, 2, 5), (2, 1, 3, 4), (3, 1, 2, 4))


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]


def _without_job_counts(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k not in ("jobs_total", "jobs_reused")}


class NpPaper:
    """One verdict, many fat complexes: slice build and the cascade."""

    name = "np-paper"

    def prepare(self, tmp: str) -> list[Op]:
        query = npchecker.NpQuery(**PAPER_QUERY)
        return [Op("check_np(4,3,4,slack=1)", lambda: npchecker.check_np(query))]

    def check(self, outputs: list) -> list[str | None]:
        (v,) = outputs
        n, d = PAPER_QUERY["n"], PAPER_QUERY["d"]
        jobs = sum(reference.partition_count(deg * d, n + 1)
                   for degs in PAPER_WINDOWS.values() for deg in degs)
        reg = reference.regularity(n, d)
        if v.status != HOLDS:
            return [f"status {v.status}, the paper proves N_4"]
        if v.checked_degrees != PAPER_WINDOWS:
            return [f"windows {v.checked_degrees}, expected {PAPER_WINDOWS}"]
        if v.jobs_total != jobs or v.jobs_reused != 0:
            return [f"{v.jobs_total} jobs ({v.jobs_reused} reused), expected {jobs} partitions"]
        above = [(q, deg) for q, degs in v.checked_degrees.items() for deg in degs
                 if deg > q + reg]
        if above:
            return [f"windows reach past q + reg at {above}"]
        return [None]


class NpSharp:
    """Four verdicts at the known thresholds, each cold then warm on one store:
    many small jobs, the witness search, exact confirmation, store I/O."""

    name = "np-sharp"

    def prepare(self, tmp: str) -> list[Op]:
        ops = []
        for n, d, p, *_ in SHARP_CASES:
            store = tempfile.mkdtemp(prefix=f"store-{n}{d}{p}-", dir=tmp)
            query = npchecker.NpQuery(n=n, d=d, p=p, store_path=store)
            run = lambda q=query: npchecker.check_np(q)  # noqa: E731
            ops.append(Op(f"check_np({n},{d},{p}) cold", run))
            ops.append(Op(f"check_np({n},{d},{p}) warm", run))
        return ops

    def check(self, outputs: list) -> list[str | None]:
        problems: list[str | None] = []
        for k, (n, d, p, status, b, q) in enumerate(SHARP_CASES):
            cold, warm = outputs[2 * k], outputs[2 * k + 1]
            problems.append(self._check_cold(cold, n, d, status, b, q))
            problems.append(self._check_warm(cold, warm))
        return problems

    @staticmethod
    def _check_cold(v, n: int, d: int, status: str, b, q) -> str | None:
        if v.status != status:
            return f"status {v.status}, literature says {status}"
        if status == HOLDS:
            return None if v.witness is None else "witness on a verdict that holds"
        w = v.witness
        if (w.b.coords, w.q, w.betti.value, w.betti.certified) != (b, q, 1, True):
            return (f"witness b={w.b.coords} q={w.q} value={w.betti.value} "
                    f"certified={w.betti.certified}, expected b={b} q={q} value=1")
        tor = koszul.tor_dimension(q, 2, n, d, weight=b).total_dim
        if tor != w.betti.value:
            return f"witness value {w.betti.value}, Koszul pipeline gives {tor}"
        return None

    @staticmethod
    def _check_warm(cold, warm) -> str | None:
        if warm.jobs_total != 0 or warm.jobs_reused != cold.jobs_total:
            return (f"warm rerun computed {warm.jobs_total} and reused "
                    f"{warm.jobs_reused} of {cold.jobs_total} jobs")
        # the job counters differ by design; every other key must match
        if _without_job_counts(warm.to_json()) != _without_job_counts(cold.to_json()):
            return "warm rerun returned a different verdict document"
        return None


class Oracle:
    """The Koszul pipeline against the divisor complexes, and Schur peeling."""

    name = "oracle"

    def prepare(self, tmp: str) -> list[Op]:
        ops = []
        for n, d, p_max in ORACLE_STRANDS:
            for p in range(1, p_max + 1):
                ops.append(self._cross(n, d, p, 1))
        for piece in ORACLE_FAILURE_PIECES:
            ops.append(self._cross(*piece))
        for case in ORACLE_SCHUR_CASES:
            ops.append(Op(f"tor_schur_decomposition{case}",
                          lambda c=case: reptheory.tor_schur_decomposition(*c)))
        return ops

    @staticmethod
    def _cross(n: int, d: int, p: int, q: int) -> Op:
        return Op(f"cross_validate({n},{d},{p},{q})",
                  lambda: npchecker.cross_validate(n, d, p, q))

    def check(self, outputs: list) -> list[str | None]:
        cross = [o for o in outputs if isinstance(o, npchecker.CrossValidationReport)]
        problems: list[str | None] = []
        for r in cross:
            expected = reference.composition_count((r.p + r.q) * r.d, r.n + 1)
            if r.mismatches:
                problems.append(f"{r.mismatches} mismatches")
            elif r.compared != expected:
                problems.append(f"compared {r.compared} weights, expected {expected}")
            else:
                problems.append(None)
        # Euler sums: every piece of each degree was computed, so the
        # alternating sum of the totals must match the Hilbert function;
        # a wrong degree fails every operation that contributed to it
        for n, d, _ in ORACLE_STRANDS:
            mine = [i for i, r in enumerate(cross) if (r.n, r.d) == (n, d)]
            for k in sorted({cross[i].p + cross[i].q for i in mine}):
                at_k = [i for i in mine if cross[i].p + cross[i].q == k]
                got = sum((-1) ** cross[i].p * sum(pr.tor for pr in cross[i].pairs)
                          for i in at_k)
                want = reference.betti_euler(n, d, k)
                if got != want:
                    for i in at_k:
                        problems[i] = problems[i] or f"degree {k}: Euler sum {got}, expected {want}"
        for (p, q, d, vdim), dec in zip(ORACLE_SCHUR_CASES, outputs[len(cross):]):
            total = sum(m * reference.schur_dimension(lam.parts, vdim)
                        for lam, m in dec.terms.items())
            want = reference.linear_strand(vdim - 1, d, p) if q == 1 else 0
            problems.append(None if total == want else
                            f"Schur terms add to dimension {total}, expected {want}")
        return problems


WORKLOADS = {w.name: w for w in (NpPaper(), NpSharp(), Oracle())}
