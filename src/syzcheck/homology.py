"""Exact reduced homology ranks for divisor complex slices.

Pipeline, certificates in order: a dimension j with no face has zero
homology with no linear algebra. Otherwise an element matching of the
cells of dimensions j-1, j and j+1 (`_element_matching`) certifies a zero
when it leaves no critical j-cell. Otherwise a unit-pivot cancellation
cascade shrinks the chain complex with no arithmetic, then the residual
boundary ranks are computed modulo a prime, with exact rational
confirmation for any nonzero answer. Both ranks run one sparse elimination
loop (`_eliminate`, structured Gaussian elimination after LaMacchia and
Odlyzko, 1991): over F_p every entry is a pivot candidate; over Z only
+-1 entries are, and fraction-free (Bareiss) elimination ranks whatever is
left without a unit pivot. Coned slices take the same path:
callers certify most of them before any face is built
(`complexes.vertex_cone_mask`), and the later certificates take the rest.

The element matching walks the local vertices in index order and, at
vertex v, pairs every unmatched face G containing v with G - v when that
facet is unmatched too. A sequence of such element matchings is acyclic
(Jonsson, Simplicial Complexes of Graphs, LNM 1928, 2008) with incidence
coefficients +-1, so by algebraic Morse theory (Skoldberg, Trans. AMS
2006) the band, a based chain complex whose middle homology is H~_j, has
H~_j = 0 over Z when no j-cell stays critical. It serves both field
strategies. Nonzero values, and with them witnesses, come only from the
cascade and rank.

The cascade removes pairs (g, f) with g a facet of f whenever either g has
exactly one living coface (free-face collapse) or f has exactly one living
facet (single-facet cancellation). Eliminating such a unit pivot never fills
in: the only fill of pivot elimination lands on columns sharing the pivot
row, and both rule types make that correction vanish, so the reduced
differential is the plain submatrix and homology of the band is unchanged.

Certification: a rank modulo p never exceeds the rational rank, so a Betti
number that comes out zero modulo p is zero over Q; nonzero values are only
reported certified after exact rational confirmation of both ranks. The
Koszul pipeline certifies its homology through the same `middle_homology`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .complexes import BoundaryMatrix, ComplexSlice, masked_boundary
from .errors import CapacityError
from .lattice import Multidegree

# fixed default prime (30 bits) for reproducible runs
DEFAULT_PRIME = 1_073_741_789
# retired: no rank path depends on matrix size any more; kept because the
# benchmark's tracer reads it to count "sparse" rank calls
DENSE_THRESHOLD = 512
# refuse exact rational elimination when the residual left by the unit
# pivots has more cells (rows x cols) than this: Bareiss works on it as a
# dense list of Python ints, the only dense allocation of either rank
EXACT_CELL_CAP = 10**7


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin with bases 2, 7 and 61, exact for every
    m < 4,759,123,141 (Jaeschke 1993), which covers the primes below 2**31
    that check_prime admits."""
    if m < 2:
        return False
    for b in (2, 7, 61):
        if m % b == 0:
            return m == b
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in (2, 7, 61):
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    """p if it is an odd prime below 2**31, else ValueError. The range test
    runs first, since is_prime is exact only below 4.76e9."""
    if p >= 2**31:
        raise ValueError("primes above 31 bits are out of range: the primality "
                         "test is exact only below 4.76e9")
    if p <= 2:
        raise ValueError(f"modulus {p} must be an odd prime")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


@dataclass(frozen=True)
class RankResult:
    """Rank of one sparse matrix and how it was obtained."""

    rank: int
    method: str  # "modular" or "exact_rational"
    prime: int | None
    certified_over_Q: bool


@dataclass(frozen=True)
class BettiNumber:
    """One reduced homology rank of a divisor complex."""

    j: int
    value: int
    multidegree: Multidegree
    certified: bool


def _sparse_rows(bm: BoundaryMatrix, reduce) -> tuple[dict[int, dict[int, int]],
                                                     dict[int, set[int]]]:
    """The rows of bm as {col: value} dicts and the set of rows holding each
    column. Duplicate triplets are summed, as a dense += would, then reduce
    maps each sum to the entry kept; entries it maps to zero are dropped."""
    sums: dict[int, dict[int, int]] = {}
    for r, c, v in zip(bm.row_idx.tolist(), bm.col_idx.tolist(), bm.values.tolist()):
        row = sums.setdefault(r, {})
        row[c] = row.get(c, 0) + v
    rows_d: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for r, row in sums.items():
        kept = {c: rv for c, v in row.items() if (rv := reduce(v))}
        if kept:
            rows_d[r] = kept
            for c in kept:
                col_rows.setdefault(c, set()).add(r)
    return rows_d, col_rows


def _dense_rows(rows_d: dict[int, dict[int, int]],
                col_rows: dict[int, set[int]]) -> list[list[int]]:
    """The living rows as dense lists over the living columns, both in
    index order."""
    col_pos = {c: i for i, c in enumerate(sorted(col_rows))}
    dense = []
    for r in sorted(rows_d):
        row = [0] * len(col_pos)
        for c, v in rows_d[r].items():
            row[col_pos[c]] = v
        dense.append(row)
    return dense


def _eliminate(rows_d: dict[int, dict[int, int]], col_rows: dict[int, set[int]],
               inverse, reduce) -> int:
    """Structured Gaussian elimination in place on the rows of _sparse_rows;
    returns the number of pivots. Each step takes the living column with
    the fewest entries and in it the shortest row whose entry u has an
    inverse(u) other than None, ties on the lowest index; a column with no
    such row is parked until its entry count changes. Clearing entry a
    subtracts reduce(a * inverse(u)) times the pivot row, and reduce maps
    each new entry to the one kept. What is left, all of it in parked
    columns, is the Schur complement of the pivots."""
    # (entry count, column) for every count a column has had; an item whose
    # count is no longer the column's own is stale and skipped
    queue = [(len(held), c) for c, held in col_rows.items()]
    heapq.heapify(queue)

    def recount(k: int) -> None:
        if col_rows[k]:
            heapq.heappush(queue, (len(col_rows[k]), k))
        else:
            del col_rows[k]

    rank = 0
    while queue:
        n, c = heapq.heappop(queue)
        if len(col_rows.get(c, ())) != n:
            continue
        holders = [r for r in col_rows[c] if inverse(rows_d[r][c]) is not None]
        if not holders:
            continue
        r = min(holders, key=lambda rr: (len(rows_d[rr]), rr))
        piv_row = rows_d.pop(r)
        inv = inverse(piv_row.pop(c))
        targets = col_rows.pop(c)
        targets.discard(r)
        for k in piv_row:
            col_rows[k].discard(r)
            recount(k)
        for r2 in targets:
            row2 = rows_d[r2]
            f = reduce(row2.pop(c) * inv)
            for k, v in piv_row.items():
                nv = reduce(row2.get(k, 0) - f * v)
                if nv:
                    if k not in row2:
                        col_rows.setdefault(k, set()).add(r2)
                        recount(k)
                    row2[k] = nv
                elif k in row2:
                    del row2[k]
                    col_rows[k].discard(r2)
                    recount(k)
            if not row2:
                del rows_d[r2]
        rank += 1
    return rank


def rank_mod_p(m: BoundaryMatrix, p: int) -> RankResult:
    """Rank of m over the field with p elements by _eliminate. Every nonzero
    entry is invertible, so no column is parked and the pivots come in
    Markowitz order: the sparsest column, then its shortest row, ties on
    the lowest index."""
    check_prime(p)
    reduce = p.__rmod__  # v -> v % p
    rows_d, col_rows = _sparse_rows(m, reduce)
    rank = _eliminate(rows_d, col_rows, lambda u: pow(u, -1, p), reduce)
    return RankResult(rank=rank, method="modular", prime=p, certified_over_Q=False)


def _bareiss_rank(mat: list[list[int]]) -> int:
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    r = 0
    prev = 1
    for c in range(cols):
        if r == rows:
            break
        piv_at = None
        for i in range(r, rows):
            if mat[i][c]:
                piv_at = i
                break
        if piv_at is None:
            continue
        if piv_at != r:
            mat[r], mat[piv_at] = mat[piv_at], mat[r]
        piv = mat[r][c]
        top = mat[r]
        for i in range(r + 1, rows):
            cur = mat[i]
            mic = cur[c]
            # every row below is rescaled; the division by the previous
            # pivot is exact (all intermediates are minors of the input)
            for k in range(c + 1, cols):
                cur[k] = (piv * cur[k] - mic * top[k]) // prev
            cur[c] = 0
        prev = piv
        r += 1
    return r


def rank_exact(m: BoundaryMatrix, *, max_cells: int = EXACT_CELL_CAP) -> RankResult:
    """Rank over Q on exact integers: _eliminate on +-1 pivots (a unit is
    its own inverse, so every entry stays an integer), then fraction-free
    (Bareiss) elimination of the unit-free residual as dense rows. The
    rows x cols cap is tested on that residual before it is made."""
    rows_d, col_rows = _sparse_rows(m, int)  # int keeps each sum as it is
    rank = _eliminate(rows_d, col_rows, {1: 1, -1: -1}.get, int)
    if len(rows_d) * len(col_rows) > max_cells:
        raise CapacityError(f"{len(rows_d)}x{len(col_rows)} residual exceeds the "
                            f"exact-rank cap of {max_cells} cells")
    if rows_d:
        rank += _bareiss_rank(_dense_rows(rows_d, col_rows))
    return RankResult(rank=rank, method="exact_rational", prime=None,
                      certified_over_Q=True)


def _ragged_take(ptr: np.ndarray, idx: np.ndarray,
                 keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather idx[ptr[k]:ptr[k+1]] for each k in keys, with repeats of keys."""
    starts = ptr[keys]
    lens = ptr[keys + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    base = np.repeat(starts, lens)
    shift = np.repeat(np.cumsum(lens) - lens, lens)
    flat = base + (np.arange(total, dtype=np.int64) - shift)
    return idx[flat], np.repeat(keys, lens)


def _claim_pairs(cand: np.ndarray, count: np.ndarray, partner: np.ndarray,
                 alive_own: np.ndarray, alive_other: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Claim in one array pass the pairs an increasing scan of the distinct
    candidates would: a living candidate with count 1 and a living partner,
    the first claimant of a partner winning it. Marks both sides dead and
    returns (claimants, partners); cand may hold repeats."""
    cand = np.sort(cand)
    cand = cand[alive_own[cand] & (count[cand] == 1)]
    other = partner[cand]
    ok = alive_other[other]
    cand, other = cand[ok], other[ok]
    _, first = np.unique(other, return_index=True)
    first.sort()
    cand, other = cand[first], other[first]
    alive_own[cand] = False
    alive_other[other] = False
    return cand, other


def _reduce_band(slice_: ComplexSlice) -> tuple[dict[int, np.ndarray],
                                                dict[int, np.ndarray]]:
    """Run the cancellation cascade over the whole band.

    A round is a down-pass over dimensions upward (a face with one living
    facet claims it) and an up-pass downward (a face with one living coface
    claims it), each dimension one _claim_pairs call. Then the killed faces'
    neighbours update their counts and index sums (a face with count 1 reads
    its partner off the sum). Rounds repeat until one claims nothing.

    Returns (alive flags per dimension, facet-row matrices per dimension).
    The surviving faces carry the same homology as the input in every
    dimension strictly inside the band.
    """
    bot, top = slice_.j_lo, slice_.j_hi
    dims = list(range(bot, top + 1))
    counts = {t: slice_.face_count(t) for t in dims}
    alive = {t: np.ones(counts[t], dtype=bool) for t in dims}
    sub = {t: slice_.subface_rows(t) for t in range(bot + 1, top + 1)}

    dc: dict[int, np.ndarray] = {}
    sm_dn: dict[int, np.ndarray] = {}
    uc: dict[int, np.ndarray] = {}
    sm_up: dict[int, np.ndarray] = {}
    cof_ptr: dict[int, np.ndarray] = {}
    cof_idx: dict[int, np.ndarray] = {}
    for t in range(bot + 1, top + 1):
        w = sub[t].shape[1]
        dc[t] = np.full(counts[t], w, dtype=np.int64)
        sm_dn[t] = sub[t].sum(axis=1) if counts[t] else np.zeros(0, dtype=np.int64)
        flat = sub[t].ravel()
        below = counts[t - 1]
        freq = np.bincount(flat, minlength=below).astype(np.int64)
        uc[t - 1] = freq
        cols = np.repeat(np.arange(counts[t], dtype=np.int64), w)
        acc = np.zeros(below, dtype=np.int64)
        np.add.at(acc, flat, cols)
        sm_up[t - 1] = acc
        # cofaces grouped by facet: sort facet * N + coface (< 2**63 under the cap)
        radix = max(counts[t], 1)
        cof_idx[t - 1] = np.sort(flat * radix + cols) % radix
        ptr = np.zeros(below + 1, dtype=np.int64)
        np.cumsum(freq, out=ptr[1:])
        cof_ptr[t - 1] = ptr

    # each pass takes (and clears) its pending candidates: faces that had
    # count 1 at the start or after the last update
    pend_dc = {t: np.flatnonzero(dc[t] == 1) for t in dc}
    pend_uc = {t: np.flatnonzero(uc[t] == 1) for t in uc}
    # a round: down-pass upward, then up-pass downward, as
    # (pending, counts, partner sums, dimension, partner dimension)
    passes = ([(pend_dc, dc, sm_dn, t, t - 1) for t in range(bot + 1, top + 1)]
              + [(pend_uc, uc, sm_up, t, t + 1) for t in range(top - 1, bot - 1, -1)])
    empty = np.zeros(0, dtype=np.int64)
    while True:
        kills: dict[int, list[np.ndarray]] = {t: [] for t in dims}
        for pend, count, partner, t, u in passes:
            own, other = _claim_pairs(pend.pop(t, empty), count[t], partner[t],
                                      alive[t], alive[u])
            kills[t].append(own)
            kills[u].append(other)
        # faces killed in one round are distinct, so concatenation suffices
        killed_by_dim = {t: np.concatenate(k) for t, k in kills.items() if k}
        if not any(k.size for k in killed_by_dim.values()):
            break
        # update counts and partner sums; the next round's candidates are the
        # neighbours that now have count 1 and are alive, repeats included
        for t, killed in killed_by_dim.items():
            if t in sub:
                gs = sub[t][killed].ravel()
                fs = np.repeat(killed, sub[t].shape[1])
                keep = alive[t - 1][gs]
                gs = gs[keep]
                np.subtract.at(uc[t - 1], gs, 1)
                np.subtract.at(sm_up[t - 1], gs, fs[keep])
                pend_uc[t - 1] = gs[(uc[t - 1][gs] == 1) & alive[t - 1][gs]]
            if t in cof_ptr:
                fs, gs = _ragged_take(cof_ptr[t], cof_idx[t], killed)
                keep = alive[t + 1][fs]
                fs = fs[keep]
                np.subtract.at(dc[t + 1], fs, 1)
                np.subtract.at(sm_dn[t + 1], fs, gs[keep])
                pend_dc[t + 1] = fs[(dc[t + 1][fs] == 1) & alive[t + 1][fs]]
    return alive, sub


def _element_matching(slice_: ComplexSlice, j: int):
    """Pair the cells of dimensions j-1, j and j+1 by the element matchings
    of the module docstring, yielding (t, coface rows in dimension t, facet
    rows in dimension t-1) for t = j+1 and t = j at each local vertex in
    index order. The faces G containing a vertex v have distinct facets
    G - v, all avoiding v, so the pairs of one vertex are disjoint and each
    dimension is one array pass.

    Each dimension's vertex labels are sorted once, in the narrowest dtype
    that holds the vertex count (a stable sort of 16-bit labels is a radix
    sort); only the order is kept, and an entry's face row is its position
    in that order divided by the face width.
    """
    label = np.int16 if slice_.vertex_count < 2**15 - 1 else np.int32
    free = {t: np.ones(slice_.face_count(t), dtype=bool) for t in (j - 1, j, j + 1)}
    passes = []
    for t in (j + 1, j):
        if not free[t].size:
            continue
        labels = slice_.faces(t).ravel().astype(label)
        order = np.argsort(labels, kind="stable")
        order = order.astype(np.int32 if order.size < 2**31 else np.int64)
        ptr = np.searchsorted(labels[order],
                              np.arange(slice_.vertex_count + 1, dtype=label))
        del labels
        passes.append((t, order, ptr, slice_.subface_rows(t).ravel()))
    # the last pass is dimension j, and a vertex in no j-face lies in no
    # (j+1)-face either, so it has nothing to match
    for v in np.flatnonzero(np.diff(passes[-1][2])).tolist() if passes else ():
        for t, order, ptr, facets in passes:
            at = order[ptr[v]:ptr[v + 1]]
            rows = at // (t + 1)
            keep = free[t][rows]
            rows, below = rows[keep], facets[at[keep]]
            keep = free[t - 1][below]
            rows, below = rows[keep], below[keep]
            free[t][rows] = False
            free[t - 1][below] = False
            yield t, rows, below


def _matching_certifies_zero(slice_: ComplexSlice, j: int) -> bool:
    """Whether the element matching leaves no critical j-cell, which proves
    H~_j = 0 over Z. Every prefix of an acyclic matching is acyclic, so the
    matching stops at the first pass that leaves none."""
    left = slice_.face_count(j)
    for _, rows, _ in _element_matching(slice_, j):
        left -= rows.size
        if not left:
            return True
    return False


def middle_homology(out_map: BoundaryMatrix, in_map: BoundaryMatrix, strategy: str,
                    prime: int, rankers=None) -> int:
    """dim ker(out_map) - rank(in_map), certified over Q.

    The certification ladder of both pipelines: under modular_first both
    ranks are taken modulo prime, which certifies a zero (a modular rank
    never exceeds the rational one), and a nonzero value is re-ranked
    exactly; the exact strategy ranks exactly from the start. A negative
    value is a RuntimeError. rankers is the (modular, exact) pair of rank
    functions to call, by default this module's rank_mod_p and rank_exact.
    """
    modular, exact = rankers or (rank_mod_p, rank_exact)

    def value(rank) -> int:
        return out_map.cols - rank(out_map).rank - rank(in_map).rank

    if strategy == "exact":
        val = value(exact)
    else:
        val = value(lambda m: modular(m, prime))
        if val > 0:
            val = value(exact)
    if val < 0:
        raise RuntimeError("negative homology rank")
    return val


def _grade_or_none(slice_: ComplexSlice) -> int | None:
    try:
        return slice_.config.degree_of(slice_.bound)
    except Exception:
        return None


def reduced_betti(slice_: ComplexSlice, j: int, strategy: str = "modular_first", *,
                  prime: int = DEFAULT_PRIME) -> BettiNumber:
    """Rank of the j-th reduced homology of the sliced complex.

    value = (#j-faces) - rank(boundary_j) - rank(boundary_{j+1}); the slice
    band must contain [j-1, j+1]. Certificates in order: no j-face gives 0;
    an element matching of dims j-1 .. j+1 that leaves no critical j-cell
    gives 0 (over Z, so under either strategy); otherwise the residual
    boundaries of the cascade are ranked by `middle_homology`. certified
    is always true on return; an exact rank beyond its cell cap raises
    instead.
    """
    if strategy not in ("modular_first", "exact"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if j - 1 < slice_.j_lo or j + 1 > slice_.j_hi:
        raise ValueError(f"betti at {j} needs dims [{j - 1}, {j + 1}] inside {slice_.dims}")
    md = Multidegree(coords=slice_.bound, total_degree=_grade_or_none(slice_))
    # no j-face, no j-chain: a band far above the top face runs no cascade
    if slice_.face_count(j) == 0 or _matching_certifies_zero(slice_, j):
        return BettiNumber(j=j, value=0, multidegree=md, certified=True)
    alive, sub = _reduce_band(slice_)
    value = middle_homology(masked_boundary(sub[j], alive[j - 1], alive[j]),
                            masked_boundary(sub[j + 1], alive[j], alive[j + 1]),
                            strategy, prime)
    return BettiNumber(j=j, value=value, multidegree=md, certified=True)
