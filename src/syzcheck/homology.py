"""Exact reduced homology ranks for divisor complex slices.

Pipeline, certificates in order: a dimension j with no face has zero
homology with no linear algebra. Otherwise an element matching of the
cells of dimensions j-1, j and j+1 (`_element_matching`) certifies a zero
when it leaves no critical j-cell. Otherwise a unit-pivot cancellation
cascade shrinks the chain complex with no arithmetic, then each residual
boundary is ranked once, exactly (`rank_exact`); the incoming boundary is
ranked only on the rows the outgoing one leaves unpivoted
(`middle_homology`). Every rank runs one sparse elimination loop
(`_eliminate`, structured Gaussian elimination after LaMacchia and
Odlyzko, 1991): the exact rank takes the +-1 entries first, over Z, and
then ranks whatever is left without a unit pivot by rational elimination
in the same sparse rows; over F_p (`rank_mod_p`, which no certificate
calls) every entry is a pivot candidate. Callers certify most coned
slices before any face is built (`complexes.vertex_cone_mask`).

The element matching walks the local vertices by ascending largest
coordinate of their points, ties by index, and, at vertex v, pairs every
unmatched face G containing v with G - v when that facet is unmatched
too. A point with a small largest exponent fits under more slacks, so it
lies in more faces, and starting there leaves fewer critical cells than
index order, which starts at x0^d whenever it is a vertex: its largest
exponent is d, so it tends to lie in the fewest faces. It works on
living cells only: the first vertex pairs the rows that one array test
finds holding it, and the later vertices walk only the entries whose
face and facet were both still unmatched after it. A sequence of
element matchings, in any vertex order, is acyclic
(Jonsson, Simplicial Complexes of Graphs, LNM 1928, 2008) with incidence
coefficients +-1, so by algebraic Morse theory (Skoldberg, Trans. AMS
2006) the band, a based chain complex whose middle homology is H~_j, has
H~_j = 0 over Z when no j-cell stays critical. Nonzero values, and with
them witnesses, come only from the cascade and rank.

The cascade (Kaczynski, Mrozek and Slusarek, Homology computation by
reduction of chain complexes, 1998) has one rule: a face f whose only
living facet is g cancels against it. The entry [g, f] is +-1, and that
pivot fills nothing in: g is the only living row of column f, so the
Schur correction d[c, f] * d[g, f]^-1 * d[g, x] vanishes for every
living row c other than g. The reduced differential is the plain submatrix
on the survivors, and the band's homology is unchanged. Each round
recounts the living facets of living faces only.

Certification: every value the matching does not decide comes from
exact ranks over Q, zeros and nonzeros alike, in the Koszul pipeline too,
which runs the same `middle_homology`. No rank is taken modulo
DEFAULT_PRIME first: the maps of both pipelines are settled almost wholly
by unit pivots, so a modular rank costs about what the exact one does.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .complexes import BoundaryMatrix, ComplexSlice, masked_boundary
from .errors import CapacityError

# the one prime of every modular rank (30 bits): rank_mod_p takes no other
DEFAULT_PRIME = 1_073_741_789
# retired: no rank path depends on matrix size any more; kept because the
# benchmark's tracer reads it to count "sparse" rank calls
DENSE_THRESHOLD = 512
# refuse exact rational elimination when the residual left by the unit
# pivots has more cells (rows x cols) than this: the rational pass can fill
# the residual in, so its size bounds that pass's memory
EXACT_CELL_CAP = 10**7


@dataclass(frozen=True)
class RankResult:
    """The pivot columns of a sparse elimination over F_p (rank_mod_p) or Q
    (rank_exact): the matrix is nonsingular on them and the pivot rows."""

    pivot_cols: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)


@dataclass(frozen=True)
class BettiNumber:
    """One reduced homology rank of a divisor complex; the caller holds the
    slice's bound, its multidegree."""

    j: int
    value: int
    certified: bool


def _sparse_rows(bm: BoundaryMatrix, reduce) -> tuple[dict[int, dict[int, int]],
                                                     dict[int, set[int]]]:
    """The rows of bm as {col: value} dicts and the set of rows holding each
    column. Duplicate triplets are summed, as a dense += would, then one
    pass over the rows maps each sum to the entry reduce keeps, drops the
    entries it maps to zero and indexes the columns of the rest."""
    rows_d: dict[int, dict[int, int]] = {}
    for r, c, v in zip(bm.row_idx.tolist(), bm.col_idx.tolist(), bm.values.tolist()):
        if (row := rows_d.get(r)) is None:
            rows_d[r] = {c: v}
        else:
            row[c] = row.get(c, 0) + v
    col_rows: dict[int, set[int]] = {}
    zeros = []
    for r, row in rows_d.items():
        for c, v in row.items():
            if rv := reduce(v):
                row[c] = rv
                if (held := col_rows.get(c)) is None:
                    col_rows[c] = {r}
                else:
                    held.add(r)
            else:
                zeros.append((r, c))
    for r, c in zeros:
        row = rows_d[r]
        del row[c]
        if not row:
            del rows_d[r]
    return rows_d, col_rows


def _eliminate(rows_d: dict[int, dict[int, int]], col_rows: dict[int, set[int]],
               inverse, reduce) -> list[int]:
    """Structured Gaussian elimination in place on the rows of _sparse_rows;
    returns the pivot columns in pivot order. Each step takes the living
    column with the fewest entries and in it the shortest row (ties on the
    lowest index) whose entry u has an inverse(u) other than None, tried in
    that order; a column with no such row is parked until its entry count
    changes. Clearing entry a subtracts reduce(a * inverse(u)) times the
    pivot row, and reduce maps each new entry to the one kept. What is left,
    all of it in parked columns, is the Schur complement of the pivots, in
    the same rows_d and col_rows; rank_exact runs a second pass over Q on it."""
    # (entry count, column) for every count a column has had; an item whose
    # count is no longer the column's own is stale and skipped, and once no
    # column is left every item is
    queue = [(len(held), c) for c, held in col_rows.items()]
    heapq.heapify(queue)
    push, pop = heapq.heappush, heapq.heappop
    pivots = []
    while queue and col_rows:
        n, c = pop(queue)
        held = col_rows.get(c)
        if held is None or len(held) != n:
            continue
        if n == 1:
            (r,) = held
            if (inv := inverse(rows_d[r][c])) is None:
                continue
        else:
            for r in sorted(held, key=lambda rr: (len(rows_d[rr]), rr)):
                if (inv := inverse(rows_d[r][c])) is not None:
                    break
            else:
                continue
        piv_row = rows_d.pop(r)
        del piv_row[c]
        targets = col_rows.pop(c)
        targets.discard(r)
        # each column whose entry count changes is pushed with its new count,
        # or dropped once it holds no row
        for k in piv_row:
            held = col_rows[k]
            held.discard(r)
            if held:
                push(queue, (len(held), k))
            else:
                del col_rows[k]
        for r2 in targets:
            row2 = rows_d[r2]
            f = reduce(row2.pop(c) * inv)
            for k, v in piv_row.items():
                nv = reduce(row2.get(k, 0) - f * v)
                if nv:
                    if k not in row2:
                        if (held := col_rows.get(k)) is None:
                            held = col_rows[k] = {r2}
                        else:
                            held.add(r2)
                        push(queue, (len(held), k))
                    row2[k] = nv
                elif k in row2:
                    del row2[k]
                    held = col_rows[k]
                    held.discard(r2)
                    if held:
                        push(queue, (len(held), k))
                    else:
                        del col_rows[k]
            if not row2:
                del rows_d[r2]
        pivots.append(c)
    return pivots


def rank_mod_p(m: BoundaryMatrix, p: int) -> RankResult:
    """Rank of m over F_p by _eliminate, for p = DEFAULT_PRIME only: any
    other p is a ValueError before any work. Every nonzero entry is a unit,
    so no column is parked and the pivots come in Markowitz order: the
    sparsest column, then its shortest row, ties on the lowest index."""
    if p != DEFAULT_PRIME:
        raise ValueError(f"modulus {p} is not DEFAULT_PRIME = {DEFAULT_PRIME}")
    reduce = DEFAULT_PRIME.__rmod__  # v -> v % p
    rows_d, col_rows = _sparse_rows(m, reduce)
    pivots = _eliminate(rows_d, col_rows, lambda u: pow(u, -1, DEFAULT_PRIME), reduce)
    return RankResult(tuple(pivots))


def rank_exact(m: BoundaryMatrix) -> RankResult:
    """Rank over Q: _eliminate on +-1 pivots (a unit is its own inverse, so
    every entry stays an integer), then _eliminate over Q on the unit-free
    residual those pivots leave, in the same sparse rows. The rows x cols
    cap, EXACT_CELL_CAP read at each call, is tested on that residual
    before any rational work: it bounds the fill of the rational pass."""
    rows_d, col_rows = _sparse_rows(m, int)  # int keeps each sum as it is
    pivots = _eliminate(rows_d, col_rows, {1: 1, -1: -1}.get, int)
    if len(rows_d) * len(col_rows) > EXACT_CELL_CAP:
        raise CapacityError(f"{len(rows_d)}x{len(col_rows)} residual exceeds the "
                            f"exact-rank cap of {EXACT_CELL_CAP} cells")
    if rows_d:
        # imported here: fractions pulls in decimal, and no workload's
        # divisor complex or Koszul map leaves a residual
        from fractions import Fraction
        pivots += _eliminate(rows_d, col_rows, lambda u: 1 / Fraction(u), Fraction)
    return RankResult(tuple(pivots))


def _reduce_band(slice_: ComplexSlice) -> tuple[dict[int, np.ndarray],
                                                dict[int, np.ndarray]]:
    """Run the cancellation cascade over the whole band. Each round walks
    the dimensions t upward and, from the alive flags at that point, finds
    the living t-faces with exactly one living facet; each claims that
    facet, the lowest claimant winning, and both die. Rounds repeat until
    one claims nothing. Each dimension keeps the ascending ids of its
    living faces, shrunk at the start of each step, so a step gathers the
    facet rows of living faces only.

    Returns (alive flags, facet-row matrices), each per dimension; the
    survivors carry the input's homology strictly inside the band.
    """
    bot, top = slice_.j_lo, slice_.j_hi
    alive = {t: np.ones(slice_.face_count(t), dtype=bool) for t in range(bot, top + 1)}
    sub = {t: slice_.subface_rows(t) for t in range(bot + 1, top + 1)}
    living = {t: np.arange(slice_.face_count(t)) for t in sub}
    while True:
        claimed = 0
        for t in sub:
            ids = living[t] = living[t][alive[t].take(living[t])]
            rows = sub[t].take(ids, axis=0)
            live = alive[t - 1].take(rows)
            one = np.flatnonzero(live.sum(axis=1) == 1)
            # ids ascend, so each partner's first index is its lowest claimant
            partner, first = np.unique(rows[one, live[one].argmax(axis=1)],
                                       return_index=True)
            alive[t][ids[one[first]]] = False
            alive[t - 1][partner] = False
            claimed += partner.size
        if not claimed:
            return alive, sub


def _element_matching(slice_: ComplexSlice, j: int):
    """Pair the cells of dimensions j-1, j and j+1 by the element matchings
    of the module docstring, yielding (t, coface rows in dimension t, facet
    rows in dimension t-1) for t = j+1 and then t = j at each local vertex
    in walk order, where that vertex pairs anything. The walk takes the
    vertices by ascending largest coordinate of their points, ties by
    index: a point with a small largest exponent fits under more slacks,
    so it lies in more faces and its matching pairs more of them. The faces
    G containing a vertex v have distinct facets G - v, all avoiding v, so
    the pairs of one vertex are disjoint and each dimension is one array
    pass.

    The first vertex finds every cell free, so it pairs the rows of the
    face matrix that hold it, found by one array test. After it only the
    entries (G, i) whose face and facet are both free are kept, since flags
    only fall; the walk positions of their labels are stable-sorted in the
    narrowest unsigned dtype that holds the vertex count (a radix sort),
    and each kept entry's row and facet are stored once in that order.
    """
    count = slice_.vertex_count
    label = np.uint8 if count <= 2**8 else np.uint16 if count <= 2**16 else np.uint32
    free = {t: np.ones(slice_.face_count(t), dtype=bool) for t in (j - 1, j, j + 1)}
    levels = [t for t in (j + 1, j) if free[t].size]
    # config.array is built once per configuration; Python's sort is
    # stable, so ties keep index order
    largest = slice_.config.array.take(slice_.vertices, axis=0).max(axis=1).tolist()
    walk = sorted(range(count), key=largest.__getitem__)
    position = np.empty(count, dtype=label)
    position[walk] = np.arange(count)
    for t in levels:
        rows, at = np.nonzero(slice_.faces(t) == walk[0])
        if rows.size:
            below = slice_.subface_rows(t)[rows, at]
            free[t][rows] = False
            free[t - 1][below] = False
            yield t, rows, below
    passes = []
    for t in levels:
        facets = slice_.subface_rows(t).ravel()
        at = np.flatnonzero(free[t].repeat(t + 1) & free[t - 1].take(facets))
        labels = position.take(slice_.faces(t).ravel().take(at))
        at = at[np.argsort(labels, kind="stable")]
        ends = np.bincount(labels, minlength=count).cumsum().tolist()
        passes.append((t, at // (t + 1), facets.take(at), ends, free[t], free[t - 1]))
    # every face holding the first vertex is matched above, so no entry is
    # left at position 0
    for v in range(1, count):
        for t, rows, facets, ends, up, down in passes:
            lo, hi = ends[v - 1], ends[v]
            if lo == hi:
                continue
            rows_v, below = rows[lo:hi], facets[lo:hi]
            (keep,) = (up.take(rows_v) & down.take(below)).nonzero()
            if keep.size:
                rows_v, below = rows_v.take(keep), below.take(keep)
                up[rows_v] = False
                down[below] = False
                yield t, rows_v, below


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


def middle_homology(out_map: BoundaryMatrix, in_map: BoundaryMatrix, rank=None) -> int:
    """dim ker(out_map) - rank(in_map), exact over Q.

    The rank certificate of both pipelines: each map is ranked once,
    exactly, so a zero is as exact as a nonzero. rank is the rank function
    to call, by default this module's rank_exact, looked up at each call.
    A negative value is a RuntimeError.

    in_map U is ranked without its rows at the pivot columns X of out_map
    D, pivot rows R: D U = 0 and D[R, X] is nonsingular, so
    U[X, :] = -D[R, X]^-1 D[R, ~X] U[~X, :] and rank U = rank U[~X, :].
    """
    rank = rank or rank_exact
    out = rank(out_map)
    free = np.ones(in_map.rows, dtype=bool)
    free[list(out.pivot_cols)] = False
    keep = free[in_map.row_idx]
    rest = BoundaryMatrix(in_map.rows, in_map.cols, in_map.row_idx[keep],
                          in_map.col_idx[keep], in_map.values[keep])
    val = out_map.cols - out.rank - rank(rest).rank
    if val < 0:
        raise RuntimeError("negative homology rank")
    return val


def reduced_betti(slice_: ComplexSlice, j: int) -> BettiNumber:
    """Rank of the j-th reduced homology of the sliced complex.

    value = (#j-faces) - rank(boundary_j) - rank(boundary_{j+1}); the slice
    band must contain [j-1, j+1]. Certificates in order: no j-face gives 0;
    an element matching of dims j-1 .. j+1 that leaves no critical j-cell
    gives 0 over Z; otherwise the residual boundaries of the cascade are
    ranked by `middle_homology`. certified is always true on return; an
    exact rank beyond its cell cap raises instead.
    """
    if j - 1 < slice_.j_lo or j + 1 > slice_.j_hi:
        raise ValueError(f"betti at {j} needs dims [{j - 1}, {j + 1}] "
                         f"inside {(slice_.j_lo, slice_.j_hi)}")
    # no j-face, no j-chain: a band far above the top face runs no cascade
    if slice_.face_count(j) == 0 or _matching_certifies_zero(slice_, j):
        return BettiNumber(j=j, value=0, certified=True)
    alive, sub = _reduce_band(slice_)
    value = middle_homology(masked_boundary(sub[j], alive[j - 1], alive[j]),
                            masked_boundary(sub[j + 1], alive[j], alive[j + 1]))
    return BettiNumber(j=j, value=value, certified=True)
