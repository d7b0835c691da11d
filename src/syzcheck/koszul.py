"""Graded Tor pieces as homology of an explicit Koszul-type complex.

This is the independent second pipeline: where the divisor-complex route
computes one multigraded Betti number per bound vector, this one builds the
differentials

    wedge^{p+1} Sym^d V (x) Sym^{(q-1)d} V -> wedge^p Sym^d V (x) Sym^{qd} V
        -> wedge^{p-1} Sym^d V (x) Sym^{(q+1)d} V

and takes kernel dimension minus image rank in the middle, one torus
weight at a time. Both pipelines must agree wherever both are
defined; the checker module asserts exactly that.

A basis element of wedge^p Sym^d V (x) Sym^s V is a pair (S, e): a p-subset
S of the degree-d monomials and the exponent vector e of the symmetric
factor. The maps preserve torus weights, so in the weight-b piece e is b
minus the exponent sum of S, and S alone names the element: a weight space
is the set of p-subsets that fit under b, and `_weight_spaces` alone
derives it, for a batch of weights at once from one fit table. `_wedge_table`
owns the order of the subsets: it lists, sums and ranks them, so an
element is named by the rank of its subset. The capacity guards depend on
(p, q, n, d) and the number of weights, not on b, and are read before any
weight space is built.

The complex is GL(V)-equivariant, so a weight and its coordinate
permutations have the same Tor dimension. A full weight sweep therefore
ranks one dominant weight per permutation orbit and spreads the value over
the orbit. It ranks its weights in batches: `koszul_map` assembles one
block-diagonal map over a batch, a block per weight, and `middle_homology`
ranks the pair of maps around the middle term once per batch, one value per
block. In each block the map with fewer entries is ranked first: the down
map D_b, with p entries per middle element, or the up map U_b, with p + 1
per element of its domain, in which case the block is ranked as the dual
complex (U_b^T, D_b^T), whose middle homology is the same. A batch's fit
tables hold at most DEFAULT_BASIS_GUARD subsets, as one weight's may.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from math import comb
from typing import Sequence

import numpy as np

from .complexes import BoundaryMatrix
from .errors import CapacityError
# rank_mod_p is unused here: the benchmark's tracer wraps it under this name
from .homology import middle_homology, rank_exact, rank_mod_p  # noqa: F401
from .lattice import (Vector, check_cells, composition_count, compositions, orbit_expansion,
                      partitions_into)

# refuse bases beyond this many elements
DEFAULT_BASIS_GUARD = 10**6


def _sym_dimension(degree: int, v_dim: int) -> int:
    """dim Sym^degree of C^v_dim, counted: above DEFAULT_BASIS_GUARD, CapacityError."""
    if degree < 0 or v_dim < 1:
        raise ValueError("need degree >= 0 and v_dim >= 1")
    if (count := composition_count(degree, v_dim)) > DEFAULT_BASIS_GUARD:
        raise CapacityError(f"Sym^{degree} of C^{v_dim} exceeds guard {DEFAULT_BASIS_GUARD}")
    return count


@lru_cache(maxsize=None)
def monomial_basis(degree: int, v_dim: int) -> tuple[Vector, ...]:
    """All exponent vectors of Sym^degree of C^v_dim, in the canonical
    lexicographic descending order shared with the point configurations.
    Refused like a Sym factor, or as a table by lattice.check_cells."""
    check_cells("monomial", _sym_dimension(degree, v_dim), v_dim)
    return tuple(compositions(degree, v_dim))


@lru_cache(maxsize=None)
def _wedge_table(p: int, degree: int, v_dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The p-subsets of the m degree-`degree` monomials in the one order that
    names them, that of itertools.combinations: the rows of an index array;
    the coordinate sums of their exponent vectors, one row per coordinate,
    so that a weight test compares whole rows, in the narrowest signed dtype
    that holds p * degree, the largest sum; and a (p + 1, m) rank table,
    lex[t, e] = comb(m - 1 - e, p - t) where position t can hold e, else 0
    (row p is 0), that ranks subset e_0 < ... < e_{p-1} as row comb(m, p) -
    1 - sum_t lex[t, e_t]. Each term is below comb(m, p), so every rank fits
    in 64 bits, which base-m codes of the subsets of big wedges do not.
    Above p = m the wedge is zero: no rows, and m + 1 zero rank rows."""
    mon = np.asarray(monomial_basis(degree, v_dim), dtype=np.int64).T
    m = mon.shape[1]
    sum_type = np.min_scalar_type(-p * degree - 1)
    if p > m:  # before combinations, which allocates p indices
        return (np.zeros((0, p), dtype=np.intp), np.zeros((v_dim, 0), dtype=sum_type),
                np.zeros((m + 1, m), dtype=np.int64))
    combos = list(combinations(range(m), p))
    idx = np.asarray(combos, dtype=np.intp).reshape(len(combos), p)
    # one factor at a time, in the sums' dtype: gathering all p at once, or
    # in int64, holds several times the sums
    sums = np.zeros((v_dim, len(combos)), dtype=sum_type)
    narrow = mon.astype(sum_type)  # exact once p >= 1, the only case the loop reads
    for j in range(p):
        sums += narrow[:, idx[:, j]]
    lex = np.zeros((p + 1, m), dtype=np.int64)
    for t in range(p):  # comb is 0 past the last e that position t can hold
        lex[t, t:] = [comb(m - 1 - e, p - t) for e in range(t, m)]
    return idx, sums, lex


def _checked_sizes(p: int, wedge_degree: int, sym_degree: int, v_dim: int,
                   weights: int = 1) -> int:
    """The monomial count m of the wedge factor, once m, dim Sym^sym_degree
    (counted) and the wedge basis comb(m, p) pass DEFAULT_BASIS_GUARD, the
    wedge sums check_cells, and the fit tables of `weights` weight spaces,
    weights * comb(m, p) subsets, DEFAULT_BASIS_GUARD again; each read at
    each call; else CapacityError."""
    m = len(monomial_basis(wedge_degree, v_dim))
    _sym_dimension(sym_degree, v_dim)
    if (size := comb(m, p)) > DEFAULT_BASIS_GUARD:
        raise CapacityError(f"wedge basis exceeds guard {DEFAULT_BASIS_GUARD}")
    check_cells("wedge", size, v_dim)
    if weights * size > DEFAULT_BASIS_GUARD:
        raise CapacityError(f"{weights} weight spaces of {size} wedge subsets each "
                            f"exceed guard {DEFAULT_BASIS_GUARD}")
    return m


@lru_cache(maxsize=2)
def _weight_spaces(p: int, degree: int, v_dim: int,
                   weights: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weight-b spaces of wedge^p Sym^degree V (x) Sym^s V, s = sum(b) -
    p * degree, for the int64 rows of v_dim coordinates that `weights`
    holds, from one fit table: the ascending ends of the spaces, and, space
    after space, the position of each b among the weights and the
    ascending rows of _wedge_table whose subset S fits under b, each the
    element (S, b - sum(S)). A weight is clipped to p * degree, which no
    subset sum exceeds, so that it compares in the sums' dtype. Cached for
    the two most recent spaces: the two maps around a batch's middle term
    use three, the middle one twice, and each map derives its codomain
    first. Callers check the weights and the guards first."""
    sums = _wedge_table(p, degree, v_dim)[1]
    bound = np.minimum(np.frombuffer(weights, dtype=np.int64).reshape(-1, v_dim),
                       p * degree).astype(sums.dtype)
    fit = np.ones((len(bound), sums.shape[1]), dtype=bool)
    for coord, top in zip(sums, bound.T):
        fit &= coord <= top[:, None]
    return (fit.sum(axis=1).cumsum(), *np.nonzero(fit))


def _checked_weights(p: int, q: int, n: int, d: int, weights: Sequence[Vector]) -> np.ndarray:
    """weights as a (k, n + 1) int64 array, once (p, q, n, d) and each
    weight's length, sign and sum fit the map out of wedge^p (x)
    Sym^{qd}; else ValueError."""
    if p < 1 or q < 0 or n < 1 or d < 1:
        raise ValueError(f"need p >= 1, q >= 0, n >= 1, d >= 1, got {(p, q, n, d)}")
    if not len(weights):
        return np.zeros((0, n + 1), dtype=np.int64)
    try:
        array = np.asarray(weights, dtype=np.int64)
    except OverflowError:  # a coordinate beyond 64 bits fails a check below, in Python ints
        array = np.asarray(weights, dtype=object)
    if array.ndim != 2 or array.shape[1] != n + 1:
        raise ValueError("weight has wrong length")
    if (array < 0).any():
        raise ValueError("weight must be nonnegative")
    if (array.sum(axis=1) != (p + q) * d).any():
        raise ValueError(f"weight sum must be {(p + q) * d} for this map")
    return array


def koszul_map(p: int, q: int, n: int, d: int, weights: Sequence[Vector]) -> BoundaryMatrix:
    """Matrix of the contraction differential from wedge^p (x) Sym^{qd} to
    wedge^{p-1} (x) Sym^{(q+1)d}, multiplying the dropped wedge factor into
    the symmetric part with alternating signs, on a list of torus weights:
    block diagonal, one block per weight, in order (`BoundaryMatrix.ends`).

    Domain and codomain are the weight spaces (`_weight_spaces`) of the
    weights, after the guards of both terms; the differential preserves
    weights, so each block is a subcomplex direct summand. There a subset
    names its element, and every facet of a fitting subset fits too, so
    the row of the facet without factor i is its lexicographic rank,
    summed from the codomain's `_wedge_table` rank table, looked up among
    the codomain's fitting rows of its own block, which ascend.
    """
    array = _checked_weights(p, q, n, d, weights)
    v_dim, count = n + 1, len(array)
    m = _checked_sizes(p, d, q * d, v_dim, count)
    _checked_sizes(p - 1, d, (q + 1) * d, v_dim, count)
    key = array.tobytes()
    cod_ends, cod_blocks, cod = _weight_spaces(p - 1, d, v_dim, key)
    dom_ends, dom_blocks, dom = _weight_spaces(p, d, v_dim, key)
    empty = np.zeros(0, dtype=np.int64)
    if not dom.size:  # before the rank tables, which cost O(p) even then
        return BoundaryMatrix(cod.size, 0, empty, empty, empty, (cod_ends, dom_ends))
    subsets = _wedge_table(p, d, v_dim)[0][dom]
    # the facet without factor i holds each j < i at its own position j and
    # each j > i one to the left, at j - 1 (row -1 is the zero row): a running
    # sum of the own terms before i and a suffix sum of the left terms after i
    lex = _wedge_table(p - 1, d, v_dim)[2]
    size = comb(m, p - 1)
    own, left = lex[np.arange(p), subsets], lex[np.arange(p) - 1, subsets]
    ranks = ((size - 1 - left.sum(axis=1))[:, None] + own - own.cumsum(axis=1)
             + left.cumsum(axis=1))
    # keyed by (block, rank), the codomain ascends as a whole
    cod_keys = cod_blocks * size + cod
    dom_keys = dom_blocks[:, None] * size + ranks
    values = np.ones((len(dom), p), dtype=np.int64)
    values[:, 1::2] = -1
    return BoundaryMatrix(rows=cod.size, cols=dom.size,
                          row_idx=np.searchsorted(cod_keys, dom_keys.ravel()).astype(np.int64),
                          col_idx=np.arange(dom.size, dtype=np.int64).repeat(p),
                          values=values.ravel(), ends=(cod_ends, dom_ends))


def _smaller_first(p: int, down: BoundaryMatrix,
                   up: BoundaryMatrix) -> tuple[BoundaryMatrix, BoundaryMatrix]:
    """(out_map, in_map) for middle_homology from the block-diagonal maps
    around a batch's middle term: per block, (D_b, U_b), or (U_b^T, D_b^T)
    when U_b has fewer entries than D_b. Both pairs share the middle
    term, so only the outer indices move: each block's rows of out_map,
    and columns of in_map, start where the blocks before it end."""
    mid_ends, cod_ends, top_ends = down.ends[1], down.ends[0], up.ends[1]
    mid, cod, top = (e - np.concatenate(([0], e[:-1])) for e in (mid_ends, cod_ends, top_ends))
    dual = (p + 1) * top < p * mid
    out_ends, in_ends = np.where(dual, top, cod).cumsum(), np.where(dual, cod, top).cumsum()
    # add to a block's outer index to move it from its map to the pair
    out_shift = out_ends - np.where(dual, top_ends, cod_ends)
    in_shift = in_ends - np.where(dual, cod_ends, top_ends)
    d_block = np.searchsorted(mid_ends, down.col_idx, side="right")
    u_block = np.searchsorted(mid_ends, up.row_idx, side="right")
    d_keep, u_keep = ~dual[d_block], ~dual[u_block]
    u_flip, d_flip = ~u_keep, ~d_keep
    out_map = BoundaryMatrix(
        int(out_ends[-1]), down.cols,
        np.concatenate([down.row_idx[d_keep] + out_shift[d_block[d_keep]],
                        up.col_idx[u_flip] + out_shift[u_block[u_flip]]]),
        np.concatenate([down.col_idx[d_keep], up.row_idx[u_flip]]),
        np.concatenate([down.values[d_keep], up.values[u_flip]]), (out_ends, mid_ends))
    in_map = BoundaryMatrix(
        up.rows, int(in_ends[-1]),
        np.concatenate([up.row_idx[u_keep], down.col_idx[d_flip]]),
        np.concatenate([up.col_idx[u_keep] + in_shift[u_block[u_keep]],
                        down.row_idx[d_flip] + in_shift[d_block[d_flip]]]),
        np.concatenate([up.values[u_keep], down.values[d_flip]]), (mid_ends, in_ends))
    return out_map, in_map


@dataclass(frozen=True, eq=False)
class TorSlice:
    """One graded Tor piece: its total dimension and weight multiplicities."""

    p: int
    q: int
    total_dim: int
    weights: dict[Vector, int]

    def to_json(self) -> dict:
        ordered = sorted(self.weights.items(), reverse=True)
        return {
            "p": self.p,
            "q": self.q,
            "total_dim": self.total_dim,
            "weights": [{"b": list(b), "mult": m} for b, m in ordered],
        }


def tor_dimension(p: int, q: int, n: int, d: int,
                  weight: Vector | None = None) -> TorSlice:
    """Dimension of the graded Tor piece at (p, q), per weight or total.

    With a weight: the single weight-restricted complex. Without one: one
    dominant (non-increasing) weight of coordinate sum (p+q)*d is computed
    per coordinate-permutation orbit, and a nonzero value is recorded for
    every member of the orbit, as the complex is GL(V)-equivariant. p = 0,
    by convention the trivial module in degree zero, is rejected.

    The weights are ranked in batches of DEFAULT_BASIS_GUARD // N weights,
    N the largest of comb(m, p - 1), comb(m, p) and comb(m, p + 1) for the
    m monomials, so that a batch's fit tables hold no more subsets than one
    weight's may. A batch whose middle term is empty builds no map.
    """
    if q < 1:
        raise ValueError("q >= 1 required for a two-sided homology computation")

    given = _checked_weights(p, q, n, d, [] if weight is None else [weight])
    # the middle term's guards; wedge^p of m monomials is 0 for p > m
    if p > (m := _checked_sizes(p, d, q * d, n + 1)):
        return TorSlice(p=p, q=q, total_dim=0, weights={})
    step = max(1, DEFAULT_BASIS_GUARD // max(comb(m, k) for k in (p - 1, p, p + 1)))
    # a given weight is a sweep of one
    sweep = iter([tuple(given[0].tolist())] if weight is not None
                 else partitions_into((p + q) * d, n + 1))
    weights: dict[Vector, int] = {}
    while batch := list(islice(sweep, step)):
        if not _weight_spaces(p, d, n + 1, np.asarray(batch, dtype=np.int64).tobytes())[2].size:
            continue
        # the up map's rows are the down map's columns, the middle basis
        pair = _smaller_first(p, koszul_map(p, q, n, d, batch),
                              koszul_map(p + 1, q - 1, n, d, batch))
        # one exact rank per map and block, under this module's name for
        # rank_exact, so the Koszul ranks can be wrapped apart from the
        # divisor side's
        for b, val in zip(batch, middle_homology(*pair, rank_exact)):
            if val:
                weights.update(dict.fromkeys([b] if weight is not None else orbit_expansion(b),
                                             val))
    return TorSlice(p=p, q=q, total_dim=sum(weights.values()), weights=weights)
