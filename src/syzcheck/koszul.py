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
is the set of p-subsets that fit under b, and `_weight_space` alone derives
it. `_wedge_table` owns the order of the subsets: it lists, sums and ranks
them, so an element is named by the rank of its subset. The capacity guards
depend on (p, q, n, d), not on b, and are read before any weight space is
built. A weight with no middle element has no homology and builds neither map.

The complex is GL(V)-equivariant, so a weight and its coordinate
permutations have the same Tor dimension. A full weight sweep therefore
ranks one dominant weight per permutation orbit and spreads the value over
the orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .complexes import BoundaryMatrix, make_matrix
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
    so that a weight test compares whole rows; and a (p + 1, m) rank table,
    lex[t, e] = comb(m - 1 - e, p - t) where position t can hold e, else 0
    (row p is 0), that ranks subset e_0 < ... < e_{p-1} as row comb(m, p) -
    1 - sum_t lex[t, e_t]. Each term is below comb(m, p), so every rank fits
    in 64 bits, which base-m codes of the subsets of big wedges do not.
    Above p = m the wedge is zero: no rows, and m + 1 zero rank rows."""
    mon = np.asarray(monomial_basis(degree, v_dim), dtype=np.int64).T
    m = mon.shape[1]
    if p > m:  # before combinations, which allocates p indices
        return (np.zeros((0, p), dtype=np.intp), np.zeros((v_dim, 0), dtype=np.int64),
                np.zeros((m + 1, m), dtype=np.int64))
    combos = list(combinations(range(m), p))
    idx = np.asarray(combos, dtype=np.intp).reshape(len(combos), p)
    # one factor at a time: gathering all p at once holds p times the sums
    sums = np.zeros((v_dim, len(combos)), dtype=np.int64)
    for j in range(p):
        sums += mon[:, idx[:, j]]
    lex = np.zeros((p + 1, m), dtype=np.int64)
    for t in range(p):  # comb is 0 past the last e that position t can hold
        lex[t, t:] = [comb(m - 1 - e, p - t) for e in range(t, m)]
    return idx, sums, lex


def _checked_sizes(p: int, wedge_degree: int, sym_degree: int, v_dim: int) -> int:
    """The monomial count m of the wedge factor, once m, dim Sym^sym_degree
    (counted) and the wedge basis comb(m, p) pass DEFAULT_BASIS_GUARD, then
    the wedge sums check_cells, each read at each call; else CapacityError."""
    m = len(monomial_basis(wedge_degree, v_dim))
    _sym_dimension(sym_degree, v_dim)
    if comb(m, p) > DEFAULT_BASIS_GUARD:
        raise CapacityError(f"wedge basis exceeds guard {DEFAULT_BASIS_GUARD}")
    check_cells("wedge", comb(m, p), v_dim)
    return m


@lru_cache(maxsize=3)
def _weight_space(p: int, degree: int, weight: Vector) -> np.ndarray:
    """The weight-b space of wedge^p Sym^degree V (x) Sym^s V, s = sum(b) -
    p * degree: the ascending rows of _wedge_table whose subset S fits
    under b, each the element (S, b - sum(S)). Cached for the three most
    recent spaces: the two maps around one weight's middle term use three,
    the middle one twice. Callers check the weight and the guards first."""
    under = _wedge_table(p, degree, len(weight))[1] <= np.asarray(weight, dtype=np.int64)[:, None]
    return np.flatnonzero(np.logical_and.reduce(under))


def _checked_weight(p: int, q: int, n: int, d: int, weight: Vector | None) -> Vector | None:
    """weight as ints, once (p, q, n, d) and its length, sign and sum fit
    the map out of wedge^p (x) Sym^{qd}; else ValueError."""
    if p < 1 or q < 0 or n < 1 or d < 1:
        raise ValueError(f"need p >= 1, q >= 0, n >= 1, d >= 1, got {(p, q, n, d)}")
    if weight is None:
        return None
    weight = tuple(int(x) for x in weight)
    if len(weight) != n + 1:
        raise ValueError("weight has wrong length")
    if any(x < 0 for x in weight):
        raise ValueError("weight must be nonnegative")
    if sum(weight) != (p + q) * d:
        raise ValueError(f"weight sum must be {(p + q) * d} for this map")
    return weight


def koszul_map(p: int, q: int, n: int, d: int, weight: Vector) -> BoundaryMatrix:
    """Matrix of the contraction differential from wedge^p (x) Sym^{qd} to
    wedge^{p-1} (x) Sym^{(q+1)d}, multiplying the dropped wedge factor into
    the symmetric part with alternating signs, on one torus weight.

    Domain and codomain are the weight spaces (`_weight_space`) of the
    weight, after the guards of both terms; the differential preserves
    weights, so the restriction is a subcomplex direct summand. There a
    subset names its element, and every facet of a fitting subset fits
    too, so the row of the facet without factor i is its lexicographic
    rank, summed from the codomain's `_wedge_table` rank table, looked up
    among the codomain's fitting rows, which ascend.
    """
    weight = _checked_weight(p, q, n, d, weight)
    v_dim = n + 1
    m = _checked_sizes(p, d, q * d, v_dim)
    _checked_sizes(p - 1, d, (q + 1) * d, v_dim)
    dom, cod = _weight_space(p, d, weight), _weight_space(p - 1, d, weight)
    if not dom.size:  # before the rank tables, which cost O(p) even then
        return make_matrix(len(cod), 0, ())
    subsets = _wedge_table(p, d, v_dim)[0][dom]
    # the facet without factor i holds each j < i at its own position j and
    # each j > i one to the left, at j - 1 (row -1 is the zero row): a running
    # sum of the own terms before i and a suffix sum of the left terms after i
    lex = _wedge_table(p - 1, d, v_dim)[2]
    own, left = lex[np.arange(p), subsets], lex[np.arange(p) - 1, subsets]
    ranks = ((comb(m, p - 1) - 1 - left.sum(axis=1))[:, None] + own - own.cumsum(axis=1)
             + left.cumsum(axis=1))
    values = np.ones((len(dom), p), dtype=np.int64)
    values[:, 1::2] = -1
    return BoundaryMatrix(rows=len(cod), cols=len(dom),
                          row_idx=np.searchsorted(cod, ranks.ravel()).astype(np.int64),
                          col_idx=np.arange(len(dom), dtype=np.int64).repeat(p),
                          values=values.ravel())


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
    """
    if q < 1:
        raise ValueError("q >= 1 required for a two-sided homology computation")

    weight = _checked_weight(p, q, n, d, weight)
    # the middle term's guards, for every weight; wedge^p of m monomials is 0 for p > m
    if p > _checked_sizes(p, d, q * d, n + 1):
        return TorSlice(p=p, q=q, total_dim=0, weights={})
    weights: dict[Vector, int] = {}
    # a given weight is a sweep of one
    for b in [weight] if weight is not None else partitions_into((p + q) * d, n + 1):
        if not _weight_space(p, d, b).size:
            continue
        down = koszul_map(p, q, n, d, b)
        up = koszul_map(p + 1, q - 1, n, d, b)  # its rows: the same middle basis
        # one exact rank per map, under this module's name for rank_exact,
        # so the Koszul ranks can be wrapped apart from the divisor side's
        val = middle_homology(down, up, rank_exact)
        if val:
            weights.update(dict.fromkeys([b] if weight is not None else orbit_expansion(b), val))
    return TorSlice(p=p, q=q, total_dim=sum(weights.values()), weights=weights)
