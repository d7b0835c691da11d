"""Graded Tor pieces as homology of an explicit Koszul-type complex.

This is the independent second pipeline: where the divisor-complex route
computes one multigraded Betti number per bound vector, this one builds the
differentials

    wedge^{p+1} Sym^d V (x) Sym^{(q-1)d} V -> wedge^p Sym^d V (x) Sym^{qd} V
        -> wedge^{p-1} Sym^d V (x) Sym^{(q+1)d} V

and takes kernel dimension minus image rank in the middle, optionally
restricted to one torus weight. Both pipelines must agree wherever both are
defined; the checker module asserts exactly that.

A basis element of wedge^p Sym^d V (x) Sym^s V is a pair (S, e): a p-subset
S of the degree-d monomials and the exponent vector e of the symmetric
factor. The maps preserve torus weights, so in the weight-b piece e is b
minus the exponent sum of S, and S alone names the element. A weight with
no middle element has no homology and builds neither map.

The complex is GL(V)-equivariant, so a weight and its coordinate
permutations have the same Tor dimension. A full weight sweep therefore
ranks one dominant weight per permutation orbit and spreads the value over
the orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb

import numpy as np

from .complexes import BoundaryMatrix, make_matrix
from .errors import CapacityError
from .homology import middle_homology, rank_exact, rank_mod_p
from .lattice import Vector, composition_count, compositions, orbit_expansion, partitions_into

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
    lexicographic descending order shared with the point configurations."""
    _sym_dimension(degree, v_dim)
    return tuple(compositions(degree, v_dim))


@lru_cache(maxsize=None)
def _wedge_table(p: int, degree: int, v_dim: int):
    """All p-subsets of the degree-`degree` monomial basis together with the
    coordinate sums of their exponent vectors, for fast weight filtering."""
    mon = monomial_basis(degree, v_dim)
    combos = list(combinations(range(len(mon)), p))
    idx = np.asarray(combos, dtype=np.intp).reshape(len(combos), p)
    return combos, np.asarray(mon, dtype=np.int64)[idx].sum(axis=1)


def wedge_tensor_basis(p: int, wedge_degree: int, sym_degree: int, v_dim: int,
                       weight: Vector | None = None) -> list[tuple[tuple[int, ...], Vector]]:
    """Basis of wedge^p Sym^{wedge_degree} V (x) Sym^{sym_degree} V, or of
    its weight space when a weight is given.

    Elements are (S, e): S a strictly increasing index tuple into the
    wedge_degree monomial basis, e the exponent vector of the symmetric
    factor. Within a weight b, e is b minus the exponent sum of S, so a
    weight whose coordinate sum is not p * wedge_degree + sym_degree has
    no elements. Elements are ordered wedge-major, then by descending e.
    A basis, or the wedge factor alone, of more than DEFAULT_BASIS_GUARD
    elements (read at each call) raises CapacityError.
    """
    if p < 0:
        raise ValueError("exterior power must be nonnegative")
    mon = monomial_basis(wedge_degree, v_dim)
    # counted for a weight space too: its guard refuses a sweep over huge weights
    sym_dim = _sym_dimension(sym_degree, v_dim)
    if comb(len(mon), p) > DEFAULT_BASIS_GUARD:
        raise CapacityError(f"wedge basis exceeds guard {DEFAULT_BASIS_GUARD}")
    if weight is None:
        if comb(len(mon), p) * sym_dim > DEFAULT_BASIS_GUARD:
            raise CapacityError(f"basis exceeds guard {DEFAULT_BASIS_GUARD}")
        return list(product(combinations(range(len(mon)), p), monomial_basis(sym_degree, v_dim)))
    if len(weight) != v_dim:
        raise ValueError("weight has wrong length")
    if sum(weight) != p * wedge_degree + sym_degree:
        return []
    # at most one element per wedge subset: the guard above bounds it
    combos, sums = _wedge_table(p, wedge_degree, v_dim)
    rem = np.asarray(weight, dtype=np.int64)[None, :] - sums
    fit = np.nonzero((rem >= 0).all(axis=1))[0]
    return [(combos[i], tuple(e)) for i, e in zip(fit.tolist(), rem[fit].tolist())]


@lru_cache(maxsize=3)
def _indexed_basis(p: int, wedge_degree: int, sym_degree: int, v_dim: int,
                   weight: Vector | None, guard: int):
    """wedge_tensor_basis and the position of each element in it, keyed in
    a weight space by the wedge subset alone, which names the element there.
    The three most recent are kept: the two maps around one weight's middle
    term use three bases, the middle one twice. guard, the DEFAULT_BASIS_GUARD
    in force, only keys the cache: a lower guard is never skipped."""
    basis = wedge_tensor_basis(p, wedge_degree, sym_degree, v_dim, weight)
    keys = basis if weight is None else [w for w, _ in basis]
    return basis, {key: i for i, key in enumerate(keys)}


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


def koszul_map(p: int, q: int, n: int, d: int,
               weight: Vector | None = None) -> BoundaryMatrix:
    """Matrix of the contraction differential from wedge^p (x) Sym^{qd} to
    wedge^{p-1} (x) Sym^{(q+1)d}, multiplying the dropped wedge factor into
    the symmetric part with alternating signs.

    When a weight is given both bases are restricted to elements whose
    exponent vectors sum to it; the differential preserves weights, so the
    restriction is a subcomplex direct summand.
    """
    weight = _checked_weight(p, q, n, d, weight)
    v_dim = n + 1
    dom, _ = _indexed_basis(p, d, q * d, v_dim, weight, DEFAULT_BASIS_GUARD)
    cod, row_of = _indexed_basis(p - 1, d, (q + 1) * d, v_dim, weight, DEFAULT_BASIS_GUARD)
    mon = monomial_basis(d, v_dim)
    triplets: list[tuple[int, int, int]] = []
    for col, (w, f) in enumerate(dom):
        for i, mi in enumerate(w):
            key = w[:i] + w[i + 1:]
            if weight is None:
                key = key, tuple(a + b for a, b in zip(f, mon[mi]))
            triplets.append((row_of[key], col, 1 if i % 2 == 0 else -1))
    return make_matrix(len(cod), len(dom), triplets)


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

    weights: dict[Vector, int] = {}
    # a given weight is a sweep of one
    for b in [weight] if weight is not None else partitions_into((p + q) * d, n + 1):
        if not _indexed_basis(p, d, q * d, n + 1, b, DEFAULT_BASIS_GUARD)[0]:
            continue
        down = koszul_map(p, q, n, d, b)
        up = koszul_map(p + 1, q - 1, n, d, b)  # its rows: the same middle basis
        # this module's rank names, so the Koszul ranks can be wrapped apart
        val = middle_homology(down, up, (rank_mod_p, rank_exact))
        if val:
            weights.update(dict.fromkeys([b] if weight is not None else orbit_expansion(b), val))
    return TorSlice(p=p, q=q, total_dim=sum(weights.values()), weights=weights)
