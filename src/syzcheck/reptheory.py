"""Decomposing GL-module weight multiplicities into Schur functor pieces.

The Tor slices computed by the Koszul module are GL-representations, so
their weight multiplicities are permutation-symmetric and fixed by their
values at the dominant (non-increasing) weights, one per orbit; these
decompose uniquely into Schur characters, whose value at a dominant weight
mu is the Kostka number K_{lambda mu}. The decomposition here is the
classical greedy one: peel off the lexicographically largest surviving
dominant weight, whose multiplicity is the coefficient of that Schur term,
subtract, repeat. A negative multiplicity at any step means the input was
not a genuine character: a hard error, never clamped.

Kostka numbers (weight multiplicities of one Schur character) peel the
largest tableau entry as a horizontal strip. A shape's strips are one
product of its row ranges, memoised apart from the Kostka recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Mapping

from .errors import MismatchError
from .koszul import tor_dimension
from .lattice import Vector, partitions_into


@dataclass(frozen=True, order=True)
class Partition:
    """Non-increasing tuple of positive parts; trailing zeros are stripped
    on construction so the same shape compares equal at every v_dim."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(x <= 0 for x in self.parts):
            raise ValueError("parts must be positive (zeros are stripped by partition())")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be non-increasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def to_json(self) -> list[int]:
        return list(self.parts)


def partition(parts: Iterable[int]) -> Partition:
    return Partition(tuple(int(x) for x in parts if int(x) != 0))


def _is_dominant(w: Vector) -> bool:
    return all(a >= b for a, b in zip(w, w[1:]))


@dataclass(eq=True)
class SchurDecomposition:
    v_dim: int
    terms: dict[Partition, int]

    def to_json(self) -> list[dict]:
        ordered = sorted(self.terms.items(), key=lambda kv: kv[0].parts, reverse=True)
        return [{"partition": lam.to_json(), "mult": m} for lam, m in ordered]


@lru_cache(maxsize=None)
def _strip_predecessors(lam: tuple[int, ...], size: int) -> tuple[tuple[int, ...], ...]:
    """Partitions left by removing a horizontal strip of `size` cells from
    lam. At most one cell per column, so row i keeps lam[i+1] to lam[i]
    cells (0 to lam[i] for the last row): one product of those ranges.
    Memoised apart from _kostka_sorted, which reuses each strip."""
    ranges = [range(low, top + 1) for top, low in zip(lam, lam[1:] + (0,))]
    return tuple(tuple(x for x in rows if x)
                 for rows in product(*ranges) if sum(lam) - sum(rows) == size)


@lru_cache(maxsize=None)
def _kostka_sorted(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1 if not lam else 0
    return sum(_kostka_sorted(prev, mu[:-1])
               for prev in _strip_predecessors(lam, mu[-1]))


def kostka(shape: Partition | Iterable[int], content: Iterable[int]) -> int:
    """Number of semistandard tableaux of the given shape and content.

    Invariant under permuting the content, so it is sorted once and the
    recursion memoised on the sorted form.
    """
    lam = shape if isinstance(shape, Partition) else partition(shape)
    mu = tuple(int(c) for c in content)
    if any(c < 0 for c in mu):
        raise ValueError("content entries must be nonnegative")
    if sum(mu) != lam.size:
        raise ValueError(f"content sums to {sum(mu)}, shape has size {lam.size}")
    return _kostka_sorted(lam.parts, tuple(sorted((c for c in mu if c), reverse=True)))


def _dominant_kostka(lam: Partition, v_dim: int) -> dict[Vector, int]:
    """The Kostka row of lam at its dominant weights: K_{lam mu} for each
    partition mu of |lam| into v_dim parts (zeros kept), nonzero only."""
    return {mu: k for mu in partitions_into(lam.size, v_dim)
            if (k := _kostka_sorted(lam.parts, tuple(c for c in mu if c)))}


def schur_decompose(values: Mapping[Vector, int], v_dim: int) -> SchurDecomposition:
    """Greedy peeling of the lex-largest weight from the multiplicities of
    a GL(C^v_dim)-module at its dominant weights, one per permutation
    orbit; zero values are dropped. Any other key is a ValueError, and a
    negative multiplicity at any stage is a hard error.

    Subtracting Schur characters keeps the remainder a symmetric character,
    so the dominant weights stand for their whole orbits at every step."""
    work: dict[Vector, int] = {}
    for w, m in values.items():
        if len(w) != v_dim or not _is_dominant(w) or any(x < 0 for x in w):
            raise ValueError(f"key {w} is not a non-increasing, nonnegative weight "
                             f"of length {v_dim}")
        if m:
            work[w] = m
    terms: dict[Partition, int] = {}
    while work:
        # the lex-max dominant weight is the lex-max weight of the remainder
        top = max(work)
        c = work[top]
        if c < 0:
            raise MismatchError(f"negative multiplicity {c} at weight {top}")
        lam = partition(top)
        terms[lam] = terms.get(lam, 0) + c
        for mu, k in _dominant_kostka(lam, v_dim).items():
            left = work.get(mu, 0) - c * k
            if left < 0:
                raise MismatchError(
                    f"subtracting {c} copies of Schur {lam.parts} drives weight "
                    f"{mu} to {left}; input was not a genuine character")
            if left:
                work[mu] = left
            else:
                work.pop(mu, None)
    return SchurDecomposition(v_dim=v_dim, terms=terms)


def tor_schur_decomposition(p: int, q: int, d: int, v_dim: int) -> SchurDecomposition:
    """Schur decomposition of one graded Tor piece.

    Requires v_dim >= p + 1 so that no row of the stable answer is cut off
    by the dimension of the underlying space.
    """
    if v_dim < p + 1:
        raise ValueError(f"need v_dim >= p + 1, got v_dim={v_dim}, p={p}")
    tor = tor_dimension(p, q, v_dim - 1, d)
    return schur_decompose({w: m for w, m in tor.weights.items() if _is_dominant(w)}, v_dim)
