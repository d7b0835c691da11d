"""Lattice point configurations, semigroup membership, and multidegree orbits.

A configuration is a finite list of distinct vectors in N^k. The main preset
is the degree-d monomial configuration in n+1 variables (all compositions of
d into n+1 nonnegative parts), which generates the coordinate semigroup of
the degree-d embedding of projective n-space. Everything downstream (divisor
complexes, Betti tables, Koszul weights) is graded by this semigroup.

Point order is lexicographic descending on exponent vectors. The indices of
faces and matrices all derive from that order, so runs are bit-reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, factorial
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, UnsupportedConfigError

Vector = tuple[int, ...]

# enumerate_multidegrees, and check_np for its whole window, refuse
# coordinate sums (total degree times d) above this
ENUMERATION_WEIGHT_GUARD = 10**6
# veronese_points refuses configurations of more points than this
VERONESE_POINT_GUARD = 10**5
# veronese_points, koszul.monomial_basis and the Koszul wedge tables refuse
# tables of more entries, rows times coordinates, than this
TABLE_CELL_GUARD = 5 * 10**7


def compositions(total: int, parts: int) -> Iterator[Vector]:
    """Yield all compositions of `total` into `parts` nonnegative parts.

    Order is lexicographic descending: (total, 0, ..., 0) first. This is the
    canonical vector order used throughout the package. Iterative, so any
    number of parts works.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if total < 0:
        raise ValueError("total must be >= 0")
    cur = [total] + [0] * (parts - 1)
    # i is the rightmost nonzero part before the last, -1 when there is none
    i = 0 if total and parts > 1 else -1
    yield tuple(cur)
    while i >= 0:
        # the next composition moves one unit from part i to part i + 1 and
        # gathers the last part's units there
        last, cur[-1] = cur[-1], 0
        cur[i] -= 1
        cur[i + 1] = last + 1
        yield tuple(cur)
        if i < parts - 2:
            i += 1
        else:
            while i >= 0 and not cur[i]:
                i -= 1


def composition_count(total: int, parts: int) -> int:
    """How many vectors compositions(total, parts) yields, C(total + parts - 1,
    parts - 1), exact up to 10**37. The lower index is capped at 64 so that
    huge sizes cost nothing; a capped count is still above 10**37, since
    C(m, k) grows with k up to m / 2 and C(128, 64) > 10**37."""
    return comb(total + parts - 1, min(total, parts - 1, 64))


def partitions_into(total: int, max_parts: int) -> Iterator[Vector]:
    """Yield partitions of `total` into at most `max_parts` parts.

    Each partition is padded with zeros to length `max_parts` (a canonical
    non-increasing vector). Order is lexicographic descending. Iterative,
    so any number of parts works.
    """
    if max_parts < 1:
        raise ValueError("max_parts must be >= 1")
    if total < 0:
        raise ValueError("total must be >= 0")
    cur = [0] * max_parts
    _fill_greedily(cur, 0, total, total)
    while True:
        yield tuple(cur)
        # the rightmost part that can lose one unit to the parts after it,
        # each of them at most its new value; they are then refilled greedily
        rest = cur[-1]
        i = max_parts - 2
        while i >= 0 and (cur[i] - 1) * (max_parts - 1 - i) < rest + 1:
            rest += cur[i]
            i -= 1
        if i < 0:
            return
        cur[i] -= 1
        _fill_greedily(cur, i + 1, rest + 1, cur[i])


def balanced_weight(total: int, parts: int) -> Vector:
    """The partition of `total` into `parts` parts that differ by at most 1,
    larger parts first: the last vector partitions_into(total, parts)
    yields, and the one dominated by every other."""
    base, extra = divmod(total, parts)
    return (base + 1,) * extra + (base,) * (parts - extra)


def orbit_count_floor(total: int, parts: int) -> int:
    """A lower bound on how many vectors partitions_into(total, parts)
    yields, cheap for any size. An orbit has at most k! members, so for any
    k <= parts at least composition_count(total, k) // k! partitions have at
    most k parts; k is capped at 64, where the count is exact and k! small."""
    k = min(parts, 64)
    return composition_count(total, k) // factorial(k)


def _fill_greedily(cur: list[int], start: int, total: int, cap: int) -> None:
    """Fill cur[start:] with the lexicographically largest non-increasing
    parts of at most cap that sum to total."""
    for j in range(start, len(cur)):
        cur[j] = part = min(cap, total)
        total -= part
        cap = part


@dataclass(frozen=True)
class PointConfig:
    """A finite point configuration in N^k.

    Fields:
        points: the configuration, distinct vectors with nonnegative entries.
        n, d: the ambient projective dimension and the embedding degree of
            a veronese configuration, set together; None for a general one,
            which is ungraded. `kind` is "veronese" exactly when d is set.
    """

    points: tuple[Vector, ...]
    n: int | None = None
    d: int | None = None

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("configuration needs at least one point")
        k = len(self.points[0])
        for a in self.points:
            if len(a) != k:
                raise ValueError("all points must share one ambient dimension")
            if min(a, default=0) < 0:
                raise ValueError("points must have nonnegative coordinates")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be distinct")
        if (self.n is None) != (self.d is None):
            raise ValueError("veronese configuration requires n and d")
        if self.d is not None and (k != self.n + 1
                                   or len(self.points) != comb(self.n + self.d, self.n)):
            raise ValueError("inconsistent veronese data")

    @property
    def kind(self) -> str:
        return "general" if self.d is None else "veronese"

    @property
    def ambient_dim(self) -> int:
        return len(self.points[0])

    @cached_property
    def array(self) -> np.ndarray:
        """The points as a read-only (m, k) int64 array, built at the first
        read and kept: slice builds, vertex tests and matchings share it.
        OverflowError for a coordinate of 2**63 or more."""
        arr = np.array(self.points, dtype=np.int64).reshape(-1, self.ambient_dim)
        arr.flags.writeable = False
        return arr

    def degree_of(self, v: Sequence[int]) -> int:
        """Total degree of a semigroup element, its coordinate sum over d;
        UnsupportedConfigError for a general configuration."""
        if self.kind != "veronese":
            raise UnsupportedConfigError("general configuration is ungraded")
        s = sum(v)
        if s % self.d != 0:
            raise ValueError(f"{tuple(v)} has coordinate sum not divisible by {self.d}")
        return s // self.d


@dataclass(frozen=True)
class Multidegree:
    """A vector with its total degree."""

    coords: Vector
    total_degree: int

    @property
    def canonical(self) -> Multidegree:
        """The non-increasing member of this multidegree's coordinate-permutation orbit."""
        return Multidegree(tuple(sorted(self.coords, reverse=True)), self.total_degree)


@lru_cache(maxsize=16)
def veronese_points(n: int, d: int) -> PointConfig:
    """All exponent vectors of degree-d monomials in n+1 variables.

    Cached for a process that runs several commands over one (n, d); each
    command calls this once and hands the config to its jobs. Validating
    checks every point; the frozen PointConfig is safe to share.

    Args:
        n: projective dimension, n >= 1.
        d: embedding degree, d >= 1.

    Returns:
        PointConfig with C(n+d, n) points in lexicographic descending order.

    Raises:
        CapacityError: when C(n+d, n) exceeds VERONESE_POINT_GUARD, or
            C(n+d, n) * (n+1) coordinates exceed TABLE_CELL_GUARD.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if (count := composition_count(d, n + 1)) > VERONESE_POINT_GUARD:
        raise CapacityError(f"C({n + d}, {n}) points exceed guard {VERONESE_POINT_GUARD}")
    check_cells("point", count, n + 1)
    pts = tuple(compositions(d, n + 1))
    return PointConfig(points=pts, n=n, d=d)


def general_config(points: Sequence[Sequence[int]]) -> PointConfig:
    """Wrap an explicit point list as a general (ungraded) configuration."""
    pts = tuple(tuple(int(x) for x in a) for a in points)
    return PointConfig(points=pts)


def semigroup_contains(config: PointConfig, v: Sequence[int]) -> bool:
    """Decide whether v is a nonnegative integer combination of the points.

    For veronese configurations the closed form applies: all coordinates
    nonnegative and coordinate sum divisible by d (every such vector splits
    greedily into degree-d pieces because the configuration contains all
    compositions). General configurations fall back to a depth-first search
    over residual vectors with memoization, on an explicit stack so that no
    residual is too deep; the search is bounded because every nonzero point
    strictly decreases the residual's coordinate sum.
    """
    vv = tuple(int(x) for x in v)
    if len(vv) != config.ambient_dim:
        raise ValueError("vector has wrong length")
    return membership_tester(config)(vv)


def membership_tester(config: PointConfig):
    """A reusable membership predicate with a memo that persists across calls.

    Vectors of any origin may be passed; negative coordinates test False.
    """
    if config.kind == "veronese":
        d = config.d

        def member_closed(v: Sequence[int]) -> bool:
            return all(x >= 0 for x in v) and sum(v) % d == 0

        return member_closed

    points = [a for a in config.points if any(a)]
    memo: dict[Vector, bool] = {}

    def residuals(v: Vector) -> Iterator[Vector]:
        for a in points:
            if all(x >= y for x, y in zip(v, a)):
                yield tuple(x - y for x, y in zip(v, a))

    def known(v: Vector) -> bool | None:
        return True if not any(v) else memo.get(v)

    def member_dfs(v: Sequence[int]) -> bool:
        vv = tuple(v)
        if any(x < 0 for x in vv):
            return False
        hit = known(vv)
        if hit is not None:
            return hit
        # one frame per residual on the search path: the residual and the
        # iterator over what is left of it after each point it dominates
        stack = [(vv, residuals(vv))]
        ok = False  # the answer of the frame popped last
        while stack:
            top, rest = stack[-1]
            if not ok:
                # the next residual below top not known to be a non-member
                w = next((w for w in rest if known(w) is not False), None)
                if w is not None and known(w) is None:
                    stack.append((w, residuals(w)))
                    continue
                ok = w is not None
            memo[top] = ok
            stack.pop()
        return ok

    return member_dfs


def multidegree(config: PointConfig, coords: Sequence[int]) -> Multidegree:
    """Validated constructor: coords must lie in the configuration's semigroup."""
    cc = tuple(int(x) for x in coords)
    if not semigroup_contains(config, cc):
        raise ValueError(f"{cc} is not in the semigroup of this configuration")
    return Multidegree(coords=cc, total_degree=config.degree_of(cc))


def orbit_size_of(coords: Sequence[int]) -> int:
    """Number of distinct coordinate permutations of a vector."""
    k = len(coords)
    size = factorial(k)
    for mult in Counter(coords).values():
        size //= factorial(mult)
    return size


def orbit_expansion(coords: Sequence[int]) -> list[Vector]:
    """All distinct coordinate permutations, lexicographically descending.

    Generated directly as successive previous permutations of the multiset,
    starting from its non-increasing arrangement, so each distinct
    permutation is produced once and no k! intermediate set is built.
    """
    cur = sorted((int(x) for x in coords), reverse=True)
    k = len(cur)
    out = [tuple(cur)]
    while True:
        # the rightmost descent; everything after it is non-decreasing
        i = k - 2
        while i >= 0 and cur[i] <= cur[i + 1]:
            i -= 1
        if i < 0:
            return out
        # swap in the largest smaller entry, then make the tail non-increasing
        j = k - 1
        while cur[j] >= cur[i]:
            j -= 1
        cur[i], cur[j] = cur[j], cur[i]
        cur[i + 1:] = cur[:i:-1]
        out.append(tuple(cur))


def check_weight(total: int) -> None:
    """CapacityError when a coordinate sum exceeds ENUMERATION_WEIGHT_GUARD,
    read at each call."""
    if total > ENUMERATION_WEIGHT_GUARD:
        raise CapacityError(f"coordinate sum {total} exceeds guard {ENUMERATION_WEIGHT_GUARD}")


def check_cells(kind: str, rows: int, coords: int) -> None:
    """CapacityError, before a table of rows vectors of coords coordinates
    each is built, when it holds more than TABLE_CELL_GUARD entries, read at
    each call."""
    if rows * coords > TABLE_CELL_GUARD:
        raise CapacityError(f"{kind} table of {rows} rows x {coords} coordinates "
                            f"exceeds guard {TABLE_CELL_GUARD}")


def enumerate_multidegrees(config: PointConfig, total_degree: int,
                           up_to_symmetry: bool = True) -> list[Multidegree]:
    """One canonical Multidegree per coordinate-permutation orbit of the
    semigroup elements of the given total degree.

    For a veronese configuration these elements are the vectors in N^{n+1}
    with coordinate sum total_degree * d; each orbit is returned as its
    non-increasing member m, which is its own m.canonical, in lexicographic
    descending order; orbit_size_of(m.coords) counts the orbit's members and
    `lattice.compositions` lists every element.
    up_to_symmetry=False is refused: orbit representatives are the only
    mode, and the keyword is kept for callers that spell it out (the
    criterion-09 acceptance test does).

    Raises:
        UnsupportedConfigError: for general configurations (enumeration has
            no termination bound without a grading).
        CapacityError: when total_degree * d exceeds the weight guard.
    """
    if not up_to_symmetry:
        raise ValueError("enumerate_multidegrees lists orbit representatives only; "
                         "use compositions for every element")
    if config.kind != "veronese":
        raise UnsupportedConfigError("multidegree enumeration needs a veronese configuration")
    if total_degree < 0:
        raise ValueError("total_degree must be >= 0")
    total = total_degree * config.d
    check_weight(total)
    return [Multidegree(coords=part, total_degree=total_degree)
            for part in partitions_into(total, config.ambient_dim)]
