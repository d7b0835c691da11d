"""Closed-form facts about Veronese embeddings, computed without syzcheck.

The benchmark checks the program's outputs against these. Nothing here
imports the package under test; every function is a textbook formula.

v_d(P^n) is the embedding of projective n-space by all N = C(n+d, n)
monomials of degree d. Its coordinate ring R has Hilbert function
dim R_m = C(md+n, n), and beta_{p,k} is the number of degree-k generators
of the p-th syzygy module of R over the polynomial ring in N variables.
"""

from __future__ import annotations

from math import comb


def partition_count(total: int, max_parts: int) -> int:
    """Partitions of total into at most max_parts parts.

    By conjugation these are the partitions whose parts are at most
    max_parts, which the coin-change recurrence counts directly.
    """
    ways = [1] + [0] * total
    for part in range(1, max_parts + 1):
        for s in range(part, total + 1):
            ways[s] += ways[s - part]
    return ways[total]


def composition_count(total: int, parts: int) -> int:
    """Vectors in N^parts with coordinate sum total (stars and bars)."""
    return comb(total + parts - 1, parts - 1)


def regularity(n: int, d: int) -> int:
    """Castelnuovo-Mumford regularity of the Veronese ring,
    n + 1 - ceil((n+1)/d): beta_{p,k} = 0 whenever k > p + regularity."""
    return n + 1 - (-(-(n + 1) // d))


def betti_euler(n: int, d: int, k: int) -> int:
    """sum_p (-1)^p beta_{p,k} of v_d(P^n).

    The graded resolution gives sum_{p,k} (-1)^p beta_{p,k} t^k
    = (1-t)^N * sum_m C(md+n, n) t^m, so this is the coefficient of t^k
    on the right-hand side.
    """
    big_n = comb(n + d, n)
    return sum((-1) ** i * comb(big_n, i) * comb((k - i) * d + n, n)
               for i in range(min(k, big_n) + 1))


def linear_strand(n: int, d: int, p: int) -> int:
    """beta_{p,p+1} of v_d(P^n), for p with beta_{p-1,p+1} = 0.

    Degree p+1 then holds only the linear-strand term, so the Euler sum
    at that degree is (-1)^p beta_{p,p+1}. Green's theorem (v_d satisfies
    N_d) gives beta_{p-1,p+1} = 0 for p - 1 <= d.
    """
    return (-1) ** p * betti_euler(n, d, p + 1)


def schur_dimension(parts: tuple[int, ...], v_dim: int) -> int:
    """dim S_lambda(C^v_dim) by the hook-content formula:
    the product over the cells (i, j) of (v_dim + j - i) / hook(i, j)."""
    conj = [sum(1 for x in parts if x > j) for j in range(parts[0])] if parts else []
    num = 1
    den = 1
    for i, row in enumerate(parts):
        for j in range(row):
            num *= v_dim + j - i
            den *= (row - j - 1) + (conj[j] - i - 1) + 1
    return num // den
