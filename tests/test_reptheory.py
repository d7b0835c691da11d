"""Tests for Schur decomposition of weight characters.

brute_kostka below fills tableaux cell by cell and is the independent
oracle for the horizontal-strip recursion. weight_character and
reconstruct_character are brute-force references for the characters that
the peel takes apart (at their dominant weights) and puts back together.
Frozen Tor decompositions were cross-checked against the classical small
resolutions (conic, twisted cubic, quadratic Veronese surface).
"""

import re
from collections import Counter
from itertools import combinations, permutations

import pytest

from syzcheck.errors import MismatchError
from syzcheck.lattice import compositions, orbit_size_of, partitions_into
from syzcheck.reptheory import (
    Partition,
    SchurDecomposition,
    kostka,
    partition,
    schur_decompose,
    tor_schur_decomposition,
)


def weight_character(p: int, q: int, d: int, v_dim: int) -> dict[tuple[int, ...], int]:
    """Weights of wedge^p Sym^d V (x) Sym^{qd} V by brute force: one weight
    per p-subset of degree-d monomials and degree-qd monomial."""
    mults: Counter = Counter()
    for wedge in combinations(compositions(d, v_dim), p):
        base = [sum(e[k] for e in wedge) for k in range(v_dim)]
        for s in compositions(q * d, v_dim):
            mults[tuple(b + x for b, x in zip(base, s))] += 1
    return dict(mults)


def dominant(char: dict) -> dict:
    """The multiplicities of a character at its dominant weights: the
    peel's input."""
    return {w: m for w, m in char.items() if list(w) == sorted(w, reverse=True)}


def reconstruct_character(decomp: SchurDecomposition) -> dict[tuple[int, ...], int]:
    """The weight character of a Schur decomposition at every weight: the
    Kostka numbers of each term, times its multiplicity, summed."""
    mults: Counter = Counter()
    for lam, c in decomp.terms.items():
        for w in compositions(lam.size, decomp.v_dim):
            mults[w] += c * kostka(lam, w)
    return {w: m for w, m in mults.items() if m}


def brute_kostka(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Count semistandard tableaux by direct cell-by-cell search."""
    rows = [[0] * r for r in shape]
    left = list(content)

    def rec(r: int, c: int) -> int:
        if r == len(shape):
            return 1
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        total = 0
        for v in range(lo, len(content) + 1):
            if left[v - 1]:
                left[v - 1] -= 1
                rows[r][c] = v
                total += rec(nr, nc)
                left[v - 1] += 1
        return total

    return rec(0, 0)


def test_partition_normalization():
    assert partition((3, 2, 0, 0)).parts == (3, 2)
    assert partition(()).parts == ()
    assert partition((3, 2)).rows == 2
    assert partition((3, 2)).size == 5
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((2, 0, 1))


def test_kostka_examples():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((1, 1), (2, 0)) == 0
    for lam in [(3,), (2, 1), (2, 2), (3, 1, 1)]:
        assert kostka(lam, lam) == 1
    with pytest.raises(ValueError):
        kostka((2, 1), (1, 1))
    with pytest.raises(ValueError):
        kostka((2, 1), (4, -1))


def test_kostka_content_permutation_invariance():
    for lam, base in [((2, 1), (2, 1, 0)), ((2, 2), (2, 1, 1)), ((3, 1), (2, 1, 1))]:
        vals = {kostka(lam, mu) for mu in set(permutations(base))}
        assert len(vals) == 1


def test_kostka_against_brute_force():
    for n in range(1, 7):
        for lam in partitions_into(n, 4):
            shape = tuple(x for x in lam if x)
            for mu in partitions_into(n, 4):
                content = tuple(x for x in mu if x)
                assert kostka(shape, mu) == brute_kostka(shape, content), (shape, mu)


def test_kostka_rows_add_up_to_the_hook_content_dimension():
    # dim S_lam(C^7) = prod over cells (i, j) of (7 + j - i) / hook(i, j);
    # summing K_{lam mu} over the orbits of the dominant weights mu gives
    # the same number, checking every strip past the brute-force range
    v_dim, shapes = 7, 0
    for n in range(13):
        for lam in partitions_into(n, v_dim):
            shape = tuple(x for x in lam if x)
            cols = [sum(1 for r in shape if r > j) for j in range(shape[0] if shape else 0)]
            num = den = 1
            for i, row in enumerate(shape):
                for j in range(row):
                    num *= v_dim + j - i
                    den *= (row - j) + (cols[j] - i) - 1
            dim = sum(kostka(shape, mu) * orbit_size_of(mu) for mu in partitions_into(n, v_dim))
            assert dim * den == num, shape
            shapes += 1
    assert shapes == 246


def test_weight_character_examples():
    wc = weight_character(2, 0, 2, 2)
    assert wc == {(3, 1): 1, (2, 2): 1, (1, 3): 1}
    for d in (1, 2, 3):
        single = weight_character(1, 0, d, 3)
        assert single == {b: 1 for b in compositions(d, 3)}
    sym_only = weight_character(0, 2, 2, 2)
    assert sym_only == {b: 1 for b in compositions(4, 2)}
    with pytest.raises(ValueError):
        weight_character(-1, 0, 2, 2)


def test_schur_character_one_row_is_symmetric_power():
    for d in (1, 2, 3):
        assert all(kostka((d,), b) == 1 for b in compositions(d, 3))


def test_schur_decompose_examples():
    assert schur_decompose(dominant(weight_character(2, 0, 2, 2)), 2).terms == {
        partition((3, 1)): 1}
    for d in (1, 2, 3):
        dec = schur_decompose(dominant(weight_character(0, 1, d, 3)), 3)
        assert dec.terms == {partition((d,)): 1}
    assert schur_decompose({}, 2).terms == {}
    # zero values, such as block values at orbit representatives, drop out
    assert schur_decompose({(2, 0): 0, (1, 1): 1}, 2).terms == {partition((1, 1)): 1}


def test_schur_decompose_takes_only_dominant_weights():
    # not non-increasing, too short, too long, negative
    for key in [(0, 2), (2,), (1, 1, 0), (3, -1)]:
        with pytest.raises(ValueError, match=re.escape(f"key {key} is not")):
            schur_decompose({key: 1}, 2)


def test_schur_decompose_rejects_non_character():
    # (2, 0) alone misses the Sym^2 weight (1, 1): not a nonnegative sum of
    # Schur characters, must fail loudly rather than clamp
    with pytest.raises(MismatchError, match=r"drives weight \(1, 1\) to -1"):
        schur_decompose({(2, 0): 1}, 2)
    with pytest.raises(MismatchError, match=r"negative multiplicity -1 at weight \(1,\)"):
        schur_decompose({(1,): -1}, 1)


def test_decomposition_reconstructs_character():
    for (p, q, d, v_dim) in [(1, 1, 2, 2), (2, 0, 3, 3), (2, 1, 2, 3), (1, 2, 2, 3)]:
        wc = weight_character(p, q, d, v_dim)
        dec = schur_decompose(dominant(wc), v_dim)
        assert reconstruct_character(dec) == wc


def test_wedge_tensor_row_bounds():
    # tensoring p one-row characters gives at most p rows; one more factor
    # of a symmetric power adds at most one row
    for p in (1, 2):
        for d in (1, 2, 3):
            for v_dim in (p + 1, p + 2):
                wedge_only = schur_decompose(dominant(weight_character(p, 0, d, v_dim)), v_dim)
                assert all(lam.rows <= p for lam in wedge_only.terms)
                full = schur_decompose(dominant(weight_character(p, 2, d, v_dim)), v_dim)
                assert all(lam.rows <= p + 1 for lam in full.terms)


def test_tor_decomposition_examples():
    assert tor_schur_decomposition(1, 1, 2, 2).terms == {partition((2, 2)): 1}
    assert tor_schur_decomposition(1, 1, 1, 2).terms == {}
    assert tor_schur_decomposition(1, 1, 1, 3).terms == {}
    dec = tor_schur_decomposition(2, 2, 2, 3)
    assert all(lam.rows <= 3 for lam in dec.terms)


def test_tor_decomposition_known_small_resolutions():
    assert tor_schur_decomposition(1, 1, 3, 2).terms == {partition((4, 2)): 1}
    assert tor_schur_decomposition(2, 1, 2, 3).terms == {partition((3, 2, 1)): 1}


def test_tor_row_bound():
    for p in (1, 2):
        for d in (1, 2, 3):
            for v_dim in (p + 1, p + 2):
                dec = tor_schur_decomposition(p, 2, d, v_dim)
                assert all(lam.rows <= p + 1 for lam in dec.terms), (p, d, v_dim)


def test_tor_stability_in_v_dim():
    for p in (1, 2):
        for q in (1, 2):
            for d in (1, 2, 3):
                small = tor_schur_decomposition(p, q, d, p + 1)
                large = tor_schur_decomposition(p, q, d, p + 2)
                assert small.terms == large.terms, (p, q, d)


def test_tor_requires_enough_variables():
    with pytest.raises(ValueError):
        tor_schur_decomposition(2, 1, 2, 2)


def test_json_exports():
    dec = schur_decompose(dominant(weight_character(2, 0, 2, 2)), 2)
    assert dec.to_json() == [{"partition": [3, 1], "mult": 1}]
    two = SchurDecomposition(3, {partition((2, 1)): 2, partition((3,)): 1})
    assert two.to_json() == [
        {"partition": [3], "mult": 1},
        {"partition": [2, 1], "mult": 2},
    ]
