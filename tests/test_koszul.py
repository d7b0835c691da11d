"""Tests for the Koszul-side Tor computation.

Derived constants below (the 9x5 rank-5 differential, the per-weight Tor
values for n=1) were produced by an independent dense rational oracle that
builds the same maps from scratch with Fraction arithmetic; test_homology's
fraction_rank is that kind of rank routine, reused here for spot re-checks.
"""

import tracemalloc
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp

from syzcheck import koszul, lattice
from syzcheck.complexes import build_slice, make_matrix
from syzcheck.errors import CapacityError
from syzcheck.homology import rank_exact, reduced_betti
from syzcheck.koszul import (
    TorSlice,
    koszul_map,
    monomial_basis,
    tor_dimension,
)
from syzcheck.lattice import compositions, partitions_into, veronese_points
from syzcheck.reptheory import tor_schur_decomposition
from test_complexes import csr
from test_homology import check_middle_homology, fraction_rank, rank_calls, rational_residuals
from test_reptheory import reconstruct_character


def whole_basis(p, wedge_degree, sym_degree, v_dim):
    # wedge^p Sym^wedge_degree V (x) Sym^sym_degree V: pairs (S, e) of an
    # increasing index tuple S into the wedge monomials and a symmetric
    # exponent vector e, wedge-major, then by descending e
    m = len(monomial_basis(wedge_degree, v_dim))
    return list(product(combinations(range(m), p), monomial_basis(sym_degree, v_dim)))


def whole_map(p, q, n, d):
    # the differential on the whole bases, one loop step per entry: the
    # reference the weighted maps are tested against
    v_dim = n + 1
    dom = whole_basis(p, d, q * d, v_dim)
    cod = whole_basis(p - 1, d, (q + 1) * d, v_dim)
    row_of = {key: i for i, key in enumerate(cod)}
    mon = monomial_basis(d, v_dim)
    triplets = [(row_of[w[:i] + w[i + 1:], tuple(a + b for a, b in zip(f, mon[mi]))], col,
                 (-1) ** i) for col, (w, f) in enumerate(dom) for i, mi in enumerate(w)]
    return make_matrix(len(cod), len(dom), triplets)


def weight_space(p, degree, b):
    # the rows of _wedge_table that fit under b: a batch of one weight
    return koszul._weight_spaces(p, degree, len(b), np.asarray([b], dtype=np.int64).tobytes())[2]


def test_monomial_basis_counts_and_order():
    for v_dim in (1, 2, 3, 4):
        for deg in (0, 1, 2, 3):
            basis = monomial_basis(deg, v_dim)
            assert len(basis) == comb(v_dim + deg - 1, deg)
            assert list(basis) == sorted(basis, reverse=True)
            for i, e in enumerate(basis):
                assert basis.index(e) == i
    assert monomial_basis(2, 2) == ((2, 0), (1, 1), (0, 2))


def test_wedge_tensor_basis_size():
    # the reference's whole basis
    b = whole_basis(2, 2, 4, 2)
    assert len(b) == comb(3, 2) * 5
    assert all(len(w) == 2 and w[0] < w[1] for w, _ in b)
    empty_wedge = whole_basis(0, 2, 4, 2)
    assert len(empty_wedge) == 5
    assert all(w == () for w, _ in empty_wedge)


def test_weighted_bases_pair_each_subset_with_its_exponent():
    # within weight b the symmetric factor of subset S is b - sum(S), which
    # is nonnegative exactly on the rows of _weight_spaces: the weight spaces
    # split the full basis
    for p, wedge_degree, sym_degree, v_dim in ((0, 2, 3, 2), (1, 1, 2, 3), (2, 2, 2, 2),
                                               (2, 1, 3, 3), (3, 2, 1, 3)):
        idx, sums, _ = koszul._wedge_table(p, wedge_degree, v_dim)
        seen = []
        for b in compositions(p * wedge_degree + sym_degree, v_dim):
            rows = weight_space(p, wedge_degree, b)
            rem = np.asarray(b)[:, None] - sums[:, rows]
            assert (rem >= 0).all()
            seen += zip(map(tuple, idx[rows].tolist()), map(tuple, rem.T.tolist()))
        full = whole_basis(p, wedge_degree, sym_degree, v_dim)
        assert len(seen) == len(set(seen)) == len(full)
        assert set(seen) == set(full)


def test_wedge_table_ranks_each_subset_to_its_row():
    # subset e_0 < ... < e_{p-1} is row comb(m, p) - 1 - sum_t lex[t, e_t],
    # from the empty wedge (p = 0) to the top one (p = m)
    for p, degree, v_dim in ((0, 1, 3), (1, 2, 2), (2, 2, 3), (3, 1, 3), (3, 2, 3),
                             (4, 1, 5), (6, 2, 3)):
        idx, _, lex = koszul._wedge_table(p, degree, v_dim)
        m = len(monomial_basis(degree, v_dim))
        assert idx.tolist() == [list(c) for c in combinations(range(m), p)]
        assert lex.shape == (p + 1, m) and not lex[p].any()
        ranks = comb(m, p) - 1 - lex[np.arange(p), idx].sum(axis=1)
        assert ranks.tolist() == list(range(len(idx))), (p, degree, v_dim)
    # above the 3 linear forms in 3 variables the wedge is zero: an empty
    # table with 4 zero rank rows, and maps out of it or onto it are empty
    idx, sums, lex = koszul._wedge_table(4, 1, 3)
    assert idx.shape == (0, 4) and sums.shape == (3, 0)
    assert lex.shape == (4, 3) and not lex.any()
    for p, b, shape in ((4, (2, 2, 1), (1, 0)), (5, (2, 2, 2), (0, 0))):
        down = koszul_map(p, 1, 2, 1, [b])
        assert (down.rows, down.cols) == shape and down.entries == []


def test_linear_map_shape_and_entries():
    # wedge^1 Sym^1 (x) Sym^1 -> Sym^2 over two variables: every column has
    # a single +1, images x*x, x*y, y*x, y*y.
    mat = whole_map(1, 1, 1, 1)
    assert (mat.cols, mat.rows) == (4, 3)
    assert sorted(mat.entries) == [(0, 0, 1), (1, 1, 1), (1, 2, 1), (2, 3, 1)]
    assert fraction_rank(mat) == 3


def test_quadric_map_rank():
    mat = whole_map(1, 1, 1, 2)
    assert (mat.cols, mat.rows) == (9, 5)
    assert all(v in (1, -1) for _, _, v in mat.entries)
    assert fraction_rank(mat) == 5


def test_weight_restriction_partitions_bases():
    p, q, n, d = 2, 1, 1, 2
    full = whole_map(p, q, n, d)
    col_total = row_total = 0
    for b in compositions((p + q) * d, n + 1):
        part = koszul_map(p, q, n, d, [b])
        col_total += part.cols
        row_total += part.rows
    assert col_total == full.cols
    assert row_total == full.rows


def test_composite_of_consecutive_maps_is_zero():
    for n in (1, 2):
        for d in (1, 2, 3):
            for p in (1, 2, 3):
                for q in (1, 2):
                    down = csr(whole_map(p, q, n, d))
                    up = csr(whole_map(p + 1, q - 1, n, d))
                    assert abs(down @ up).sum() == 0


def weight_of(element, d, v_dim):
    # the torus weight of a basis element (S, e), from its monomials
    w, e = element
    mon = monomial_basis(d, v_dim)
    return tuple(map(sum, zip(e, *(mon[i] for i in w))))


def test_weighted_maps_restrict_the_full_map():
    # at every weight the weighted map is the full map on the elements of
    # that weight, rows and columns in the full bases' order, and the two
    # maps around each middle term compose to zero. p = 1 maps onto the
    # single empty subset, weights with no middle element give empty maps,
    # and (3, 2, 3, 1) is the largest case, 1575 x 1200 in full
    empty = 0
    for n, d, p, q in ((1, 1, 1, 1), (1, 2, 1, 2), (1, 3, 2, 1), (2, 1, 2, 1),
                       (2, 2, 1, 1), (2, 2, 2, 2), (2, 2, 3, 1), (1, 2, 3, 2),
                       (3, 1, 1, 2), (3, 2, 3, 1)):
        v_dim = n + 1
        full = csr(whole_map(p, q, n, d)).toarray()
        dom = [weight_of(x, d, v_dim) for x in whole_basis(p, d, q * d, v_dim)]
        cod = [weight_of(x, d, v_dim) for x in whole_basis(p - 1, d, (q + 1) * d, v_dim)]
        for b in compositions((p + q) * d, v_dim):
            rows = [i for i, w in enumerate(cod) if w == b]
            cols = [i for i, w in enumerate(dom) if w == b]
            down = koszul_map(p, q, n, d, [b])
            assert (down.rows, down.cols) == (len(rows), len(cols)), (n, d, p, q, b)
            assert (csr(down).toarray() == full[rows][:, cols]).all(), (n, d, p, q, b)
            assert p > 1 or down.rows == 1
            empty += not down.cols
            if q >= 1:
                up = koszul_map(p + 1, q - 1, n, d, [b])
                assert up.rows == down.cols
                assert abs(csr(down) @ csr(up)).sum() == 0, (n, d, p, q, b)
    assert empty > 0
    # near the top of the wedge, where base-20 codes of 18-subsets of the 20
    # cubics in four variables would overflow 64 bits, against the map built
    # entry by entry on the weight spaces, in which a subset names its element
    p, q, n, d, b = 19, 1, 3, 3, (15, 15, 15, 15)

    def space(k):
        rows = weight_space(k, d, b)
        return [tuple(s) for s in koszul._wedge_table(k, d, n + 1)[0][rows]]

    dom = space(p)
    row_of = {w: i for i, w in enumerate(space(p - 1))}
    expected = [(row_of[w[:i] + w[i + 1:]], col, (-1) ** i)
                for col, w in enumerate(dom) for i in range(p)]
    down = koszul_map(p, q, n, d, [b])
    assert (down.rows, down.cols) == (len(row_of), len(dom)) == (190, 20)
    assert down.entries == expected


def test_a_map_over_weights_is_the_block_diagonal_of_its_one_weight_maps():
    # one block per weight, in the order given, with its rows and columns
    # where the blocks before it end; weights without a middle element
    # give empty blocks
    empty = 0
    cases = [((p, q, n, d), list(compositions((p + q) * d, n + 1))[::-1])
             for p, q, n, d in ((1, 1, 1, 2), (2, 1, 2, 2), (2, 2, 1, 3), (3, 1, 2, 2))]
    # near the top of the wedge of the 20 cubics in four variables
    cases.append(((19, 1, 3, 3), [(15, 15, 15, 15), (60, 0, 0, 0), (16, 15, 15, 14)]))
    for (p, q, n, d), weights in cases:
        whole = koszul_map(p, q, n, d, weights)
        parts = [koszul_map(p, q, n, d, [b]) for b in weights]
        assert whole.ends[0].tolist() == np.cumsum([m.rows for m in parts]).tolist()
        assert whole.ends[1].tolist() == np.cumsum([m.cols for m in parts]).tolist()
        empty += sum(not m.cols for m in parts)
        expected = sp.block_diag([csr(m) for m in parts], format="csr")
        assert expected.shape == (whole.rows, whole.cols)
        assert abs(csr(whole) - expected).sum() == 0, (p, q, n, d)
        assert whole.nnz == sum(m.nnz for m in parts)
    assert empty > 0


# (p, q, n, d): pieces whose weights rank the down map first at some
# weights and the dual complex at others
BOTH_ORDERS = [(1, 1, 1, 2), (1, 2, 2, 2), (2, 2, 2, 2), (1, 1, 2, 3), (2, 2, 1, 3), (2, 1, 2, 2)]


def whole_map_values(p, q, n, d):
    """Per dominant weight b: the middle homology of the whole maps' rows
    and columns of weight b, by Fraction ranks, and whether the up map has
    fewer entries there than the down map."""
    v_dim = n + 1
    down = csr(whole_map(p, q, n, d)).toarray()
    up = csr(whole_map(p + 1, q - 1, n, d)).toarray()
    cod, mid, top = ([weight_of(x, d, v_dim) for x in whole_basis(k, d, (p + q - k) * d, v_dim)]
                     for k in (p - 1, p, p + 1))

    def rank(a):
        return fraction_rank(make_matrix(*a.shape, [(i, j, int(a[i, j]))
                                                    for i, j in zip(*a.nonzero())]))

    values, dual = {}, set()
    for b in partitions_into((p + q) * d, v_dim):
        at = [[i for i, w in enumerate(space) if w == b] for space in (cod, mid, top)]
        values[b] = len(at[1]) - rank(down[at[0]][:, at[1]]) - rank(up[at[1]][:, at[2]])
        if at[1] and (p + 1) * len(at[2]) < p * len(at[1]):
            dual.add(b)
    return values, dual


def test_batched_sweep_matches_whole_map_ranks_on_every_weight(monkeypatch):
    # with the guard lowered so that each sweep is cut into batches of two
    # weights, every dominant value equals the whole maps' ranks at that
    # weight, for weights of both rank orders
    maps = []
    real = koszul.koszul_map

    def counting(p, q, n, d, weights):
        maps.append(len(weights))
        return real(p, q, n, d, weights)

    monkeypatch.setattr(koszul, "koszul_map", counting)
    expected = {piece: whole_map_values(*piece) for piece in BOTH_ORDERS}
    orders = set()
    for (p, q, n, d), (values, dual) in expected.items():
        orders.update(b in dual for b in values)
        m = len(monomial_basis(d, n + 1))
        monkeypatch.setattr(koszul, "DEFAULT_BASIS_GUARD",
                            max(2 * max(comb(m, k) for k in (p - 1, p, p + 1)),
                                lattice.composition_count((q + 1) * d, n + 1)))
        maps.clear()
        swept = tor_dimension(p, q, n, d)
        assert {b: v for b, v in swept.weights.items() if list(b) == sorted(b, reverse=True)} \
            == {b: v for b, v in values.items() if v}, (p, q, n, d)
        assert len(maps) > 2 and max(maps) <= 2, (p, q, n, d)
    assert orders == {True, False}


def test_restricted_rank_matches_brute_force_on_koszul_weights(monkeypatch):
    # every weight of the pieces with n <= 2, d <= 3, p <= 3, q <= 2: the
    # restricted rank against Fraction ranks of both full maps, and
    # tor_dimension, which skips an empty middle term, against both
    calls = rank_calls(monkeypatch)
    dropped = 0
    for n in (1, 2):
        for d in (1, 2, 3):
            for p in (1, 2, 3):
                for q in (1, 2):
                    for b in compositions((p + q) * d, n + 1):
                        down = koszul_map(p, q, n, d, [b])
                        up = koszul_map(p + 1, q - 1, n, d, [b])
                        (value,), drops = check_middle_homology(down, up, calls)
                        assert tor_dimension(p, q, n, d, weight=b).total_dim == value
                        dropped += drops
    assert dropped > 0


def test_weight_checks_run_before_the_empty_middle_term_is_skipped():
    # (5, 0) and (5, -1, 0) have no middle element, but they are still refused
    with pytest.raises(ValueError, match="weight sum must be 4"):
        tor_dimension(1, 1, 1, 2, weight=(5, 0))
    with pytest.raises(ValueError, match="weight must be nonnegative"):
        tor_dimension(1, 1, 2, 2, weight=(5, -1, 0))
    with pytest.raises(ValueError, match="wrong length"):
        tor_dimension(1, 1, 1, 2, weight=(4,))
    with pytest.raises(ValueError, match="need p >= 1"):
        tor_dimension(1, 1, 0, 2, weight=(9,))


def test_tor_examples():
    assert tor_dimension(1, 1, 1, 1).total_dim == 0
    t2 = tor_dimension(1, 1, 1, 2)
    assert t2.total_dim == 1
    assert t2.weights == {(2, 2): 1}
    t3 = tor_dimension(1, 1, 1, 3)
    assert t3.total_dim == 3
    assert t3.weights == {(3, 3): 1, (4, 2): 1, (2, 4): 1}


def test_tor_single_weight_matches_sweep_entry():
    t = tor_dimension(1, 1, 1, 3, weight=(4, 2))
    assert t.total_dim == 1
    assert t.weights == {(4, 2): 1}
    assert tor_dimension(1, 1, 1, 3, weight=(5, 1)).total_dim == 0


def test_tor_sweep_total_matches_unrestricted():
    # reference: middle homology of the unrestricted complex, ranked by
    # test_homology's Fraction elimination
    for (p, q, n, d) in [(1, 1, 1, 2), (1, 1, 1, 3), (2, 1, 1, 2), (1, 2, 2, 2)]:
        down = whole_map(p, q, n, d)
        up = whole_map(p + 1, q - 1, n, d)
        plain = down.cols - fraction_rank(down) - fraction_rank(up)
        swept = tor_dimension(p, q, n, d)
        assert swept.total_dim == plain, (p, q, n, d)
        assert swept.total_dim == sum(swept.weights.values())


def test_tor_agrees_with_divisor_complex_homology():
    # The two pipelines must return the same number for every weight of
    # lattice degree p + q, where the complex side reads dimension p - 1.
    for (n, d) in [(1, 2), (1, 3), (2, 2)]:
        config = veronese_points(n, d)
        for p in (1, 2, 3):
            for q in (2, 3):
                for b in compositions((p + q) * d, n + 1):
                    tor = tor_dimension(p, q, n, d, weight=b).total_dim
                    slc = build_slice(config, b, p - 2, p)
                    betti = reduced_betti(slc, p - 1).value
                    assert tor == betti, (n, d, p, q, b, tor, betti)


def test_tor_invariant_under_coordinate_permutation():
    for (p, q, n, d) in [(1, 1, 1, 3), (1, 2, 2, 2), (2, 1, 2, 2)]:
        base = (p + q) * d
        seen = {}
        for b in compositions(base, n + 1):
            key = tuple(sorted(b, reverse=True))
            val = tor_dimension(p, q, n, d, weight=b).total_dim
            if key in seen:
                assert seen[key] == val, (p, q, n, d, b)
            else:
                seen[key] = val


# (p, q, n, d) for the brute-force gate of the orbit sweep
ORBIT_GATE_CASES = [(1, 1, 1, 3), (1, 2, 2, 2), (2, 1, 2, 2), (2, 2, 2, 2), (1, 1, 3, 2)]


def every_composition_weights(p, q, n, d):
    """The sweep without the symmetry shortcut: one rank pair per weight."""
    weights = {}
    for b in compositions((p + q) * d, n + 1):
        val = tor_dimension(p, q, n, d, weight=b).total_dim
        if val:
            weights[b] = val
    return weights


def test_orbit_sweep_matches_every_composition():
    for case in ORBIT_GATE_CASES:
        swept = tor_dimension(*case)
        brute = every_composition_weights(*case)
        assert swept.weights == brute, case
        assert swept.total_dim == sum(brute.values()), case


def test_schur_peel_matches_brute_force_character():
    for (p, q, n, d) in [(1, 2, 2, 2), (2, 1, 2, 2)]:
        decomp = tor_schur_decomposition(p, q, d, n + 1)
        assert reconstruct_character(decomp) == every_composition_weights(p, q, n, d), (p, q, n, d)


def test_preconditions_rejected():
    with pytest.raises(ValueError):
        koszul_map(0, 1, 1, 2, [(3,)])
    with pytest.raises(ValueError):
        koszul_map(1, -1, 1, 2, [(0, 0)])
    with pytest.raises(ValueError):
        tor_dimension(0, 1, 1, 2)
    with pytest.raises(ValueError):
        tor_dimension(1, 0, 1, 2)
    with pytest.raises(ValueError):
        koszul_map(1, 1, 1, 2, [(3, 2)])
    with pytest.raises(ValueError):
        koszul_map(1, 1, 1, 2, [(5, -1)])
    with pytest.raises(ValueError, match="wrong length"):
        koszul_map(1, 1, 1, 2, [(4,)])


def test_basis_guard_trips(monkeypatch):
    # the 55 monomials of Sym^9 in three variables, the codomain's symmetric
    # factor, are over guard 50, though the map's weight spaces were cached
    # under the default guard first; the sweep reaches that map too
    koszul_map(2, 2, 2, 3, [(4, 4, 4)])
    monkeypatch.setattr(koszul, "DEFAULT_BASIS_GUARD", 50)
    with pytest.raises(CapacityError, match=r"^Sym\^9 of C\^3 exceeds guard 50$"):
        koszul_map(2, 2, 2, 3, [(4, 4, 4)])
    with pytest.raises(CapacityError, match=r"^Sym\^9 of C\^3 exceeds guard 50$"):
        tor_dimension(2, 2, 2, 3)


def test_wedge_guard_trips_in_a_weight_space(monkeypatch):
    # 15 two-subsets of the 6 quadrics: over the guard, with _checked_sizes'
    # text from a weighted map over that wedge and from the sweep, though
    # the map's weight spaces were cached under the default guard first
    koszul_map(2, 1, 2, 2, [(2, 2, 2)])
    monkeypatch.setattr(koszul, "DEFAULT_BASIS_GUARD", 10)
    with pytest.raises(CapacityError, match="^wedge basis exceeds guard 10$"):
        koszul._checked_sizes(2, 2, 0, 3)
    with pytest.raises(CapacityError, match="^wedge basis exceeds guard 10$"):
        koszul_map(2, 1, 2, 2, [(2, 2, 2)])
    with pytest.raises(CapacityError, match="^wedge basis exceeds guard 10$"):
        tor_dimension(2, 1, 2, 2)


def test_a_batch_holds_no_more_subsets_than_one_weight_may(monkeypatch):
    # the 15 two-subsets of the 6 quadrics in 3 variables under a guard of
    # 30: one map may take two weights, not three, and a sweep of the piece
    # is cut into batches that fit
    monkeypatch.setattr(koszul, "DEFAULT_BASIS_GUARD", 30)
    weights = [(2, 2, 2), (3, 2, 1), (4, 1, 1)]
    assert koszul_map(2, 1, 2, 2, weights[:2]).ends[1].size == 2
    with pytest.raises(CapacityError, match="^3 weight spaces of 15 wedge subsets each "
                                            "exceed guard 30$"):
        koszul_map(2, 1, 2, 2, weights)
    assert tor_dimension(2, 1, 2, 2).total_dim == 8


def test_a_lowered_cell_guard_refuses_each_table_before_it_is_built(monkeypatch):
    # the 6 points of v_2(P^2) and the 6 quadrics in 3 variables are tables
    # of 18 entries, the sums of the 15 two-subsets of the quadrics one of 45
    built = []

    def spying(name, real):
        def spy(*args):
            built.append(name)
            return real(*args)
        return spy

    monkeypatch.setattr(lattice, "compositions", spying("points", lattice.compositions))
    monkeypatch.setattr(koszul, "compositions", spying("monomials", koszul.compositions))
    monkeypatch.setattr(koszul, "_wedge_table", spying("wedge", koszul._wedge_table))
    veronese_points.cache_clear()
    monomial_basis.cache_clear()
    monkeypatch.setattr(lattice, "TABLE_CELL_GUARD", 17)
    with pytest.raises(CapacityError, match="^point table of 6 rows x 3 coordinates "
                                            "exceeds guard 17$"):
        veronese_points(2, 2)
    with pytest.raises(CapacityError, match="^monomial table of 6 rows x 3 coordinates "
                                            "exceeds guard 17$"):
        monomial_basis(2, 3)
    assert built == []
    monkeypatch.setattr(lattice, "TABLE_CELL_GUARD", 18)
    assert len(veronese_points(2, 2).points) == len(monomial_basis(2, 3)) == 6
    built.clear()
    # the Sym^4 factor of 15 x 3 entries is only counted, never built
    assert koszul_map(1, 1, 2, 2, [(2, 1, 1)]).cols == 4
    assert "monomials" not in built
    built.clear()
    with pytest.raises(CapacityError, match="^wedge table of 15 rows x 3 coordinates "
                                            "exceeds guard 18$"):
        koszul_map(2, 1, 2, 2, [(2, 2, 2)])
    assert built == []
    monkeypatch.setattr(lattice, "TABLE_CELL_GUARD", 45)
    assert koszul_map(2, 1, 2, 2, [(2, 2, 2)]).cols == 9
    assert "wedge" in built


def test_weighted_basis_counts_its_symmetric_factor_without_building_it(monkeypatch):
    # a weight space holds at most one element per wedge subset, so the
    # Sym^999998 and Sym^999999 factors of a weighted map are only counted
    # against the guard, never listed
    built = []

    def spy(degree, v_dim, real=koszul.monomial_basis):
        built.append(degree)
        return real(degree, v_dim)

    monkeypatch.setattr(koszul, "monomial_basis", spy)
    down = koszul_map(1, 999998, 1, 1, [(500000, 499999)])
    assert (down.rows, down.cols) == (1, 2)
    assert down.entries == [(0, 0, 1), (0, 1, 1)]
    assert set(built) == {1}  # the wedge factor's degree only
    # the same guard as a listed Sym factor, and its degree check
    with pytest.raises(CapacityError, match=r"Sym\^1000000 of C\^2 exceeds guard"):
        koszul_map(1, 999999, 1, 1, [(500000, 500000)])
    with pytest.raises(ValueError, match="need degree >= 0"):
        monomial_basis(-1, 2)
    assert set(built) == {1}


def test_a_map_out_of_an_empty_weight_space_costs_no_memory():
    # the 10**7-th wedge power of the two linear forms is zero: a 0 x 0 map
    # that must not index rank tables by p. An empty domain keeps its
    # codomain's rows: wedge^2 at (2, 2) holds the one pair
    tracemalloc.start()
    try:
        down = koszul_map(10**7, 1, 1, 1, [(5000000, 5000001)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (down.rows, down.cols, down.nnz) == (0, 0, 0) and peak < 2**20
    down = koszul_map(3, 1, 1, 1, [(2, 2)])
    assert (down.rows, down.cols, down.nnz) == (1, 0, 0)


def exact_weights(p, q, n, d):
    # every weight's Tor dimension from the exact ranks of its two maps,
    # with no modular stage
    weights = {}
    for b in compositions((p + q) * d, n + 1):
        down, up = koszul_map(p, q, n, d, [b]), koszul_map(p + 1, q - 1, n, d, [b])
        val = down.cols - rank_exact(down).rank - rank_exact(up).rank
        if val:
            weights[b] = val
    return weights


def test_tor_dimension_matches_whole_map_ranks_on_every_weight():
    # tor_dimension, which ranks each map once on the rows the other leaves
    # unpivoted, against exact ranks of both whole maps on every weight
    expected = exact_weights(1, 1, 1, 2)
    for b in compositions(4, 2):
        assert tor_dimension(1, 1, 1, 2, weight=b).total_dim == expected.get(b, 0), b


def test_exact_koszul_ranks_need_no_bareiss(monkeypatch):
    # every Koszul differential here is decided by unit pivots alone: the
    # residual is empty and no pass over Q runs
    seen = rational_residuals(monkeypatch)
    for piece, total in (((1, 1, 1, 3), 3), ((2, 1, 2, 2), 8), ((1, 2, 2, 2), 0)):
        weights = exact_weights(*piece)
        assert sum(weights.values()) == total, piece
        assert weights == tor_dimension(*piece).weights, piece
    assert seen == []


def test_middle_basis_built_once_per_weight(monkeypatch):
    # the two maps around a batch's middle term use three weight spaces per
    # weight: the middle term is the domain of one and the codomain of the
    # other. The middle spaces are computed first, once per weight in one
    # batch, and the outer two only for a batch with a middle element. A
    # fresh cache of the same size counts computations
    builds = []
    space = koszul._weight_spaces.__wrapped__

    @lru_cache(maxsize=2)
    def counting(p, degree, v_dim, weights):
        batch = np.frombuffer(weights, dtype=np.int64).reshape(-1, v_dim)
        builds.append((p, degree, tuple(map(tuple, batch.tolist()))))
        return space(p, degree, v_dim, weights)

    monkeypatch.setattr(koszul, "_weight_spaces", counting)
    t = tor_dimension(2, 1, 2, 2)
    sweep = tuple(partitions_into(6, 3))
    assert builds == [(2, 2, sweep), (1, 2, sweep), (3, 2, sweep)] and len(sweep) == 7
    # (6, 0, 0) is the one weight without a middle element
    assert weight_space(2, 2, (6, 0, 0)).size == 0
    for b, spaces in (((6, 0, 0), [2]), ((2, 2, 2), [2, 1, 3])):
        counting.cache_clear()
        builds.clear()
        tor_dimension(2, 1, 2, 2, weight=b)
        assert builds == [(k, 2, (b,)) for k in spaces], b
    # a sweep cut into batches of two weights computes each batch's spaces once
    monkeypatch.setattr(koszul, "DEFAULT_BASIS_GUARD", 2 * comb(6, 3))
    counting.cache_clear()
    builds.clear()
    assert tor_dimension(2, 1, 2, 2).weights == t.weights
    batches = [sweep[i:i + 2] for i in range(0, 7, 2)]
    assert builds == [(k, 2, batch) for batch in batches for k in (2, 1, 3)]
    assert t.total_dim == 8


def test_tor_slice_json():
    t = tor_dimension(1, 1, 1, 3)
    doc = t.to_json()
    assert doc["p"] == 1 and doc["q"] == 1 and doc["total_dim"] == 3
    assert doc["weights"] == [
        {"b": [4, 2], "mult": 1},
        {"b": [3, 3], "mult": 1},
        {"b": [2, 4], "mult": 1},
    ]
    assert isinstance(t, TorSlice)
