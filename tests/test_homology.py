"""Rank engines and reduced homology against independent oracles."""

import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from syzcheck import homology
from syzcheck.complexes import (
    ComplexSlice,
    boundary_matrix,
    build_slice,
    make_matrix,
    masked_boundary,
    vertex_cone_mask,
)
from syzcheck.errors import CapacityError
from syzcheck.homology import (
    BettiNumber,
    DEFAULT_PRIME,
    _element_matching,
    _matching_certifies_zero,
    _reduce_band,
    middle_homology,
    rank_exact,
    rank_mod_p,
    reduced_betti,
)
from syzcheck.lattice import enumerate_multidegrees, general_config, veronese_points
from test_complexes import any_slice, general_slice


def fraction_rank(bm):
    # naive dense rational elimination, no shortcuts shared with the package
    rows = [[Fraction(0)] * bm.cols for _ in range(bm.rows)]
    for r, c, v in bm.entries:
        rows[r][c] += v
    rank = 0
    for c in range(bm.cols):
        piv = next((i for i in range(rank, bm.rows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        # a zero of the pivot row changes nothing in the other rows
        held = [(k, y) for k, y in enumerate(rows[rank]) if y]
        for i in range(bm.rows):
            if i != rank and rows[i][c]:
                f, row = rows[i][c], rows[i]
                for k, y in held:
                    row[k] -= f * y
        rank += 1
    return rank


def naive_rank_mod_p(bm, p):
    # naive dense row reduction over F_p, no shortcuts shared with the package
    rows = [[0] * bm.cols for _ in range(bm.rows)]
    for r, c, v in bm.entries:
        rows[r][c] = (rows[r][c] + v) % p
    rank = 0
    for c in range(bm.cols):
        piv = next((i for i in range(rank, bm.rows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, bm.rows):
            f = rows[i][c] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def naive_betti(slc, j):
    lower = boundary_matrix(slc, j)
    upper = boundary_matrix(slc, j + 1)
    return slc.face_count(j) - fraction_rank(lower) - fraction_rank(upper)


def hollow_triangle_matrix():
    return make_matrix(3, 3, [(0, 0, -1), (1, 0, 1), (0, 1, -1),
                              (2, 1, 1), (1, 2, -1), (2, 2, 1)])


def test_rank_mod_p_examples():
    assert rank_mod_p(hollow_triangle_matrix(), DEFAULT_PRIME).rank == 2
    assert rank_mod_p(make_matrix(3, 3, []), DEFAULT_PRIME).rank == 0
    aug = make_matrix(1, 4, [(0, c, 1) for c in range(4)])
    assert rank_mod_p(aug, DEFAULT_PRIME).rank == 1


def test_rank_mod_p_rejects_bad_modulus():
    # DEFAULT_PRIME is the only field: other primes are refused too
    bm = hollow_triangle_matrix()
    for bad in (1, 2, 4, 7, 9, 1000, 10007, DEFAULT_PRIME - 2):
        with pytest.raises(ValueError, match="DEFAULT_PRIME"):
            rank_mod_p(bm, bad)


def test_rank_mod_p_refuses_another_prime_before_reading_the_matrix(monkeypatch):
    # refused before the matrix is read: no row is built, no pivot taken
    def no_work(*args):
        raise AssertionError("rank_mod_p worked on a refused modulus")

    monkeypatch.setattr(homology, "_sparse_rows", no_work)
    monkeypatch.setattr(homology, "_eliminate", no_work)
    with pytest.raises(ValueError, match="DEFAULT_PRIME"):
        rank_mod_p(hollow_triangle_matrix(), 2**61 - 1)


def prime_by_trial_division(m):
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


def test_default_prime_is_a_30_bit_prime():
    assert prime_by_trial_division(DEFAULT_PRIME)
    assert DEFAULT_PRIME.bit_length() == 30


def test_rank_exact_examples():
    assert rank_exact(hollow_triangle_matrix()).rank == 2
    simplex_d2 = make_matrix(3, 1, [(0, 0, 1), (1, 0, -1), (2, 0, 1)])
    assert rank_exact(simplex_d2).rank == 1


def test_rank_exact_capacity_guard(monkeypatch):
    # no unit pivot: the whole 1 x 30 row is the residual, 30 cells > 10
    wide = make_matrix(1, 30, [(0, c, 2) for c in range(30)])
    monkeypatch.setattr(homology, "EXACT_CELL_CAP", 10)
    with pytest.raises(CapacityError):
        rank_exact(wide)


def rational_residuals(monkeypatch):
    """Wrap homology._eliminate; the returned list receives a copy of the
    rows of each pass over Q, that is of each unit-free residual ranked."""
    seen = []
    eliminate = homology._eliminate

    def spy(rows_d, col_rows, inverse, reduce):
        if reduce is Fraction:
            seen.append({r: dict(row) for r, row in rows_d.items()})
        return eliminate(rows_d, col_rows, inverse, reduce)

    monkeypatch.setattr(homology, "_eliminate", spy)
    return seen


def test_rank_exact_cell_cap_bounds_memory(monkeypatch):
    # 16 million declared cells with one entry: the unit pivot decides it,
    # with no dense allocation
    square = make_matrix(4000, 4000, [(0, 0, 1)])
    tracemalloc.start()
    try:
        assert rank_exact(square).rank == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20

    # a unit-free 4000 x 4000 residual (a row and a column of 2s) is refused
    # before the rational pass starts
    seen = rational_residuals(monkeypatch)
    cross = make_matrix(4000, 4000, [(0, c, 2) for c in range(4000)]
                        + [(r, 0, 2) for r in range(1, 4000)])
    with pytest.raises(CapacityError):
        rank_exact(cross)
    assert seen == []


def test_rank_exact_sparse_residual_stays_sparse():
    # a unit-free 300 x 300 diagonal of 2s is inside the cell cap; the
    # rational pass ranks it in its sparse rows, while dense rows would
    # hold 300 * 300 cells, 8 bytes each: 2400 bytes per entry
    n = 300
    assert n * n <= homology.EXACT_CELL_CAP
    diagonal = make_matrix(n, n, [(i, i, 2) for i in range(n)])
    tracemalloc.start()
    try:
        assert rank_exact(diagonal).rank == n
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1536 * n


def test_rank_exact_unit_bidiagonal_beyond_the_cell_cap():
    # 3200 x 3200 declared cells exceed the cap, but +-1 pivots rank it
    # with no residual
    n = 3200
    bidiagonal = make_matrix(n, n, [(i, i, 1) for i in range(n)]
                             + [(i, i + 1, -1) for i in range(n - 1)])
    assert rank_exact(bidiagonal).rank == n


def random_integer_matrix(rng, rows, cols, entries, values):
    # seeded triplets drawn from values, with repeated positions kept so
    # that duplicates are summed (and may cancel)
    triplets = [(int(rng.integers(0, rows)), int(rng.integers(0, cols)),
                 int(rng.choice(values))) for _ in range(entries)]
    return make_matrix(rows, cols, triplets)


def test_rank_exact_matches_fraction_rank():
    # unit pivots first, a rational pass on what is left, against naive
    # dense rational elimination; non-unit entries make fill-in leave
    # residuals
    rng = np.random.default_rng(20261018)
    for trial in range(60):
        rows, cols = (int(x) for x in rng.integers(1, 13, size=2))
        entries = int(rng.integers(0, rows * cols + 4))
        values = (1, -1, 2, -3, 5) if trial % 3 else (2, -2, 3, -3, 5, 6)
        bm = random_integer_matrix(rng, rows, cols, entries, values)
        assert rank_exact(bm).rank == fraction_rank(bm), trial


def test_rank_exact_sums_duplicate_triplets():
    # (0, 0) cancels to zero, leaving column 0 empty, and (1, 1) sums to
    # the unit -1
    bm = make_matrix(2, 2, [(0, 0, 2), (0, 0, -2), (0, 1, 3),
                            (1, 1, 2), (1, 1, -3)])
    assert rank_exact(bm).rank == fraction_rank(bm) == 1
    cancel = make_matrix(2, 2, [(0, 0, 1), (1, 1, 4), (0, 0, -1), (1, 1, -4)])
    assert rank_exact(cancel).rank == 0


def test_rank_exact_residual_goes_to_the_rational_pass(monkeypatch):
    seen = rational_residuals(monkeypatch)
    # no unit anywhere: the rational pass gets the whole matrix
    no_unit = make_matrix(2, 3, [(0, 0, 2), (0, 1, 4), (1, 1, -3), (1, 2, 6)])
    assert rank_exact(no_unit).rank == fraction_rank(no_unit) == 2
    assert seen == [{0: {0: 2, 1: 4}, 1: {1: -3, 2: 6}}]
    # the unit pivot at (0, 0) fills (1, 1) with -1 - 1 = -2, no unit
    seen.clear()
    fill = make_matrix(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1)])
    assert rank_exact(fill).rank == 2
    assert seen == [{1: {1: -2}}]
    # unit pivots alone decide the hollow triangle
    seen.clear()
    assert rank_exact(hollow_triangle_matrix()).rank == 2
    assert seen == []


def test_random_sparse_ranks_agree_across_primes():
    # the rank modulo DEFAULT_PRIME against the exact rank, seeded
    rng = np.random.default_rng(20240817)
    for trial in range(6):
        triplets = []
        seen = set()
        for _ in range(120):
            r = int(rng.integers(0, 50))
            c = int(rng.integers(0, 50))
            if (r, c) in seen:
                continue
            seen.add((r, c))
            triplets.append((r, c, 1 if rng.integers(0, 2) else -1))
        bm = make_matrix(50, 50, triplets)
        assert rank_mod_p(bm, DEFAULT_PRIME).rank == rank_exact(bm).rank, trial


def test_rank_mod_p_matches_naive_elimination():
    # multiples of p vanish, p + 1 and 1 - p are units mod p without being
    # +-1, cancelling duplicates vanish, and the last row and column stay
    # empty
    rng = np.random.default_rng(20261019)
    p = DEFAULT_PRIME
    values = (1, -1, 2, -3, p, -2 * p, p + 1, 1 - p)
    for trial in range(80):
        rows, cols = (int(x) for x in rng.integers(1, 16, size=2))
        entries = int(rng.integers(0, rows * cols + 4))
        bm = random_integer_matrix(rng, rows, cols, entries, values)
        cancel = [(r, c, s * v) for r, c, v in bm.entries[:3] for s in (1, -1)]
        bm = make_matrix(rows + 1, cols + 1, bm.entries + cancel)
        assert rank_mod_p(bm, p).rank == naive_rank_mod_p(bm, p), trial


def test_reduced_betti_examples():
    cfg = veronese_points(1, 3)
    assert reduced_betti(build_slice(cfg, (3, 3), -1, 1), 0).value == 1
    assert reduced_betti(build_slice(cfg, (4, 2), -1, 1), 0).value == 1
    # a full simplex is contractible
    full = general_slice(general_config([(1,), (2,), (3,)]), (6,), -1, 2)
    assert reduced_betti(full, 0).value == 0
    assert reduced_betti(full, 1).value == 0


def test_reduced_betti_band_requirement():
    cfg = veronese_points(1, 3)
    slc = build_slice(cfg, (3, 3), 0, 1)
    with pytest.raises(ValueError):
        reduced_betti(slc, 0)
    with pytest.raises(ValueError, match=r"betti at 1 needs dims \[0, 2\] inside \(0, 1\)$"):
        reduced_betti(slc, 1)


def test_masked_boundary_without_living_columns_is_empty():
    sub = np.array([[0, 1], [1, 2]], dtype=np.int32)
    bm = masked_boundary(sub, np.ones(3, dtype=bool), np.zeros(2, dtype=bool))
    assert (bm.rows, bm.cols) == (3, 0)
    for arr in (bm.row_idx, bm.col_idx, bm.values):
        assert arr.dtype == np.int64 and arr.size == 0


def test_reduced_betti_strategies_and_cascade_agree():
    # the certificates (face count, matching, then cascade and rank) and
    # the cascade and rank alone, whose residuals are ranked both mod p and
    # over Q, against the naive oracle on the full boundaries over Q
    cfg = veronese_points(2, 2)
    for m in enumerate_multidegrees(cfg, 3):
        slc = build_slice(cfg, m.canonical.coords, -1, 3)
        for j in range(0, 3):
            expected = naive_betti(slc, j)
            assert reduced_betti(slc, j).value == expected, (m.canonical.coords, j)
            assert cascade_betti(slc, j) == expected, (m.canonical.coords, j)


def test_betti_matches_naive_rational_oracle():
    # every complex with at most 200 faces in the exhaustive small range
    for n, d in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]:
        cfg = veronese_points(n, d)
        for deg in range(0, 5):
            for m in enumerate_multidegrees(cfg, deg):
                b = m.canonical.coords
                top = len(cfg.points) - 1
                slc = build_slice(cfg, b, -1, top + 1)
                total = sum(slc.face_count(t) for t in range(0, top + 2))
                if total > 200:
                    continue
                for j in range(0, top + 1):
                    got = reduced_betti(slc, j).value
                    assert got == naive_betti(slc, j), (n, d, b, j)


def test_euler_characteristic_identity():
    for n, d in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        cfg = veronese_points(n, d)
        for deg in range(1, 5):
            for m in enumerate_multidegrees(cfg, deg):
                b = m.canonical.coords
                top = len(cfg.points)
                slc = build_slice(cfg, b, -1, top)
                if slc.vertex_count == 0:
                    continue
                face_alt = sum((-1) ** j * slc.face_count(j) for j in range(0, top + 1))
                betti_alt = sum((-1) ** j * reduced_betti(slc, j).value
                                for j in range(0, top - 1))
                assert face_alt == betti_alt + 1, (n, d, b)


def test_betti_permutation_invariance():
    cfg = veronese_points(2, 3)
    for b in [(1, 3, 5), (0, 4, 5), (2, 3, 4), (1, 1, 7)]:
        canon = tuple(sorted(b, reverse=True))
        for j in (0, 1, 2):
            v1 = reduced_betti(build_slice(cfg, b, -1, j + 1), j).value
            v2 = reduced_betti(build_slice(cfg, canon, -1, j + 1), j).value
            assert v1 == v2, (b, j)


def test_modular_rank_never_exceeds_exact():
    rng = np.random.default_rng(99)
    for trial in range(4):
        triplets = []
        seen = set()
        for _ in range(60):
            r = int(rng.integers(0, 25))
            c = int(rng.integers(0, 25))
            if (r, c) in seen:
                continue
            seen.add((r, c))
            triplets.append((r, c, int(rng.integers(-3, 4)) or 1))
        bm = make_matrix(25, 25, triplets)
        assert rank_mod_p(bm, DEFAULT_PRIME).rank <= rank_exact(bm).rank


def test_cone_certificate_short_circuits():
    # the vertex test cones v_2(P^1) at (4, 2), so check_np builds no slice
    # there; built anyway, every coned slice below ranks to the same
    # certified 0 through the cascade. Brute force finds the apex, and none
    # for v_3(P^1) at (4, 2), where the values come from the rank alone
    v2 = veronese_points(1, 2)
    assert vertex_cone_mask(v2, [(4, 2)], 2).tolist() == [True]
    for cfg, b, q, apex in [(v2, (4, 2), 2, 0),
                            (veronese_points(1, 3), (4, 2), 1, None),
                            (general_config([(1,), (2,), (3,)]), (6,), 2, 0)]:
        slc = any_slice(cfg, b, -1, q)
        assert set_apex(slc, q) == apex, (cfg.points, b)
        for j in range(0, q):
            bn = reduced_betti(slc, j)
            assert bn.certified and bn.value == naive_betti(slc, j), (cfg.points, b, j)
            assert apex is None or bn.value == 0


def cone_grid():
    """(config, bound) pairs, built by `any_slice`: Veronese orbit
    representatives of small degree, and the general configurations of the
    other tests, whose slices come from the reference `general_slice`."""
    for n, d in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        cfg = veronese_points(n, d)
        for deg in range(0, 5):
            for m in enumerate_multidegrees(cfg, deg):
                yield cfg, m.canonical.coords
    for pts in ([(1,), (2,), (3,)], [(2,), (3,)]):
        cfg = general_config(pts)
        for b in range(0, 10):
            yield cfg, (b,)
    cfg = general_config([(2, 0), (1, 1), (0, 3)])
    for b0 in range(0, 6):
        for b1 in range(0, 7):
            yield cfg, (b0, b1)


def set_apex(slc, q):
    # the lowest vertex w with F + w stored for every stored face F of
    # dimension below q that avoids w, straight from the definition
    faces = {frozenset(row) for t in range(-1, q + 1)
             for row in slc.faces(t).tolist()}
    for w in range(slc.vertex_count):
        if all(f | {w} in faces for f in faces if len(f) <= q and w not in f):
            return w
    return None


def test_cone_certificate_matches_brute_force():
    # coned or not, the cascade and rank agree with the naive oracle, which
    # ranks the full boundaries over Q. Every band -1..q with q <= 3 is checked.
    coned = unconed = 0
    for cfg, b in cone_grid():
        oracle = any_slice(cfg, b, -1, 3)
        expected = {j: naive_betti(oracle, j) for j in range(0, 3)}
        for q in range(1, 4):
            slc = any_slice(cfg, b, -1, q)
            if set_apex(slc, q) is None:
                unconed += 1
            else:
                coned += 1
            for j in range(0, q):
                bn = reduced_betti(slc, j)
                assert bn.certified
                assert bn.value == expected[j], (cfg.points, b, q, j)
    assert coned > 0 and unconed > 0


def test_vertex_cone_mask_is_sound_on_the_cone_grid():
    # wherever the vertex test fires, brute force finds a cone apex for the
    # same band top and the rank is a certified 0, checked by the naive oracle
    fired = 0
    for cfg, b in cone_grid():
        if cfg.kind != "veronese":
            continue
        for k in range(1, 5):
            (fires,) = vertex_cone_mask(cfg, [b], k)
            slc = build_slice(cfg, b, -1, k)
            if fires:
                fired += 1
                assert set_apex(slc, k) is not None, (cfg.points, b, k)
                bn = reduced_betti(slc, k - 1)
                assert bn.certified and bn.value == 0 == naive_betti(slc, k - 1)
    assert fired > 0


def test_empty_level_short_circuits_the_cascade(monkeypatch):
    # no face in dimension j: a certified 0 without a cascade round
    def no_cascade(*args):
        raise AssertionError("cascade ran on an empty level")

    cfg = veronese_points(1, 2)
    slc = build_slice(cfg, (2, 2), -1, 12)
    assert slc.face_count(1) == 1 and slc.face_count(2) == 0
    monkeypatch.setattr("syzcheck.homology._reduce_band", no_cascade)
    for j in range(2, 12):
        bn = reduced_betti(slc, j)
        assert (bn.value, bn.certified) == (0, True)


def cascade_betti(slc, j):
    # the cascade and rank alone, without the face-count and matching zeros;
    # the residuals ranked mod p and over Q must give the same value
    alive, sub = _reduce_band(slc)
    out_map = masked_boundary(sub[j], alive[j - 1], alive[j])
    in_map = masked_boundary(sub[j + 1], alive[j], alive[j + 1])
    value = middle_homology(out_map, in_map)
    modular = [rank_mod_p(m, DEFAULT_PRIME).rank for m in (out_map, in_map)]
    exact = [rank_exact(m).rank for m in (out_map, in_map)]
    assert modular == exact, (modular, exact)
    assert value == out_map.cols - sum(exact)
    return value


def test_cascade_and_rank_match_brute_force_on_the_cone_grid():
    # the matching now decides most zeros before the cascade, so the cascade
    # and rank are checked on their own in every band -1..q with q <= 3
    for cfg, b in cone_grid():
        oracle = any_slice(cfg, b, -1, 3)
        expected = {j: naive_betti(oracle, j) for j in range(0, 3)}
        for q in range(1, 4):
            slc = any_slice(cfg, b, -1, q)
            for j in range(0, q):
                assert cascade_betti(slc, j) == expected[j], (cfg.points, b, q, j)


def rank_calls(monkeypatch):
    """Wrap homology.rank_mod_p and rank_exact; the returned list receives
    (matrix, result) for each call, in call order."""
    calls = []
    for name in ("rank_mod_p", "rank_exact"):
        def spy(m, *args, real=getattr(homology, name)):
            res = real(m, *args)
            calls.append((m, res))
            return res
        monkeypatch.setattr(homology, name, spy)
    return calls


def check_middle_homology(out_map, in_map, calls) -> tuple[int, int]:
    """middle_homology against Fraction ranks of the two full matrices.
    It ranks out_map once, then in_map once, with the same shape but
    without its entries in rows at out_map's pivot columns. Returns the
    value and whether an entry was dropped that way."""
    calls.clear()
    value = middle_homology(out_map, in_map)
    assert value == out_map.cols - fraction_rank(out_map) - fraction_rank(in_map)
    assert len(calls) == 2
    (out_m, out_r), (in_m, _) = calls
    assert out_m is out_map
    assert (in_m.rows, in_m.cols) == (in_map.rows, in_map.cols)
    held = np.isin(in_map.row_idx, out_r.pivot_cols)
    kept = [e for e, h in zip(in_map.entries, held.tolist()) if not h]
    assert sorted(in_m.entries) == sorted(kept)
    return value, int(held.any())


def test_restricted_rank_matches_brute_force_on_the_cone_grid(monkeypatch):
    # every band of the cone grid, on the full boundaries and on the
    # cascade's residuals
    calls = rank_calls(monkeypatch)
    dropped = 0
    for cfg, b in cone_grid():
        for q in range(1, 4):
            slc = any_slice(cfg, b, -1, q)
            alive, sub = _reduce_band(slc)
            for j in range(0, q):
                for out_map, in_map in (
                        (boundary_matrix(slc, j), boundary_matrix(slc, j + 1)),
                        (masked_boundary(sub[j], alive[j - 1], alive[j]),
                         masked_boundary(sub[j + 1], alive[j], alive[j + 1]))):
                    dropped += check_middle_homology(out_map, in_map, calls)[1]
    assert dropped > 0


def window_slices(n, d, p, slack):
    # the slices check_np hands to reduced_betti: the jobs of its degree
    # window that the vertex cone test leaves, band -1..q, at j = q - 1
    cfg = veronese_points(n, d)
    for q in range(2, p + 1):
        for deg in range(q + 2, q + 3 + slack):
            bs = [m.canonical.coords for m in enumerate_multidegrees(cfg, deg)]
            for b, coned in zip(bs, vertex_cone_mask(cfg, bs, q)):
                if not coned:
                    yield b, build_slice(cfg, b, -1, q), q - 1


def test_matching_never_certifies_a_nonzero():
    # brute force on the cone grid (band -1..3, every nonempty j), and the
    # unconed jobs of two verdict windows that hold the witnesses (9,9,9)
    # and (4,4,4,4); their slices have up to 14,000 faces, so the cascade
    # and rank, checked above against brute force, give the reference there
    fires = Counter()
    for cfg, b in cone_grid():
        slc = any_slice(cfg, b, -1, 3)
        for j in range(0, 3):
            if slc.face_count(j):
                value = naive_betti(slc, j)
                fired = _matching_certifies_zero(slc, j)
                assert not (fired and value), (cfg.points, b, j)
                fires["grid", fired, value > 0] += 1
    for window in [(2, 3, 7, 2), (3, 2, 6, 3)]:
        for b, slc, j in window_slices(*window):
            value = cascade_betti(slc, j)
            fired = _matching_certifies_zero(slc, j)
            assert not (fired and value), (window, b, j)
            fires["window", fired, value > 0] += 1
    assert fires == {("grid", True, False): 258, ("grid", False, True): 33,
                     ("window", True, False): 74, ("window", False, False): 1,
                     ("window", False, True): 2}


def has_directed_cycle(succ):
    # Kahn's algorithm: a digraph is acyclic exactly when repeatedly
    # removing nodes without predecessors removes every node
    indeg = Counter(w for ws in succ.values() for w in ws)
    nodes = set(succ) | set(indeg)
    ready = [u for u in nodes if not indeg[u]]
    removed = 0
    while ready:
        u = ready.pop()
        removed += 1
        for w in succ.get(u, ()):
            indeg[w] -= 1
            if not indeg[w]:
                ready.append(w)
    return removed < len(nodes)


def test_element_matching_is_acyclic():
    # every matched pair is (facet, coface) in the band j-1..j+1, no cell is
    # matched twice, and the Hasse digraph of the band (coface to facet)
    # with the matched edges reversed has no directed cycle. The detector
    # first: a hollow triangle with each vertex matched to the edge leaving
    # it, all the way round, is the classic cyclic matching
    triangle = {"v0": ["e01"], "e01": ["v1"], "v1": ["e12"], "e12": ["v2"],
                "v2": ["e20"], "e20": ["v0"]}
    assert has_directed_cycle(triangle)
    del triangle["v2"]
    assert not has_directed_cycle(triangle)
    checked = 0
    for cfg, b in cone_grid():
        slc = any_slice(cfg, b, -1, 3)
        for j in range(0, 3):
            faces = {t: [frozenset(r) for r in slc.faces(t).tolist()]
                     for t in (j - 1, j, j + 1)}
            row_of = {t: {f: i for i, f in enumerate(fs)} for t, fs in faces.items()}
            up = {}
            for t, rows, below in _element_matching(slc, j):
                for g, f in zip(rows.tolist(), below.tolist()):
                    assert faces[t - 1][f] < faces[t][g], (cfg.points, b, j)
                    assert (t, g) not in up.values() and (t - 1, f) not in up
                    assert (t - 1, f) not in up.values() and (t, g) not in up
                    up[t - 1, f] = (t, g)
            succ = {}
            for t in (j, j + 1):
                for g, face in enumerate(faces[t]):
                    for v in face:
                        f = row_of[t - 1][face - {v}]
                        if up.get((t - 1, f)) == (t, g):
                            succ.setdefault((t - 1, f), []).append((t, g))
                        else:
                            succ.setdefault((t, g), []).append((t - 1, f))
            assert not has_directed_cycle(succ), (cfg.points, b, j)
            checked += bool(up)
    assert checked > 0


def reference_matching(slc, j):
    # the element matching exactly as the module docstring defines it, on
    # frozensets: at each vertex, by ascending largest coordinate of its
    # point and then by index, for t = j+1 then t = j, every unmatched
    # t-face G holding v, in row order, pairs with G - v when that facet is
    # unmatched too. Returns the nonempty (t, rows, facet rows) steps
    faces = {t: [frozenset(r) for r in slc.faces(t).tolist()] for t in (j - 1, j, j + 1)}
    row_of = {t: {f: i for i, f in enumerate(fs)} for t, fs in faces.items()}
    holding = {t: {} for t in (j, j + 1)}
    for t in holding:
        for g, face in enumerate(faces[t]):
            for v in face:
                holding[t].setdefault(v, []).append(g)
    matched = set()
    steps = []
    points = [slc.config.points[v] for v in slc.vertices.tolist()]
    for v in sorted(range(slc.vertex_count), key=lambda v: (max(points[v]), v)):
        for t in (j + 1, j):
            rows, below = [], []
            for g in holding[t].get(v, ()):
                f = row_of[t - 1][faces[t][g] - {v}]
                if (t, g) not in matched and (t - 1, f) not in matched:
                    matched |= {(t, g), (t - 1, f)}
                    rows.append(g)
                    below.append(f)
            if rows:
                steps.append((t, rows, below))
    return steps


def test_element_matching_matches_the_reference():
    # the same nonempty steps, pairs and order as the definition, on the
    # cone grid (every j of band -1..3, j = 0 and empty j+1 levels among
    # them) and on the unconed jobs of two verdict windows
    def cases():
        for cfg, b in cone_grid():
            slc = any_slice(cfg, b, -1, 3)
            for j in range(0, 3):
                yield "grid", slc, j
        for window in [(2, 3, 7, 2), (3, 2, 6, 3)]:
            for _, slc, j in window_slices(*window):
                yield "window", slc, j
        yield "edge", build_slice(veronese_points(1, 2), (2, 2), -1, 12), 1

    seen = Counter()
    for source, slc, j in cases():
        got = [(t, rows.tolist(), below.tolist())
               for t, rows, below in _element_matching(slc, j) if rows.size]
        assert got == reference_matching(slc, j), (slc.bound, j)
        if got:
            seen["j = 0"] += j == 0
            seen["empty j+1"] += not slc.face_count(j + 1)
            seen[source] += 1
    assert seen == {"grid": 291, "window": 77, "edge": 1, "j = 0": 137,
                    "empty j+1": 123}, seen


def test_matching_leaves_a_critical_cell_and_the_cascade_decides(monkeypatch):
    # v_3(P^2) at (7,7,7), q = 5, is a zero job of the (2,3,7,2) window
    # where the matching leaves one critical 4-cell: reduced_betti falls
    # through to the cascade and rank, which give the certified 0
    slc = build_slice(veronese_points(2, 3), (7, 7, 7), -1, 5)
    matched = sum(rows.size for _, rows, _ in _element_matching(slc, 4))
    assert slc.face_count(4) - matched == 1
    assert not _matching_certifies_zero(slc, 4)
    rounds = []
    reduce_band = homology._reduce_band
    monkeypatch.setattr("syzcheck.homology._reduce_band",
                        lambda *args: rounds.append(1) or reduce_band(*args))
    bn = reduced_betti(slc, 4)
    assert (bn.value, bn.certified) == (0, True)
    assert rounds
    assert naive_betti(slc, 4) == 0


def test_matching_zero_runs_no_cascade(monkeypatch):
    # v_3(P^2) at (9,9,3), q = 5: the matching pairs off every 4-cell
    def no_cascade(*args):
        raise AssertionError("cascade ran on a matched slice")

    slc = build_slice(veronese_points(2, 3), (9, 9, 3), -1, 5)
    monkeypatch.setattr("syzcheck.homology._reduce_band", no_cascade)
    bn = reduced_betti(slc, 4)
    assert (bn.value, bn.certified) == (0, True)


def test_matching_on_more_vertices_than_16_bit_labels_hold():
    # 2**k + 4 vertices for 8- and 16-bit labels, most isolated: a square
    # 1-b-a-c-1, hollow (H~_1 = 1) or split into two triangles by the edge
    # 1-a (H~_1 = 0). Wrapped to k bits, a would read as 1, and matching
    # both at once would pair edges 1b and ab with the one vertex b and
    # certify the hollow square. Vertex i is the point (i,), so the walk
    # takes the vertices in index order. (The first vertex, 0, is paired by
    # an array test, not by label, so the square avoids it.)
    for v in (2**8 + 4, 2**16 + 4):
        config = general_config([(i,) for i in range(v)])
        a, b, c = v - 3, v - 2, v - 1
        for filled in (True, False):
            edges = [[1, b], [1, c], [a, b], [a, c]]
            facets = {0: np.zeros((v, 1), dtype=np.int64),
                      1: np.array([[b, 1], [c, 1], [b, a], [c, a]], dtype=np.int64)}
            faces = {-1: np.zeros((1, 0), dtype=np.int32),
                     0: np.arange(v, dtype=np.int32)[:, None]}
            if filled:
                edges.insert(0, [1, a])
                facets[1] = np.vstack([[a, 1], facets[1]])
                faces[2] = np.array([[1, a, b], [1, a, c]], dtype=np.int32)
                facets[2] = np.array([[3, 1, 0], [4, 2, 0]], dtype=np.int64)
            faces[1] = np.array(edges, dtype=np.int32)
            slc = ComplexSlice(config=config, bound=(v,), j_lo=-1,
                               j_hi=2, vertices=np.arange(v), faces_by_dim=faces,
                               facets_by_dim=facets)
            assert _matching_certifies_zero(slc, 1) == filled, (v, filled)


def scan_band(slc):
    # the cascade face by face: each pass counts every living face's living
    # facets at its start, then claims in increasing face order. Returns the
    # alive flags and the number of passes, the last of which claims nothing
    lo, hi = slc.j_lo, slc.j_hi
    alive = {t: [True] * slc.face_count(t) for t in range(lo, hi + 1)}
    facets = {t: slc.subface_rows(t).tolist() for t in range(lo + 1, hi + 1)}
    claimed, passes = True, 0
    while claimed:
        claimed = False
        for t in range(lo + 1, hi + 1):
            live = [[g for g in row if alive[t - 1][g]] if alive[t][f] else []
                    for f, row in enumerate(facets[t])]
            for f, gs in enumerate(live):
                if len(gs) == 1 and alive[t - 1][gs[0]]:
                    alive[t][f] = alive[t - 1][gs[0]] = False
                    claimed = True
        passes += 1
    return alive, passes


def test_reduce_band_matches_face_by_face_scan():
    # the cone grid, band -1..3, and v_2(P^3) at (3,3,3,3), band -1..4,
    # which the cascade clears over several rounds
    slices = [any_slice(cfg, b, -1, 3) for cfg, b in cone_grid()]
    slices.append(build_slice(veronese_points(3, 2), (3, 3, 3, 3), -1, 4))
    cancelled = 0
    for slc in slices:
        expected, passes = scan_band(slc)
        alive, _ = _reduce_band(slc)
        assert sorted(alive) == sorted(expected)
        for t in alive:
            assert alive[t].tolist() == expected[t], (slc.config.points, slc.bound, t)
            cancelled += expected[t].count(False)
    assert passes > 3  # the last slice, v_2(P^3) at (3,3,3,3), takes 5
    assert cancelled > 1000


def test_betti_value_is_dataclass_with_multidegree():
    cfg = veronese_points(1, 3)
    bn = reduced_betti(build_slice(cfg, (3, 3), -1, 1), 0)
    assert isinstance(bn, BettiNumber)
    assert bn.certified


def test_reduced_betti_ranks_a_slice_exactly(monkeypatch):
    # the element matching decides (6,3,3) at j = 1 with no rank; (9,9,9)
    # at j = 6 reaches the cascade and ranks each residual once, exactly,
    # with no rank modulo a prime
    cfg = veronese_points(2, 3)
    matched = build_slice(cfg, (6, 3, 3), -1, 2)
    ranked = build_slice(cfg, (9, 9, 9), 5, 7)
    assert _matching_certifies_zero(matched, 1)
    assert not _matching_certifies_zero(ranked, 6)
    exact = []

    def no_modular(*args):
        raise AssertionError("a certificate ranked modulo a prime")

    monkeypatch.setattr(homology, "rank_exact", lambda m: exact.append(m) or rank_exact(m))
    monkeypatch.setattr(homology, "rank_mod_p", no_modular)
    assert reduced_betti(matched, 1).value == 0
    assert exact == []
    reduced_betti(ranked, 6)
    assert len(exact) == 2


def test_middle_homology_ranks_each_map_once_exactly(monkeypatch):
    # entries DEFAULT_PRIME: zero modulo the prime, nonzero over Q. Ranks
    # modulo the prime would read a homology of 1 for the 1x1 map and 2 for
    # the 1x2 one; one exact rank of each map reads 0 and 1
    calls = rank_calls(monkeypatch)
    for cols, value in ((1, 0), (2, 1)):
        out_map = make_matrix(1, cols, [(0, c, DEFAULT_PRIME) for c in range(cols)])
        in_map = make_matrix(cols, 0, [])
        modular = [rank_mod_p(m, DEFAULT_PRIME).rank for m in (out_map, in_map)]
        assert out_map.cols - sum(modular) == cols
        calls.clear()
        assert middle_homology(out_map, in_map) == value
        # out_map, then in_map, each once; out_map's rank 1 is the exact one
        assert [m is out_map for m, _ in calls] == [True, False]
        assert [res.rank for _, res in calls] == [1, 0]
