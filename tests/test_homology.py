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
    RankResult,
    DEFAULT_PRIME,
    _claim_pairs,
    _element_matching,
    _matching_certifies_zero,
    _reduce_band,
    is_prime,
    middle_homology,
    rank_exact,
    rank_mod_p,
    reduced_betti,
)
from syzcheck.lattice import enumerate_multidegrees, general_config, veronese_points


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
        for i in range(bm.rows):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
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
    assert rank_mod_p(hollow_triangle_matrix(), 10007).rank == 2
    assert rank_mod_p(make_matrix(3, 3, []), 10007).rank == 0
    aug = make_matrix(1, 4, [(0, c, 1) for c in range(4)])
    assert rank_mod_p(aug, 10007).rank == 1


def test_rank_mod_p_rejects_bad_modulus():
    bm = hollow_triangle_matrix()
    for bad in (1, 2, 4, 9, 1000):
        with pytest.raises(ValueError):
            rank_mod_p(bm, bad)


def test_rank_mod_p_rejects_wide_prime_before_trial_division(monkeypatch):
    def no_trial_division(m):
        raise AssertionError("trial division ran")

    monkeypatch.setattr("syzcheck.homology.is_prime", no_trial_division)
    with pytest.raises(ValueError, match="31 bits"):
        rank_mod_p(hollow_triangle_matrix(), 2**61 - 1)


def test_rank_exact_examples():
    assert rank_exact(hollow_triangle_matrix()).rank == 2
    simplex_d2 = make_matrix(3, 1, [(0, 0, 1), (1, 0, -1), (2, 0, 1)])
    assert rank_exact(simplex_d2).rank == 1


def test_rank_result_fields():
    r = rank_mod_p(hollow_triangle_matrix(), DEFAULT_PRIME)
    assert r.method == "modular"
    assert r.prime == DEFAULT_PRIME
    assert not r.certified_over_Q
    e = rank_exact(hollow_triangle_matrix())
    assert e.method == "exact_rational"
    assert e.prime is None
    assert e.certified_over_Q


def test_rank_exact_capacity_guard():
    # no unit pivot: the whole 1 x 30 row is the residual, 30 cells > 10
    wide = make_matrix(1, 30, [(0, c, 2) for c in range(30)])
    with pytest.raises(CapacityError):
        rank_exact(wide, max_cells=10)


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
    # before its dense rows are built
    def unreachable(*args):
        raise AssertionError("dense residual built past the cap")

    monkeypatch.setattr(homology, "_dense_rows", unreachable)
    monkeypatch.setattr(homology, "_bareiss_rank", unreachable)
    cross = make_matrix(4000, 4000, [(0, c, 2) for c in range(4000)]
                        + [(r, 0, 2) for r in range(1, 4000)])
    with pytest.raises(CapacityError):
        rank_exact(cross)


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
    # unit pivots first, Bareiss on what is left, against naive rational
    # elimination; non-unit entries make fill-in leave residuals
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


def test_rank_exact_residual_goes_to_bareiss(monkeypatch):
    seen = []
    bareiss = homology._bareiss_rank

    def spy(mat):
        seen.append([row[:] for row in mat])
        return bareiss(mat)

    monkeypatch.setattr(homology, "_bareiss_rank", spy)
    # no unit anywhere: Bareiss gets the whole matrix
    no_unit = make_matrix(2, 3, [(0, 0, 2), (0, 1, 4), (1, 1, -3), (1, 2, 6)])
    assert rank_exact(no_unit).rank == fraction_rank(no_unit) == 2
    assert seen == [[[2, 4, 0], [0, -3, 6]]]
    # the unit pivot at (0, 0) fills (1, 1) with -1 - 1 = -2, no unit
    seen.clear()
    fill = make_matrix(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1)])
    assert rank_exact(fill).rank == 2
    assert seen == [[[-2]]]
    # unit pivots alone decide the hollow triangle
    seen.clear()
    assert rank_exact(hollow_triangle_matrix()).rank == 2
    assert seen == []


def test_random_sparse_ranks_agree_across_primes():
    # exact rank against three random 30-bit primes, seeded
    rng = np.random.default_rng(20240817)
    primes = []
    while len(primes) < 3:
        cand = int(rng.integers(2**29, 2**30))
        if is_prime(cand):
            primes.append(cand)
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
        exact = rank_exact(bm).rank
        for p in primes:
            assert rank_mod_p(bm, p).rank == exact


def test_rank_mod_p_matches_naive_elimination():
    # multiples of p vanish, p + 1 and 1 - p are units mod p without being
    # +-1, cancelling duplicates vanish, and the last row and column stay
    # empty
    rng = np.random.default_rng(20261019)
    for p in (7, DEFAULT_PRIME):
        values = (1, -1, 2, -3, p, -2 * p, p + 1, 1 - p)
        for trial in range(40):
            rows, cols = (int(x) for x in rng.integers(1, 16, size=2))
            entries = int(rng.integers(0, rows * cols + 4))
            bm = random_integer_matrix(rng, rows, cols, entries, values)
            cancel = [(r, c, s * v) for r, c, v in bm.entries[:3] for s in (1, -1)]
            bm = make_matrix(rows + 1, cols + 1, bm.entries + cancel)
            assert rank_mod_p(bm, p).rank == naive_rank_mod_p(bm, p), (p, trial)


def test_reduced_betti_examples():
    cfg = veronese_points(1, 3)
    assert reduced_betti(build_slice(cfg, (3, 3), -1, 1), 0).value == 1
    assert reduced_betti(build_slice(cfg, (4, 2), -1, 1), 0).value == 1
    # a full simplex is contractible
    tri = general_config([(1,), (2,), (3,)])
    full = build_slice(tri, (6,), -1, 2)
    assert reduced_betti(full, 0).value == 0
    assert reduced_betti(full, 1).value == 0


def test_reduced_betti_band_requirement():
    cfg = veronese_points(1, 3)
    slc = build_slice(cfg, (3, 3), 0, 1)
    with pytest.raises(ValueError):
        reduced_betti(slc, 0)
    with pytest.raises(ValueError):
        reduced_betti(slc, 1)


def test_reduced_betti_strategies_and_cascade_agree():
    # both strategies go through the same certificates (face count,
    # matching, then cascade and rank); the naive oracle ranks the full
    # boundaries over Q
    cfg = veronese_points(2, 2)
    for m in enumerate_multidegrees(cfg, 3):
        slc = build_slice(cfg, m.canonical.coords, -1, 3)
        for j in range(0, 3):
            expected = naive_betti(slc, j)
            for strategy in ("modular_first", "exact"):
                got = reduced_betti(slc, j, strategy).value
                assert got == expected, (m.canonical.coords, j, strategy)


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
        for p in (3, 5, 10007, DEFAULT_PRIME):
            assert rank_mod_p(bm, p).rank <= rank_exact(bm).rank


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
        slc = build_slice(cfg, b, -1, q)
        assert set_apex(slc, q) == apex, (cfg.points, b)
        for j in range(0, q):
            bn = reduced_betti(slc, j)
            assert bn.certified and bn.value == naive_betti(slc, j), (cfg.points, b, j)
            assert apex is None or bn.value == 0


def cone_grid():
    """(config, bound) pairs: Veronese orbit representatives of small degree
    and the general configurations of the other tests, whose faces need the
    residual-membership predicate."""
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
        oracle = build_slice(cfg, b, -1, 3)
        expected = {j: naive_betti(oracle, j) for j in range(0, 3)}
        for q in range(1, 4):
            slc = build_slice(cfg, b, -1, q)
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
    monkeypatch.setattr("syzcheck.homology._claim_pairs", no_cascade)
    for j in range(2, 12):
        bn = reduced_betti(slc, j)
        assert (bn.value, bn.certified) == (0, True)
    for strategy in ("modular_first", "exact"):
        assert reduced_betti(slc, 11, strategy).value == 0


def cascade_betti(slc, j, strategy="modular_first"):
    # the cascade and rank alone, without the face-count and matching zeros
    alive, sub = _reduce_band(slc)
    return middle_homology(masked_boundary(sub[j], alive[j - 1], alive[j]),
                           masked_boundary(sub[j + 1], alive[j], alive[j + 1]),
                           strategy, DEFAULT_PRIME)


def test_cascade_and_rank_match_brute_force_on_the_cone_grid():
    # the matching now decides most zeros before the cascade, so the cascade
    # and rank are checked on their own in every band -1..q with q <= 3
    for cfg, b in cone_grid():
        oracle = build_slice(cfg, b, -1, 3)
        expected = {j: naive_betti(oracle, j) for j in range(0, 3)}
        for q in range(1, 4):
            slc = build_slice(cfg, b, -1, q)
            for j in range(0, q):
                for strategy in ("modular_first", "exact"):
                    got = cascade_betti(slc, j, strategy)
                    assert got == expected[j], (cfg.points, b, q, j, strategy)


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
        slc = build_slice(cfg, b, -1, 3)
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
                     ("window", True, False): 72, ("window", False, False): 3,
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
        slc = build_slice(cfg, b, -1, 3)
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


def test_matching_leaves_a_critical_cell_and_the_cascade_decides(monkeypatch):
    # v_2(P^3) at (3,3,3,3), q = 4, is a zero job of the (3,2,6,3) window
    # where the matching leaves one critical 3-cell: reduced_betti falls
    # through to the cascade and rank, which give the certified 0
    slc = build_slice(veronese_points(3, 2), (3, 3, 3, 3), -1, 4)
    matched = sum(rows.size for _, rows, _ in _element_matching(slc, 3))
    assert slc.face_count(3) - matched == 1
    assert not _matching_certifies_zero(slc, 3)
    rounds = []
    claim = homology._claim_pairs
    monkeypatch.setattr("syzcheck.homology._claim_pairs",
                        lambda *args: rounds.append(1) or claim(*args))
    for strategy in ("modular_first", "exact"):
        bn = reduced_betti(slc, 3, strategy)
        assert (bn.value, bn.certified) == (0, True)
    assert rounds
    assert naive_betti(slc, 3) == 0


def test_matching_zero_runs_no_cascade(monkeypatch):
    # v_3(P^2) at (9,9,3), q = 5: the matching pairs off every 4-cell
    def no_cascade(*args):
        raise AssertionError("cascade ran on a matched slice")

    slc = build_slice(veronese_points(2, 3), (9, 9, 3), -1, 5)
    monkeypatch.setattr("syzcheck.homology._claim_pairs", no_cascade)
    for strategy in ("modular_first", "exact"):
        bn = reduced_betti(slc, 4, strategy)
        assert (bn.value, bn.certified) == (0, True)


def test_matching_on_more_vertices_than_16_bit_labels_hold():
    # 65,539 vertices, most isolated: a square 0-b-a-c-0, hollow (H~_1 = 1)
    # or split into two triangles by the edge 0-a (H~_1 = 0). Wrapped to 16
    # bits, a would read as 0, and matching both at once would pair edges
    # 0b and ab with the one vertex b and certify the hollow square
    v = 2**16 + 3
    a, b, c = v - 3, v - 2, v - 1
    for filled in (True, False):
        edges = [[0, b], [0, c], [a, b], [a, c]]
        facets = {0: np.zeros((v, 1), dtype=np.int64),
                  1: np.array([[b, 0], [c, 0], [b, a], [c, a]], dtype=np.int64)}
        faces = {-1: np.zeros((1, 0), dtype=np.int32),
                 0: np.arange(v, dtype=np.int32)[:, None]}
        if filled:
            edges.insert(0, [0, a])
            facets[1] = np.vstack([[a, 0], facets[1]])
            faces[2] = np.array([[0, a, b], [0, a, c]], dtype=np.int32)
            facets[2] = np.array([[3, 1, 0], [4, 2, 0]], dtype=np.int64)
        faces[1] = np.array(edges, dtype=np.int32)
        slc = ComplexSlice(config=general_config([(1,)]), bound=(1,), j_lo=-1, j_hi=2,
                           vertices=np.arange(v), faces_by_dim=faces,
                           facets_by_dim=facets)
        assert _matching_certifies_zero(slc, 1) == filled


def scan_claims(cand, count, partner, alive_own, alive_other):
    # the face-by-face scan the cascade ran before its passes became arrays
    claimed = []
    for f in sorted(set(cand.tolist())):
        if alive_own[f] and count[f] == 1 and alive_other[partner[f]]:
            alive_own[f] = alive_other[partner[f]] = False
            claimed.append((f, int(partner[f])))
    return claimed


def test_claim_pairs_matches_sequential_scan():
    # small partner ranges force many candidates onto one partner
    rng = np.random.default_rng(7)
    for _ in range(300):
        n_own, n_other = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        count = rng.integers(0, 3, size=n_own)
        partner = rng.integers(0, n_other, size=n_own)
        alive_own = rng.random(n_own) < 0.8
        alive_other = rng.random(n_other) < 0.8
        cand = rng.integers(0, n_own, size=int(rng.integers(0, 50)))
        own_ref, other_ref = alive_own.copy(), alive_other.copy()
        expected = scan_claims(cand, count, partner, own_ref, other_ref)
        fs, gs = _claim_pairs(cand, count, partner, alive_own, alive_other)
        assert list(zip(fs.tolist(), gs.tolist())) == expected
        assert (alive_own == own_ref).all() and (alive_other == other_ref).all()


def test_betti_value_is_dataclass_with_multidegree():
    cfg = veronese_points(1, 3)
    bn = reduced_betti(build_slice(cfg, (3, 3), -1, 1), 0)
    assert isinstance(bn, BettiNumber)
    assert bn.multidegree.coords == (3, 3)
    assert bn.multidegree.total_degree == 2
    assert bn.certified


def trial_division_is_prime(m):
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


def test_is_prime_matches_trial_division():
    assert all(is_prime(m) == trial_division_is_prime(m) for m in range(200_000))
    rng = np.random.default_rng(31)
    for m in rng.integers(2**29, 2**31, size=2000).tolist():
        assert is_prime(m) == trial_division_is_prime(m), m
    # strong pseudoprimes to some of the bases, and Carmichael numbers
    for m in (2047, 3277, 4033, 4681, 8321, 561, 1105, 1729, 41041, 825265):
        assert not is_prime(m), m


def test_is_prime_small_values():
    assert [x for x in range(2, 30) if is_prime(x)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(DEFAULT_PRIME)
    assert not is_prime(2**30)
