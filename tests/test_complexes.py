"""Divisor complex slices and boundary matrices."""

import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from syzcheck import complexes
from syzcheck.complexes import (
    BoundaryMatrix,
    ComplexSlice,
    boundary_matrix,
    build_slice,
    make_matrix,
    slice_to_json,
    slice_to_text,
    vertex_cone_mask,
)
from syzcheck.errors import CapacityError, UnsupportedConfigError
from syzcheck.lattice import (enumerate_multidegrees, general_config, membership_tester,
                              veronese_points)


def general_slice(config, bound, j_lo, j_hi):
    """The slice of any configuration by brute force, for the tests that need
    complexes no veronese bound gives: the lexicographic (t+1)-subsets of
    the vertices whose residual b - sum lies in the semigroup, up to the
    first empty level, in build_slice's arrays and dtypes."""
    b, pts = tuple(bound), config.points
    member = membership_tester(config)

    def fits(subset):
        return member([x - sum(pts[i][k] for i in subset) for k, x in enumerate(b)])

    vertices = np.array([i for i in range(len(pts)) if fits([i])], dtype=np.int64)
    level = [()] if member(b) else []
    faces, facets = {}, {}
    for t in range(-1, j_hi + 1):
        if t >= 0:
            row_of = {f: r for r, f in enumerate(level)}
            level = [s for s in combinations(range(vertices.size), t + 1)
                     if fits(vertices[list(s)].tolist())]
            if t > j_lo:
                facets[t] = np.array([[row_of[s[:i] + s[i + 1:]] for i in range(t + 1)]
                                      for s in level], dtype=np.int32).reshape(-1, t + 1)
        if t >= j_lo:
            faces[t] = np.array(level, dtype=np.int32).reshape(len(level), t + 1)
        if t >= 0 and not level:
            break
    return ComplexSlice(config=config, bound=b, j_lo=j_lo, j_hi=j_hi, vertices=vertices,
                        faces_by_dim=faces, facets_by_dim=facets)


def any_slice(config, bound, j_lo, j_hi):
    # build_slice for a veronese configuration, the reference for any other
    builder = build_slice if config.kind == "veronese" else general_slice
    return builder(config, bound, j_lo, j_hi)


def faces_as_point_sets(slc, dim):
    pts = slc.config.points
    return {frozenset(pts[i] for i in row)
            for row in slc.vertices[slc.faces(dim)].tolist()}


def line_triple():
    # 1-dimensional semigroup: membership is every nonnegative integer,
    # so faces are exactly the subsets with coordinate sum <= bound
    return general_config([(1,), (2,), (3,)])


def test_line_cubic_bound_33_slice():
    cfg = veronese_points(1, 3)
    slc = build_slice(cfg, (3, 3), -1, 1)
    assert slc.vertex_count == 4
    assert slc.face_count(-1) == 1
    assert slc.face_count(0) == 4
    assert faces_as_point_sets(slc, 1) == {
        frozenset({(3, 0), (0, 3)}),
        frozenset({(2, 1), (1, 2)}),
    }


def test_line_cubic_bound_42_slice():
    cfg = veronese_points(1, 3)
    slc = build_slice(cfg, (4, 2), 0, 1)
    assert faces_as_point_sets(slc, 0) == {
        frozenset({(3, 0)}), frozenset({(2, 1)}), frozenset({(1, 2)}),
    }
    assert faces_as_point_sets(slc, 1) == {frozenset({(3, 0), (1, 2)})}
    assert -1 not in slc.faces_by_dim


def test_zero_bound_keeps_only_the_empty_face():
    # zero lies in every semigroup, so the complex is {empty face}, not void
    for cfg in (veronese_points(1, 3), veronese_points(2, 2), line_triple()):
        slc = any_slice(cfg, (0,) * cfg.ambient_dim, -1, 2)
        assert slc.vertex_count == 0
        assert slc.face_count(-1) == 1
        assert all(slc.face_count(t) == 0 for t in range(0, 3))


def test_bound_outside_semigroup_gives_void_complex():
    # coordinate sum 4 is not a multiple of 3: no residual can be a member,
    # so there are no faces at all, not even the empty one
    slc = build_slice(veronese_points(1, 3), (2, 2), -1, 2)
    assert slc.vertex_count == 0
    assert all(slc.face_count(t) == 0 for t in range(-1, 3))


def test_hollow_triangle_from_line_config():
    slc = general_slice(line_triple(), (5,), -1, 2)
    assert slc.vertex_count == 3
    assert slc.face_count(1) == 3
    assert slc.face_count(2) == 0
    bm = boundary_matrix(slc, 1)
    assert (bm.rows, bm.cols) == (3, 3)
    from collections import Counter

    per_col = Counter(c for _, c, _ in bm.entries)
    assert all(per_col[c] == 2 for c in range(3))
    assert all(v in (1, -1) for _, _, v in bm.entries)


def test_two_simplex_boundary_signs():
    slc = general_slice(line_triple(), (6,), -1, 2)
    assert slc.face_count(2) == 1
    bm = boundary_matrix(slc, 2)
    assert (bm.rows, bm.cols) == (3, 1)
    by_row = {r: v for r, _, v in bm.entries}
    assert by_row == {2: 1, 1: -1, 0: 1}


def test_augmentation_row_all_ones():
    cfg = veronese_points(1, 3)
    slc = build_slice(cfg, (3, 3), -1, 1)
    bm = boundary_matrix(slc, 0)
    assert (bm.rows, bm.cols) == (1, 4)
    assert bm.entries == [(0, c, 1) for c in range(4)]


def test_line_cubic_boundary_one():
    cfg = veronese_points(1, 3)
    slc = build_slice(cfg, (3, 3), -1, 1)
    bm = boundary_matrix(slc, 1)
    assert (bm.rows, bm.cols) == (4, 2)
    assert bm.entries == [(3, 0, 1), (0, 0, -1), (2, 1, 1), (1, 1, -1)]


def test_boundary_out_of_band_rejected():
    cfg = veronese_points(1, 3)
    slc = build_slice(cfg, (3, 3), 0, 1)
    with pytest.raises(ValueError):
        boundary_matrix(slc, 0)
    with pytest.raises(ValueError, match=r"boundary at 2 needs dims 1 and 2 inside \(0, 1\)$"):
        boundary_matrix(slc, 2)
    with pytest.raises(ValueError, match="boundary at dimension 0 needs dims -1 and 0"):
        slc.subface_rows(slc.j_lo)


@pytest.mark.parametrize("bound, j_lo, j_hi, message", [
    ((3, 3), -2, 1, "j_lo must be >= -1"),
    ((3, 3), 1, 0, "j_hi must be >= j_lo"),
    ((3, 3, 0), -1, 1, "bound vector has wrong length"),
    ((6, -3), -1, 1, "bound vector must be nonnegative"),
])
def test_build_slice_rejects_bad_input(bound, j_lo, j_hi, message):
    with pytest.raises(ValueError, match=message):
        build_slice(veronese_points(1, 3), bound, j_lo, j_hi)


def test_build_slice_refuses_a_general_configuration():
    # only the veronese semigroup makes the bound test the whole face test
    with pytest.raises(UnsupportedConfigError):
        build_slice(general_config([(1,), (2,), (3,)]), (6,), -1, 2)


def csr(m: BoundaryMatrix) -> sp.csr_matrix:
    return sp.csr_matrix(
        (np.asarray(m.values), (np.asarray(m.row_idx), np.asarray(m.col_idx))),
        shape=(m.rows, m.cols),
    )


def test_boundary_composition_vanishes():
    for n, d, deg in [(1, 3, 3), (2, 2, 3), (2, 3, 2)]:
        cfg = veronese_points(n, d)
        for m in enumerate_multidegrees(cfg, deg):
            slc = build_slice(cfg, m.canonical.coords, -1, 3)
            for j in range(0, 3):
                a = csr(boundary_matrix(slc, j))
                b = csr(boundary_matrix(slc, j + 1))
                assert (a @ b).nnz == 0, (n, d, m.canonical.coords, j)


def brute_force_faces(cfg, b, t):
    # every (t+1)-subset of the points, kept when b minus its sum lies in the
    # semigroup of degree-d monomials: nonnegative, coordinate sum divisible by d
    pts = cfg.points
    faces = []
    for subset in combinations(range(len(pts)), t + 1):
        resid = [x - sum(pts[i][k] for i in subset) for k, x in enumerate(b)]
        if all(x >= 0 for x in resid) and sum(resid) % cfg.d == 0:
            faces.append(subset)
    return faces


def arrays_of(slc):
    # vertices, then faces and facet rows by dimension, with dtypes and shapes
    named = [("vertices", slc.vertices), *slc.faces_by_dim.items(), *slc.facets_by_dim.items()]
    return [(t, a.dtype, a.shape, a.tolist()) for t, a in named]


def test_veronese_rule_matches_residual_rule():
    # the coordinatewise bound rule gives every face that brute force over
    # all vertex subsets finds, and the same arrays as the residual-membership
    # rule of the reference on the same points taken as a general configuration
    for n, d in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]:
        cfg = veronese_points(n, d)
        gen = general_config(cfg.points)
        top = len(cfg.points) - 1
        for deg in range(0, 5):
            for m in enumerate_multidegrees(cfg, deg):
                b = m.canonical.coords
                slc, ref = build_slice(cfg, b, -1, top), general_slice(gen, b, -1, top)
                for t in range(-1, top + 1):
                    got = [tuple(f) for f in slc.vertices[slc.faces(t)].tolist()]
                    assert got == brute_force_faces(cfg, b, t), (n, d, b, t)
                assert arrays_of(slc) == arrays_of(ref), (n, d, b)


def subsets_under(points, b, t):
    # every (t+1)-subset of the points, in lexicographic order, whose
    # coordinate sum stays at or below b
    return [s for s in combinations(range(len(points)), t + 1)
            if all(sum(points[i][k] for i in s) <= x for k, x in enumerate(b))]


def global_faces(slc, t):
    return [tuple(f) for f in slc.vertices[slc.faces(t)].tolist()]


# small coordinates, any coordinate below 2**63, and the tops 2**m - 1 of
# every field width m + 1 the packed words can have
BOUND_COORDS = st.one_of(st.integers(0, 12), st.integers(0, 2**63 - 1),
                         st.sampled_from([2**m - 1 for m in range(1, 64)]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([(1, 1), (1, 3), (1, 7), (2, 2), (2, 3), (3, 2), (4, 1)]),
       st.data())
def test_veronese_faces_match_subset_enumeration(nd, data):
    n, d = nd
    cfg = veronese_points(n, d)
    b = tuple(data.draw(st.lists(BOUND_COORDS, min_size=n + 1, max_size=n + 1)))
    top = len(cfg.points) - 1
    slc = build_slice(cfg, b, -1, top)
    for t in range(-1, top + 1):
        assert global_faces(slc, t) == brute_force_faces(cfg, b, t), (b, t)


def test_two_word_layout_with_a_field_at_its_top():
    # v_2(P^12) has 13 coordinates. The bound's 63 = 2**6 - 1 makes 7-bit
    # fields, 9 to a word, so coordinates 9..12 sit in a second word, and
    # its 1 at coordinate 12 cuts x_12^2 and every pair of points with x_12
    cfg = veronese_points(12, 2)
    b = (63, 1, 0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 1)
    slc = build_slice(cfg, b, -1, 3)
    below = [i for i, a in enumerate(cfg.points) if all(map(int.__le__, a, b))]
    sub = [cfg.points[i] for i in below]
    for t in range(-1, 4):
        want = [tuple(below[i] for i in s) for s in subsets_under(sub, b, t)]
        assert global_faces(slc, t) == want, t
    assert slc.face_count(0) == 12 and slc.face_count(3) > 0


def test_monotone_in_bound():
    # growing the bound by a semigroup element can only add faces
    cfg = veronese_points(2, 2)
    small = build_slice(cfg, (2, 2, 2), -1, 2)
    large = build_slice(cfg, (4, 4, 2), -1, 2)
    for t in range(0, 3):
        faces_small = faces_as_point_sets(small, t)
        faces_large = faces_as_point_sets(large, t)
        assert faces_small <= faces_large


def test_face_counts_permutation_invariant():
    cfg = veronese_points(2, 3)
    for b in [(1, 4, 7), (0, 3, 6), (2, 2, 5)]:
        base = build_slice(cfg, tuple(sorted(b, reverse=True)), -1, 3)
        perm = build_slice(cfg, b, -1, 3)
        for t in range(-1, 4):
            assert base.face_count(t) == perm.face_count(t), (b, t)


def test_face_cap_guard(monkeypatch):
    cfg = veronese_points(2, 2)
    monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", 10)
    with pytest.raises(CapacityError):
        build_slice(cfg, (6, 6, 6), -1, 4)
    # the six vertices count against the cap even with no level expanded
    monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", 5)
    with pytest.raises(CapacityError, match="face count exceeds cap 5 during expansion"):
        build_slice(cfg, (6, 6, 6), -1, 0)


def test_facet_table_counts_against_the_face_cap(monkeypatch):
    # all 64 subsets of v_2(P^2)'s six points fit under (6, 6, 6), so no
    # level holds more than 20 faces; the facet table of dimension 3 has
    # one entry per edge and vertex, 15 * 6 = 90, and that of dimension 4
    # 20 * 6 = 120
    cfg = veronese_points(2, 2)
    monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", 89)
    with pytest.raises(CapacityError, match="facet table of 90 entries"):
        build_slice(cfg, (6, 6, 6), -1, 4)
    monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", 120)
    slc = build_slice(cfg, (6, 6, 6), -1, 4)
    assert [slc.face_count(t) for t in range(-1, 5)] == [1, 6, 15, 20, 15, 6]


def test_face_cap_bounds_memory(monkeypatch):
    # every set of at most ten of the 35 points fits under this bound, so
    # dimension 4 alone has C(35, 5) = 324,632 faces. The guard must stop
    # the expansion while it holds a bounded block of candidate pairs:
    # testing all of that level's pairs at once peaks near 19 MiB
    cfg = veronese_points(4, 3)
    monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", 10**5)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            build_slice(cfg, (30,) * 5, -1, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_band_above_the_top_face_stays_cheap(monkeypatch):
    # (2,2) over the conic has 3 vertices and one edge. Every level above
    # dimension 1 is empty, so a band up to dimension 3000 must expand
    # only the nonempty levels and store nothing above the first empty one.
    # The vertices are picked directly, so every expanded level has at
    # least one row and one column.
    from syzcheck.homology import reduced_betti

    calls = []
    expand = complexes._expand_level

    def counted(*args):
        calls.append(args[0].shape)
        return expand(*args)

    monkeypatch.setattr(complexes, "_expand_level", counted)
    slc = build_slice(veronese_points(1, 2), (2, 2), -1, 3000)
    assert [slc.face_count(t) for t in (-1, 0, 1, 2, 3000)] == [1, 3, 1, 0, 0]
    assert sorted(slc.faces_by_dim) == [-1] + sorted(slc.facets_by_dim) == [-1, 0, 1, 2]
    assert slc.faces(3000).shape == (0, 3001)
    assert slc.subface_rows(3000).shape == (0, 3001)
    assert calls == [(3, 1), (1, 2)]  # (rows, width): the vertices, the edge
    assert reduced_betti(slc, 0).value == 1
    assert reduced_betti(slc, 2999).value == 0
    # (3, 2) lies outside the semigroup: the void complex expands nothing
    calls.clear()
    void = build_slice(veronese_points(1, 2), (3, 2), -1, 3000)
    assert calls == []
    assert void.face_count(-1) == 0 and void.vertex_count == 0


def test_band_above_the_top_face_costs_no_memory():
    # ten million levels requested, three built: time and memory must not
    # grow with the band's top
    tracemalloc.start()
    try:
        start = time.perf_counter()
        slc = build_slice(veronese_points(1, 2), (2, 2), -1, 10**7)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 2**20
    assert slc.face_count(10**7) == 0
    assert slice_to_text(slc).splitlines() == ["-1:", "0: 0", "0: 1", "0: 2", "1: 0 2"]


def test_slice_text_export():
    cfg = veronese_points(1, 3)
    slc = build_slice(cfg, (3, 3), -1, 1)
    lines = slice_to_text(slc).splitlines()
    assert lines[0] == "-1:"
    assert "0: 0" in lines
    assert "1: 0 3" in lines
    assert "1: 1 2" in lines


def test_slice_json_export():
    cfg = veronese_points(1, 3)
    slc = build_slice(cfg, (4, 2), 0, 1)
    assert slice_to_json(slc) == {
        "bound": [4, 2],
        "dims": [0, 1],
        "face_counts": {"0": 3, "1": 1},
    }


def test_matrix_text_and_container():
    bm = make_matrix(2, 2, [(0, 0, 1), (1, 1, -1)])
    assert bm.nnz == 2
    assert isinstance(bm, BoundaryMatrix)


def test_vertex_cone_mask_examples():
    # v_2(P^1) at (4, 2): (2, 0) plus either other vertex stays below the
    # bound, so it cones; at (2, 2) only (2, 0) and (0, 2) span an edge and
    # (1, 1) stays isolated; (3, 2) lies outside the semigroup (void complex)
    cfg = veronese_points(1, 2)
    assert vertex_cone_mask(cfg, [(4, 2), (2, 2), (3, 2)], 2).tolist() == [True, False, False]
    assert vertex_cone_mask(cfg, [], 2).shape == (0,)
    with pytest.raises(ValueError):
        vertex_cone_mask(cfg, [(4, 2)], 0)
    with pytest.raises(UnsupportedConfigError):
        vertex_cone_mask(general_config([(1,), (2,)]), [(3,)], 1)
