"""Point configurations, membership, and multidegree enumeration."""

import pytest
from math import comb

from syzcheck.errors import CapacityError, UnsupportedConfigError
from syzcheck.lattice import (
    Multidegree,
    PointConfig,
    balanced_weight,
    composition_count,
    compositions,
    enumerate_multidegrees,
    general_config,
    membership_tester,
    multidegree,
    orbit_count_floor,
    orbit_expansion,
    orbit_size_of,
    partitions_into,
    semigroup_contains,
    veronese_points,
)


def brute_force_member(points, v):
    # independent membership check: plain DFS on residuals, no closed form
    seen = set()
    stack = [tuple(v)]
    while stack:
        r = stack.pop()
        if not any(r):
            return True
        if r in seen:
            continue
        seen.add(r)
        for a in points:
            if any(a) and all(x >= y for x, y in zip(r, a)):
                stack.append(tuple(x - y for x, y in zip(r, a)))
    return False


def all_vectors_up_to(k, total):
    if k == 0:
        yield ()
        return
    for head in range(total + 1):
        for tail in all_vectors_up_to(k - 1, total - head):
            yield (head,) + tail


def test_veronese_line_cubic_points():
    cfg = veronese_points(1, 3)
    assert cfg.points == ((3, 0), (2, 1), (1, 2), (0, 3))


def test_veronese_plane_conic_points():
    cfg = veronese_points(2, 2)
    assert len(cfg.points) == 6
    assert cfg.points[0] == (2, 0, 0)
    assert cfg.points[-1] == (0, 0, 2)


def test_veronese_p4_cubic_count():
    assert len(veronese_points(4, 3).points) == 35


def test_veronese_counts_match_binomial():
    for n in range(1, 6):
        for d in range(1, 6):
            assert len(veronese_points(n, d).points) == comb(n + d, n)


def test_veronese_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        veronese_points(0, 3)
    with pytest.raises(ValueError):
        veronese_points(2, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: list(compositions(3, 0)), "parts must be >= 1"),
    (lambda: list(compositions(-1, 2)), "total must be >= 0"),
    (lambda: list(partitions_into(3, 0)), "max_parts must be >= 1"),
    (lambda: list(partitions_into(-1, 2)), "total must be >= 0"),
    (lambda: general_config([]), "needs at least one point"),
    (lambda: general_config([(1,), (1, 2)]), "share one ambient dimension"),
    (lambda: general_config([(-1,)]), "nonnegative coordinates"),
    (lambda: general_config([(1,), (1,)]), "points must be distinct"),
    (lambda: PointConfig(points=((1, 0), (0, 1)), n=1), "requires n and d"),
    (lambda: PointConfig(points=((1, 0), (0, 1)), n=1, d=2), "inconsistent veronese data"),
    (lambda: veronese_points(2, 2).degree_of((1, 0, 0)),
     r"\(1, 0, 0\) has coordinate sum not divisible by 2"),
    (lambda: semigroup_contains(veronese_points(2, 2), (1, 1)), "vector has wrong length"),
    (lambda: enumerate_multidegrees(veronese_points(2, 2), -1), "total_degree must be >= 0"),
])
def test_lattice_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_point_config_kind_follows_d():
    # kind is derived, not stored: n and d come together or not at all
    assert veronese_points(2, 2).kind == "veronese"
    assert general_config([(1, 0), (0, 1)]).kind == "general"
    assert PointConfig(points=((1, 0), (0, 1)), n=1, d=1) == veronese_points(1, 1)


def test_veronese_points_is_cached():
    # the cache shares one validated configuration; bad parameters are not
    # cached and raise on every call
    assert veronese_points(4, 3) is veronese_points(4, 3)
    assert veronese_points(2, 3) is not veronese_points(3, 2)
    for _ in range(2):
        with pytest.raises(ValueError):
            veronese_points(0, 3)
        with pytest.raises(ValueError):
            veronese_points(3, 0)


def test_points_are_lex_descending():
    for n, d in [(1, 3), (2, 2), (3, 3)]:
        pts = veronese_points(n, d).points
        assert list(pts) == sorted(pts, reverse=True)


def test_membership_examples():
    cfg = veronese_points(2, 3)
    assert semigroup_contains(cfg, (1, 2, 3))
    assert not semigroup_contains(cfg, (1, 1, 2))
    assert semigroup_contains(cfg, (0, 0, 0))
    assert not semigroup_contains(cfg, (-1, 2, 2))


def test_membership_closed_form_matches_dfs():
    # the closed form must agree with the general-configuration search
    for n, d in [(1, 2), (2, 2), (2, 3)]:
        cfg = veronese_points(n, d)
        gen = general_config(cfg.points)
        for v in all_vectors_up_to(n + 1, 4 * d):
            assert semigroup_contains(cfg, v) == semigroup_contains(gen, v), v


def test_general_membership_matches_brute_force():
    pts = [(2, 0), (1, 1), (0, 3)]
    gen = general_config(pts)
    for v in all_vectors_up_to(2, 9):
        assert semigroup_contains(gen, v) == brute_force_member(pts, v), v


def test_general_membership_searches_deep_residuals():
    # the search subtracts one point per step, so (5001,) is a path of
    # about 2,500 residuals: deeper than Python's recursion limit
    cfg = general_config([(2,), (3,)])
    assert semigroup_contains(cfg, (5001,))
    assert not semigroup_contains(cfg, (1,))
    # one tester, its memo filled by the deep search, still agrees with
    # brute force on every small vector
    member = membership_tester(cfg)
    assert member((5001,)) and not member((1,))
    for k in range(-2, 60):
        assert member((k,)) == (k >= 0 and brute_force_member([(2,), (3,)], (k,))), k


def test_enumerate_line_cubic_degree_two():
    # every multidegree of degree 2, listed by compositions of 2 * d
    cfg = veronese_points(1, 3)
    got = list(compositions(2 * 3, 2))
    assert got == [(6, 0), (5, 1), (4, 2), (3, 3), (2, 4), (1, 5), (0, 6)]
    assert all(cfg.degree_of(c) == 2 for c in got)


def test_enumerate_line_cubic_degree_two_symmetric():
    cfg = veronese_points(1, 3)
    reps = enumerate_multidegrees(cfg, 2)
    assert [r.canonical.coords for r in reps] == [(6, 0), (5, 1), (4, 2), (3, 3)]
    assert [orbit_size_of(r.canonical.coords) for r in reps] == [2, 2, 2, 1]
    # each representative is the canonical Multidegree of its orbit
    assert all(type(r) is Multidegree and r == r.canonical for r in reps)
    # the keyword is accepted for callers that spell it out, never switched off
    assert enumerate_multidegrees(cfg, 2, up_to_symmetry=True) == reps
    with pytest.raises(ValueError):
        enumerate_multidegrees(cfg, 2, up_to_symmetry=False)


def test_enumerate_p4_cubic_degree_six_symmetric_count():
    # value frozen from an independent partition-count recursion
    cfg = veronese_points(4, 3)
    reps = enumerate_multidegrees(cfg, 6)
    assert len(reps) == 141


def test_orbit_expansion_recovers_full_enumeration():
    from itertools import permutations

    for n, d, k in [(2, 2, 3), (3, 2, 2), (1, 3, 4)]:
        cfg = veronese_points(n, d)
        full = sorted(compositions(k * d, n + 1))
        expanded = []
        for rep in enumerate_multidegrees(cfg, k):
            orbit = set(permutations(rep.canonical.coords))
            assert len(orbit) == orbit_size_of(rep.canonical.coords)
            expanded.extend(orbit)
        assert sorted(expanded) == full
    for coords, size in [((0, 3), 2), ((0, 3, 3), 3), ((2, 2, 2), 1),
                         ((0, 0, 5, 0, 1), 20)]:
        assert orbit_size_of(coords) == len(set(permutations(coords))) == size


def test_canonical_rep_examples():
    # the symmetric enumeration holds each multidegree's orbit as its
    # non-increasing sort, whose orbit_size_of is the orbit size
    for n, coords, canon, size in [(1, (0, 3), (3, 0), 2),
                                   (2, (0, 3, 3), (3, 3, 0), 3),
                                   (2, (2, 2, 2), (2, 2, 2), 1),
                                   (4, (0, 0, 5, 0, 1), (5, 1, 0, 0, 0), 20)]:
        cfg = veronese_points(n, 3)
        b = multidegree(cfg, coords)
        reps = {r.canonical.coords: r
                for r in enumerate_multidegrees(cfg, b.total_degree)}
        rep = reps[tuple(sorted(b.coords, reverse=True))]
        assert rep.canonical.coords == canon
        assert rep.canonical.total_degree == b.total_degree
        assert orbit_size_of(rep.canonical.coords) == size
        # the property also sorts a multidegree that is not canonical
        assert multidegree(cfg, coords).canonical == Multidegree(canon, b.total_degree)


def test_orbit_expansion_matches_distinct_permutations():
    from itertools import permutations

    for parts in range(1, 7):
        for total in range(7):
            for c in compositions(total, parts):
                assert orbit_expansion(c) == sorted(set(permutations(c)), reverse=True), c


def test_enumerated_multidegrees_are_members():
    for n, d, k in [(2, 3, 3), (3, 2, 4)]:
        cfg = veronese_points(n, d)
        for c in compositions(k * d, n + 1):
            assert semigroup_contains(cfg, c)
        for rep in enumerate_multidegrees(cfg, k):
            assert semigroup_contains(cfg, rep.canonical.coords)


def test_enumerate_weight_guard():
    cfg = veronese_points(1, 1000)
    with pytest.raises(CapacityError):
        enumerate_multidegrees(cfg, 2000)


def test_enumerate_rejects_general_configs():
    gen = general_config([(1, 0), (0, 1)])
    with pytest.raises(UnsupportedConfigError):
        enumerate_multidegrees(gen, 2)
    with pytest.raises(UnsupportedConfigError):
        gen.degree_of((1, 1))


def test_multidegree_factory_validates_membership():
    cfg = veronese_points(2, 3)
    m = multidegree(cfg, (1, 2, 3))
    assert m.total_degree == 2
    with pytest.raises(ValueError):
        multidegree(cfg, (1, 1, 2))


def test_compositions_order_and_count():
    got = list(compositions(2, 3))
    assert got == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert len(list(compositions(5, 4))) == comb(5 + 3, 3)


def test_composition_count_matches_the_enumeration():
    # total = 0 and parts = 1 give one composition; past the exact range the
    # lower index is capped, and the count still exceeds 10**37
    for total in range(0, 9):
        for parts in range(1, 7):
            assert composition_count(total, parts) == len(list(compositions(total, parts)))
    assert composition_count(40, 21) == comb(60, 20)
    assert composition_count(70, 70) == comb(139, 64) > 10**37
    assert composition_count(10**9, 10**9) > 10**37


def test_veronese_points_guard(monkeypatch):
    # the count is checked before the points are made; the cache is keyed
    # on (n, d), so fresh sizes are used here
    monkeypatch.setattr("syzcheck.lattice.VERONESE_POINT_GUARD", 55)
    assert len(veronese_points(3, 4).points) == 35
    with pytest.raises(CapacityError, match="C\\(8, 3\\) points exceed guard 55"):
        veronese_points(3, 5)


def test_partitions_into_order_and_shape():
    got = list(partitions_into(4, 3))
    assert got == [(4, 0, 0), (3, 1, 0), (2, 2, 0), (2, 1, 1)]
    for p in partitions_into(18, 5):
        assert list(p) == sorted(p, reverse=True)
        assert sum(p) == 18
    # total 0 and a single part included: the distinct sorted compositions
    for total in range(13):
        for parts in range(1, 6):
            sorted_comps = {tuple(sorted(c, reverse=True)) for c in compositions(total, parts)}
            assert list(partitions_into(total, parts)) == sorted(sorted_comps, reverse=True)


def test_balanced_weight_is_the_last_partition_and_orbit_counts_are_floors():
    assert balanced_weight(14, 4) == (4, 4, 3, 3)
    assert balanced_weight(2, 5) == (1, 1, 0, 0, 0)
    for parts in range(1, 6):
        for total in range(13):
            parts_list = list(partitions_into(total, parts))
            assert parts_list[-1] == balanced_weight(total, parts)
            assert orbit_count_floor(total, parts) <= len(parts_list)
    # huge sizes cost nothing and stay far above any window guard
    assert orbit_count_floor(10**6, 10**4) > 10**100
