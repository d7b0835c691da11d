"""Tests for the verdict orchestrator and the two-pipeline cross-check."""

import json
import tempfile
from collections import Counter
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syzcheck import complexes, npchecker
from syzcheck.complexes import build_slice, vertex_cone_mask
from syzcheck.errors import CapacityError, MismatchError
from syzcheck.homology import reduced_betti
from syzcheck.koszul import TorSlice, tor_dimension
from syzcheck.reptheory import kostka, schur_decompose
from syzcheck.lattice import (
    balanced_weight,
    compositions,
    enumerate_multidegrees,
    veronese_points,
)
from syzcheck.npchecker import (
    FAILS,
    HOLDS,
    NpQuery,
    ResultsStore,
    _query_hash,
    check_np,
    cross_validate,
)
from test_homology import set_apex

STORE_GOLDEN = Path(__file__).parent / "golden" / "store-n2-d3-p7"


@pytest.fixture(scope="module")
def verdict_237():
    return check_np(NpQuery(n=2, d=3, p=7))


@pytest.fixture(scope="module")
def verdict_326():
    return check_np(NpQuery(n=3, d=2, p=6))


def test_query_validation():
    with pytest.raises(ValueError):
        NpQuery(n=0, d=2, p=2)
    with pytest.raises(ValueError):
        NpQuery(n=2, d=2, p=2, slack=-1)


def test_query_hash_is_pinned():
    # store file names derive from this hash; it must not move between versions
    assert _query_hash(NpQuery(n=2, d=3, p=7)) == "150f6ff6b637"
    assert _query_hash(NpQuery(n=4, d=3, p=4, slack=1)) == "2fff09a376f7"


def test_trivial_p1_has_empty_q_range():
    verdict = check_np(NpQuery(n=2, d=2, p=1))
    assert verdict.status == HOLDS
    assert verdict.checked_degrees == {}
    assert verdict.jobs_total == 0


def test_small_holding_case():
    verdict = check_np(NpQuery(n=2, d=2, p=2))
    assert verdict.status == HOLDS
    assert verdict.witness is None
    assert verdict.checked_degrees == {2: (4, 5, 6)}
    assert verdict.to_json()["effective_n"] == 2
    assert "up to the checked degree bound" in verdict.text()


def test_cubic_plane_failure_at_seven(verdict_237):
    verdict = verdict_237
    assert verdict.status == FAILS
    w = verdict.witness
    assert w is not None
    assert w.q == 7
    assert w.b.total_degree == 9
    assert w.b.coords == (9, 9, 9)
    assert w.betti.certified and w.betti.value > 0
    assert w.betti.j == 6


def test_cubic_plane_holds_at_six():
    verdict = check_np(NpQuery(n=2, d=3, p=6))
    assert verdict.status == HOLDS
    assert verdict.witness is None


def test_failure_monotonic_in_p_with_lifted_witness(verdict_326):
    v6 = verdict_326
    v7 = check_np(NpQuery(n=3, d=2, p=7))
    assert v6.status == FAILS and v7.status == FAILS
    assert v6.witness.b == v7.witness.b
    assert v6.witness.q == v7.witness.q == 6
    assert v6.witness.b.coords == (4, 4, 4, 4)
    assert v6.witness.b.total_degree == 8


def test_every_composition_matches_its_orbit_representative():
    # check_np ranks one orbit representative per multidegree. Brute force:
    # every composition of the default windows of (2,2,2) and (1,3,3), and
    # of the (2,3,7) witness block, against its non-increasing sort.
    # (n, d, p, q, degree); slack defaults to n
    blocks = [(2, 2, 2, 2, deg) for deg in (4, 5, 6)]
    blocks += [(1, 3, 3, q, deg) for q in (2, 3) for deg in (q + 2, q + 3)]
    blocks += [(2, 3, 7, 7, 9)]
    nonzero = []
    for n, d, p, q, deg in blocks:
        cfg = veronese_points(n, d)
        at_rep = {}
        for b in compositions(deg * d, n + 1):
            value = reduced_betti(build_slice(cfg, b, -1, q), q - 1).value
            rep = tuple(sorted(b, reverse=True))
            if rep not in at_rep:
                at_rep[rep] = reduced_betti(build_slice(cfg, rep, -1, q), q - 1).value
            assert value == at_rep[rep], (n, d, q, b)
            if value:
                nonzero.append(b)
    assert nonzero == [(9, 9, 9)]


def test_vertex_cone_decides_most_jobs_before_any_face_is_built(tmp_path, monkeypatch):
    # over the default windows of (2,3,6) and (3,2,5) the vertex test fires
    # on 706 of the 707 and 790 of the 790 jobs that brute force finds
    # coned, and on no other job. Every block is zero, so check_np builds
    # one slice per block at most, at n' = min(n, q) and none above
    # q + regularity(n', d): the balanced weight's at n', when the block is
    # at or below that regularity and the weight is not vertex-coned there,
    # and none when the block is stored.
    for n, d, p, jobs, coned, fired, slices in [(2, 3, 6, 752, 707, 706, 5),
                                                (3, 2, 5, 819, 790, 790, 3)]:
        cfg = veronese_points(n, d)
        seen = {"jobs": 0, "coned": 0, "fired": 0}
        tops = []
        for q in range(2, p + 1):
            for deg in range(q + 2, q + 3 + n):
                reps = [r.canonical.coords for r in enumerate_multidegrees(cfg, deg)]
                mask = vertex_cone_mask(cfg, reps, q)
                for b, fires in zip(reps, mask):
                    apex = set_apex(build_slice(cfg, b, -1, q), q)
                    assert apex is not None or not fires, (n, d, q, b)
                    seen["jobs"] += 1
                    seen["coned"] += apex is not None
                    seen["fired"] += bool(fires)
                assert reps[-1] == balanced_weight(deg * d, n + 1)
                stable = veronese_points(min(n, q), d)
                top = balanced_weight(deg * d, stable.n + 1)
                if (deg <= q + npchecker.regularity(stable.n, d)
                        and not vertex_cone_mask(stable, [top], q)[0]):
                    tops.append((q, deg, top))
        assert seen == {"jobs": jobs, "coned": coned, "fired": fired}
        assert len(tops) == slices

        built = []

        def counting_build_slice(config, coords, j_lo, j_hi, *args, **kwargs):
            built.append((j_hi, sum(coords) // config.d, coords))
            return build_slice(config, coords, j_lo, j_hi, *args, **kwargs)

        monkeypatch.setattr(npchecker, "build_slice", counting_build_slice)
        store = str(tmp_path / f"{n}-{d}")
        cold = check_np(NpQuery(n=n, d=d, p=p, store_path=store))
        assert cold.status == HOLDS and cold.jobs_total == jobs
        assert built == tops
        assert all(len(coords) == min(n, q) + 1 for _, _, coords in built)
        built.clear()
        warm = check_np(NpQuery(n=n, d=d, p=p, store_path=store))
        monkeypatch.undo()
        assert warm.jobs_reused == jobs and built == []


def test_balanced_weight_decides_its_block_by_brute_force():
    # every representative of every block of a small grid, ranked by
    # _betti_job: a block is zero exactly when its balanced weight is, and
    # _betti_block returns the brute-force values. The balanced weight is
    # the block's last representative, and every partition of its total
    # with at most n+1 parts dominates it (a positive Kostka number).
    blocks = nonzero = 0
    for n, d, p in [(1, 2, 3), (1, 3, 4), (2, 2, 4), (2, 3, 5), (3, 2, 4), (1, 4, 5)]:
        cfg = veronese_points(n, d)
        for q in range(1, p + 1):
            for deg in range(q + 1, q + 3 + n):
                reps = [r.canonical.coords for r in enumerate_multidegrees(cfg, deg)]
                top = balanced_weight(deg * d, n + 1)
                assert reps[-1] == top
                brute = [npchecker._betti_job(b, cfg, q) for b in reps]
                assert any(brute) == (brute[-1] > 0), (n, d, q, deg)
                assert npchecker._betti_block(cfg, reps, q, None) == (brute, 0)
                assert all(kostka(lam, top) > 0 for lam in reps)
                blocks += 1
                nonzero += any(brute)
    assert (blocks, nonzero) == (92, 18)


@st.composite
def route_cases(draw):
    """(n, d, q, deg, b) with n <= 4, d <= 3, q <= 3, deg from the linear
    strand's q + 1 to one past q + regularity(n, d), and b an orbit
    representative of degree deg."""
    n, d, q = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    deg = draw(st.integers(q + 1, q + npchecker.regularity(n, d) + 1))
    reps = enumerate_multidegrees(veronese_points(n, d), deg)
    # balanced weights first: the nonzero values lie near them
    return n, d, q, deg, draw(st.sampled_from(reps[::-1])).coords


@settings(max_examples=200, deadline=None, derandomize=True)
@given(route_cases())
@example((1, 2, 1, 2, (2, 2)))  # the conic's quadric
@example((4, 3, 3, 7, (5, 4, 4, 4, 4)))  # the grid's largest Koszul piece
def test_every_route_gives_the_same_betti_number(case):
    # the divisor complex's _betti_job against the Koszul complex's two
    # weighted maps and the block runner, whose regularity zero, balanced
    # weight and vertex cone all meet it; where the vertex cone fires both
    # are 0, and on small slices the alternating face count over the full
    # band is the reduced Euler characteristic
    n, d, q, deg, b = case
    cfg = veronese_points(n, d)
    value = npchecker._betti_job(b, cfg, q)
    assert value == tor_dimension(q, deg - q, n, d, weight=b).total_dim, case
    assert npchecker._betti_block(cfg, [b], q, None, shortcuts=True) == ([value], 0), case
    if vertex_cone_mask(cfg, [b], q)[0]:
        assert value == 0, case
    top = sum(all(x <= y for x, y in zip(pt, b)) for pt in cfg.points)
    if 0 < top <= 10:
        slc = build_slice(cfg, b, -1, top)
        face_alt = sum((-1) ** j * slc.face_count(j) for j in range(top + 1))
        betti_alt = sum((-1) ** j * reduced_betti(slc, j).value for j in range(top - 1))
        assert face_alt == betti_alt + 1, case


def brute_block(n: int, d: int, q: int, deg: int) -> tuple[list, list[int]]:
    """The orbit representatives of one block and their _betti_job values."""
    cfg = veronese_points(n, d)
    reps = [r.canonical.coords for r in enumerate_multidegrees(cfg, deg)]
    return reps, [npchecker._betti_job(b, cfg, q) for b in reps]


def test_block_vanishing_does_not_depend_on_n_from_q():
    # the Young diagrams of Tor_q have at most q+1 rows and do not depend
    # on V, so a block vanishes at every n >= q exactly when it does at
    # n' = q. Every representative is ranked by _betti_job, which assumes
    # nothing about the block; (d, q) = (3, 3) is left out for time.
    compared = nonzero = 0
    for d in (1, 2, 3):
        for q in (1, 2, 3):
            if (d, q) == (3, 3):
                continue
            for deg in range(q + 1, q + 5):
                _, stable = brute_block(q, d, q, deg)
                for n in (q + 1, q + 2):
                    _, values = brute_block(n, d, q, deg)
                    assert any(values) == any(stable), (n, d, q, deg)
                    compared += 1
                    nonzero += any(values)
    assert (compared, nonzero) == (64, 10)


def test_stable_step_gives_the_values_of_every_block_at_n(monkeypatch):
    # with shortcuts, _betti_block decides a block at n' = min(n, q), with
    # q + regularity(n', d) as its degree bound and the n' balanced weight
    # as its job; without them it runs every block at n. Both give the same
    # values on every block of a small grid up to one past q + reg(n, d):
    # 18 blocks lie above that, 10 above q + regularity(q, d) only, and of
    # the 16 that run the n' job 12 are nonzero and go on at n.
    kinds = Counter()
    for n in (2, 3, 4):
        for d in (1, 2, 3):
            cfg = veronese_points(n, d)
            reg = npchecker.regularity(n, d)
            for q in range(1, n):
                for deg in range(q + 1, q + reg + 2):
                    reps = [r.coords for r in enumerate_multidegrees(cfg, deg)]
                    plain = npchecker._betti_block(cfg, reps, q, None)
                    assert npchecker._betti_block(cfg, reps, q, None, shortcuts=True) \
                        == plain, (n, d, q, deg)
                    kind = ("above reg(n)" if deg > q + reg else "above reg(q)"
                            if deg > q + npchecker.regularity(q, d) else "job")
                    kinds[kind, any(plain[0])] += 1
    assert kinds == {("above reg(n)", False): 18, ("above reg(q)", False): 10,
                     ("job", False): 4, ("job", True): 12}
    # the verdict for v_3(P^6) through N_4 builds slices at n' = q only
    built = []

    def counting_build_slice(config, coords, j_lo, j_hi):
        built.append((config.n, j_hi))
        return build_slice(config, coords, j_lo, j_hi)

    monkeypatch.setattr(npchecker, "build_slice", counting_build_slice)
    assert check_np(NpQuery(n=6, d=3, p=4)).status == HOLDS
    assert built and all(n == q for n, q in built)


def test_schur_lift_from_n_equal_q_gives_every_value_at_larger_n():
    # beta_{q,b} = sum over lambda of c_lambda K_{lambda,b} at every n >= q,
    # with c_lambda peeled from the block at n' = q, whose representatives
    # are exactly its dominant weights
    nonzero = 0
    terms = {}
    for d in (1, 2, 3):
        for q in (2, 3):
            for deg in (q + 1, q + 2):
                reps, values = brute_block(q, d, q, deg)
                lift = schur_decompose(dict(zip(reps, values)), q + 1).terms
                terms[d, q, deg] = len(lift)
                nonzero += bool(lift)
                for n in (q + 1, q + 2):
                    reps, values = brute_block(n, d, q, deg)
                    lifted = [sum(c * kostka(lam, b) for lam, c in lift.items()) for b in reps]
                    assert lifted == values, (n, d, q, deg)
    assert len(terms) == 12 and nonzero == 4
    assert terms[3, 3, 4] == 14


def test_no_block_is_nonzero_beyond_the_regularity():
    # Tor_q(R) lives in degrees q+1 .. q+reg, reg = n+1-ceil((n+1)/d) for
    # the Cohen-Macaulay Veronese ring, and vanishes past the projective
    # dimension pd = C(n+d, n)-n-1. Every block two degrees past q+reg and
    # one level past pd is ranked, with no regularity given to
    # _betti_block; degree q+reg is reached for every (n, d) with d > 1.
    # At d = 1, where reg = pd = 0, every block is zero.
    blocks = 0
    reached = set()
    for n, d in [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3),
                 (3, 2)]:
        reg = n + 1 - -(-(n + 1) // d)
        assert npchecker.regularity(n, d) == reg, (n, d)
        pd = comb(n + d, n) - n - 1
        cfg = veronese_points(n, d)
        for q in range(1, pd + 2):
            for deg in range(q + 1, q + reg + 3):
                reps = [r.canonical.coords for r in enumerate_multidegrees(cfg, deg)]
                values, _ = npchecker._betti_block(cfg, reps, q, None)
                blocks += 1
                if any(values):
                    assert deg <= q + reg and q <= pd, (n, d, q, deg)
                    if deg == q + reg:
                        reached.add((n, d, q))
    assert blocks == 120
    assert {(n, d) for n, d, _ in reached} == {(1, 2), (1, 3), (1, 4), (1, 5),
                                                (2, 2), (2, 3), (3, 2)}
    assert {(2, 3, 7), (3, 2, 6)} <= reached
    assert [npchecker.regularity(n, d) for n, d in [(2, 3), (3, 2), (4, 3)]] == [2, 2, 3]


def test_cross_validate_skips_vertex_coned_representatives(monkeypatch):
    built = []

    def counting_build_slice(config, coords, *args, **kwargs):
        built.append(coords)
        return build_slice(config, coords, *args, **kwargs)

    monkeypatch.setattr(npchecker, "build_slice", counting_build_slice)
    report = cross_validate(2, 2, 1, 2)
    assert report.compared == 28 and report.mismatches == 0
    cfg = veronese_points(2, 2)
    reps = [r.canonical.coords for r in enumerate_multidegrees(cfg, 3)]
    assert built == [b for b, fires in zip(reps, vertex_cone_mask(cfg, reps, 1))
                     if not fires]
    assert len(built) < len(reps)


def test_store_files_match_recording(tmp_path):
    # the store of a failing verdict, recorded before coned jobs skipped
    # build_slice: every row, value and byte stays the same
    check_np(NpQuery(n=2, d=3, p=7, store_path=str(tmp_path)))
    names = ["betti-n2-d3.jsonl", "verdict-150f6ff6b637.json", "betti-150f6ff6b637.csv"]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).read_bytes() == (STORE_GOLDEN / name).read_bytes(), name


def test_store_holds_a_prefix_of_each_block():
    # each (q, degree) block's records are its first k representatives in
    # enumeration order, so the balanced weight, last, is stored only with
    # the whole block and _betti_block never looks it up
    cfg = veronese_points(2, 3)
    blocks: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for line in (STORE_GOLDEN / "betti-n2-d3.jsonl").read_text().splitlines():
        rec = json.loads(line)
        blocks.setdefault((rec["j"], sum(rec["b"]) // 3), []).append(tuple(rec["b"]))
    assert len(blocks) == 16
    for (j, degree), stored in blocks.items():
        reps = [r.canonical.coords for r in enumerate_multidegrees(cfg, degree)]
        assert stored == reps[:len(stored)], (j, degree)


def test_capacity_error_names_the_multidegree(monkeypatch):
    monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", 2)
    with pytest.raises(CapacityError, match=r"b=\("):
        check_np(NpQuery(n=2, d=3, p=2))


def test_block_stops_at_its_first_capacity_failure(tmp_path, monkeypatch):
    # the linear-strand block of (2,3) at q = 3, degree 4 is nonzero at its
    # balanced weight (4, 4, 4), so after it the block runs the jobs that the
    # vertex test leaves, in enumeration order. A job spy fails at
    # (6, 5, 1): no job after it runs, the error names it, and the store
    # keeps exactly the 13 values ahead of it.
    cfg = veronese_points(2, 3)
    reps = [r.canonical.coords for r in enumerate_multidegrees(cfg, 4)]
    assert reps.index((6, 5, 1)) == 13
    expected, _ = npchecker._betti_block(cfg, reps, 3, None)
    assert expected[reps.index((4, 4, 4))] > 0
    real_job = npchecker._betti_job
    calls = []

    def failing_job(coords, config, q):
        calls.append(coords)
        if coords == (6, 5, 1):
            raise CapacityError("face count exceeds cap 10 during expansion")
        return real_job(coords, config, q)

    monkeypatch.setattr(npchecker, "_betti_job", failing_job)
    with pytest.raises(CapacityError) as info:
        npchecker._betti_block(cfg, reps, 3, ResultsStore(tmp_path))
    assert str(info.value) == ("job at b=(6, 5, 1) (q=3, degree 4) exceeded capacity: "
                               "face count exceeds cap 10 during expansion")
    ahead = reps[:14]
    assert calls == [(4, 4, 4)] + [b for b, cone in zip(ahead, vertex_cone_mask(cfg, ahead, 3))
                                   if not cone]
    lines = (tmp_path / "betti-n2-d3.jsonl").read_text().splitlines()
    assert [(tuple(rec["b"]), rec["j"], rec["value"]) for rec in map(json.loads, lines)] == \
           [(coords, 2, value) for coords, value in zip(reps[:13], expected)]
    # the stored prefix holds no balanced weight, the block's last
    # representative; a rerun with the real job completes the block
    assert reps[-1] == (4, 4, 4)
    assert [4, 4, 4] not in [json.loads(line)["b"] for line in lines]
    monkeypatch.setattr(npchecker, "_betti_job", real_job)
    assert npchecker._betti_block(cfg, reps, 3, ResultsStore(tmp_path)) == (expected, 13)
    lines = (tmp_path / "betti-n2-d3.jsonl").read_text().splitlines()
    assert [(tuple(rec["b"]), rec["j"], rec["value"]) for rec in map(json.loads, lines)] == \
           [(coords, 2, value) for coords, value in zip(reps, expected)]
    assert len(lines) == 19


def test_capacity_error_at_the_balanced_weight_ends_its_block(tmp_path, monkeypatch):
    # the first block of (n,3,2), q = 2 at degree 4, is decided by the
    # balanced weight (4, 4, 4) of v_3(P^2): at n = 2 the block's own, last
    # in enumeration order, and at n = 3 the one at n' = q = 2. Its slice
    # alone needs a facet table of more than 90 entries. It runs first, so
    # its error ends the block at once: no other slice is built, and the
    # store holds nothing of the block.
    monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", 90)
    built = []

    def counting_build_slice(config, coords, *args, **kwargs):
        built.append((config.n, coords))
        return build_slice(config, coords, *args, **kwargs)

    monkeypatch.setattr(npchecker, "build_slice", counting_build_slice)
    for n in (2, 3):
        reps = [r.canonical.coords for r in enumerate_multidegrees(veronese_points(n, 3), 4)]
        assert ((4, 4, 4) in reps) == (n == 2) and reps[-1] == balanced_weight(12, n + 1)
        built.clear()
        store = tmp_path / str(n)
        with pytest.raises(CapacityError, match=r"^job at b=\(4, 4, 4\) \(q=2, degree 4\) "
                                                r"exceeded capacity: "):
            check_np(NpQuery(n=n, d=3, p=2, store_path=str(store)))
        assert built == [(2, (4, 4, 4))]
        assert ResultsStore(store).get(n, 3, 1, reps) == {}


def test_cross_validate_names_the_job_over_capacity(monkeypatch):
    monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", 2)
    with pytest.raises(CapacityError,
                       match=r"^job at b=\(.*\) \(q=2, degree 4\) exceeded capacity: "):
        cross_validate(2, 2, 2, 2)


def test_cross_validate_refuses_an_unenumerable_block_before_the_store(tmp_path):
    # degree 10**6 + 1 of v_1(P^1) is over the weight guard: the window
    # guard refuses it before the store makes its directory
    with pytest.raises(CapacityError, match=r"^coordinate sum 1000001 exceeds guard"):
        cross_validate(1, 1, 1, 10**6, store_path=str(tmp_path / "s"))
    assert not (tmp_path / "s").exists()


def test_verdict_json_shape(verdict_237):
    doc = verdict_237.to_json()
    assert doc["status"] == FAILS
    assert doc["witness"]["b"] == [9, 9, 9]
    assert doc["witness"]["q"] == 7
    assert doc["witness"]["certified"] is True
    assert "elapsed" not in json.dumps(doc)
    assert doc["checked_degrees"]["2"] == [4, 5, 6]


def test_store_reuse(tmp_path):
    store = tmp_path / "results"
    first = check_np(NpQuery(n=2, d=2, p=2, store_path=str(store)))
    betti_file = store / "betti-n2-d2.jsonl"
    assert betti_file.exists()
    lines_before = betti_file.read_text().splitlines()
    assert len(lines_before) == first.jobs_total

    second = check_np(NpQuery(n=2, d=2, p=2, store_path=str(store)))
    assert second.status == first.status
    assert second.jobs_total == 0
    assert second.jobs_reused == first.jobs_total
    assert betti_file.read_text().splitlines() == lines_before

    verdicts = list(store.glob("verdict-*.json"))
    assert len(verdicts) == 1
    doc = json.loads(verdicts[0].read_text())
    assert doc["status"] == HOLDS
    csvs = list(store.glob("betti-*.csv"))
    assert len(csvs) == 1
    header = csvs[0].read_text().splitlines()[0]
    assert header == "b,j,value,certified"


def test_store_appends_once_per_block(tmp_path, monkeypatch):
    # a block's new values go out in one append; a warm rerun appends none
    betti_file = tmp_path / "betti-n2-d2.jsonl"
    appends = []
    real_open = Path.open

    def counting_open(self, mode="r", *args, **kwargs):
        if self == betti_file and "a" in mode:
            appends.append(mode)
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    cold = check_np(NpQuery(n=2, d=2, p=2, store_path=str(tmp_path)))
    blocks = len(cold.checked_degrees[2])
    assert blocks == 3 < cold.jobs_total
    assert len(appends) == blocks
    appends.clear()
    warm = check_np(NpQuery(n=2, d=2, p=2, store_path=str(tmp_path)))
    assert warm.jobs_reused == cold.jobs_total and appends == []


def test_store_skips_torn_tail(tmp_path):
    store = str(tmp_path)
    first = check_np(NpQuery(n=2, d=2, p=2, store_path=store))
    betti_file = tmp_path / "betti-n2-d2.jsonl"
    betti_file.write_bytes(betti_file.read_bytes()[:-5])

    second = check_np(NpQuery(n=2, d=2, p=2, store_path=store))
    assert second.jobs_total == 1
    assert second.jobs_reused == first.jobs_total - 1
    counters = ("jobs_total", "jobs_reused")
    assert {k: v for k, v in second.to_json().items() if k not in counters} == \
           {k: v for k, v in first.to_json().items() if k not in counters}

    third = check_np(NpQuery(n=2, d=2, p=2, store_path=store))
    assert third.jobs_total == 0
    assert third.jobs_reused == first.jobs_total


def test_store_cuts_a_last_record_without_its_newline(tmp_path):
    # a write cut short just before its newline leaves a line that parses;
    # appended to as a record, it glues the next put onto itself
    store = str(tmp_path)
    first = check_np(NpQuery(n=2, d=2, p=2, slack=0, store_path=store))
    betti_file = tmp_path / "betti-n2-d2.jsonl"
    data = betti_file.read_bytes()
    assert data.endswith(b"}\n")
    betti_file.write_bytes(data[:-1])

    wider = check_np(NpQuery(n=2, d=2, p=2, store_path=store))
    assert wider.jobs_reused == first.jobs_total - 1
    lines = betti_file.read_text().splitlines()
    assert len(lines) == wider.jobs_total + wider.jobs_reused
    assert all(json.loads(line)["certified"] for line in lines)
    again = check_np(NpQuery(n=2, d=2, p=2, store_path=store))
    assert (again.jobs_total, again.jobs_reused) == (0, len(lines))
    assert again.to_json() == {**wider.to_json(), "jobs_total": 0,
                               "jobs_reused": len(lines)}


def test_store_rejects_unparseable_line_before_the_tail(tmp_path):
    check_np(NpQuery(n=2, d=2, p=2, store_path=str(tmp_path)))
    betti_file = tmp_path / "betti-n2-d2.jsonl"
    lines = betti_file.read_text().splitlines()
    lines[0] = lines[0][:-3]
    betti_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        check_np(NpQuery(n=2, d=2, p=2, store_path=str(tmp_path)))


def test_store_rejects_unparseable_last_line_with_its_newline(tmp_path):
    # put writes each record with its newline, so a torn write leaves its
    # fragment after the last newline; a whole last line that does not
    # parse was damaged otherwise, and is neither skipped nor cut
    check_np(NpQuery(n=2, d=2, p=2, store_path=str(tmp_path)))
    betti_file = tmp_path / "betti-n2-d2.jsonl"
    lines = betti_file.read_text().splitlines()
    assert len(lines) == 43
    lines[-1] = lines[-1][:-3]
    betti_file.write_text("\n".join(lines) + "\n")
    damaged = betti_file.read_bytes()
    with pytest.raises(ValueError, match="line 43 is not JSON"):
        check_np(NpQuery(n=2, d=2, p=2, store_path=str(tmp_path)))
    assert betti_file.read_bytes() == damaged


def test_store_writes_are_atomic(tmp_path, monkeypatch):
    store = ResultsStore(tmp_path)
    verdict = store.write_verdict("abc", {"status": HOLDS})
    csv = store.write_betti_csv("abc", [((4, 2, 2), 1, 0)])
    assert verdict == tmp_path / "verdict-abc.json"
    assert csv == tmp_path / "betti-abc.csv"
    before = {path: path.read_bytes() for path in (verdict, csv)}

    real_open = Path.open

    def torn_open(self, mode="r", *args, **kwargs):
        # every file opened for writing takes half the text, then fails
        fh = real_open(self, mode, *args, **kwargs)
        if "r" not in mode:
            real_write = fh.write

            def write(text):
                real_write(text[:len(text) // 2])
                raise OSError("disk full")

            fh.write = write
        return fh

    monkeypatch.setattr(Path, "open", torn_open)
    with pytest.raises(OSError):
        store.write_verdict("abc", {"status": FAILS, "pad": "x" * 1000})
    with pytest.raises(OSError):
        store.write_betti_csv("abc", [((4, 2, 2), j, 1) for j in range(50)])
    monkeypatch.undo()
    assert {path: path.read_bytes() for path in (verdict, csv)} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["betti-abc.csv",
                                                         "verdict-abc.json"]


def test_store_only_reuses_certified(tmp_path):
    # the store writes only certified values; a line from elsewhere that
    # says otherwise is read but never reused
    (tmp_path / "betti-n2-d2.jsonl").write_text(
        '{"b": [4, 2, 2], "certified": false, "j": 1, "value": 3}\n')
    store = ResultsStore(tmp_path)
    assert store.get(2, 2, 1, [(4, 2, 2)]) == {}
    store2 = ResultsStore(tmp_path)
    assert store2.get(2, 2, 1, [(4, 2, 2)]) == {}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 10**6), max_size=40), st.integers(0, 30),
       st.integers(0, 10**6))
@example([], 0, 0)
@example([12, 0, 345], 1, 10)
def test_put_writes_the_bytes_of_json_dumps(b, j, value):
    # put formats each record line itself: the bytes must stay those of
    # json.dumps with sorted keys, which earlier stores were written with
    with tempfile.TemporaryDirectory() as root:
        ResultsStore(root).put(2, 3, j, {tuple(b): value})
        line = (Path(root) / "betti-n2-d3.jsonl").read_text()
        rec = {"b": b, "j": j, "value": value, "certified": True}
        assert line == json.dumps(rec, sort_keys=True) + "\n"
        assert ResultsStore(root).get(2, 3, j, [tuple(b)]) == {tuple(b): value}


def test_store_reads_a_record_in_another_key_order_and_spacing(tmp_path):
    (tmp_path / "betti-n2-d2.jsonl").write_text(
        '{"value":3,"j":1,  "certified" :true,"b":[ 4,2 ,2]}\n'
        '{"certified": true, "value": 0, "b": [3, 3, 2], "j": 1}\n')
    store = ResultsStore(tmp_path)
    assert store.get(2, 2, 1, [(4, 2, 2), (3, 3, 2), (4, 4, 0)]) == {(4, 2, 2): 3,
                                                                     (3, 3, 2): 0}


def test_store_reuses_records_that_carry_an_object_valued_key(tmp_path):
    # an extra key with an object value, written first, puts "}," inside a
    # line, so the file is parsed line by line; every line is still a store
    # record, and the warm run reuses all of them and appends none
    query = NpQuery(2, 2, 2, store_path=str(tmp_path))
    cold = check_np(query)
    path = tmp_path / "betti-n2-d2.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("".join('{"meta": {"v": 1}, ' + line[1:] + "\n" for line in lines))
    content = path.read_bytes()
    assert npchecker._COMMA_AFTER_OBJECT.search(content)
    warm = check_np(query)
    assert (cold.jobs_total, cold.jobs_reused) == (len(lines), 0) == (43, 0)
    assert warm.to_json() == {**cold.to_json(), "jobs_total": 0, "jobs_reused": 43}
    assert path.read_bytes() == content


@pytest.mark.parametrize("line, fault", [
    ('{"b": [4, 0], "j": 0}', "is not a store record"),
    ("[1, 2]", "is not a store record"),
    ('{"b": [4, 0], "j": 0, "value": 0', "is not JSON"),
    # two records on one line are two elements of the one-pass array
    ('{"b": [4, 0], "j": 0, "value": 0, "certified": true}, '
     '{"b": [3, 1], "j": 0, "value": 0, "certified": true}', "is not JSON"),
    # and here the next line ends the second, so the array holds one
    # record per line: still no line may hold two
    ('{"b": [4, 0], "j": 0, "value": 0, "certified": true}, '
     '{"b": [3, 1], "j": 0, "value": 0, "certified": true, "x": [{}\n{}]}', "is not JSON"),
])
def test_store_names_a_bad_line_after_a_blank_one(tmp_path, line, fault):
    # blank lines are skipped but counted: the bad line is named by its own
    # number in the file, and no value of the file is used
    good = '{"b": [2, 2], "certified": true, "j": 0, "value": 0}'
    (tmp_path / "betti-n1-d2.jsonl").write_text(f"{good}\n\n{line}\n{good}\n")
    with pytest.raises(ValueError, match=rf"betti-n1-d2.jsonl line 3 {fault}$"):
        ResultsStore(tmp_path).get(1, 2, 0, [(2, 2)])


def test_cross_validate_examples():
    r = cross_validate(1, 3, 1, 1)
    assert r.mismatches == 0
    assert sorted(r.matched_pairs()) == [((2, 4), 1), ((3, 3), 1), ((4, 2), 1)]
    assert r.matches == 3

    r2 = cross_validate(1, 2, 1, 1)
    assert r2.matched_pairs() == [((2, 2), 1)]

    r3 = cross_validate(2, 2, 1, 2)
    assert r3.matches == 0 and r3.mismatches == 0
    assert all(pr.tor == 0 for pr in r3.pairs)
    assert r3.compared == 28


def test_cross_validate_rejects_p_below_one():
    with pytest.raises(ValueError, match="need p >= 1 and q >= 1"):
        cross_validate(1, 2, 0, 1)
    # and n or d below one, with veronese_points' text, before the window guard
    for n, d in ((-1, 2), (0, 2), (2, 0), (2, -1)):
        with pytest.raises(ValueError, match=f"^need n >= 1 and d >= 1, got n={n}, d={d}$"):
            cross_validate(n, d, 1, 1)


def test_cross_validate_report_json():
    doc = cross_validate(1, 2, 1, 1).to_json()
    assert doc["matches"] == 1 and doc["mismatches"] == 0
    assert {"b": [2, 2], "tor": 1, "betti": 1} in doc["pairs"]


def test_cross_validate_mismatch_is_hard_error(monkeypatch):
    # the Koszul side is one sweep of the piece, without a weight
    calls = []

    def broken(p, q, n, d, weight=None, **kw):
        calls.append(weight)
        return TorSlice(p=p, q=q, total_dim=99,
                        weights=dict.fromkeys(compositions((p + q) * d, n + 1), 99))

    monkeypatch.setattr("syzcheck.npchecker.tor_dimension", broken)
    with pytest.raises(MismatchError, match=r"b=\("):
        cross_validate(1, 2, 1, 1)
    assert calls == [None]


def test_cross_validate_uses_store(tmp_path):
    first = cross_validate(1, 3, 1, 1, store_path=str(tmp_path))
    betti_file = tmp_path / "betti-n1-d3.jsonl"
    content = betti_file.read_text()
    second = cross_validate(1, 3, 1, 1, store_path=str(tmp_path))
    assert betti_file.read_text() == content
    assert [(p.coords, p.tor) for p in first.pairs] == \
           [(p.coords, p.tor) for p in second.pairs]
