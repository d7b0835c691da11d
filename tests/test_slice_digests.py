"""Faces, coning vertex and cascade survivors of many slices, pinned by digest.

Each slice in SLICES has two SHA-256 digests in tests/golden/slices.json.
The faces digest covers its local vertex list, every face matrix of its
band and its cone apex (the lowest coning vertex, found by brute force);
it holds the enumerator to "same faces", bit for bit, as the one combined
digest did from before the enumerator became array passes. The
cascade digest covers the alive mask per dimension that the cancellation
cascade (`homology._reduce_band`) leaves; it was last re-recorded when the
cascade became one single-facet rule. A change to either part fails the
test on that part alone. Veronese slices come from build_slice, general
ones from the brute-force reference `general_slice` (tests/test_complexes.py).
To re-record after an intended change, run
`PYTHONPATH=src python tests/test_slice_digests.py` and review the diff.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from syzcheck.complexes import build_slice, vertex_cone_mask
from syzcheck.homology import _reduce_band, reduced_betti
from syzcheck.lattice import enumerate_multidegrees, general_config, veronese_points
from test_complexes import any_slice
from test_homology import set_apex

GOLDEN = Path(__file__).parent / "golden" / "slices.json"


def slices():
    """(label, config, bound, j_hi) for every pinned slice; bands start at -1."""
    # v_3(P^4) near the paper's windows, v_3(P^2) and v_2(P^3) over several
    # degrees: orbit representatives, coned or not
    for n, d, degs, qs in [(4, 3, (4, 5), (2, 3)),
                           (2, 3, (3, 4, 5, 6), (2, 3, 4)),
                           (3, 2, (3, 4, 5), (2, 3, 4))]:
        cfg = veronese_points(n, d)
        for deg in degs:
            for m in enumerate_multidegrees(cfg, deg):
                b = m.canonical.coords
                for q in qs:
                    yield f"v{d}P{n}/{','.join(map(str, b))}/{q}", cfg, b, q
    # a general configuration, whose faces need the membership predicate
    cfg = general_config([(2, 0), (1, 1), (0, 3)])
    for b0 in range(0, 6):
        for b1 in range(0, 7):
            yield f"general/{b0},{b1}/3", cfg, (b0, b1), 3


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for tag, arr in arrays:
        if isinstance(arr, str):
            h.update(f"{tag}:{arr};".encode())
            continue
        arr = np.ascontiguousarray(arr)
        h.update(f"{tag}:{arr.dtype.str}:{arr.shape};".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def slice_digests(slc, apex) -> dict[str, str]:
    faces = [("vertices", slc.vertices)]
    faces += [(f"faces{t}", slc.faces(t)) for t in range(slc.j_lo, slc.j_hi + 1)]
    faces.append(("apex", str(apex)))
    alive, _ = _reduce_band(slc)
    return {"faces": _digest(faces),
            "cascade": _digest((f"alive{t}", alive[t]) for t in sorted(alive))}


def compute():
    digests = {}
    unconed = 0
    for label, cfg, b, q in slices():
        slc = any_slice(cfg, b, -1, q)
        apex = set_apex(slc, q)
        unconed += apex is None
        digests[label] = slice_digests(slc, apex)
    return digests, unconed


def test_slice_digests_match_recording():
    digests, unconed = compute()
    assert unconed >= 20
    recorded = json.loads(GOLDEN.read_text())
    assert sorted(digests) == sorted(recorded)
    for part in ("faces", "cascade"):
        changed = [k for k in digests if digests[k][part] != recorded[k][part]]
        assert not changed, f"{len(changed)} {part} digests differ, first {changed[:5]}"


def test_vertex_cone_mask_fires_only_on_coned_slices():
    # the vertex test decides which jobs never reach build_slice; on every
    # pinned veronese slice where it fires, brute force finds an apex
    fired = 0
    for label, cfg, b, q in slices():
        if cfg.kind != "veronese" or not vertex_cone_mask(cfg, [b], q)[0]:
            continue
        fired += 1
        slc = build_slice(cfg, b, -1, q)
        assert set_apex(slc, q) is not None, label
        assert reduced_betti(slc, q - 1).value == 0, label
    assert fired == 425


def test_facet_rows_drop_one_vertex():
    # subface_rows(t)[f, i] must be the row of face f minus its i-th vertex,
    # looked up by brute force among the rows of the level below
    checked = 0
    for label, cfg, b, q in slices():
        slc = any_slice(cfg, b, -1, q)
        for t in range(0, q + 1):
            row_of = {tuple(r): i for i, r in enumerate(slc.faces(t - 1).tolist())}
            want = [[row_of[tuple(f[:i] + f[i + 1:])] for i in range(t + 1)]
                    for f in slc.faces(t).tolist()]
            got = slc.subface_rows(t)
            assert got.shape == (slc.face_count(t), t + 1), (label, t)
            assert got.tolist() == want, (label, t)
            checked += len(want)
    assert checked > 10**5


if __name__ == "__main__":
    digests, _ = compute()
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
