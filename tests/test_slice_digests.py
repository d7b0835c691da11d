"""Faces, coning vertex and cascade survivors of many slices, pinned by digest.

Each slice in SLICES is hashed (SHA-256) over its local vertex list, every
face matrix of its band, its cone apex (the lowest coning vertex, found by
brute force) and the alive mask per dimension that the cancellation cascade
leaves. The digests in tests/golden/slices.json were
recorded before the enumerator and the cascade became array passes, so this
test holds both to "same faces, same matching", bit for bit. To re-record
after an intended change, run `PYTHONPATH=src python tests/test_slice_digests.py`
and review the diff.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from syzcheck.complexes import build_slice, vertex_cone_mask
from syzcheck.homology import _reduce_band, reduced_betti
from syzcheck.lattice import enumerate_multidegrees, general_config, veronese_points
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


def slice_digest(slc, apex) -> str:
    h = hashlib.sha256()

    def put(tag, arr):
        arr = np.ascontiguousarray(arr)
        h.update(f"{tag}:{arr.dtype.str}:{arr.shape};".encode())
        h.update(arr.tobytes())

    put("vertices", slc.vertices)
    for t in range(slc.j_lo, slc.j_hi + 1):
        put(f"faces{t}", slc.faces(t))
    h.update(f"apex:{apex};".encode())
    alive, _ = _reduce_band(slc)
    for t in sorted(alive):
        put(f"alive{t}", alive[t])
    return h.hexdigest()


def compute():
    digests = {}
    unconed = 0
    for label, cfg, b, q in slices():
        slc = build_slice(cfg, b, -1, q)
        apex = set_apex(slc, q)
        unconed += apex is None
        digests[label] = slice_digest(slc, apex)
    return digests, unconed


def test_slice_digests_match_recording():
    digests, unconed = compute()
    assert unconed >= 20
    recorded = json.loads(GOLDEN.read_text())
    assert sorted(digests) == sorted(recorded)
    changed = [k for k in digests if digests[k] != recorded[k]]
    assert not changed, f"{len(changed)} slices differ, first {changed[:5]}"


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
        slc = build_slice(cfg, b, -1, q)
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
