"""Divisor complexes restricted to a band of dimensions, with boundary maps.

For a configuration A and a bound vector b, a set F of points is a face when
the residual b - sum(F) lies in the semigroup of A, so a bound outside the
semigroup gives the void complex, without even the empty face. Slices are
built for the veronese configurations (the degree-d monomials) only: their
semigroup holds exactly the vectors >= 0 with coordinate sum divisible by
d, every point has sum d, so once d divides sum(b) the bound test
b - sum(F) >= 0 alone decides a face.

The vertices are the points w <= b, picked in one array test on the
residuals b - w. Larger faces grow from them a vertex at a time by joining
two faces that differ only in their last vertex (Agrawal-Srikant prefix
join), as whole arrays. Each face carries its slack b - sum(F) packed into
uint64 words: every coordinate gets a field of W bits, W one more than the
bit length of the largest bound coordinate or d (no point coordinate
exceeds d), so its top (guard) bit starts clear, and a word holds 64 // W
fields. With G the mask of the guard bits, a vertex w fits under F exactly
when ((slack(F) | G) - w) & G == G in every word, and clearing the guard
bits of that difference leaves the child's slack: no field borrows once w
fits. Bounds and points are packed once per build, and a coordinate of
2**63 or more, which no 64-bit field can hold with its guard bit, is
refused.

A vertex w cones the complex through dimension j_hi - 1 when every face
below j_hi that avoids w extends by w, and then reduced homology vanishes
there. For the veronese presets `vertex_cone_mask` proves such a cone from
the point coordinates alone, one array pass over many bounds, so a caller
certifies a coned zero before any face is built. It is the only cone
certificate: build_slice does not look for an apex, and `reduced_betti`
(element matching, then the cancellation cascade) takes whatever coned
slice it is handed.

Each face is born as a parent face plus one later vertex, and that record
is its identity within its level: rows run parent-major, so the key
parent * V + last vertex (V the vertex count) increases strictly down a
level, and the rows sharing a parent are the prefix block that the next
expansion joins. The facets of every face follow level by level: F + w
minus w is the parent F itself, minus F's last vertex it is the partner
row that the expansion joined F with, and minus any other vertex F_i it is
(F - F_i) + w, whose key is read from a dense table: the level below is
scattered once into an int32 array indexed by key, and each facet column
is one gather from it.

Only dimensions inside a requested band [j_lo, j_hi] are kept, since one
reduced homology rank needs three consecutive dimensions, and no level
above the first empty one is built. Faces are stored per dimension as
integer index matrices over the local vertex list, rows in lexicographic
order, which makes face lookups and boundary assembly pure array
operations. Local vertex i is point config.points[vertices[i]].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import CapacityError, UnsupportedConfigError
from .lattice import PointConfig, Vector

# per-dimension face count guard
DEFAULT_FACE_CAP = 5 * 10**7
# candidate (parent, partner) pairs tested per array pass of _expand_level
EXPANSION_CHUNK = 1 << 14


@dataclass(eq=False)
class ComplexSlice:
    """Faces of one divisor complex with dimension in [j_lo, j_hi].

    faces_by_dim[t] is an (N_t, t+1) int32 matrix of local vertex indices,
    rows lexicographically increasing; dimension -1 is a (1, 0) or (0, 0)
    matrix recording whether the empty face is present (it is, exactly when
    the bound lies in the semigroup). facets_by_dim[t], for t > j_lo, is the
    (N_t, t+1) int32 matrix whose entry [f, i] is the row, in dimension t-1,
    of face f with its i-th vertex removed. Both stop at the first empty
    level of the band; `faces` and `subface_rows` read every level above it
    as empty.
    """

    config: PointConfig
    bound: Vector
    j_lo: int
    j_hi: int
    vertices: np.ndarray
    faces_by_dim: dict[int, np.ndarray]
    facets_by_dim: dict[int, np.ndarray]

    @property
    def vertex_count(self) -> int:
        return int(self.vertices.size)

    def faces(self, dim: int) -> np.ndarray:
        """The face matrix of one dimension; empty where none is stored."""
        arr = self.faces_by_dim.get(dim)
        return np.zeros((0, dim + 1), dtype=np.int32) if arr is None else arr

    def face_count(self, dim: int) -> int:
        return int(self.faces(dim).shape[0])

    def subface_rows(self, dim: int) -> np.ndarray:
        """(N_dim, dim+1) matrix: entry [f, i] is the row index, in dimension
        dim-1, of face f with its i-th vertex removed. For dim 0 this is a
        single column of zeros pointing at the empty face."""
        if not self.j_lo < dim <= self.j_hi:
            raise ValueError(f"boundary at dimension {dim} needs dims {dim - 1} and {dim}")
        sub = self.facets_by_dim.get(dim)
        return np.zeros((0, dim + 1), dtype=np.int32) if sub is None else sub


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """Sparse matrix with entries in {+1, -1}, triplet storage.

    Also reused as the container for any signed sparse matrix fed to the
    rank engines (Koszul differentials have the same shape of data). A
    block-diagonal matrix names its blocks by `ends`, the ascending ends of
    their rows and of their columns: block k holds rows ends[0][k-1] to
    ends[0][k] - 1 (from row 0 for k = 0), and likewise columns, and no
    entry lies outside the blocks. None is one block.
    """

    rows: int
    cols: int
    row_idx: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    ends: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def entries(self) -> list[tuple[int, int, int]]:
        return [(int(r), int(c), int(v))
                for r, c, v in zip(self.row_idx, self.col_idx, self.values)]

    @property
    def nnz(self) -> int:
        return int(self.row_idx.size)


def make_matrix(rows: int, cols: int,
                triplets: Sequence[tuple[int, int, int]]) -> BoundaryMatrix:
    """Build a BoundaryMatrix container from (row, col, value) triplets."""
    if triplets:
        r, c, v = zip(*triplets)
    else:
        r, c, v = (), (), ()
    return BoundaryMatrix(
        rows=rows,
        cols=cols,
        row_idx=np.asarray(r, dtype=np.int64),
        col_idx=np.asarray(c, dtype=np.int64),
        values=np.asarray(v, dtype=np.int64),
    )


def _pack(vectors: np.ndarray, width: int, per_word: int) -> np.ndarray:
    """(R, k) nonnegative integer rows as (ceil(k / per_word), R) uint64
    words: coordinate i is the field of `width` bits at bit
    (i % per_word) * width of word i // per_word."""
    k = vectors.shape[1]
    shifts = np.arange(k, dtype=np.uint64) % np.uint64(per_word) * np.uint64(width)
    fields = vectors.astype(np.uint64) << shifts
    return np.bitwise_or.reduceat(fields, np.arange(0, k, per_word), axis=1).T.copy()


def _expand_level(cur: np.ndarray, parent_rows: np.ndarray, slack: np.ndarray, points: np.ndarray,
                  guard: np.uint64) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One level of face extension: parents (N, k) to children (M, k+1).

    A child is parent F (k >= 1, N >= 1) plus a vertex w after F's last
    vertex a whose sum stays under the bound. As faces are closed under
    subsets, w must end a later row F - a + w of F's prefix block, the rows
    sharing F's own parent row (`parent_rows`). Candidate pairs (parent,
    later row of its block) run parent-major, so children come out
    lexicographic; they are tested in runs of about EXPANSION_CHUNK pairs,
    and the child count is checked against DEFAULT_FACE_CAP after each run.

    `slack` holds each parent's b - sum(F) and `points` each vertex, packed
    by `_pack` into words whose fields keep their top bit clear; `guard`
    is the mask of those top bits. Setting the guard bits of F's slack and
    subtracting w's word leaves a field's guard bit set exactly when that
    coordinate of w fits, and no field borrows from the next, so w fits
    under every coordinate when all guard bits survive in every word.
    Clearing them again leaves the child's slack, b - sum(F) - w.

    Returns the children, their slack words, parent rows and partner rows.
    """
    n, k = cur.shape
    rows = np.arange(n, dtype=np.int64)
    # parent rows ascend, so a block ends after every row whose parent is at
    # most its own
    first = rows + 1
    n_pairs = np.bincount(parent_rows).cumsum().take(parent_rows) - first
    partner_vertex = cur[:, -1]
    pair_cum = np.cumsum(n_pairs)
    runs = []  # (parents, partners, slack words) of each run's children
    total = lo = 0
    while lo < n:
        done = int(pair_cum[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(pair_cum, done + EXPANSION_CHUNK, side="right")),
                 lo + 1)
        counts = n_pairs[lo:hi]
        par = np.repeat(rows[lo:hi], counts)
        # partner row: first[r] plus the pair's offset within parent r's run
        partner = np.arange(done, pair_cum[hi - 1]) + np.repeat(
            first[lo:hi] - pair_cum[lo:hi] + counts, counts)
        words = ((slack.take(par, axis=1) | guard)
                 - points.take(partner_vertex.take(partner), axis=1))
        fit = np.flatnonzero(reduce(np.bitwise_and, words) & guard == guard)
        total += int(fit.size)
        if total > DEFAULT_FACE_CAP:
            raise CapacityError(
                f"face count exceeds cap {DEFAULT_FACE_CAP} during expansion")
        runs.append((par.take(fit), partner.take(fit), words.take(fit, axis=1) ^ guard))
        lo = hi
    parents, partners, words = zip(*runs)
    parents, partners = np.concatenate(parents), np.concatenate(partners)
    children = np.empty((parents.size, k + 1), dtype=cur.dtype)
    children[:, :k] = cur.take(parents, axis=0)
    children[:, k] = partner_vertex.take(partners)
    # the slack words last: held with the children's temporaries, they raise the peak
    return children, np.concatenate(words, axis=1), parents, partners


def _facet_rows(below: np.ndarray, parents: np.ndarray, partners: np.ndarray,
                last: np.ndarray, keys: np.ndarray, key_space: int,
                v_count: int) -> np.ndarray:
    """Facet rows of one level from those of the level below.

    A face is its parent F plus its last vertex w. Dropping w leaves F, the
    parent row itself, and dropping F's last vertex leaves the partner row
    that the expansion joined F with. Dropping any other F_i leaves
    (F - F_i) + w: its parent is the row below[F, i] of F - F_i and its
    last vertex is w. The level below is scattered once into a dense int32
    table that maps its keys, parent row * V + last vertex (V the vertex
    count), to its rows and holds -1 where no face has the key. Its size,
    key_space, is the row count of the level two below times V, and it
    counts against DEFAULT_FACE_CAP like a level. Each column is then one
    gather of the keys below[F, i] * V + w, which stay below key_space and
    so fit the int32 facet rows they are computed from.
    """
    out = np.empty((parents.size, below.shape[1] + 1), dtype=np.int32)
    out[:, -1] = parents
    out[:, -2] = partners
    if key_space > DEFAULT_FACE_CAP:
        raise CapacityError(f"facet table of {key_space} entries exceeds cap {DEFAULT_FACE_CAP}")
    table = np.full(key_space, -1, dtype=np.int32)
    table[keys] = np.arange(keys.size, dtype=np.int32)
    for i, col in enumerate(below.T[:-1]):
        out[:, i] = found = table.take(col.take(parents) * v_count + last)
        if found.size and found.min() < 0:
            raise RuntimeError("band is not closed downward")
    return out


def vertex_cone_mask(config: PointConfig, bounds, k: int) -> np.ndarray:
    """For each row b of bounds, whether some vertex w provably cones every
    face with at most k vertices, read off the point coordinates alone.

    Let top_i(w) be the sum of the k largest i-th coordinates over the
    vertices other than w. If b_i - w_i >= min(b_i, top_i(w)) for every i,
    a face F avoiding w with at most k vertices has (sum F)_i <= b_i and
    (sum F)_i <= top_i(w), so sum F + w <= b, and for the veronese presets
    the bound test is the whole face test: F + w is a face. So w cones the
    complex through dimension k - 1, where reduced homology vanishes. The
    test is sufficient only; a False row may still be coned. A bound
    outside the semigroup (the void complex) gives False.

    One array pass over all rows: points not below b are zeroed, each
    coordinate column is sorted once, and with T(m) the sum of the m
    largest values of a column, top_i(w) is T(k+1) - w_i when w_i reaches
    the k-th largest value and T(k) otherwise.

    Args:
        config: a veronese configuration.
        bounds: an (R, n+1) array of bound vectors.
        k: the band top, at least 1.

    Returns:
        R booleans.
    """
    if config.kind != "veronese":
        raise UnsupportedConfigError("the vertex cone test needs a veronese configuration")
    if k < 1:
        raise ValueError("k must be >= 1")
    pts = config.array
    m = pts.shape[0]
    b = np.asarray(bounds, dtype=np.int64).reshape(-1, pts.shape[1])[:, None, :]
    below = (pts <= b).all(axis=2)
    vals = np.where(below[:, :, None], pts, 0)
    ranked = -np.sort(-vals, axis=1)
    top = np.cumsum(ranked, axis=1)
    top_k, top_k1 = top[:, min(k, m) - 1], top[:, min(k + 1, m) - 1]
    kth = ranked[:, k - 1] if k <= m else np.zeros_like(top_k)
    others = np.where(vals >= kth[:, None], top_k1[:, None] - vals, top_k[:, None])
    cones = (b - vals >= np.minimum(b, others)).all(axis=2) & below
    in_semigroup = b.sum(axis=2)[:, 0] % config.d == 0
    return cones.any(axis=1) & in_semigroup


def build_slice(config: PointConfig, bound: Sequence[int], j_lo: int,
                j_hi: int) -> ComplexSlice:
    """Materialize the faces of the divisor complex with dims in [j_lo, j_hi].

    The vertices are the points w <= b, found in one array test on the
    residuals b - w, which packed into words are their slack. Levels are
    expanded from them up to dimension j_hi (`_expand_level`); above the
    first empty level nothing is expanded or stored. The facet rows of
    every level come from the parent and partner rows that the expansion
    returned (`_facet_rows`). No cone test runs here; callers certify
    coned zeros beforehand (`vertex_cone_mask`).

    Args:
        config: a veronese configuration.
        bound: nonnegative bound vector of matching length.
        j_lo: lowest dimension kept, at least -1.
        j_hi: highest dimension kept.

    Raises:
        UnsupportedConfigError: a general configuration.
        ValueError: a bound or point coordinate is 2**63 or more.
        CapacityError: the face count of some dimension, or the entry count
            of some facet table, exceeds DEFAULT_FACE_CAP, read at each call.
    """
    if config.kind != "veronese":
        raise UnsupportedConfigError("slice build needs a veronese configuration")
    if j_lo < -1:
        raise ValueError("j_lo must be >= -1")
    if j_hi < j_lo:
        raise ValueError("j_hi must be >= j_lo")
    bb = tuple(int(x) for x in bound)
    if len(bb) != config.ambient_dim:
        raise ValueError("bound vector has wrong length")
    if any(x < 0 for x in bb):
        raise ValueError("bound vector must be nonnegative")

    # one field per coordinate, wide enough for every bound coordinate and d
    # plus a clear top bit, as many fields per word as fit
    width = max(max(bb), config.d).bit_length() + 1
    if width > 64:
        raise ValueError("bound and point coordinates must be below 2**63")
    per_word = 64 // width
    guard = np.uint64(sum(1 << (i * width + width - 1) for i in range(per_word)))
    # the empty face is present exactly when the bound lies in the semigroup;
    # without it no face is, so a bound outside gives the void complex
    empty_count = int(sum(bb) % config.d == 0)
    pts = config.array
    resid = np.asarray(bb, dtype=np.int64) - pts
    vertices = np.flatnonzero((resid >= 0).all(axis=1) & bool(empty_count))
    slack = _pack(resid.take(vertices, axis=0), width, per_word)
    v_count = vertices.size
    if v_count > DEFAULT_FACE_CAP:
        raise CapacityError(f"face count exceeds cap {DEFAULT_FACE_CAP} during expansion")
    local_points = _pack(pts.take(vertices, axis=0), width, per_word)
    faces_by_dim = {-1: np.zeros((empty_count, 0), dtype=np.int32)} if j_lo == -1 else {}
    facets_by_dim = {}
    # level t: its faces, their parent rows in level t-1 and their facet rows
    faces = np.arange(v_count, dtype=np.int32).reshape(-1, 1)
    parents = np.zeros(v_count, dtype=np.int64)
    facets = np.zeros((v_count, 1), dtype=np.int32)  # each vertex drops to the empty face
    grand_count = 1  # rows of level t-1: the empty face
    for t in range(j_hi + 1):
        if t >= j_lo:
            faces_by_dim[t] = faces
        if t > j_lo:
            facets_by_dim[t] = facets
        if t == j_hi or not faces.shape[0]:
            break
        keys = parents * v_count + faces[:, -1]
        children, slack, parents, partners = _expand_level(faces, parents, slack,
                                                           local_points, guard)
        facets = _facet_rows(facets, parents, partners, children[:, -1], keys,
                             grand_count * v_count, v_count)
        grand_count, faces = faces.shape[0], children
    return ComplexSlice(config=config, bound=bb, j_lo=j_lo, j_hi=j_hi,
                        vertices=vertices, faces_by_dim=faces_by_dim,
                        facets_by_dim=facets_by_dim)


def masked_boundary(sub: np.ndarray, alive_rows: np.ndarray,
                    alive_cols: np.ndarray) -> BoundaryMatrix:
    """Signed boundary restricted to living faces, rows and columns compacted.

    sub is a subface_rows matrix: entry [f, i] is the row of face f with its
    i-th vertex dropped, which gets sign (-1)^i. Entries come column by
    column in face order, and within a column in vertex order.
    """
    n_rows = int(alive_rows.sum())
    face_ids = np.flatnonzero(alive_cols)
    n_cols = int(face_ids.size)
    w = sub.shape[1]
    row_map = np.full(alive_rows.size, -1, dtype=np.int64)
    row_map[np.flatnonzero(alive_rows)] = np.arange(n_rows, dtype=np.int64)
    rows = sub[face_ids].ravel()
    cols = np.repeat(np.arange(n_cols, dtype=np.int64), w)
    sign_row = np.array([1 if i % 2 == 0 else -1 for i in range(w)], dtype=np.int64)
    vals = np.tile(sign_row, n_cols)
    keep = alive_rows[rows]
    return BoundaryMatrix(rows=n_rows, cols=n_cols, row_idx=row_map[rows[keep]],
                          col_idx=cols[keep], values=vals[keep])


def boundary_matrix(slice_: ComplexSlice, j: int) -> BoundaryMatrix:
    """The boundary map from dimension j to dimension j-1 of the slice.

    Columns follow faces_by_dim[j] order; the entry for dropping the i-th
    vertex of a face has sign (-1)^i. Dimension 0 maps every vertex to the
    empty face with coefficient +1 (reduced convention).
    """
    if j < slice_.j_lo + 1 or j > slice_.j_hi:
        raise ValueError(f"boundary at {j} needs dims {j - 1} and {j} "
                         f"inside {(slice_.j_lo, slice_.j_hi)}")
    return masked_boundary(slice_.subface_rows(j),
                           np.ones(slice_.face_count(j - 1), dtype=bool),
                           np.ones(slice_.face_count(j), dtype=bool))


def slice_to_text(slice_: ComplexSlice) -> str:
    """The faces, one 'dim: i1 i2 ... ik' line per face, global indices."""
    return "\n".join(f"{t}:" + "".join(f" {x}" for x in row)
                     for t, faces in slice_.faces_by_dim.items()
                     for row in slice_.vertices[faces].tolist())


def slice_to_json(slice_: ComplexSlice) -> dict:
    """Summary {bound, dims, face_counts}."""
    return {
        "bound": list(slice_.bound),
        "dims": [slice_.j_lo, slice_.j_hi],
        "face_counts": {str(t): slice_.face_count(t)
                        for t in range(slice_.j_lo, slice_.j_hi + 1)},
    }
