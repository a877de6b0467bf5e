"""Training data construction from CSG scenes or triangle meshes.

Every sample carries the input field (grid or point cloud), the exact
crossing flags, per-cell least-squares vertex offsets and ground-truth
signs. The formulation it targets (signed "ndc" or unsigned "undc")
follows from the input alone (TrainingSample.mode). A sample holds no
supervision masks: the outputs each head is trained on follow from the
network's own output set and from the sample's ground truth
(nn.train.supervised_outputs), so an augmented sample needs only its
fields transformed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .csg import CsgShape, csg_gradient
from .dc import qef_cell_offsets
from .errors import EmptyMesh, InvalidKind, NonFiniteValues, OpenMeshError, TooFewPoints
from .grids import (
    EdgeField,
    GridDims,
    GridKind,
    ScalarGrid,
    SignGrid,
    VertexOffsetGrid,
    dilate_cross,
    edge_ends,
    signs_from_scalar,
    unit_normals,
)
from .mesh import TriMesh, edge_topology_stats, sample_triangles
from .rng import rng_for

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

ACTIVE_MANHATTAN = 3  # cell units: active band around a point cloud
BISECTION_STEPS = 30  # CSG edge crossings: bisections along each crossed edge
PROBE_DOUBLINGS = 4  # CSG clouds: times the surface probe box may double
SIDE_TOL = 1e-9  # cell units: a lattice line this close to a triangle side is on it
PAIR_CHUNK = 1 << 16  # (point, triangle) pairs the mesh distance tests at once
CULL_BLOCK = 2  # lattice points per block side when listing distance candidates
SEED_TRIS = 4  # triangles whose distance bounds a block's points from above
REACH_STEP = 0.5  # cell units: candidate radii are listed in steps of this
CULL_SLACK = 1e-6  # cell units: rounding margin of the distance candidate bound


@dataclass
class TrainingSample:
    dims: GridDims
    grid: ScalarGrid | None
    cloud: np.ndarray | None  # (N, 3) grid units
    gt_signs: SignGrid
    gt_flags: EdgeField
    gt_offsets: VertexOffsetGrid

    @property
    def mode(self) -> str:
        """"ndc" for a signed input grid (SDF or occupancy), "undc" for a
        UDF grid or a point cloud (no grid)."""
        return "undc" if self.grid is None or self.grid.kind is GridKind.UDF else "ndc"


# lattice points per CSG evaluation: the temporaries of a field then take
# a few megabytes whatever the grid size (1.8 MB beside the 2.2 MB grid
# at 64^3, against about 33 MB for the whole lattice at once), and small
# slabs also evaluate faster
SLAB_POINTS = 1 << 14


def _sample_lattice(shape: CsgShape, shape3, offset: float = 0.0) -> np.ndarray:
    """A CSG field at the points (i, j, k) + offset of a lattice shaped
    shape3, evaluated slab by slab along the first axis, each slab
    holding at most SLAB_POINTS points (or one plane).

    The slabs keep every line along the last axis whole, so matrix
    products over the points (a rotated Box) take the same shapes, and
    give the same bits, as one evaluation of the whole lattice; slabs
    along the last axis change some values in the last bit."""
    m, n, k = shape3
    out = np.empty((m, n, k))
    step = max(1, SLAB_POINTS // (n * k))
    y, z = (np.arange(s, dtype=np.float64) + offset for s in (n, k))
    for lo in range(0, m, step):
        x = np.arange(lo, min(lo + step, m), dtype=np.float64) + offset
        out[lo:lo + len(x)] = shape(np.stack(np.meshgrid(x, y, z, indexing="ij"), axis=-1))
    return out


def sample_csg_grid(shape: CsgShape, dims: GridDims, kind: GridKind = GridKind.SDF) -> ScalarGrid:
    """Sample a CSG field at the lattice (SDF/UDF) or cell centers (OCC)."""
    if kind == GridKind.OCC:
        out = np.zeros(dims.vertex_shape)
        out[:-1, :-1, :-1] = _sample_lattice(shape, dims.cell_shape, 0.5) < 0
        return ScalarGrid(dims, kind, out)
    vals = _sample_lattice(shape, dims.vertex_shape)
    if kind == GridKind.UDF:
        vals = np.abs(vals)
    return ScalarGrid(dims, kind, vals)


# ---------------------------------------------------------------------------
# exact edge data


def _csg_edge_data(shape: CsgShape, dims: GridDims, inside: np.ndarray):
    flags = EdgeField.full(dims, False, bool)
    tvals = EdgeField.full(dims, np.nan, np.float64)
    normals = EdgeField.full(dims, np.nan, np.float64, trailing=(3,))
    for axis in range(3):
        a_in, b_in = edge_ends(inside, axis)
        cross = a_in ^ b_in
        flags.axis(axis)[...] = cross
        if not np.any(cross):
            continue
        base = np.argwhere(cross).astype(np.float64)
        a_in = a_in[cross]
        lo = np.zeros(len(base))
        hi = np.ones(len(base))
        direction = np.zeros((1, 3))
        direction[0, axis] = 1.0
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            fm = shape(base + mid[:, None] * direction)
            mid_in = fm < 0
            go_lo = mid_in == a_in  # root is above mid
            lo = np.where(go_lo, mid, lo)
            hi = np.where(go_lo, hi, mid)
        t = 0.5 * (lo + hi)
        pts = base + t[:, None] * direction
        tvals.axis(axis)[cross] = t
        normals.axis(axis)[cross] = unit_normals(csg_gradient(shape, pts))
    return flags, tvals, normals


def _half_open_hits(corners: np.ndarray, det: np.ndarray, q: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Re-decide the lattice lines within SIDE_TOL of a triangle side.

    Row i tests point q[i] against the projected triangle corners[i]
    (3, 2) with determinant det[i]. Such a line counts as if moved by an
    infinitesimal step along +b, then +c, so a line through a side shared
    by two triangles, or through a vertex shared by a fan, hits exactly
    one of them. Each side's edge function is computed from its endpoints
    in lexicographic order, so triangles sharing the side compute it bit
    for bit alike.
    """
    near = np.zeros(len(q), dtype=bool)
    inside = np.ones(len(q), dtype=bool)
    for i in range(3):
        p, r = corners[:, i], corners[:, (i + 1) % 3]
        swap = (r[:, 0] < p[:, 0]) | ((r[:, 0] == p[:, 0]) & (r[:, 1] < p[:, 1]))
        p, r = np.where(swap[:, None], r, p), np.where(swap[:, None], p, r)
        d = r - p
        e = d[:, 0] * (q[:, 1] - p[:, 1]) - d[:, 1] * (q[:, 0] - p[:, 0])
        on = np.abs(e) <= SIDE_TOL * np.hypot(d[:, 0], d[:, 1])
        # sign of e after the step: cross(d, +b) = -d[1], else cross(d, +c) = d[0]
        step = np.where(d[:, 1] != 0, -d[:, 1], d[:, 0])
        side = np.where(on, np.sign(step), np.sign(e))
        inside &= np.where(swap, -side, side) == np.sign(det)
        near |= on
    return np.where(near, inside, hit)


def _triangle_columns(mesh: TriMesh, axis: int, half_open: bool = False):
    """Intersections of every lattice line along `axis` with the mesh.

    Returns (b_index, c_index, u, normal) arrays where (b, c) are the two
    other axes in cyclic order and u is the intersection coordinate along
    `axis`, triangle by triangle and, within one, b-major over the
    lattice lines of its bounding box. Triangles parallel to the axis are
    skipped. Triangles are closed, so a line through a shared side hits
    both triangles, unless `half_open` gives each such line to one of
    them (`_half_open_hits`).
    """
    b, c = (axis + 1) % 3, (axis + 2) % 3
    tv = mesh.vertices[mesh.tris]
    d = tv[:, 1:] - tv[:, :1]  # the sides from the first corner
    det = d[:, 0, b] * d[:, 1, c] - d[:, 1, b] * d[:, 0, c]
    keep = np.abs(det) >= 1e-14
    tv, d, det = tv[keep], d[keep], det[keep]
    corners = tv[:, :, [b, c]]  # projected onto the (b, c) plane
    lo = np.ceil(corners.min(axis=1) - SIDE_TOL).astype(np.int64)
    hi = np.floor(corners.max(axis=1) + SIDE_TOL).astype(np.int64)
    # each triangle's lattice lines, b-major within its box
    size = np.maximum(hi - lo + 1, 0)
    count = size[:, 0] * size[:, 1]
    tri = np.repeat(np.arange(len(det)), count)
    k = np.arange(len(tri)) - np.repeat(np.cumsum(count) - count, count)
    bb = lo[tri, 0] + k // size[tri, 1]
    cc = lo[tri, 1] + k % size[tri, 1]
    px = bb - corners[tri, 0, 0]
    py = cc - corners[tri, 0, 1]
    w1 = (d[tri, 1, c] * px - d[tri, 1, b] * py) / det[tri]
    w2 = (-d[tri, 0, c] * px + d[tri, 0, b] * py) / det[tri]
    least = np.minimum(np.minimum(w1, w2), 1 - (w1 + w2))
    hit = least >= 0
    if half_open:
        # each weight is a side's edge function over det; within SIDE_TOL
        # of a side, that is at most SIDE_TOL * (side length) / |det|
        tol = 4 * SIDE_TOL * (np.max(hi - lo, axis=1) + 2) / np.abs(det)
        close = np.flatnonzero(np.abs(least) <= tol[tri])
        hit[close] = _half_open_hits(corners[tri[close]], det[tri[close]],
                                     np.stack([bb[close], cc[close]], axis=1), hit[close])
    tri, w1, w2 = tri[hit], w1[hit], w2[hit]
    u = tv[tri, 0, axis] + w1 * d[tri, 0, axis] + w2 * d[tri, 1, axis]
    # the normal's component along `axis` is det, so it never vanishes;
    # the stacked matmul rounds the length like the one-vector norm
    n = np.cross(d[:, 0], d[:, 1])
    n = n / np.sqrt(n[:, None, :] @ n[:, :, None])[:, 0]
    return bb[hit], cc[hit], u, n[tri]


def _mesh_parity_inside(mesh: TriMesh, dims: GridDims) -> np.ndarray:
    """Inside flags per lattice vertex via axis-ray parity, 3-way majority."""
    votes = np.zeros(dims.vertex_shape, dtype=np.int8)
    sizes = dims.vertex_shape
    for axis in range(3):
        b, c = (axis + 1) % 3, (axis + 2) % 3
        bs, cs, us, _ = _triangle_columns(mesh, axis, half_open=True)
        counts = np.zeros((sizes[axis] + 1, sizes[b], sizes[c]), dtype=np.int32)
        ok = (bs >= 0) & (bs < sizes[b]) & (cs >= 0) & (cs < sizes[c])
        bs, cs, us = bs[ok], cs[ok], us[ok]
        # a crossing at u covers lattice i < u: add one on [0, ceil(u)-1]
        top = np.ceil(us).astype(np.int64)
        top = np.clip(top, 0, sizes[axis])
        np.add.at(counts, (np.zeros(len(us), np.int64), bs, cs), 1)
        np.subtract.at(counts, (top, bs, cs), 1)
        cum = np.cumsum(counts[:-1], axis=0)
        inside = (cum % 2) == 1
        votes += np.moveaxis(inside, (0, 1, 2), (axis, b, c)).astype(np.int8)
    return votes >= 2


def _mesh_edge_data(mesh: TriMesh, dims: GridDims, inside: np.ndarray | None):
    flags = EdgeField.full(dims, False, bool)
    tvals = EdgeField.full(dims, np.nan, np.float64)
    normals = EdgeField.full(dims, np.nan, np.float64, trailing=(3,))
    sizes = dims.vertex_shape
    for axis in range(3):
        b, c = (axis + 1) % 3, (axis + 2) % 3
        bs, cs, us, ns = _triangle_columns(mesh, axis)
        ok = (bs >= 0) & (bs < sizes[b]) & (cs >= 0) & (cs < sizes[c])
        ok &= (us >= 0) & (us <= sizes[axis] - 1)
        bs, cs, us, ns = bs[ok], cs[ok], us[ok], ns[ok]
        edge = np.minimum(np.floor(us).astype(np.int64), sizes[axis] - 2)
        t = us - edge

        fl = flags.axis(axis)
        tv = tvals.axis(axis)
        nv = normals.axis(axis)
        base = np.empty((len(us), 3), dtype=np.int64)
        base[:, axis] = edge
        base[:, b] = bs
        base[:, c] = cs
        # preference: the intersection nearest the inside endpoint, else
        # nearest the lower endpoint
        if inside is not None:
            upper = base.copy()
            upper[:, axis] += 1
            lower_in = inside[base[:, 0], base[:, 1], base[:, 2]]
            upper_in = inside[upper[:, 0], upper[:, 1], upper[:, 2]]
            pref = np.where(upper_in & ~lower_in, 1.0 - t, t)
        else:
            pref = t
        order = np.argsort(pref, kind="stable")[::-1]  # best written last
        ix = (base[order, 0], base[order, 1], base[order, 2])
        fl[ix] = True
        tv[ix] = t[order]
        nv[ix] = ns[order]
    return flags, tvals, normals


def gt_edge_data(source: CsgShape | TriMesh, dims: GridDims, inside: np.ndarray | None = None):
    """Exact crossing flags, parameters, and unit normals per edge.

    CSG scenes refine roots by bisection of the analytic field; meshes
    intersect every lattice line with every triangle and take the face
    normal. Where a mesh meets an edge more than once, the intersection
    nearest the edge's inside endpoint wins, else the one nearest its
    lower endpoint. `inside` holds the lattice signs when the caller has
    them; without it, a CSG scene's are sampled here, a watertight mesh's
    parity signs are computed here and an open mesh has none.
    """
    if isinstance(source, CsgShape):
        if inside is None:
            inside = _sample_lattice(source, dims.vertex_shape) < 0
        return _csg_edge_data(source, dims, inside)
    if isinstance(source, TriMesh):
        if inside is None and edge_topology_stats(source).closed:
            inside = _mesh_parity_inside(source, dims)
        return _mesh_edge_data(source, dims, inside)
    raise InvalidKind(f"unsupported ground-truth source: {type(source).__name__}")


def mesh_to_sdf_grid(mesh: TriMesh, dims: GridDims, kind: GridKind = GridKind.SDF,
                     inside: np.ndarray | None = None) -> ScalarGrid:
    """Exact distance field of a triangle mesh sampled at the lattice.

    The distance to the nearest triangle is exact (_unsigned_distance
    culls the triangles by their centroids and holds a bounded number of
    point-triangle pairs at once). SDF requires a watertight mesh and
    negates the distance where `inside`, the 3-ray parity majority, is
    set: it is computed here unless a caller that has checked the mesh
    passes it. UDF accepts open sheets.
    """
    if len(mesh.tris) == 0:
        raise EmptyMesh("cannot build a distance field from an empty mesh")
    if kind == GridKind.OCC:
        raise InvalidKind("use occupancy_from_mesh for voxel input")
    if kind == GridKind.SDF and inside is None:
        if not edge_topology_stats(mesh).closed:
            raise OpenMeshError("signed distance needs a watertight mesh")
        inside = _mesh_parity_inside(mesh, dims)
    dist = _unsigned_distance(mesh, dims)
    if kind == GridKind.UDF:
        return ScalarGrid(dims, kind, dist)
    return ScalarGrid(dims, GridKind.SDF, np.where(inside, -dist, dist))


def occupancy_from_mesh(mesh: TriMesh, dims: GridDims, closed: bool | None = None) -> ScalarGrid:
    """Cell-center-inside occupancy, stored min-corner anchored.

    The mesh must be watertight: `closed` is checked here unless a caller
    that has checked the mesh passes the result."""
    if closed is None:
        closed = edge_topology_stats(mesh).closed
    if not closed:
        raise OpenMeshError("occupancy needs a watertight mesh")
    cdims = GridDims(dims.m - 1, dims.n - 1, dims.k - 1)
    # parity at cell centers: reuse the vertex machinery on a shifted mesh
    shifted = TriMesh(mesh.vertices - 0.5, mesh.tris.copy())
    occ = _mesh_parity_inside(shifted, cdims)
    out = np.zeros(dims.vertex_shape)
    out[:-1, :-1, :-1] = occ
    return ScalarGrid(dims, GridKind.OCC, out)


class _TriTerms(NamedTuple):
    """The per-triangle terms of the point-triangle distance, one row per
    triangle: corner a, sides ab and ac, corner b and side bc = ac - ab,
    and the dot products d00 = ab.ab, d01 = ab.ac, d11 = ac.ac and
    dcc = bc.bc."""

    a: np.ndarray
    ab: np.ndarray
    ac: np.ndarray
    b: np.ndarray
    bc: np.ndarray
    d00: np.ndarray
    d01: np.ndarray
    d11: np.ndarray
    dcc: np.ndarray

    @classmethod
    def of(cls, corners: np.ndarray) -> _TriTerms:
        a = corners[:, 0]
        ab = corners[:, 1] - a
        ac = corners[:, 2] - a
        bc = ac - ab
        return cls(a, ab, ac, a + ab, bc, _rowdot(ab, ab), _rowdot(ab, ac), _rowdot(ac, ac),
                   _rowdot(bc, bc))

    def take(self, rows: np.ndarray) -> _TriTerms:
        return _TriTerms(*(term.take(rows, axis=0) for term in self))


def _unsigned_distance(mesh: TriMesh, dims: GridDims, chunk: int = PAIR_CHUNK) -> np.ndarray:
    """Exact distance from every lattice point to the nearest triangle.

    Lattice points are taken in blocks of CULL_BLOCK^3. A point's upper
    bound `ub` is its exact distance to the nearest of the SEED_TRIS
    triangles whose centroids lie nearest its block's center (a cKDTree
    query), plus CULL_SLACK for rounding. A triangle lies within
    `radius`, its farthest corner, of its centroid, so only triangles
    with |p - centroid| <= ub + radius can be nearer: each block lists
    these candidates once with a bound that covers all its points, each
    point keeps its own, and the exact distances of the candidate pairs
    are reduced per point with a min. A pair's value does not depend on
    which other pairs are computed, and a min is exact in any order, so
    the result is bit-identical to comparing every point with every
    triangle.

    At most `chunk` (point, triangle) pairs are tested at once (one
    block's pairs may exceed it), so memory follows the chunk, not
    points x triangles.
    """
    corners = mesh.vertices[mesh.tris]
    terms = _TriTerms.of(corners)
    centroid = corners.mean(axis=1)
    spoke = corners - centroid[:, None]
    radius = np.sqrt(np.einsum("tcd,tcd->tc", spoke, spoke).max(axis=1))
    from scipy.spatial import cKDTree
    tree = cKDTree(centroid)

    index = _lattice_blocks(dims, CULL_BLOCK)  # (blocks, CULL_BLOCK^3, 3)
    pts = index.astype(np.float64)
    center = pts.mean(axis=1)
    size = pts.shape[1]
    seeds = tree.query(center, k=min(SEED_TRIS, len(centroid)))[1].reshape(len(pts), -1)
    budget = max(1, chunk // size)  # blocks, or candidate triangles per block point
    best = np.full(pts.shape[:2], np.inf)
    for s in range(0, len(pts), budget):
        p = pts[s : s + budget].reshape(-1, 3)
        for seed in seeds[s : s + budget].T:
            d2 = _point_tri_dist2(p, terms.take(np.repeat(seed, size))).reshape(-1, size)
            best[s : s + budget] = np.minimum(best[s : s + budget], d2)
    ub = np.sqrt(best) + CULL_SLACK

    # a block's bound covers every point's: |q - centroid| <= ub + |p - q| + radius
    off = pts - center[:, None]
    reach = (ub + np.sqrt(np.einsum("bsd,bsd->bs", off, off))).max(axis=1)
    for blk, tri in _ball_pairs(tree, center, reach + radius.max(), budget):
        gap = center.take(blk, axis=0) - centroid.take(tri, axis=0)
        near = _rowdot(gap, gap) <= (reach[blk] + radius[tri]) ** 2
        blk, tri = blk[near], tri[near]
        gap = pts.take(blk, axis=0) - centroid.take(tri, axis=0)[:, None]
        bound = ub.take(blk, axis=0) + radius[tri][:, None]
        cand = np.einsum("nsd,nsd->ns", gap, gap) <= bound * bound
        row, slot = np.nonzero(cand)
        if len(row):
            d2 = np.full(cand.shape, np.inf)
            p = pts.reshape(-1, 3).take(blk[row] * size + slot, axis=0)
            d2[row, slot] = _point_tri_dist2(p, terms.take(tri[row]))
            starts = np.flatnonzero(np.r_[True, blk[1:] != blk[:-1]])
            hit = blk[starts]
            best[hit] = np.minimum(best[hit], np.minimum.reduceat(d2, starts, axis=0))

    out = np.empty(dims.vertex_shape)
    out[index[..., 0], index[..., 1], index[..., 2]] = np.sqrt(best)
    return out


def _ball_pairs(tree: cKDTree, center: np.ndarray, reach: np.ndarray, budget: int):
    """Yield (ball, point) index pairs of the tree's points within
    reach[ball] of center[ball], in batches of at most `budget` pairs (a
    single ball may exceed it), sorted by ball within a batch.

    Each reach is rounded up to a multiple of REACH_STEP, so a batch is
    one sparse_distance_matrix call at one radius, and return_length
    counts its pairs beforehand; a ball may list a point slightly beyond
    its own reach.
    """
    from scipy.spatial import cKDTree
    level = np.ceil(reach / REACH_STEP) * REACH_STEP
    for r in np.unique(level):
        balls = np.flatnonzero(level == r)
        ends = np.cumsum(tree.query_ball_point(center[balls], r, return_length=True))
        first = 0
        while first < len(balls):
            done = ends[first - 1] if first else 0
            last = max(first + 1, int(np.searchsorted(ends, done + budget, side="right")))
            pairs = cKDTree(center[balls[first:last]]).sparse_distance_matrix(
                tree, r, output_type="ndarray")
            order = np.argsort(pairs["i"], kind="stable")
            yield balls[first:last][pairs["i"][order]], pairs["j"][order]
            first = last


def _lattice_blocks(dims: GridDims, side: int) -> np.ndarray:
    """Lattice indices in blocks of side^3, shape (blocks, side^3, 3);
    border blocks repeat the last lattice index in place of missing ones."""
    sizes = np.asarray(dims.vertex_shape)
    axes = [np.arange(0, n, side) for n in sizes]
    origin = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 1, 3)
    step = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), axis=-1).reshape(1, -1, 3)
    return np.minimum(origin + step, sizes - 1)


def _point_tri_dist2(p: np.ndarray, tri: _TriTerms) -> np.ndarray:
    """Squared distance from p[i] to triangle tri[i], one pair per row.

    Orthogonal plane projection where the foot lands inside the
    triangle, otherwise the nearest of the three boundary segments.
    """
    ap = p - tri.a
    d1 = _rowdot(tri.ab, ap)
    d2 = _rowdot(tri.ac, ap)
    denom = tri.d00 * tri.d11 - tri.d01 * tri.d01
    safe = np.where(denom > 0, denom, 1.0)
    v = (tri.d11 * d1 - tri.d01 * d2) / safe
    w = (tri.d00 * d2 - tri.d01 * d1) / safe
    inside = (v >= 0) & (w >= 0) & (v + w <= 1) & (denom > 0)

    best = _seg_point_d2(p, tri.a, tri.ab, d1, tri.d00)
    best = np.minimum(best, _seg_point_d2(p, tri.a, tri.ac, d2, tri.d11))
    best = np.minimum(best, _seg_point_d2(p, tri.b, tri.bc, _rowdot(tri.bc, p - tri.b), tri.dcc))

    foot = tri.a + v[:, None] * tri.ab + w[:, None] * tri.ac
    diff = p - foot
    return np.where(inside, np.minimum(_rowdot(diff, diff), best), best)


def _seg_point_d2(p: np.ndarray, start: np.ndarray, d: np.ndarray, dot: np.ndarray,
                  dd: np.ndarray) -> np.ndarray:
    """Squared distance from p[i] to the segment start[i] + [0, 1] d[i],
    given dot = d . (p - start) and dd = d . d per row."""
    t = np.clip(dot / np.where(dd > 0, dd, 1.0), 0.0, 1.0)
    diff = p - (start + t[:, None] * d)
    return _rowdot(diff, diff)


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, 3) arrays."""
    return np.einsum("nd,nd->n", x, y)


def pseudo_gt_vertices(crossings: EdgeField, normals: EdgeField, dims: GridDims) -> VertexOffsetGrid:
    """Least-squares vertex offset per cell from exact edge data.

    Cells without crossings get the centered offset (0.5, 0.5, 0.5).
    """
    return VertexOffsetGrid(dims, qef_cell_offsets(crossings, normals)[0])


# ---------------------------------------------------------------------------
# point clouds


def cloud_active_cells(cloud: np.ndarray, dims: GridDims) -> np.ndarray:
    """Cells within ACTIVE_MANHATTAN Manhattan steps of a cell containing a
    point.

    Points outside the grid count in the nearest border cell; a
    non-finite point raises NonFiniteValues.
    """
    if not np.all(np.isfinite(cloud)):
        raise NonFiniteValues("point cloud coordinates must be finite")
    occ = np.zeros(dims.cell_shape, dtype=bool)
    cells = np.floor(cloud).astype(np.int64)
    cells = np.clip(cells, 0, np.asarray(dims.cell_shape) - 1)
    occ[cells[:, 0], cells[:, 1], cells[:, 2]] = True
    return dilate_cross(occ, ACTIVE_MANHATTAN)


def sample_point_cloud(
    source: CsgShape | TriMesh,
    count: int,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Surface samples in grid units, optionally with Gaussian noise.

    Meshes are sampled area-weighted with uniform barycentrics; CSG
    surfaces by Newton steps from box-uniform candidates along the field
    gradient, until a step leaves them in place. Deterministic per seed.
    """
    rng = rng_for(seed, "point-cloud")
    if isinstance(source, TriMesh):
        _, pts = sample_triangles(source, count, rng)
    else:
        pts = _project_csg_samples(source, count, rng)
    if noise_sigma > 0:
        pts = pts + rng.normal(scale=noise_sigma, size=pts.shape)
    return pts


def _project_csg_samples(shape: CsgShape, count: int, rng: np.random.Generator) -> np.ndarray:
    # establish a loose bounding box from a coarse probe of the field; a
    # surface that reaches the box may be cut off by it, so the probe
    # doubles about its center until the samples stay clear of the box
    low, high = -64.0, 128.0
    for _ in range(PROBE_DOUBLINGS + 1):
        probe = rng.uniform(low, high, size=(4096, 3))
        vals = shape(probe)
        near = probe[vals < np.quantile(vals, 0.25)]
        lo = near.min(axis=0) - 4
        hi = near.max(axis=0) + 4
        pts = _project_box_samples(shape, count, rng, lo, hi)
        if np.all((pts > lo + 1) & (pts < hi - 1)):
            return pts[:count]
        low, high = 1.5 * low - 0.5 * high, 1.5 * high - 0.5 * low
    raise TooFewPoints(f"surface still reaches the probe box after {PROBE_DOUBLINGS} doublings")


def _project_box_samples(shape: CsgShape, count: int, rng: np.random.Generator,
                         lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """At least `count` surface points, projected from box-uniform candidates
    by 30 Newton steps. A step is a function of the position alone, so one
    that leaves a candidate bitwise in place is a fixed point: only the
    candidates the last step moved take the next, with the same result."""
    out = []
    have = 0
    for _ in range(64):
        cand = rng.uniform(lo, hi, size=(4 * count, 3))
        moving = np.arange(len(cand))
        for _ in range(30):
            x = cand[moving]
            f = shape(x)
            g = csg_gradient(shape, x)
            gg = np.einsum("nd,nd->n", g, g)
            step = f / np.where(gg > 1e-12, gg, 1.0)
            x_next = x - step[:, None] * g
            cand[moving] = x_next
            moved = (x_next.view(np.int64) != x.view(np.int64)).any(axis=1)
            # one row alone would take numpy's vector dot in a Cylinder's
            # `rel @ a`, which rounds unlike a batch: keep a settled row
            if np.count_nonzero(moved) == 1:
                moved[np.argmin(moved)] = True
            moving = moving[moved]
            if not len(moving):
                break
        f = np.abs(shape(cand))
        good = cand[f < 1e-9]
        if len(good):
            out.append(good)
            have += len(good)
        if have >= count:
            break
    if have < count:
        raise TooFewPoints(f"projection found only {have} of {count} surface points")
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# sample assembly and augmentation


def make_training_sample(
    source: CsgShape | TriMesh,
    dims: GridDims,
    kind: GridKind | str = GridKind.SDF,
    seed: int = 0,
    cloud_size: int = 4096,
    noise_sigma: float = 0.0,
) -> TrainingSample:
    """Build one complete sample from a CSG scene or a triangle mesh.

    kind selects the network input: a scalar grid kind or "points".
    """
    wants_cloud = kind == "points"
    if not wants_cloud:
        kind = GridKind(kind) if isinstance(kind, str) else kind

    if isinstance(source, CsgShape):
        sdf = sample_csg_grid(source, dims, GridKind.SDF)
        gt_signs = signs_from_scalar(sdf)
        flags, tvals, normals = gt_edge_data(source, dims, gt_signs.inside)
        if wants_cloud:
            grid = None
        elif kind == GridKind.SDF:
            grid = sdf
        elif kind == GridKind.UDF:
            grid = ScalarGrid(dims, GridKind.UDF, np.abs(sdf.values))
        else:
            grid = sample_csg_grid(source, dims, GridKind.OCC)
    elif isinstance(source, TriMesh):
        # one watertight check and one parity pass serve the signs, the
        # edge data and the SDF; an open mesh is outside everywhere,
        # which gives the edge data the same preference as no signs
        closed = edge_topology_stats(source).closed
        inside = (_mesh_parity_inside(source, dims) if closed
                  else np.zeros(dims.vertex_shape, dtype=bool))
        flags, tvals, normals = gt_edge_data(source, dims, inside)
        gt_signs = SignGrid(dims, inside)
        if wants_cloud:
            grid = None
        elif kind == GridKind.OCC:
            grid = occupancy_from_mesh(source, dims, closed)
        else:
            grid = mesh_to_sdf_grid(source, dims, kind, inside if closed else None)
    else:
        raise InvalidKind(f"unsupported ground-truth source: {type(source).__name__}")
    offsets = pseudo_gt_vertices(tvals, normals, dims)

    cloud = None
    if wants_cloud:
        cloud = sample_point_cloud(source, cloud_size, noise_sigma, seed)

    return TrainingSample(dims, grid, cloud, gt_signs, flags, offsets)


def augment_sample(sample: TrainingSample, transform_id: int) -> TrainingSample:
    """Apply one of the 96 group transforms to every field of a sample.

    The spatial part permutes and reflects the lattice; sign inversion
    additionally swaps inside and outside (signs complemented, SDF
    negated, occupancy complemented) while crossing flags and vertex
    offsets are untouched by it. Id 0 is the identity.
    """
    from . import transforms as tf

    new_dims = tf.transformed_dims(sample.dims, transform_id)
    grid = tf.transform_scalar_grid(sample.grid, transform_id) if sample.grid is not None else None
    cloud = tf.transform_points(sample.cloud, sample.dims, transform_id) if sample.cloud is not None else None
    return TrainingSample(
        new_dims,
        grid,
        cloud,
        tf.transform_sign_grid(sample.gt_signs, transform_id),
        tf.transform_edge_field(sample.gt_flags, transform_id),
        tf.transform_offsets(sample.gt_offsets, transform_id),
    )
