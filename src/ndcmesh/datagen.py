"""Training data construction from CSG scenes or triangle meshes.

Every sample carries the input field (grid or point cloud), the exact
crossing flags, per-cell least-squares vertex offsets, ground-truth
signs, and the supervision masks for whichever formulation (signed or
unsigned) the sample targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ._dual import active_cell_mask, interior_edges, ring_cells
from .csg import CsgShape, csg_gradient
from .dc import qef_cell_offsets
from .errors import EmptyMesh, InvalidKind, OpenMeshError, ShapeError, TooFewPoints
from .grids import (
    EdgeField,
    GridDims,
    GridKind,
    MaskGrids,
    ScalarGrid,
    SignGrid,
    VertexOffsetGrid,
    edge_ends,
    signs_from_scalar,
    unit_normals,
    xor_flags,
)
from .mesh import TriMesh, edge_topology_stats, sample_triangles
from .rng import rng_for

BAND_WIDTH = 1.0  # field units: supervision band for grid inputs
ACTIVE_MANHATTAN = 3  # cell units: active band around a point cloud
PROBE_DOUBLINGS = 4  # CSG clouds: times the surface probe box may double
SIDE_TOL = 1e-9  # cell units: a lattice line this close to a triangle side is on it


@dataclass
class TrainingSample:
    dims: GridDims
    mode: str  # "ndc" or "undc"
    grid: ScalarGrid | None
    cloud: np.ndarray | None  # (N, 3) grid units
    gt_signs: SignGrid
    gt_flags: EdgeField
    gt_offsets: VertexOffsetGrid
    masks: MaskGrids


def lattice_points(dims: GridDims) -> np.ndarray:
    """All vertex coordinates, shape (m, n, k, 3)."""
    axes = [np.arange(s, dtype=np.float64) for s in dims.vertex_shape]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def sample_csg_grid(shape: CsgShape, dims: GridDims, kind: GridKind = GridKind.SDF) -> ScalarGrid:
    """Sample a CSG field at the lattice (SDF/UDF) or cell centers (OCC)."""
    if kind == GridKind.OCC:
        cells = lattice_points(GridDims(dims.m - 1, dims.n - 1, dims.k - 1)) + 0.5
        occ = (shape(cells) < 0).astype(np.float64)
        out = np.zeros(dims.vertex_shape)
        out[:-1, :-1, :-1] = occ
        return ScalarGrid(dims, kind, out)
    vals = shape(lattice_points(dims))
    if kind == GridKind.UDF:
        vals = np.abs(vals)
    return ScalarGrid(dims, kind, vals)


# ---------------------------------------------------------------------------
# exact edge data


def _csg_edge_data(shape: CsgShape, dims: GridDims, iters: int = 30):
    vals = shape(lattice_points(dims))
    flags = EdgeField.full(dims, False, bool)
    tvals = EdgeField.full(dims, np.nan, np.float64)
    normals = EdgeField.full(dims, np.nan, np.float64, trailing=(3,))
    for axis in range(3):
        va, vb = edge_ends(vals, axis)
        cross = (va < 0) ^ (vb < 0)
        flags.axis(axis)[...] = cross
        if not np.any(cross):
            continue
        base = np.argwhere(cross).astype(np.float64)
        a_in = (va < 0)[cross]
        lo = np.zeros(len(base))
        hi = np.ones(len(base))
        direction = np.zeros((1, 3))
        direction[0, axis] = 1.0
        for _ in range(iters):
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


def _half_open_hits(corners: np.ndarray, det: float, q: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Re-decide the lattice lines within SIDE_TOL of a triangle side.

    Such a line counts as if moved by an infinitesimal step along +b,
    then +c, so a line through a side shared by two triangles, or
    through a vertex shared by a fan, hits exactly one of them. Each
    side's edge function is computed from its endpoints in lexicographic
    order, so triangles sharing the side compute it bit for bit alike.
    """
    near = np.zeros(len(q), dtype=bool)
    inside = np.ones(len(q), dtype=bool)
    for i in range(3):
        p, r = corners[i], corners[(i + 1) % 3]
        swap = tuple(r) < tuple(p)
        if swap:
            p, r = r, p
        d = r - p
        e = d[0] * (q[:, 1] - p[1]) - d[1] * (q[:, 0] - p[0])
        on = np.abs(e) <= SIDE_TOL * np.hypot(d[0], d[1])
        # sign of e after the step: cross(d, +b) = -d[1], else cross(d, +c) = d[0]
        side = np.where(on, np.sign(-d[1] if d[1] != 0 else d[0]), np.sign(e))
        inside &= (-side if swap else side) == np.sign(det)
        near |= on
    return np.where(near, inside, hit)


def _triangle_columns(mesh: TriMesh, axis: int, half_open: bool = False):
    """Intersections of every lattice line along `axis` with the mesh.

    Yields (b_index, c_index, u, normal) arrays where (b, c) are the two
    other axes in cyclic order and u is the intersection coordinate along
    `axis`. Triangles parallel to the axis are skipped. Triangles are
    closed, so a line through a shared side hits both triangles, unless
    `half_open` gives each such line to one of them (`_half_open_hits`).
    """
    b, c = (axis + 1) % 3, (axis + 2) % 3
    v = mesh.vertices
    tris = mesh.tris
    outs = []
    for t in range(len(tris)):
        pa, pb, pc = v[tris[t, 0]], v[tris[t, 1]], v[tris[t, 2]]
        # project onto the (b, c) plane
        a2 = np.array([pa[b], pa[c]])
        b2 = np.array([pb[b], pb[c]])
        c2 = np.array([pc[b], pc[c]])
        det = (b2[0] - a2[0]) * (c2[1] - a2[1]) - (c2[0] - a2[0]) * (b2[1] - a2[1])
        if abs(det) < 1e-14:
            continue
        lob = int(np.ceil(min(a2[0], b2[0], c2[0]) - SIDE_TOL))
        hib = int(np.floor(max(a2[0], b2[0], c2[0]) + SIDE_TOL))
        loc = int(np.ceil(min(a2[1], b2[1], c2[1]) - SIDE_TOL))
        hic = int(np.floor(max(a2[1], b2[1], c2[1]) + SIDE_TOL))
        if lob > hib or loc > hic:
            continue
        bb, cc = np.meshgrid(np.arange(lob, hib + 1), np.arange(loc, hic + 1), indexing="ij")
        bb = bb.ravel()
        cc = cc.ravel()
        px = bb - a2[0]
        py = cc - a2[1]
        w1 = ((c2[1] - a2[1]) * px - (c2[0] - a2[0]) * py) / det
        w2 = (-(b2[1] - a2[1]) * px + (b2[0] - a2[0]) * py) / det
        least = np.minimum(np.minimum(w1, w2), 1 - (w1 + w2))
        hit = least >= 0
        if half_open:
            # each weight is a side's edge function over det; within SIDE_TOL
            # of a side, that is at most SIDE_TOL * (side length) / |det|
            close = np.abs(least) <= 4 * SIDE_TOL * (max(hib - lob, hic - loc) + 2) / abs(det)
            if np.any(close):
                hit[close] = _half_open_hits(np.array([a2, b2, c2]), det,
                                             np.stack([bb[close], cc[close]], axis=1), hit[close])
        if not np.any(hit):
            continue
        u = pa[axis] + w1[hit] * (pb[axis] - pa[axis]) + w2[hit] * (pc[axis] - pa[axis])
        n = np.cross(pb - pa, pc - pa)
        nn = np.linalg.norm(n)
        n = n / nn if nn > 0 else np.array([1.0, 0.0, 0.0])
        outs.append((bb[hit], cc[hit], u, np.repeat(n[None], np.count_nonzero(hit), axis=0)))
    if not outs:
        empty = np.empty(0)
        return empty.astype(int), empty.astype(int), empty, np.empty((0, 3))
    bs = np.concatenate([o[0] for o in outs])
    cs = np.concatenate([o[1] for o in outs])
    us = np.concatenate([o[2] for o in outs])
    ns = np.concatenate([o[3] for o in outs])
    return bs, cs, us, ns


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


def gt_edge_data(source: CsgShape | TriMesh, dims: GridDims):
    """Exact crossing flags, parameters, and unit normals per edge.

    CSG scenes refine roots by bisection of the analytic field; meshes
    intersect every lattice line with every triangle and take the face
    normal, preferring the intersection nearest the inside endpoint when
    signs are available.
    """
    if isinstance(source, CsgShape):
        return _csg_edge_data(source, dims)
    if isinstance(source, TriMesh):
        stats = edge_topology_stats(source)
        inside = None
        if stats.edge_count and stats.boundary == 0 and stats.nonmanifold3 == 0 and stats.nonmanifold4 == 0:
            inside = _mesh_parity_inside(source, dims)
        return _mesh_edge_data(source, dims, inside)
    raise InvalidKind(f"unsupported ground-truth source: {type(source).__name__}")


def mesh_to_sdf_grid(mesh: TriMesh, dims: GridDims, kind: GridKind = GridKind.SDF) -> ScalarGrid:
    """Distance field of a triangle mesh sampled at the lattice.

    SDF requires a watertight mesh (signs from 3-ray parity majority);
    UDF accepts open sheets.
    """
    if len(mesh.tris) == 0:
        raise EmptyMesh("cannot build a distance field from an empty mesh")
    if kind == GridKind.OCC:
        raise InvalidKind("use occupancy_from_mesh for voxel input")
    dist = _unsigned_distance(mesh, dims)
    if kind == GridKind.UDF:
        return ScalarGrid(dims, kind, dist)
    stats = edge_topology_stats(mesh)
    if stats.boundary or stats.nonmanifold3 or stats.nonmanifold4:
        raise OpenMeshError("signed distance needs a watertight mesh")
    inside = _mesh_parity_inside(mesh, dims)
    vals = np.where(inside, -dist, dist)
    return ScalarGrid(dims, GridKind.SDF, vals)


def occupancy_from_mesh(mesh: TriMesh, dims: GridDims) -> ScalarGrid:
    """Cell-center-inside occupancy, stored min-corner anchored."""
    stats = edge_topology_stats(mesh)
    if stats.boundary or stats.nonmanifold3 or stats.nonmanifold4:
        raise OpenMeshError("occupancy needs a watertight mesh")
    cdims = GridDims(dims.m - 1, dims.n - 1, dims.k - 1)
    # parity at cell centers: reuse the vertex machinery on a shifted mesh
    shifted = TriMesh(mesh.vertices - 0.5, mesh.tris.copy())
    occ = _mesh_parity_inside(shifted, cdims)
    out = np.zeros(dims.vertex_shape)
    out[:-1, :-1, :-1] = occ
    return ScalarGrid(dims, GridKind.OCC, out)


def _unsigned_distance(mesh: TriMesh, dims: GridDims, chunk: int = 2048) -> np.ndarray:
    """Exact point-triangle distances, chunked over lattice points."""
    pts = lattice_points(dims).reshape(-1, 3)
    v = mesh.vertices
    a = v[mesh.tris[:, 0]]
    ab = v[mesh.tris[:, 1]] - a
    ac = v[mesh.tris[:, 2]] - a
    out = np.empty(len(pts))
    for s in range(0, len(pts), chunk):
        p = pts[s : s + chunk]
        d2 = _point_tri_dist2(p, a, ab, ac)
        out[s : s + chunk] = np.sqrt(d2.min(axis=1))
    return out.reshape(dims.vertex_shape)


def _point_tri_dist2(p: np.ndarray, a: np.ndarray, ab: np.ndarray, ac: np.ndarray) -> np.ndarray:
    """Squared distances, shape (P, T).

    Orthogonal plane projection where the foot lands inside the
    triangle, otherwise the nearest of the three boundary segments.
    """
    ap = p[:, None, :] - a[None, :, :]
    d1 = np.einsum("td,ptd->pt", ab, ap)
    d2 = np.einsum("td,ptd->pt", ac, ap)
    d00 = np.einsum("td,td->t", ab, ab)[None]
    d01 = np.einsum("td,td->t", ab, ac)[None]
    d11 = np.einsum("td,td->t", ac, ac)[None]
    denom = d00 * d11 - d01 * d01
    safe = np.where(denom > 0, denom, 1.0)
    v = (d11 * d1 - d01 * d2) / safe
    w = (d00 * d2 - d01 * d1) / safe
    inside = (v >= 0) & (w >= 0) & (v + w <= 1) & (denom > 0)

    best = _seg_point_d2(p, a, ab)
    best = np.minimum(best, _seg_point_d2(p, a, ac))
    best = np.minimum(best, _seg_point_d2(p, a + ab, ac - ab))

    foot = a[None] + v[..., None] * ab[None] + w[..., None] * ac[None]
    diff = p[:, None, :] - foot
    inner = np.einsum("ptd,ptd->pt", diff, diff)
    return np.where(inside, np.minimum(inner, best), best)


def _seg_point_d2(p: np.ndarray, start: np.ndarray, d: np.ndarray) -> np.ndarray:
    sp = p[:, None, :] - start[None, :, :]
    dd = np.einsum("td,td->t", d, d)[None]
    t = np.einsum("td,ptd->pt", d, sp) / np.where(dd > 0, dd, 1.0)
    t = np.clip(t, 0.0, 1.0)
    foot = start[None] + t[..., None] * d[None]
    diff = p[:, None, :] - foot
    return np.einsum("ptd,ptd->pt", diff, diff)


def pseudo_gt_vertices(crossings: EdgeField, normals: EdgeField, dims: GridDims) -> VertexOffsetGrid:
    """Least-squares vertex offset per cell from exact edge data.

    Cells without crossings get the centered offset (0.5, 0.5, 0.5).
    """
    offsets, _ = qef_cell_offsets(crossings, normals)
    return VertexOffsetGrid(dims, offsets)


# ---------------------------------------------------------------------------
# masks


def cloud_active_cells(cloud: np.ndarray, dims: GridDims, reach: int = ACTIVE_MANHATTAN) -> np.ndarray:
    """Cells within `reach` Manhattan steps of a cell containing a point."""
    occ = np.zeros(dims.cell_shape, dtype=bool)
    cells = np.floor(cloud).astype(np.int64)
    cells = np.clip(cells, 0, np.asarray(dims.cell_shape) - 1)
    occ[cells[:, 0], cells[:, 1], cells[:, 2]] = True
    if reach > 0:
        occ = ndimage.binary_dilation(occ, iterations=reach)
    return occ


def _edges_owned_by_cells(cellmask: np.ndarray, dims: GridDims) -> EdgeField:
    """Edge (a, p) marked when cell p is marked; edges with no owning
    cell (far boundary slices) stay false."""
    out = EdgeField.full(dims, False, bool)
    cm, cn, ck = dims.cell_shape
    out.x[:, :cn, :ck] = cellmask
    out.y[:cm, :, :ck] = cellmask
    out.z[:cm, :cn, :] = cellmask
    return out


def build_masks(
    dims: GridDims,
    mode: str,
    grid: ScalarGrid | None = None,
    gt_signs: SignGrid | None = None,
    gt_flags: EdgeField | None = None,
    cloud: np.ndarray | None = None,
) -> MaskGrids:
    """Supervision masks for one sample.

    mode "ndc" marks cells whose corner signs differ; mode "undc" marks
    cells with at least one crossing edge. The per-vertex and per-edge
    masks depend on the input kind: a distance band for SDF/UDF grids,
    occupancy adjacency for voxel grids, and the Manhattan active band
    for point clouds.
    """
    if mode not in ("ndc", "undc"):
        raise ValueError(f"unknown mask mode: {mode}")
    if mode == "ndc":
        if gt_signs is None:
            raise ShapeError("ndc masks need ground-truth signs")
        m_v = active_cell_mask(xor_flags(gt_signs))
    else:
        if gt_flags is None:
            raise ShapeError("undc masks need ground-truth flags")
        m_v = active_cell_mask(gt_flags)

    m_s = np.zeros(dims.vertex_shape, dtype=bool)
    m_f = EdgeField.full(dims, False, bool)

    if cloud is not None:
        active = cloud_active_cells(cloud, dims)
        m_f = _edges_owned_by_cells(active, dims)
    elif grid is not None and grid.kind in (GridKind.SDF, GridKind.UDF):
        band = np.abs(grid.values) < BAND_WIDTH
        m_s = band
        m_f = EdgeField(dims, *(np.logical_and(*edge_ends(band, a)) for a in range(3)))
    elif grid is not None and grid.kind == GridKind.OCC:
        occ = grid.values[:-1, :-1, :-1] > 0.5
        padded = np.pad(occ, 1, constant_values=False)
        eroded = ndimage.minimum_filter(padded.astype(np.int8), size=3)[1:-1, 1:-1, 1:-1] > 0
        surface_cells = occ & ~eroded
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    m_s[dx : dx + occ.shape[0], dy : dy + occ.shape[1], dz : dz + occ.shape[2]] |= surface_cells
        # edges whose four surrounding cells are all occupied
        for a in range(3):
            m_f.axis(a)[interior_edges(a)] = np.logical_and.reduce(ring_cells(occ, a))
    return MaskGrids(dims, m_s, m_v, m_f)


# ---------------------------------------------------------------------------
# point clouds


def sample_point_cloud(
    source: CsgShape | TriMesh,
    count: int,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Surface samples in grid units, optionally with Gaussian noise.

    Meshes are sampled area-weighted with uniform barycentrics; CSG
    surfaces by projecting box-uniform candidates along the field
    gradient. Deterministic for a given seed.
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
    """At least `count` surface points, projected from box-uniform candidates."""
    out = []
    have = 0
    for _ in range(64):
        cand = rng.uniform(lo, hi, size=(4 * count, 3))
        for _ in range(30):
            f = shape(cand)
            g = csg_gradient(shape, cand)
            gg = np.einsum("nd,nd->n", g, g)
            step = f / np.where(gg > 1e-12, gg, 1.0)
            cand = cand - step[:, None] * g
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


def plane_sheet_mesh(dims: GridDims, axis: int = 2, coord: float = None) -> TriMesh:
    """An open rectangular sheet spanning the full grid cross-section."""
    sizes = dims.vertex_shape
    if coord is None:
        coord = 0.5 * (sizes[axis] - 1)
    b, c = (axis + 1) % 3, (axis + 2) % 3
    corners2d = [(0.0, 0.0), (sizes[b] - 1.0, 0.0), (sizes[b] - 1.0, sizes[c] - 1.0), (0.0, sizes[c] - 1.0)]
    verts = np.zeros((4, 3))
    for i, (pb, pc) in enumerate(corners2d):
        verts[i, axis] = coord
        verts[i, b] = pb
        verts[i, c] = pc
    tris = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int64)
    return TriMesh(verts, tris)


def make_training_sample(
    source: CsgShape | TriMesh,
    dims: GridDims,
    kind: GridKind | str = GridKind.SDF,
    mode: str | None = None,
    seed: int = 0,
    cloud_size: int = 4096,
    noise_sigma: float = 0.0,
) -> TrainingSample:
    """Build one complete sample from a CSG scene or a triangle mesh.

    kind selects the network input: a scalar grid kind or "points".
    mode defaults to "ndc" for signed inputs and "undc" for UDF and
    point clouds.
    """
    wants_cloud = kind == "points"
    if not wants_cloud:
        kind = GridKind(kind) if isinstance(kind, str) else kind
    if mode is None:
        mode = "undc" if wants_cloud or kind == GridKind.UDF else "ndc"

    flags, tvals, normals = gt_edge_data(source, dims)
    offsets = pseudo_gt_vertices(tvals, normals, dims)

    if isinstance(source, CsgShape):
        sdf = sample_csg_grid(source, dims, GridKind.SDF)
        gt_signs = signs_from_scalar(sdf)
        if wants_cloud:
            grid = None
        elif kind == GridKind.SDF:
            grid = sdf
        elif kind == GridKind.UDF:
            grid = ScalarGrid(dims, GridKind.UDF, np.abs(sdf.values))
        else:
            grid = sample_csg_grid(source, dims, GridKind.OCC)
    else:
        stats = edge_topology_stats(source)
        watertight = stats.edge_count > 0 and stats.boundary == 0 and stats.nonmanifold3 == 0 and stats.nonmanifold4 == 0
        if watertight:
            gt_signs = SignGrid(dims, _mesh_parity_inside(source, dims))
        else:
            gt_signs = SignGrid(dims, np.zeros(dims.vertex_shape, dtype=bool))
        if wants_cloud:
            grid = None
        elif kind == GridKind.OCC:
            grid = occupancy_from_mesh(source, dims)
        else:
            grid = mesh_to_sdf_grid(source, dims, kind)

    cloud = None
    if wants_cloud:
        cloud = sample_point_cloud(source, cloud_size, noise_sigma, seed)

    masks = build_masks(dims, mode, grid=grid, gt_signs=gt_signs, gt_flags=flags, cloud=cloud)
    return TrainingSample(dims, mode, grid, cloud, gt_signs, flags, offsets, masks)


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
    masks = tf.transform_masks(sample.masks, transform_id)
    return TrainingSample(
        new_dims,
        sample.mode,
        grid,
        cloud,
        tf.transform_sign_grid(sample.gt_signs, transform_id),
        tf.transform_edge_field(sample.gt_flags, transform_id),
        tf.transform_offsets(sample.gt_offsets, transform_id),
        masks,
    )
