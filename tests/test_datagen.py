"""Ground-truth fields, output sets, clouds, and sample assembly."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import ndcmesh.datagen as datagen
from ndcmesh.csg import (Box, CsgShape, Cylinder, Sphere, Subtract, Union, csg_gradient,
                         random_rotation, random_scene)
from ndcmesh._dual import cells_to_edge_field
from ndcmesh.datagen import (PAIR_CHUNK, SIDE_TOL, TrainingSample, _triangle_columns,
                             _unsigned_distance, augment_sample,
                             cloud_active_cells, gt_edge_data,
                             make_training_sample, mesh_to_sdf_grid,
                             occupancy_from_mesh,
                             pseudo_gt_vertices, sample_csg_grid,
                             sample_point_cloud)
from ndcmesh.errors import OpenMeshError, TooFewPoints
from ndcmesh.grids import (GridDims, GridKind, ScalarGrid, SignGrid, VertexOffsetGrid,
                           signs_from_scalar, xor_flags)
from ndcmesh.mc import mc_extract
from ndcmesh.mesh import TriMesh, triangle_areas
from ndcmesh.nn import K_NEIGHBORS, GridNetwork, PointNetwork, cloud_neighbors
from ndcmesh.nn.network import BAND_WIDTH
from ndcmesh.nn.train import supervised_outputs
from ndcmesh.rng import rng_for
from ndcmesh.transforms import (NUM_TRANSFORMS, transform_edge_field,
                                transformed_dims)

from helpers import inverse_id, plane_sheet_mesh, transform_vertex_array


def plane_box(normal, point, extent=2000.0):
    """A box so large that only one face, the plane through `point` with
    `normal`, intersects the sampled grid."""
    n = np.asarray(normal, dtype=np.float64)
    n /= np.linalg.norm(n)
    u = np.cross(n, (0.017, 0.31, 0.95))
    if np.linalg.norm(u) < 1e-6:
        u = np.cross(n, (1.0, 0.0, 0.0))
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    rot = np.stack([u, v, n], axis=1)
    center = np.asarray(point, dtype=np.float64) - n * (extent / 2)
    return Box(tuple(center), (extent, extent, extent / 2), tuple(map(tuple, rot)))


def cube_mesh(center, half) -> TriMesh:
    c = np.asarray(center, dtype=np.float64)
    corners = c + half * np.array(
        [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=np.float64)
    quads = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1),
             (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
    tris = []
    for a, b, cc, d in quads:
        tris += [[a, b, cc], [a, cc, d]]
    return TriMesh(corners, np.array(tris, dtype=np.int64))


def icosphere(center, radius, subdiv) -> TriMesh:
    phi = (1 + 5 ** 0.5) / 2
    v = np.array([[-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
                  [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
                  [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1]],
                 dtype=np.float64)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    f = np.array([[0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
                  [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
                  [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
                  [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1]])
    for _ in range(subdiv):
        verts = list(map(tuple, v))
        cache = {}

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in cache:
                m = v[a] + v[b]
                m /= np.linalg.norm(m)
                verts.append(tuple(m))
                cache[key] = len(verts) - 1
            return cache[key]

        nf = []
        for a, b, c in f:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            nf += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
        v = np.array(verts)
        f = np.array(nf)
    return TriMesh(np.asarray(center) + radius * v, f)


def edge_equal(a, b) -> bool:
    return all(np.array_equal(np.asarray(a.axis(i)), np.asarray(b.axis(i)))
               for i in range(3))


# ---------------------------------------------------------------------------
# ground-truth edge data


def test_axis_plane_edge_data_is_exact():
    dims = GridDims(9, 9, 9)
    c = 4.3
    flags, tvals, normals = gt_edge_data(plane_box((0, 0, 1), (4.0, 4.0, c)), dims)
    assert not np.asarray(flags.x).any()
    assert not np.asarray(flags.y).any()
    zf = np.asarray(flags.z)
    assert zf[:, :, 4].all() and zf.sum() == 81
    t = np.asarray(tvals.z)[:, :, 4]
    assert np.allclose(t, 0.3, atol=1e-6)
    n = np.asarray(normals.z)[:, :, 4]
    assert np.allclose(n, [0.0, 0.0, 1.0], atol=1e-6)


def test_sphere_crossings_land_on_the_radius():
    dims = GridDims(17, 17, 17)
    center = np.full(3, 8.0)
    sphere = Sphere(tuple(center), 5.3)
    flags, tvals, _ = gt_edge_data(sphere, dims)
    for a in range(3):
        mask = np.asarray(flags.axis(a))
        pos = np.argwhere(mask).astype(np.float64)
        pos[:, a] += np.asarray(tvals.axis(a))[mask]
        radii = np.linalg.norm(pos - center, axis=1)
        assert np.abs(radii - 5.3).max() < 1e-6


def test_flags_agree_with_the_sampled_sign_field():
    dims = GridDims(17, 17, 17)
    for shape in (Sphere((8.0, 8.0, 8.0), 5.1),
                  random_scene(3, extent=16.0),
                  random_scene(4, extent=16.0)):
        flags, _, _ = gt_edge_data(shape, dims)
        want = xor_flags(signs_from_scalar(sample_csg_grid(shape, dims)))
        assert edge_equal(flags, want)


def test_mesh_edge_data_uses_exact_triangle_intersections():
    dims = GridDims(9, 9, 9)
    sheet = plane_sheet_mesh(dims, axis=2, coord=4.3)
    flags, tvals, normals = gt_edge_data(sheet, dims)
    zf = np.asarray(flags.z)
    assert zf[:, :, 4].all()
    assert np.allclose(np.asarray(tvals.z)[:, :, 4], 0.3, atol=1e-9)
    nz = np.asarray(normals.z)[:, :, 4]
    assert np.allclose(np.abs(nz[..., 2]), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# pseudo ground-truth vertices


def test_plane_cells_get_exact_plane_offsets():
    dims = GridDims(9, 9, 9)
    _, tvals, normals = gt_edge_data(plane_box((0, 0, 1), (4.0, 4.0, 4.3)), dims)
    offs = pseudo_gt_vertices(tvals, normals, dims).offsets
    layer = offs[:, :, 4]
    assert np.allclose(layer[..., 0], 0.5, atol=1e-6)
    assert np.allclose(layer[..., 1], 0.5, atol=1e-6)
    assert np.allclose(layer[..., 2], 0.3, atol=1e-6)
    # cells without crossings stay centered
    assert np.allclose(offs[:, :, 0], 0.5)


def test_arbitrary_plane_vertices_stay_on_the_plane():
    dims = GridDims(9, 9, 9)
    rng = rng_for(77, "plane-sweep")
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        point = np.full(3, 4.0) + rng.uniform(-0.4, 0.4, 3)
        _, tvals, normals = gt_edge_data(plane_box(n, point), dims)
        offs = pseudo_gt_vertices(tvals, normals, dims).offsets
        mask = ~np.all(offs == 0.5, axis=-1)
        verts = np.argwhere(mask) + offs[mask]
        assert np.abs((verts - point) @ n).max() < 1e-6


def test_box_corners_appear_in_the_vertex_targets():
    dims = GridDims(33, 33, 33)
    box = Box((16.3, 15.7, 16.1), (5.2, 6.4, 4.8))
    _, tvals, normals = gt_edge_data(box, dims)
    offs = pseudo_gt_vertices(tvals, normals, dims).offsets
    assert offs.min() >= 0.0 and offs.max() <= 1.0
    verts = np.argwhere(np.ones(dims.cell_shape, dtype=bool)) + offs.reshape(-1, 3)
    for sx in (-1, 1):
        for sy in (-1, 1):
            for sz in (-1, 1):
                corner = np.array([16.3, 15.7, 16.1]) + \
                    np.array([sx, sy, sz]) * np.array([5.2, 6.4, 4.8])
                assert np.linalg.norm(verts - corner, axis=1).min() < 1e-3


# ---------------------------------------------------------------------------
# output sets: what each head predicts and is supervised on


def grid_net(variant):
    return GridNetwork(variant, channels=2)


def sign_sample(dims, inside):
    """A signed-mode sample that holds only ground-truth signs (and the
    flags they imply) and an SDF grid of those signs; enough for the
    vertex head's supervised cells."""
    signs = SignGrid(dims, inside)
    grid = ScalarGrid(dims, GridKind.SDF, np.where(inside, -1.0, 1.0))
    return TrainingSample(dims, grid, None, signs, xor_flags(signs),
                          VertexOffsetGrid(dims, np.full(dims.cell_shape + (3,), 0.5)))


def test_sdf_masks_follow_the_distance_band():
    dims = GridDims(17, 17, 17)
    sample = make_training_sample(Sphere((8.0, 8.0, 8.0), 5.1), dims)
    band = np.abs(sample.grid.values) < BAND_WIDTH
    assert np.array_equal(supervised_outputs(grid_net("sdf_s"), sample), band[None])
    # the band stays off the border planes, so every band edge is cell-owned
    flags = cells_to_edge_field(supervised_outputs(grid_net("sdf_f"), sample), dims)
    assert np.array_equal(np.asarray(flags.x), band[:-1] & band[1:])
    assert np.array_equal(np.asarray(flags.z), band[:, :, :-1] & band[:, :, 1:])


def test_sign_change_cells_are_a_subset_of_crossed_cells():
    dims = GridDims(17, 17, 17)
    sample = make_training_sample(random_scene(5, extent=16.0), dims)
    net = grid_net("sdf_v")
    ndc_cells = supervised_outputs(net, sample)
    udf = ScalarGrid(dims, GridKind.UDF, np.abs(sample.grid.values))
    undc_cells = supervised_outputs(net, dataclasses.replace(sample, grid=udf))
    assert np.all(undc_cells[ndc_cells])
    # some cell has a boundary crossing without a corner sign change is
    # rare on smooth scenes, but the superset claim must hold regardless
    assert ndc_cells.any()


def test_ndc_cell_mask_matches_the_eight_corner_brute_force():
    # reference: a cell is marked when its eight corner signs are not all
    # equal
    rng = rng_for(31, "ndc-mask")
    for shape in ((2, 2, 2), (3, 5, 4), (9, 8, 7)):
        dims = GridDims(*shape)
        for density in (0.1, 0.5, 0.9):
            inside = rng.random(shape) < density
            corners = [inside[dx:dx + shape[0] - 1, dy:dy + shape[1] - 1, dz:dz + shape[2] - 1]
                       for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]
            want = ~(np.logical_and.reduce(corners) | ~np.logical_or.reduce(corners))
            cells = supervised_outputs(grid_net("sdf_v"), sign_sample(dims, inside))
            assert np.array_equal(cells, np.broadcast_to(want, (3,) + want.shape))


def test_uniform_outside_field_produces_empty_masks():
    dims = GridDims(9, 9, 9)
    grid = ScalarGrid(dims, GridKind.SDF, np.full(dims.vertex_shape, 5.0))
    sample = dataclasses.replace(sign_sample(dims, signs_from_scalar(grid).inside), grid=grid)
    for variant in ("sdf_s", "sdf_v", "sdf_f"):
        net = grid_net(variant)
        assert not net.used_outputs(grid)[0].any(), variant
        assert not supervised_outputs(net, sample).any(), variant


def test_voxel_masks_mark_surface_cell_corners():
    dims = GridDims(7, 7, 7)
    occ = np.zeros(dims.vertex_shape)
    occ[3, 3, 3] = 1.0  # single occupied cell
    grid = ScalarGrid(dims, GridKind.OCC, occ)
    # the boundary cells are the occupied one and its 26 empty neighbours
    want = np.zeros(dims.vertex_shape, dtype=bool)
    want[2:6, 2:6, 2:6] = True
    assert np.array_equal(grid_net("vox_s").used_outputs(grid)[0], want[None])
    cells = np.zeros(dims.cell_shape, dtype=bool)
    cells[1:6, 1:6, 1:6] = True
    assert np.array_equal(grid_net("vox_v").used_outputs(grid)[0][0], cells)
    flags = cells_to_edge_field(grid_net("vox_f").used_outputs(grid)[0], dims)
    assert np.array_equal(np.asarray(flags.y), want[:, :-1] & want[:, 1:])


def test_point_cloud_masks_cover_the_manhattan_band():
    dims = GridDims(11, 11, 11)
    cloud = np.array([[5.4, 5.6, 5.2]])
    active = cloud_active_cells(cloud, dims)
    cell = np.array([5, 5, 5])
    grid_idx = np.argwhere(np.ones(dims.cell_shape, dtype=bool))
    manhattan = np.abs(grid_idx - cell).sum(axis=1).reshape(dims.cell_shape)
    assert np.array_equal(active, manhattan <= 3)

    # the flag head answers for every channel of the active cells
    cloud = 5.1 + 0.8 * rng_for(33, "cell").random((K_NEIGHBORS, 3))
    used, fill = PointNetwork("flag", channels=2).used_outputs(cloud_neighbors(cloud, dims))
    assert np.array_equal(used, np.broadcast_to(manhattan <= 3, used.shape)) and fill == 0.0


# ---------------------------------------------------------------------------
# mesh-derived fields


def reference_half_open_hits(corners, det, q, hit):
    """Per-triangle oracle of `_half_open_hits`: one (3, 2) corner set
    and one determinant for all points."""
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
        side = np.where(on, np.sign(-d[1] if d[1] != 0 else d[0]), np.sign(e))
        inside &= (-side if swap else side) == np.sign(det)
        near |= on
    return np.where(near, inside, hit)


def reference_triangle_columns(mesh, axis, half_open=False):
    """Loop oracle of `_triangle_columns`: one triangle at a time."""
    b, c = (axis + 1) % 3, (axis + 2) % 3
    v = mesh.vertices
    outs = []
    for t in range(len(mesh.tris)):
        pa, pb, pc = v[mesh.tris[t, 0]], v[mesh.tris[t, 1]], v[mesh.tris[t, 2]]
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
            close = np.abs(least) <= 4 * SIDE_TOL * (max(hib - lob, hic - loc) + 2) / abs(det)
            if np.any(close):
                hit[close] = reference_half_open_hits(
                    np.array([a2, b2, c2]), det,
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
    return tuple(np.concatenate(col) for col in zip(*outs))


def test_triangle_columns_match_the_per_triangle_reference():
    scene = random_scene(5, 15.0)
    mc = mc_extract(sample_csg_grid(lambda p: 2.0 * scene(p / 2.0), GridDims(31, 31, 31)))
    aligned = TriMesh(mc.vertices / 2.0, mc.tris)
    shifted = TriMesh(aligned.vertices + (0.1357, 0.2468, 0.3579), mc.tris)
    dims = GridDims(9, 9, 9)
    sheets = [plane_sheet_mesh(dims, axis=a, coord=4.0) for a in range(3)]
    # a sheet whose corners sit on lattice points, tilted against every axis
    sheets.append(TriMesh(np.array([[0.0, 0.0, 2.0], [8.0, 0.0, 3.0], [8.0, 8.0, 6.0],
                                    [0.0, 8.0, 5.0]]), np.array([[0, 1, 2], [0, 2, 3]])))
    # in the plane x = 2.5, parallel to the y and z axes, plus a sliver
    parallel = TriMesh(np.array([[2.5, 0.0, 0.0], [2.5, 3.0, 0.0], [2.5, 0.0, 3.0],
                                 [1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [3.0, 3.0, 3.0]]),
                       np.array([[0, 1, 2], [3, 4, 5]]))
    outside = TriMesh(np.array([[-5.0, -5.0, -5.0], [-2.0, -4.5, -5.0], [-4.0, -2.0, -3.0],
                                [-3.0, 4.0, 4.0], [20.0, 4.5, 4.0], [4.0, 30.0, -2.0]]),
                      np.array([[0, 1, 2], [3, 4, 5]]))
    empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    for mesh in [aligned, shifted, *sheets, parallel, outside, empty]:
        for axis in range(3):
            for half_open in (False, True):
                got = _triangle_columns(mesh, axis, half_open)
                want = reference_triangle_columns(mesh, axis, half_open)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and np.array_equal(g, w), (axis, half_open)


def reference_unsigned_distance(mesh, dims, chunk=256):
    """Brute-force oracle of `_unsigned_distance`: every lattice point
    against every triangle, (points, triangles) at a time."""
    axes = [np.arange(s, dtype=np.float64) for s in dims.vertex_shape]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    v = mesh.vertices
    a = v[mesh.tris[:, 0]]
    ab = v[mesh.tris[:, 1]] - a
    ac = v[mesh.tris[:, 2]] - a
    out = np.empty(len(pts))
    for s in range(0, len(pts), chunk):
        out[s : s + chunk] = np.sqrt(reference_point_tri_dist2(pts[s : s + chunk], a, ab, ac).min(axis=1))
    return out.reshape(dims.vertex_shape)


def reference_point_tri_dist2(p, a, ab, ac):
    """Squared distances, shape (P, T): the plane foot where it lands
    inside the triangle, else the nearest of the three sides."""
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
    best = reference_seg_point_d2(p, a, ab)
    best = np.minimum(best, reference_seg_point_d2(p, a, ac))
    best = np.minimum(best, reference_seg_point_d2(p, a + ab, ac - ab))
    foot = a[None] + v[..., None] * ab[None] + w[..., None] * ac[None]
    diff = p[:, None, :] - foot
    inner = np.einsum("ptd,ptd->pt", diff, diff)
    return np.where(inside, np.minimum(inner, best), best)


def reference_seg_point_d2(p, start, d):
    sp = p[:, None, :] - start[None, :, :]
    dd = np.einsum("td,td->t", d, d)[None]
    t = np.einsum("td,ptd->pt", d, sp) / np.where(dd > 0, dd, 1.0)
    t = np.clip(t, 0.0, 1.0)
    foot = start[None] + t[..., None] * d[None]
    diff = p[:, None, :] - foot
    return np.einsum("ptd,ptd->pt", diff, diff)


def assert_distance_is_brute_force(mesh, dims):
    want = reference_unsigned_distance(mesh, dims)
    # 1 pair: every block is a batch of its own and exceeds it
    for chunk in (PAIR_CHUNK, 1, 777):
        assert np.array_equal(_unsigned_distance(mesh, dims, chunk), want), chunk
    return want


def test_culled_distance_equals_brute_force_on_lattice_aligned_and_shifted_meshes():
    # marching cubes at 23^3 scaled into 12^3: vertices, sides and
    # faces pass through lattice points
    scene = random_scene(5, 11.0)
    mc = mc_extract(sample_csg_grid(lambda p: 2.0 * scene(p / 2.0), GridDims(23, 23, 23)))
    aligned = TriMesh(mc.vertices / 2.0, mc.tris)
    dims = GridDims(12, 12, 12)
    assert_distance_is_brute_force(aligned, dims)
    assert_distance_is_brute_force(TriMesh(aligned.vertices + (0.137, 0.291, 0.402), aligned.tris),
                                   dims)


def test_culled_distance_equals_brute_force_on_an_open_sheet():
    dims = GridDims(9, 11, 10)
    sheet = plane_sheet_mesh(dims, axis=1, coord=4.37)
    want = assert_distance_is_brute_force(sheet, dims)
    assert np.array_equal(mesh_to_sdf_grid(sheet, dims, GridKind.UDF).values, want)


def test_culled_distance_equals_brute_force_with_zero_area_triangles():
    mesh = cube_mesh((4.2, 3.9, 4.1), 2.3)
    v = np.concatenate([mesh.vertices, [[1.0, 1.0, 1.0], [3.0, 2.0, 5.0], [5.0, 3.0, 9.0],
                                        [6.5, 1.25, 2.0]]])
    n = len(mesh.vertices)
    # a collinear triangle, one with a repeated corner, and a point
    tris = np.concatenate([mesh.tris, [[n, n + 1, n + 2], [n, n + 3, n + 3],
                                       [n + 3, n + 3, n + 3]]])
    assert_distance_is_brute_force(TriMesh(v, tris), GridDims(9, 9, 9))


def test_culled_distance_equals_brute_force_for_a_small_far_triangle():
    tri = TriMesh([[1.2, 1.3, 1.1], [2.1, 1.45, 1.6], [1.5, 2.2, 1.9]], [[0, 1, 2]])
    assert_distance_is_brute_force(tri, GridDims(20, 13, 17))


def test_culled_distance_is_zero_at_lattice_points_on_a_vertex_side_or_face():
    tri = TriMesh([[2.0, 2.0, 3.0], [6.0, 2.0, 3.0], [2.0, 6.0, 3.0]], [[0, 1, 2]])
    dims = GridDims(9, 9, 7)
    got = assert_distance_is_brute_force(tri, dims)
    for vertex, side, hypotenuse, face in [((2, 2, 3), (4, 2, 3), (4, 4, 3), (3, 3, 3))]:
        for p in (vertex, side, hypotenuse, face):
            assert got[p] == 0.0, p
    assert got[4, 4, 4] == 1.0
    # a tilted triangle through lattice points on its face, (1, 1, 2) included
    tilted = TriMesh([[0.0, 0.0, 0.0], [4.0, 0.0, 4.0], [0.0, 4.0, 4.0]], [[0, 1, 2]])
    got = assert_distance_is_brute_force(tilted, GridDims(6, 6, 6))
    assert got[1, 1, 2] < 1e-12 and got[0, 0, 0] == 0.0 and got[2, 0, 2] < 1e-12


def test_culled_distance_finds_a_sliver_whose_centroid_sits_at_the_bound():
    # lattice corner 0 of a one-block lattice is nearest the apex of a
    # 30-cell sliver pointing at it along the diagonal u, so the sliver's
    # centroid lies exactly its radius (20) plus its distance away; four
    # small triangles facing the corner, a little farther, have the
    # centroids nearest the block center
    u = np.ones(3) / np.sqrt(3.0)
    w = np.cross(u, [1.0, 0.0, 0.0])
    w /= np.linalg.norm(w)
    v = np.cross(u, w)
    for gap in np.arange(1.9, 2.5, 0.03):
        apex = -(gap - 0.01) * u
        verts = [apex, apex - 30.0 * u + 0.4 * w, apex - 30.0 * u - 0.4 * w]
        for k in range(4):
            c = (gap + 0.002 * k) * u
            verts += [c + 0.05 * w, c - 0.05 * w + 0.05 * v, c - 0.05 * w - 0.05 * v]
        mesh = TriMesh(np.array(verts), np.arange(15).reshape(5, 3))
        got = assert_distance_is_brute_force(mesh, GridDims(2, 2, 2))
        assert got[0, 0, 0] == pytest.approx(gap - 0.01, abs=1e-12)


def test_culled_distance_memory_follows_the_candidates():
    # about 3k triangles in 16^3; brute force held (2048, T, 3) float64
    # temporaries, 147 MB each at T = 3000
    scene = random_scene(11, 15.0)
    mc = mc_extract(sample_csg_grid(lambda p: 4.0 * scene(p / 4.0), GridDims(61, 61, 61)))
    mesh = TriMesh(mc.vertices / 4.0, mc.tris)
    assert 2500 < len(mesh.tris) < 3500
    tracemalloc.start()
    try:
        _unsigned_distance(mesh, GridDims(16, 16, 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20


def test_mesh_sdf_matches_the_analytic_sphere():
    center = np.array([8.123, 7.877, 8.049])
    radius = 5.3
    mesh = icosphere(center, radius, 3)
    grid = mesh_to_sdf_grid(mesh, GridDims(17, 17, 17))
    lattice = np.stack(np.meshgrid(*[np.arange(17.0)] * 3, indexing="ij"), axis=-1)
    analytic = np.linalg.norm(lattice - center, axis=-1) - radius
    assert np.abs(grid.values - analytic).max() < 0.02 * radius


def test_cube_mesh_sdf_center_value_is_minus_half_edge():
    center = (8.2, 8.1, 7.9)
    mesh = cube_mesh(center, 3.0)
    grid = mesh_to_sdf_grid(mesh, GridDims(17, 17, 17))
    assert grid.values[8, 8, 8] == pytest.approx(
        -(3.0 - np.abs(np.array(center) - 8).max()), abs=1e-6)


def test_open_sheet_rejects_sdf_but_allows_udf():
    dims = GridDims(9, 9, 9)
    sheet = plane_sheet_mesh(dims, axis=2, coord=4.3)
    with pytest.raises(OpenMeshError):
        mesh_to_sdf_grid(sheet, dims, GridKind.SDF)
    udf = mesh_to_sdf_grid(sheet, dims, GridKind.UDF)
    assert udf.kind == GridKind.UDF
    assert udf.values.min() >= 0.0
    assert udf.values[4, 4, 4] == pytest.approx(0.3, abs=1e-9)


def test_parity_counts_a_ray_through_a_shared_triangle_side_once():
    # every face of this cube is split along a diagonal that the lattice
    # rays through (1, 1), (2, 2) and (3, 3) pass exactly
    dims = GridDims(5, 5, 5)
    grid = mesh_to_sdf_grid(cube_mesh((2.0, 2.0, 2.0), 1.5), dims)
    lattice = np.stack(np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij"), axis=-1)
    inside = np.abs(lattice - 2.0).max(axis=-1) < 1.5
    assert np.array_equal(grid.values < 0, inside)


def test_lattice_aligned_marching_cubes_mesh_gets_its_far_signs_right():
    # marching cubes at 31^3, scaled into 16^3, leaves vertices at
    # rational lattice positions, so some rays run through shared sides
    scene = random_scene(5, 15.0)
    mesh = mc_extract(sample_csg_grid(lambda p: 2.0 * scene(p / 2.0), GridDims(31, 31, 31)))
    dims = GridDims(16, 16, 16)
    grid = mesh_to_sdf_grid(TriMesh(mesh.vertices / 2.0, mesh.tris), dims)
    lattice = np.stack(np.meshgrid(*[np.arange(16.0)] * 3, indexing="ij"), axis=-1)
    field = scene(lattice)
    far = np.abs(field) > 1.0
    assert np.array_equal(grid.values[far] < 0, field[far] < 0)


def test_occupancy_marks_cells_with_inside_centers():
    # generic pose: a cube aligned to exact lattice coordinates sends the
    # parity rays straight through face diagonals
    dims = GridDims(9, 9, 9)
    center = np.array([4.13, 3.91, 4.07])
    mesh = cube_mesh(center, 1.6)
    grid = occupancy_from_mesh(mesh, dims)
    occ = grid.values[:-1, :-1, :-1] > 0.5
    centers = np.argwhere(np.ones(dims.cell_shape, dtype=bool)) + 0.5
    inside = np.abs(centers - center).max(axis=1) < 1.6
    assert np.array_equal(occ.reshape(-1), inside)
    assert not grid.values[-1].any() and not grid.values[:, -1].any()


# ---------------------------------------------------------------------------
# point clouds


def test_noise_free_sheet_cloud_lies_on_the_sheet():
    dims = GridDims(9, 9, 9)
    sheet = plane_sheet_mesh(dims, axis=2, coord=4.3)
    cloud = sample_point_cloud(sheet, 500, noise_sigma=0.0, seed=3)
    assert np.allclose(cloud[:, 2], 4.3, atol=1e-6)
    again = sample_point_cloud(sheet, 500, noise_sigma=0.0, seed=3)
    assert np.array_equal(cloud, again)
    noisy = sample_point_cloud(sheet, 500, noise_sigma=0.5, seed=3)
    assert not np.allclose(noisy[:, 2], 4.3, atol=1e-3)


def test_cloud_sampling_is_area_weighted():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [3.0, 4.0, 0.0]])
    tris = np.array([[0, 1, 2], [1, 3, 2]])
    mesh = TriMesh(verts, tris)
    areas = triangle_areas(verts, tris)
    p = areas[0] / areas.sum()
    cloud = sample_point_cloud(mesh, 10000, seed=5)
    # points in the first triangle satisfy x + y <= 1
    n0 = int((cloud[:, 0] + cloud[:, 1] <= 1.0 + 1e-9).sum())
    sigma = np.sqrt(10000 * p * (1 - p))
    assert abs(n0 - 10000 * p) < 3 * sigma


def test_csg_cloud_covers_a_scene_larger_than_the_first_probe():
    scene = random_scene(1, 255.0)
    cloud = sample_point_cloud(scene, 512, seed=1)
    assert np.abs(scene(cloud)).max() < 1e-6
    # the largest x of the shape, located on a 1-cell lattice
    ys = np.arange(0.0, 256.0)
    x_max = next(x for x in ys[::-1] if (scene(np.stack(np.meshgrid(
        [x], ys, ys, indexing="ij"), axis=-1)) < 0).any())
    assert cloud[:, 0].max() > x_max - 4.0


def test_csg_cloud_points_lie_on_the_surface():
    sphere = Sphere((8.0, 8.0, 8.0), 5.1)
    cloud = sample_point_cloud(sphere, 400, seed=7)
    radii = np.linalg.norm(cloud - 8.0, axis=1)
    assert np.abs(radii - 5.1).max() < 1e-6


def reference_project_box_samples(shape, count, rng, lo, hi):
    """_project_box_samples with all 30 Newton steps for every candidate."""
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


class RowsSeen(CsgShape):
    """A field that records how many points each call evaluates."""

    def __init__(self, inner):
        self.inner, self.rows = inner, []

    def evaluate(self, p):
        self.rows.append(len(p))
        return self.inner.evaluate(p)


def test_csg_clouds_equal_thirty_newton_steps_for_every_candidate(monkeypatch):
    rot = tuple(map(tuple, random_rotation(rng_for(15, "cloud-oracle"))))
    carved = Subtract(Union(Box((7.0, 6.5, 7.5), (2.5, 1.5, 2.0), rot),
                            Cylinder((8.0, 8.5, 6.0), (1.0, 2.0, -0.5), 1.5, 3.0)),
                      Sphere((9.0, 7.0, 9.0), 1.75))
    # scenes with rotated boxes and oblique cylinders; the rng stream goes
    # on to the noise, so a noisy cloud also shows the draws unchanged
    cases = [(carved, 64, 0.0, 3), (carved, 256, 0.3, 4), (random_scene(1, 15.0), 64, 0.0, 1),
             (random_scene(6, 15.0), 128, 0.2, 6), (random_scene(11, 19.0), 256, 0.0, 11),
             (random_scene(27, 11.0), 1024, 0.1, 27),
             # the last moving candidate is alone for a step; evaluated on
             # its own, it would settle elsewhere
             (random_scene(171, 13.0), 16, 0.0, 171), (random_scene(599, 9.0), 8, 0.0, 599)]
    rows = []
    for scene, count, sigma, seed in cases:
        seen = RowsSeen(scene)
        got = sample_point_cloud(seen, count, sigma, seed)
        rows += seen.rows
        with monkeypatch.context() as m:
            m.setattr(datagen, "_project_box_samples", reference_project_box_samples)
            want = sample_point_cloud(scene, count, sigma, seed)
        assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))
    # a one-row batch would take numpy's vector dot in a Cylinder
    assert min(rows) >= 2


# ---------------------------------------------------------------------------
# sample assembly and augmentation


def test_watertight_sample_flags_equal_sign_xor():
    dims = GridDims(17, 17, 17)
    for source in (random_scene(6, extent=16.0),
                   cube_mesh((8.1, 7.9, 8.0), 3.2)):
        sample = make_training_sample(source, dims)
        assert edge_equal(sample.gt_flags, xor_flags(sample.gt_signs))
        assert sample.gt_offsets.offsets.min() >= 0.0
        assert sample.gt_offsets.offsets.max() <= 1.0


def one_shot_field(shape, shape3, offset=0.0):
    """A CSG field evaluated on the whole lattice at once."""
    axes = [np.arange(n, dtype=np.float64) + offset for n in shape3]
    return shape(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))


def test_csg_grids_sampled_in_slabs_equal_the_one_shot_field(monkeypatch):
    # rotated boxes multiply points by a matrix; the slabs keep every
    # lattice line along the last two axes whole, so its products match
    for points in (200, 60, datagen.SLAB_POINTS):
        monkeypatch.setattr(datagen, "SLAB_POINTS", points)
        for seed, dims in ((1, GridDims(16, 8, 22)), (2, GridDims(8, 4, 6)),
                           (3, GridDims(33, 34, 35)), (4, GridDims(2, 30, 3))):
            scene = random_scene(seed, float(min(dims.vertex_shape) + 4))
            sdf = one_shot_field(scene, dims.vertex_shape)
            for kind, want in ((GridKind.SDF, sdf), (GridKind.UDF, np.abs(sdf))):
                got = sample_csg_grid(scene, dims, kind).values
                assert got.dtype == want.dtype and np.array_equal(got, want), (points, seed)
            occ = sample_csg_grid(scene, dims, GridKind.OCC).values
            want = one_shot_field(scene, dims.cell_shape, 0.5) < 0
            assert np.array_equal(occ[:-1, :-1, :-1], want) and occ.sum() == want.sum()


def test_csg_grid_memory_is_bounded_by_the_slabs():
    # a 64^3 grid is 2.2 MB; the whole lattice at once peaked at 34-36 MB
    dims = GridDims(64, 64, 64)
    for kind in (GridKind.SDF, GridKind.OCC):
        tracemalloc.start()
        try:
            sample_csg_grid(random_scene(1, 63.0), dims, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, (kind, peak)


def test_a_voxel_sample_checks_its_mesh_once(monkeypatch):
    calls = []
    stats = datagen.edge_topology_stats
    monkeypatch.setattr(datagen, "edge_topology_stats", lambda mesh: calls.append(1) or stats(mesh))
    mesh = cube_mesh((4.13, 3.91, 4.07), 1.6)
    sample = make_training_sample(mesh, GridDims(9, 9, 9), GridKind.OCC)
    assert len(calls) == 1 and sample.grid.values.any()
    sheet = plane_sheet_mesh(GridDims(9, 9, 9), axis=2, coord=4.3)
    with pytest.raises(OpenMeshError):
        make_training_sample(sheet, GridDims(9, 9, 9), GridKind.OCC)
    assert len(calls) == 2


def test_sample_kinds_carry_the_right_inputs():
    dims = GridDims(11, 11, 11)
    shape = Sphere((5.0, 5.0, 5.0), 3.2)
    sdf = make_training_sample(shape, dims, kind=GridKind.SDF)
    assert sdf.grid is not None and sdf.grid.kind == GridKind.SDF
    assert sdf.cloud is None and sdf.mode == "ndc"
    udf = make_training_sample(shape, dims, kind=GridKind.UDF)
    assert udf.grid.kind == GridKind.UDF and udf.mode == "undc"
    assert udf.grid.values.min() >= 0.0
    pts = make_training_sample(shape, dims, kind="points", cloud_size=256)
    assert pts.grid is None and pts.cloud.shape == (256, 3)
    assert pts.mode == "undc"


def test_identity_augmentation_is_bit_exact():
    dims = GridDims(9, 9, 9)
    sample = make_training_sample(Sphere((4.0, 4.0, 4.0), 2.6), dims)
    same = augment_sample(sample, 0)
    assert np.array_equal(same.grid.values, sample.grid.values)
    assert np.array_equal(same.gt_signs.inside, sample.gt_signs.inside)
    assert np.array_equal(same.gt_offsets.offsets, sample.gt_offsets.offsets)
    assert edge_equal(same.gt_flags, sample.gt_flags)


def test_sign_inversion_complements_signs_but_not_flags():
    dims = GridDims(9, 9, 9)
    sample = make_training_sample(Sphere((4.0, 4.0, 4.0), 2.6), dims)
    flipped = augment_sample(sample, 48)
    assert np.array_equal(flipped.gt_signs.inside, ~sample.gt_signs.inside)
    assert np.array_equal(flipped.grid.values, -sample.grid.values)
    assert edge_equal(flipped.gt_flags, sample.gt_flags)


def test_all_96_transforms_keep_gt_consistency_and_round_trip():
    dims = GridDims(5, 6, 7)
    sample = make_training_sample(random_scene(8, extent=5.0, margin=1.2), dims)
    for t in range(NUM_TRANSFORMS):
        moved = augment_sample(sample, t)
        assert edge_equal(moved.gt_flags, xor_flags(moved.gt_signs)), t
        back = augment_sample(moved, inverse_id(t))
        assert np.array_equal(back.grid.values, sample.grid.values), t
        assert np.array_equal(back.gt_signs.inside, sample.gt_signs.inside), t
        # mirrored offset components go through 1 - x, which double rounding
        # keeps within one ulp but not bit-exact; everything else is exact
        assert np.allclose(back.gt_offsets.offsets, sample.gt_offsets.offsets,
                           rtol=0.0, atol=1e-15), t
        assert edge_equal(back.gt_flags, sample.gt_flags), t


def owned_edges(dims):
    """The edges some cell owns, those at cells' min corners."""
    return cells_to_edge_field(np.ones((3,) + dims.cell_shape, dtype=bool), dims)


def supervised_edges(net, sample):
    """A head's supervised set on its own lattice: vertices for signs,
    cells for vertex offsets, and for flags the edges as an EdgeField."""
    out = supervised_outputs(net, sample)
    return cells_to_edge_field(out, sample.dims) if net.head == "flag" else out[0]


def test_supervised_outputs_move_with_all_96_transforms():
    """Recomputed from an augmented sample, every grid head's supervised
    set is the transform of the original's. Flag sets are compared on the
    edges that a cell owns in both frames: an axis flip hands the edges on
    a far border plane, which no cell owns, to the near one."""
    dims = GridDims(10, 11, 12)
    scene = random_scene(61, extent=9.0)
    for kind, variants in (("sdf", ("sdf_s", "sdf_v", "sdf_f")), ("udf", ("sdf_v", "sdf_f")),
                           ("occ", ("vox_s", "vox_v", "vox_f"))):
        sample = make_training_sample(scene, dims, kind)
        nets = [grid_net(v) for v in variants]
        assert all(supervised_outputs(net, sample).any() for net in nets), kind
        sets = [supervised_edges(net, sample) for net in nets]
        for t in range(NUM_TRANSFORMS):
            moved = augment_sample(sample, t)
            both = [np.asarray(a) & np.asarray(b) for a, b in zip(
                transform_edge_field(owned_edges(dims), t).axes, owned_edges(moved.dims).axes)]
            for net, before in zip(nets, sets):
                after = supervised_edges(net, moved)
                what = (kind, net.variant, t)
                if net.head == "flag":
                    want = transform_edge_field(before, t)
                    assert all(np.array_equal(w & m, a & m) for w, a, m in
                               zip(want.axes, after.axes, both)), what
                else:
                    assert np.array_equal(transform_vertex_array(before, t), after), what


def test_point_flags_are_supervised_on_the_augmented_clouds_own_cells():
    """The flag head of a point network is supervised on the active cells
    of the cloud it reads, however the sample was transformed."""
    dims = GridDims(12, 13, 14)
    sample = make_training_sample(random_scene(62, extent=11.0), dims, "points", seed=62,
                                  cloud_size=256)
    net = PointNetwork("flag", channels=2)
    for t in range(NUM_TRANSFORMS):
        moved = augment_sample(sample, t)
        assert moved.dims == transformed_dims(dims, t)
        active = cloud_neighbors(moved.cloud, moved.dims).active
        assert np.array_equal(supervised_outputs(net, moved),
                              np.broadcast_to(active, (3,) + active.shape)), t
