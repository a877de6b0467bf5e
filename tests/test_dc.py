"""Classical dual contouring: face rule, vertex placement, both normal modes."""

import numpy as np

from ndcmesh._dual import neighbor_rows
from ndcmesh.csg import Box, Sphere, csg_normal_fn
from ndcmesh.datagen import sample_csg_grid
from ndcmesh.dc import (_cell_constraints, _gather_neighborhood, _projected_edge_anchors,
                        dc_extract, dc_fields)
from ndcmesh.fileio import as_tri_mesh
from ndcmesh.grids import (GridDims, GridKind, ScalarGrid,
                           edge_crossing_normals, edge_crossings_linear)
from ndcmesh.mc import mc_extract
from ndcmesh.mesh import edge_topology_stats
from ndcmesh.metrics import evaluate_mesh
from ndcmesh.rng import rng_for


def rand_rot(rng) -> np.ndarray:
    """Uniform random rotation from a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def box_corners(box: Box) -> np.ndarray:
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                      for sz in (-1, 1)], dtype=np.float64)
    rot = np.asarray(box.rotation, dtype=np.float64)
    return np.asarray(box.center) + (signs * np.asarray(box.half_extents)) @ rot.T


def tri_of(quad_mesh):
    return as_tri_mesh(quad_mesh.vertices, [np.asarray(q) for q in quad_mesh.quads])


def interior_xor_quad_count(inside: np.ndarray) -> int:
    """Loop oracle: crossing edges whose four surrounding cells all exist."""
    count = 0
    m, n, k = inside.shape
    for axis in range(3):
        stop = [m, n, k]
        stop[axis] -= 1
        for i in range(stop[0]):
            for j in range(stop[1]):
                for l in range(stop[2]):
                    nb = [i, j, l]
                    nb[axis] += 1
                    if inside[i, j, l] == inside[tuple(nb)]:
                        continue
                    pos = (i, j, l)
                    if any(pos[a] in (0, inside.shape[a] - 1)
                           for a in range(3) if a != axis):
                        continue
                    count += 1
    return count


def test_all_positive_grid_gives_empty_mesh():
    grid = ScalarGrid(GridDims(5, 5, 5), GridKind.SDF, np.ones((5, 5, 5)))
    mesh = dc_extract(grid)
    assert len(mesh.quads) == 0


def test_quad_count_matches_interior_crossings_for_every_corner_pattern():
    dims = GridDims(3, 3, 3)
    for case in range(256):
        vals = np.ones(dims.vertex_shape)
        for c in range(8):
            if (case >> c) & 1:
                vals[c & 1, (c >> 1) & 1, (c >> 2) & 1] = -1.0
        mesh = dc_extract(ScalarGrid(dims, GridKind.SDF, vals))
        assert len(mesh.quads) == interior_xor_quad_count(vals < 0), case


def test_exact_plane_vertices_lie_on_the_plane():
    n = np.array([0.36, -0.48, 0.8])
    n /= np.linalg.norm(n)
    coords = np.stack(np.meshgrid(*[np.arange(17.0)] * 3, indexing="ij"), axis=-1)
    grid = ScalarGrid(GridDims(17, 17, 17), GridKind.SDF, (coords - 8.2) @ n)

    def plane_normal(p):
        return np.broadcast_to(n, p.shape).copy()

    mesh = dc_extract(grid, normal_source=plane_normal)
    assert len(mesh.quads) > 0
    off_plane = np.abs((mesh.vertices - 8.2) @ n)
    assert off_plane.max() < 1e-6


def test_exact_sphere_vertices_stay_near_the_radius():
    sphere = Sphere(np.full(3, 16.0), 12.8)
    grid = sample_csg_grid(sphere, GridDims(33, 33, 33))
    mesh = dc_extract(grid, normal_source=csg_normal_fn(sphere))
    radial = np.linalg.norm(mesh.vertices - 16.0, axis=1)
    assert np.abs(radial - 12.8).max() < 0.05
    stats = edge_topology_stats(mesh)
    assert stats.boundary == 0


def test_exact_axis_box_recovers_all_eight_corners():
    box = Box(np.array([16.3, 15.7, 16.1]), np.array([5.2, 6.4, 4.8]))
    grid = sample_csg_grid(box, GridDims(33, 33, 33))
    mesh = dc_extract(grid, normal_source=csg_normal_fn(box))
    for corner in box_corners(box):
        dist = np.linalg.norm(mesh.vertices - corner, axis=1).min()
        assert dist < 1e-3


def test_exact_rotated_box_recovers_all_eight_corners():
    rng = rng_for(555, "corner-check")
    for _ in range(3):
        rot = rand_rot(rng)
        box = Box(np.full(3, 16.0), np.array([4.2, 5.4, 6.6]), rot)
        grid = sample_csg_grid(box, GridDims(33, 33, 33))
        mesh = dc_extract(grid, normal_source=csg_normal_fn(box))
        for corner in box_corners(box):
            dist = np.linalg.norm(mesh.vertices - corner, axis=1).min()
            assert dist < 0.05


def test_estimated_normals_track_a_smooth_surface():
    sphere = Sphere(np.full(3, 16.0), 12.8)
    grid = sample_csg_grid(sphere, GridDims(33, 33, 33))
    mesh = dc_extract(grid)  # default estimated mode, no callable needed
    radial = np.linalg.norm(mesh.vertices - 16.0, axis=1)
    assert np.abs(radial - 12.8).max() < 0.05


def test_quads_wind_outward_on_a_sphere():
    sphere = Sphere(np.full(3, 16.0), 12.8)
    grid = sample_csg_grid(sphere, GridDims(33, 33, 33))
    for mesh in (dc_extract(grid, normal_source=csg_normal_fn(sphere)),
                 dc_extract(grid)):
        v = mesh.vertices[mesh.quads]
        n = np.cross(v[:, 2] - v[:, 0], v[:, 3] - v[:, 1])
        outward = np.einsum("ij,ij->i", n, v.mean(axis=1) - 16.0)
        assert np.all(outward > 0)


def test_dc_and_mc_agree_on_smooth_fields():
    shapes = [Sphere(np.full(3, 16.0), 12.8),
              Box(np.full(3, 16.0), np.array([6.1, 7.3, 5.2]),
                  rand_rot(rng_for(3, "x")))]
    for shape in shapes:
        grid = sample_csg_grid(shape, GridDims(33, 33, 33))
        dc_mesh = tri_of(dc_extract(grid, normal_source=csg_normal_fn(shape)))
        mc_mesh = mc_extract(grid)
        report = evaluate_mesh(dc_mesh, mc_mesh, samples=20000, seed=5)
        assert report.cd < 0.2


def test_dc_fields_offsets_keep_the_in_cell_contract():
    sphere = Sphere(np.full(3, 8.0), 5.1)
    grid = sample_csg_grid(sphere, GridDims(17, 17, 17))
    signs, offsets = dc_fields(grid, normal_source=csg_normal_fn(sphere))
    assert offsets.offsets.min() >= 0.0
    assert offsets.offsets.max() <= 1.0
    assert signs.inside.shape == (17, 17, 17)
    # inactive cells stay centered
    far = offsets.offsets[0, 0, 0]
    assert np.allclose(far, 0.5)


def reference_constraints(crossings, normals, anchors=None):
    """Per-cell loop oracle of the constraint table: the 12 edges of every
    cell with a crossing, cells in C order, slot 4 * axis + 2 * (offset
    along the lower other axis) + (offset along the higher one)."""
    rows = []
    for cell in np.ndindex(crossings.dims.cell_shape):
        valid = np.zeros(12, dtype=bool)
        pts = np.zeros((12, 3))
        nrm = np.zeros((12, 3))
        for axis in range(3):
            low, high = sorted({0, 1, 2} - {axis})
            for k, (dl, dh) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
                slot = 4 * axis + k
                offset = np.zeros(3, dtype=np.int64)
                offset[low], offset[high] = dl, dh
                edge = tuple(np.add(cell, offset))
                t = crossings.axis(axis)[edge]
                valid[slot] = not np.isnan(t)
                if anchors is None:
                    pts[slot] = offset
                    pts[slot, axis] = np.nan_to_num(t)
                else:
                    pts[slot] = np.nan_to_num(anchors.axis(axis)[edge]) - np.array(cell)
                nrm[slot] = np.nan_to_num(normals.axis(axis)[edge])
        if valid.any():
            rows.append((cell, valid, pts, nrm))
    return tuple(np.array(col) for col in zip(*rows))


def reference_neighborhood(cells, valid, pts, nrm):
    """27-pass oracle of the neighborhood gather over dense per-cell
    arrays shaped (cells..., 12[, 3])."""
    shape = valid.shape[:3]
    pp = np.zeros((len(cells), 27 * 12, 3))
    nn = np.zeros((len(cells), 27 * 12, 3))
    block = 0
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                shift = np.array((dx, dy, dz), dtype=np.float64)
                nb = cells + shift.astype(np.int64)
                ok = np.all((nb >= 0) & (nb < shape), axis=1)
                idx = tuple(nb[ok].T)
                sl = slice(block * 12, (block + 1) * 12)
                keep = valid[idx]
                pp[ok, sl] = np.where(keep[..., None], pts[idx] + shift, 0.0)
                nn[ok, sl] = np.where(keep[..., None], nrm[idx], 0.0)
                block += 1
    return nn, pp


def constraint_inputs():
    """Crossings, normals and anchors (or None) of box scenes, whose
    flats and sharp edges leave rank-deficient cells, and of grids two
    vertices wide along some axes."""
    box = Box(np.array([5.3, 4.7, 5.1]), np.array([2.2, 3.4, 1.8]))
    rotated = Box(np.full(3, 5.0), np.array([2.2, 1.4, 2.6]), rand_rot(rng_for(4, "x")))
    for shape in (box, rotated):
        grid = sample_csg_grid(shape, GridDims(11, 11, 11))
        crossings = edge_crossings_linear(grid)
        yield crossings, edge_crossing_normals(grid, crossings)[0], None
        anchors, normals = _projected_edge_anchors(grid, crossings, csg_normal_fn(shape), 0.0)
        yield crossings, normals, anchors
    rng = rng_for(5, "two-wide")
    for dims in ((2, 5, 7), (6, 2, 2), (2, 2, 2), (2, 9, 2)):
        grid = ScalarGrid(GridDims(*dims), GridKind.SDF, rng.normal(size=dims))
        crossings = edge_crossings_linear(grid)
        yield crossings, edge_crossing_normals(grid, crossings)[0], None
        anchors, normals = _projected_edge_anchors(
            grid, crossings, lambda p: np.sin(p) + (0.3, -0.5, 0.8), 0.0)
        yield crossings, normals, anchors


def test_constraint_table_matches_the_per_cell_reference():
    for crossings, normals, anchors in constraint_inputs():
        table = _cell_constraints(crossings, normals, anchors)
        want = reference_constraints(crossings, normals, anchors)
        assert len(want[0]) > 0
        for got, ref in zip(table, want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_neighborhood_gather_matches_the_27_pass_reference():
    for crossings, normals, anchors in constraint_inputs():
        table = cells, valid, pts, nrm = _cell_constraints(crossings, normals, anchors)
        shape = crossings.dims.cell_shape
        dense = [np.zeros(shape + col.shape[1:], dtype=col.dtype) for col in (valid, pts, nrm)]
        for arr, col in zip(dense, (valid, pts, nrm)):
            arr[tuple(cells.T)] = col
        rows = np.arange(len(cells))[::-1]
        got = _gather_neighborhood(neighbor_rows(rows, cells, shape), table)
        want = reference_neighborhood(cells[rows], *dense)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
