"""Marching-cubes baseline: table consistency, closure, vertex placement."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from ndcmesh.csg import Sphere
from ndcmesh.datagen import sample_csg_grid
from ndcmesh.errors import InvalidKind
from ndcmesh.grids import GridDims, GridKind, ScalarGrid
from ndcmesh.mc import CORNER_OFFSETS, mc_extract
from ndcmesh.mc_tables import EDGE_CORNERS, TRI_TABLE
from ndcmesh.mesh import TriMesh, edge_topology_stats, triangle_areas
from ndcmesh.metrics import sample_surface
from ndcmesh.rng import rng_for


def reference_mc(grid: ScalarGrid, iso: float = 0.0) -> TriMesh:
    """Cell-by-cell marching cubes with a dict of global edge keys.

    Vertices are numbered as cells (x-fastest), then each cell's cut
    edges in ascending order, first reach them.
    """
    v = grid.values - iso
    m, n, k = v.shape
    verts, tris, ids = [], [], {}
    for ck in range(k - 1):
        for cj in range(n - 1):
            for ci in range(m - 1):
                case = 0
                for c, off in enumerate(CORNER_OFFSETS):
                    if v[ci + off[0], cj + off[1], ck + off[2]] < 0:
                        case |= 1 << c
                row = TRI_TABLE[case]
                local = {}
                for e in sorted(set(int(x) for x in row if x >= 0)):
                    o1, o2 = (CORNER_OFFSETS[c] for c in EDGE_CORNERS[e])
                    axis = int(np.nonzero(o1 != o2)[0][0])
                    lo = (ci, cj, ck) + np.minimum(o1, o2)
                    key = (axis, *map(int, lo))
                    if key not in ids:
                        hi = lo.copy()
                        hi[axis] += 1
                        va, vb = v[tuple(lo)], v[tuple(hi)]
                        pos = lo.astype(np.float64)
                        pos[axis] += va / (va - vb)
                        ids[key] = len(verts)
                        verts.append(pos)
                    local[e] = ids[key]
                for s in range(0, 15, 3):
                    if row[s] < 0:
                        break
                    tris.append((local[row[s]], local[row[s + 2]], local[row[s + 1]]))
    return TriMesh(np.asarray(verts, dtype=np.float64).reshape(-1, 3),
                   np.asarray(tris, dtype=np.int64).reshape(-1, 3))


def padded_cell_grid(case: int) -> ScalarGrid:
    """4^3-vertex grid, all +1 except the center cell's corners per case bits."""
    vals = np.ones((4, 4, 4))
    for c, (ox, oy, oz) in enumerate(CORNER_OFFSETS):
        if (case >> c) & 1:
            vals[1 + ox, 1 + oy, 1 + oz] = -1.0
    return ScalarGrid(GridDims(4, 4, 4), GridKind.SDF, vals)


def test_all_positive_grid_yields_empty_mesh():
    grid = ScalarGrid(GridDims(5, 5, 5), GridKind.SDF, np.ones((5, 5, 5)))
    mesh = mc_extract(grid)
    assert len(mesh.tris) == 0
    assert len(mesh.vertices) == 0


def test_occupancy_grid_is_rejected():
    occ = np.zeros((3, 3, 3))
    occ[:2, :2, :2] = 1.0
    grid = ScalarGrid(GridDims(3, 3, 3), GridKind.OCC, occ)
    with pytest.raises(InvalidKind):
        mc_extract(grid)


def test_single_inside_vertex_gives_a_closed_eight_triangle_diamond():
    vals = np.ones((5, 5, 5))
    vals[2, 2, 2] = -1.0
    mesh = mc_extract(ScalarGrid(GridDims(5, 5, 5), GridKind.SDF, vals))
    assert len(mesh.tris) == 8
    assert len(mesh.vertices) == 6
    # with values -1/+1 every crossing interpolates to the edge midpoint
    want = {(1.5, 2.0, 2.0), (2.5, 2.0, 2.0), (2.0, 1.5, 2.0),
            (2.0, 2.5, 2.0), (2.0, 2.0, 1.5), (2.0, 2.0, 2.5)}
    got = {tuple(v) for v in mesh.vertices}
    assert got == want
    stats = edge_topology_stats(mesh)
    assert stats.boundary == 0
    assert stats.manifold == stats.edge_count == 12


def test_every_padded_corner_pattern_extracts_a_closed_manifold():
    # exhaustive check of the 256-entry table: any sign pattern on one
    # interior cell, padded by outside vertices, must close up with the
    # neighboring cells' triangulations
    for case in range(256):
        mesh = mc_extract(padded_cell_grid(case))
        if case == 0:
            assert len(mesh.tris) == 0
            continue
        assert len(mesh.tris) > 0, case
        stats = edge_topology_stats(mesh)
        assert stats.boundary == 0, case
        assert stats.manifold == stats.edge_count, case


def test_triangle_table_uses_exactly_the_edges_each_case_cuts():
    for case in range(256):
        used = {int(e) for e in TRI_TABLE[case] if e >= 0}
        cut = {e for e, (c1, c2) in enumerate(EDGE_CORNERS)
               if ((case >> c1) & 1) != ((case >> c2) & 1)}
        assert used == cut, case


def test_extraction_matches_the_cell_by_cell_reference():
    rng = rng_for(12, "mc-reference")
    # single cells, then larger random grids
    fields = [rng.normal(size=(2, 2, 2)) for _ in range(20)]
    fields += [rng.normal(size=shape) for shape in ((5, 6, 7), (9, 4, 3), (2, 6, 5))]
    # exact zeros at lattice points count as outside
    fields += [rng.integers(-1, 2, size=(6, 5, 7)).astype(np.float64) for _ in range(3)]
    # all inside, all outside, all at the iso level
    fields += [np.full((4, 5, 3), -1.0), np.full((4, 5, 3), 1.0), np.zeros((3, 3, 3))]
    sphere = Sphere(np.full(3, 5.0), 3.7)
    fields.append(sample_csg_grid(sphere, GridDims(11, 11, 11)).values)
    for vals in fields:
        grid = ScalarGrid(GridDims(*vals.shape), GridKind.SDF, vals)
        got, want = mc_extract(grid), reference_mc(grid)
        assert got.vertices.dtype == want.vertices.dtype
        assert got.tris.dtype == want.tris.dtype
        assert np.array_equal(got.vertices, want.vertices)
        assert np.array_equal(got.tris, want.tris)


def test_vertices_sit_on_linear_edge_crossings():
    sphere = Sphere(np.full(3, 8.0), 5.3)
    grid = sample_csg_grid(sphere, GridDims(17, 17, 17))
    mesh = mc_extract(grid)
    v = grid.values
    for pos in mesh.vertices:
        frac = pos - np.floor(pos)
        axes = np.nonzero(frac > 0)[0]
        assert len(axes) == 1  # on a lattice edge, not inside a cell
        axis = axes[0]
        base = np.floor(pos).astype(int)
        nb = base.copy()
        nb[axis] += 1
        va = v[tuple(base)]
        vb = v[tuple(nb)]
        assert np.sign(va) != np.sign(vb)
        assert frac[axis] == pytest.approx(va / (va - vb), abs=1e-12)


def test_triangles_wind_outward_on_a_sphere():
    sphere = Sphere(np.full(3, 16.0), 12.8)
    mesh = mc_extract(sample_csg_grid(sphere, GridDims(33, 33, 33)))
    tv = mesh.vertices[mesh.tris]
    n = np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])
    outward = np.einsum("ij,ij->i", n, tv.mean(axis=1) - 16.0)
    assert np.all(outward > 0)


def test_sphere_mesh_is_closed_and_matches_the_analytic_surface():
    center = np.full(3, 16.0)
    radius = 12.8
    mesh = mc_extract(sample_csg_grid(Sphere(center, radius), GridDims(33, 33, 33)))
    stats = edge_topology_stats(mesh)
    assert stats.boundary == 0
    assert stats.manifold == stats.edge_count
    assert triangle_areas(mesh.vertices, mesh.tris).min() >= 0.0

    # squared-sum chamfer against the analytic sphere: the mesh-to-sphere
    # leg is exact, the sphere-to-mesh leg uses dense surface samples
    surf = sample_surface(mesh, 20000, seed=3)
    d_mesh = np.abs(np.linalg.norm(surf.points - center, axis=1) - radius)
    rng = rng_for(4, "sphere-oracle")
    dirs = rng.normal(size=(20000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    d_sphere, _ = cKDTree(surf.points).query(center + radius * dirs)
    cd = float(np.mean(d_mesh ** 2) + np.mean(d_sphere ** 2))
    assert cd < 0.1
