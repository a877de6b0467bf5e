"""Mesh containers, edge census, quad splitting, area helpers."""

import numpy as np
import pytest

from ndcmesh.errors import NonFiniteValues, ShapeError
from ndcmesh.grids import EdgeField, GridDims, SignGrid, VertexOffsetGrid
from ndcmesh.mesh import (QuadMesh, TriMesh, edge_topology_stats, mesh_edges,
                          quad_areas, split_quads, triangle_areas)
from ndcmesh.ndc import ndc_extract, undc_extract


def single_quad() -> QuadMesh:
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    return QuadMesh(verts, np.array([[0, 1, 2, 3]]))


def test_meshes_reject_non_finite_vertices():
    for bad in (np.nan, np.inf, -np.inf):
        verts = single_quad().vertices.copy()
        verts[2, 1] = bad
        with pytest.raises(NonFiniteValues):
            QuadMesh(verts, np.array([[0, 1, 2, 3]]))
        with pytest.raises(NonFiniteValues):
            TriMesh(verts, np.array([[0, 1, 2]]))


def large_sheet() -> QuadMesh:
    dims = GridDims(35, 35, 4)
    flags = EdgeField.full(dims, False, bool)
    flags.z[:, :, 1] = True
    offs = VertexOffsetGrid(dims, np.full(dims.cell_shape + (3,), 0.5))
    return undc_extract(flags, offs)


def test_out_of_range_indices_are_rejected():
    verts = np.zeros((3, 3))
    with pytest.raises(ShapeError):
        TriMesh(verts, np.array([[0, 1, 3]]))
    with pytest.raises(ShapeError):
        QuadMesh(verts, np.array([[0, 1, 2, 3]]))


def test_negative_indices_are_rejected():
    # numpy would wrap -1 to the last vertex
    verts = np.zeros((4, 3))
    with pytest.raises(ShapeError):
        TriMesh(verts, np.array([[0, 1, -1]]))
    with pytest.raises(ShapeError):
        QuadMesh(verts, np.array([[0, 1, 2, -4]]))


def test_single_quad_has_four_boundary_edges():
    stats = edge_topology_stats(single_quad())
    assert stats.edge_count == 4
    assert stats.boundary == 4
    assert stats.manifold == 0
    assert stats.fractions["boundary"] == 1.0


def test_closed_cuboid_has_twelve_manifold_edges():
    dims = GridDims(5, 5, 5)
    inside = np.zeros(dims.vertex_shape, dtype=bool)
    inside[2, 2, 2] = True
    offs = VertexOffsetGrid(dims, np.full(dims.cell_shape + (3,), 0.5))
    mesh = ndc_extract(SignGrid(dims, inside), offs)
    stats = edge_topology_stats(mesh)
    assert stats.edge_count == 12
    assert stats.boundary == 0
    assert stats.manifold == 12
    assert stats.nonmanifold3 == 0
    assert stats.nonmanifold4 == 0


def test_edge_census_counts_sum_to_the_edge_total():
    mesh = large_sheet()
    stats = edge_topology_stats(mesh)
    total = stats.boundary + stats.manifold + stats.nonmanifold3 + stats.nonmanifold4
    assert total == stats.edge_count
    assert stats.edge_count == len(np.unique(mesh_edges(mesh), axis=0))


def test_splitting_an_empty_mesh_returns_an_empty_mesh():
    empty = QuadMesh(np.zeros((0, 3)), np.zeros((0, 4), dtype=np.int64))
    tri = split_quads(empty, seed=3)
    assert len(tri.tris) == 0


def test_one_quad_splits_into_two_triangles_over_the_same_corners():
    for seed in range(4):
        tri = split_quads(single_quad(), seed=seed)
        assert len(tri.tris) == 2
        assert set(tri.tris.ravel()) == {0, 1, 2, 3}
        # both triangles keep the quad's counter-clockwise orientation
        normals = np.cross(tri.vertices[tri.tris[:, 1]] - tri.vertices[tri.tris[:, 0]],
                           tri.vertices[tri.tris[:, 2]] - tri.vertices[tri.tris[:, 0]])
        assert np.all(normals[:, 2] > 0)


def test_split_is_deterministic_per_seed_and_varied_across_seeds():
    mesh = large_sheet()
    assert len(mesh.quads) >= 1000
    a = split_quads(mesh, seed=11)
    b = split_quads(mesh, seed=11)
    assert np.array_equal(a.tris, b.tris)
    c = split_quads(mesh, seed=12)
    differing = (a.tris[0::2] != c.tris[0::2]).any(axis=1)
    n = len(mesh.quads)
    # diagonal flips are fair coin flips; allow 3 sigma around n/2
    sigma = 0.5 * np.sqrt(n)
    assert abs(differing.sum() - 0.5 * n) < 3 * sigma


def test_split_preserves_planar_quad_area():
    mesh = large_sheet()
    want = quad_areas(mesh.vertices, mesh.quads).sum()
    for seed in (0, 1, 2):
        tri = split_quads(mesh, seed=seed)
        got = triangle_areas(tri.vertices, tri.tris).sum()
        assert got == pytest.approx(want, abs=1e-9)


def test_triangle_area_matches_the_closed_form():
    verts = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
    areas = triangle_areas(verts, np.array([[0, 1, 2]]))
    assert areas[0] == pytest.approx(6.0, abs=1e-12)
