"""Geometry and lattice helpers that only the tests use."""

import numpy as np

from ndcmesh.grids import GridDims, GridKind, ScalarGrid
from ndcmesh.mesh import TriMesh
from ndcmesh.transforms import (NUM_TRANSFORMS, _apply_spatial, spatial_parts,
                                transform_scalar_grid)


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


def quad_areas(vertices: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """Planar-quad area via the two triangles of one diagonal."""
    a, b, c, d = (vertices[quads[:, i]] for i in range(4))
    t0 = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    t1 = 0.5 * np.linalg.norm(np.cross(c - a, d - a), axis=1)
    return t0 + t1


def transform_vertex_array(arr: np.ndarray, transform_id: int) -> np.ndarray:
    """Per-vertex scalar or bool data (also works on the cell lattice)."""
    perm, flips, _ = spatial_parts(transform_id)
    return _apply_spatial(arr, perm, flips)


def inverse_id(transform_id: int) -> int:
    """The transform id that undoes `transform_id`, found by searching the
    96: the one that takes a grid of distinct signed values, with three
    distinct axis lengths, back to itself."""
    dims = GridDims(2, 3, 4)
    grid = ScalarGrid(dims, GridKind.SDF, np.arange(1.0, 25.0).reshape(dims.vertex_shape))
    moved = transform_scalar_grid(grid, transform_id)
    return next(u for u in range(NUM_TRANSFORMS)
                if np.array_equal(transform_scalar_grid(moved, u).values, grid.values))
