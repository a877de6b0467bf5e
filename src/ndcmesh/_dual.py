"""The edge-cell ring and the face assembly of every dual extractor.

`edge_ring` is the one definition of the four cells around an edge (see
the conventions in grids.py); active cells, quads, per-cell constraints
and occupancy masks all read it. A cell owning at least one flagged
edge gets one mesh vertex. Every flagged edge whose four surrounding
cells all exist becomes one quad joining those cells' vertices in ring
order, so the quad normal follows the edge axis; an optional sign grid
reverses faces whose upper endpoint is inside so that normals point
outward.

Determinism: cells are numbered x-fastest (then y, then z) and faces are
emitted axis x, then y, then z, each block in the same memory order.
"""

from __future__ import annotations

import numpy as np

from .grids import EdgeField, SignGrid, VertexOffsetGrid
from .mesh import QuadMesh


def edge_ring(axis: int) -> np.ndarray:
    """(4, 3) offsets from an edge's lower endpoint to the cells around it."""
    b, c = (axis + 1) % 3, (axis + 2) % 3
    ring = np.zeros((4, 3), dtype=np.int64)
    ring[:, b] = (-1, 0, 0, -1)
    ring[:, c] = (-1, -1, 0, 0)
    return ring


def _window(arr: np.ndarray, start, shape) -> np.ndarray:
    return arr[tuple(slice(s, s + n) for s, n in zip(start, shape))]


def interior_edges(axis: int) -> tuple[slice, slice, slice]:
    """Index of the edges along `axis` whose whole ring lies in the grid."""
    sl = [slice(1, -1)] * 3
    sl[axis] = slice(None)
    return tuple(sl)


def ring_cells(cell_arr: np.ndarray, axis: int) -> list[np.ndarray]:
    """Per-cell data around each interior edge along `axis`.

    Four views shaped like `edges[interior_edges(axis)]`: view s holds
    the value of cell p + edge_ring(axis)[s] for edge p.
    """
    shape = [n - 1 for n in cell_arr.shape[:3]]
    shape[axis] += 1
    start = 1 - np.eye(3, dtype=np.int64)[axis]  # interior edges start at 1 across the axis
    return [_window(cell_arr, start + r, shape) for r in edge_ring(axis)]


def cell_edges(edge_arr: np.ndarray, axis: int, cell_shape) -> list[np.ndarray]:
    """Per-edge data on each cell's four edges along `axis`.

    Four views shaped `cell_shape`: view s holds the value of edge
    q - edge_ring(axis)[s] for cell q.
    """
    return [_window(edge_arr, -r, cell_shape) for r in edge_ring(axis)]


def active_cell_mask(flags: EdgeField) -> np.ndarray:
    """True for cells with at least one of their 12 edges flagged."""
    shape = flags.dims.cell_shape
    act = np.zeros(shape, dtype=bool)
    for a in range(3):
        for view in cell_edges(flags.axis(a).astype(bool), a, shape):
            act |= view
    return act


def _number_cells(active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Assign vertex ids to active cells in x-fastest scan order.

    Returns (ids, cells) where ids maps cell index -> vertex id (-1 if
    inactive) and cells is the (V, 3) array of active cell coordinates in
    emission order.
    """
    ids = np.full(active.shape, -1, dtype=np.int64)
    zz, yy, xx = np.nonzero(active.transpose(2, 1, 0))
    ids[xx, yy, zz] = np.arange(len(xx))
    cells = np.stack([xx, yy, zz], axis=1)
    return ids, cells


def assemble_dual_mesh(
    flags: EdgeField,
    offsets: VertexOffsetGrid | np.ndarray,
    flip_inside: SignGrid | None = None,
) -> QuadMesh:
    off = offsets.offsets if isinstance(offsets, VertexOffsetGrid) else np.asarray(offsets)
    active = active_cell_mask(flags)
    ids, cells = _number_cells(active)
    vertices = cells.astype(np.float64) + off[cells[:, 0], cells[:, 1], cells[:, 2]]

    quad_blocks = []
    for a in range(3):
        block = flags.axis(a).astype(bool)[interior_edges(a)]
        # edge coordinates in x-fastest order within this axis block
        zz, yy, xx = np.nonzero(block.transpose(2, 1, 0))
        if len(xx) == 0:
            continue
        quad = np.stack([ring[xx, yy, zz] for ring in ring_cells(ids, a)], axis=1)

        if flip_inside is not None:
            # the block starts one vertex in across the axis, and the
            # upper endpoint is one vertex on along it
            flip = flip_inside.inside[xx + 1, yy + 1, zz + 1]
            quad[flip] = quad[flip, ::-1]
        quad_blocks.append(quad)

    quads = np.concatenate(quad_blocks, axis=0) if quad_blocks else np.empty((0, 4), np.int64)
    return QuadMesh(vertices.reshape(-1, 3), quads)
