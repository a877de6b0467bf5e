"""Marching cubes over a sampled scalar field (the classic 256-case table).

Only TRI_TABLE is kept: the edges a cell case cuts are exactly the edges
its triangles use. Vertices are deduplicated through global edge keys,
so watertight fields produce watertight triangle meshes, and numbered in
the order in which cells (x-fastest), then each cell's local edges in
ascending order, first use them. Winding is chosen so triangle normals
point outward (toward positive field values).
"""

from __future__ import annotations

import numpy as np

from .grids import ScalarGrid, require_sdf
from .mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE
from .mesh import TriMesh

# Per local edge: (axis, base corner offset) of the global lattice edge.
_EDGE_AXIS = np.empty(12, dtype=np.int64)
_EDGE_BASE = np.empty((12, 3), dtype=np.int64)
for _e in range(12):
    _c1, _c2 = EDGE_CORNERS[_e]
    _o1, _o2 = CORNER_OFFSETS[_c1], CORNER_OFFSETS[_c2]
    _EDGE_AXIS[_e] = int(np.nonzero(_o1 != _o2)[0][0])
    _EDGE_BASE[_e] = np.minimum(_o1, _o2)

# Per case: which local edges its triangles use, and its five triangle slots.
_CASE_EDGES = np.zeros((256, 12), dtype=bool)
_rows, _cols = np.nonzero(TRI_TABLE >= 0)
_CASE_EDGES[_rows, TRI_TABLE[_rows, _cols]] = True
_CASE_TRIS = TRI_TABLE[:, :15].reshape(256, 5, 3)


def mc_extract(grid: ScalarGrid, iso: float = 0.0) -> TriMesh:
    """Triangulate the iso-surface of an SDF grid."""
    require_sdf(grid, iso)
    v = grid.values - iso
    inside = v < 0

    m, n, k = grid.dims.vertex_shape
    index = np.zeros((m - 1, n - 1, k - 1), dtype=np.int32)
    for c, (ox, oy, oz) in enumerate(CORNER_OFFSETS):
        corner_in = inside[ox : ox + m - 1, oy : oy + n - 1, oz : oz + k - 1]
        index |= corner_in.astype(np.int32) << np.int32(c)

    active = (index != 0) & (index != 255)
    zz, yy, xx = np.nonzero(active.transpose(2, 1, 0))
    cells = np.stack([xx, yy, zz], axis=1)
    case = index[xx, yy, zz]

    # every (cell, local edge) a triangle uses, cell by cell in edge order
    ci, ce = np.nonzero(_CASE_EDGES[case])
    base = cells[ci] + _EDGE_BASE[ce]
    keys = np.ravel_multi_index((_EDGE_AXIS[ce], *base.T), (3, m, n, k))
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # number vertices in first-use order
    vid = np.empty(len(uniq), dtype=np.int64)
    vid[order] = np.arange(len(uniq))
    local_vid = np.full((len(cells), 12), -1, dtype=np.int64)
    local_vid[ci, ce] = vid[inverse]

    axis, *lower = np.unravel_index(uniq[order], (3, m, n, k))
    lower = np.stack(lower, axis=1)
    unit = np.eye(3, dtype=np.int64)[axis]
    va = v[tuple(lower.T)]
    vb = v[tuple((lower + unit).T)]
    vertices = lower + unit * (va / (va - vb))[:, None]

    rows = _CASE_TRIS[case]
    ti, ts = np.nonzero(rows[:, :, 0] >= 0)
    tris = np.take_along_axis(local_vid[ti], rows[ti, ts], axis=1)
    # reversed table order so normals face the positive side
    return TriMesh(vertices.reshape(-1, 3), tris[:, [0, 2, 1]].reshape(-1, 3))
