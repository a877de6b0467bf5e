"""Mesh extraction from predicted sign/flag/offset fields.

Two formulations share one assembler: the signed one derives crossing
flags as the xor of endpoint signs, the unsigned one consumes crossing
flags directly and therefore also handles open and non-orientable
output. Faces use a fixed per-axis winding (counter-clockwise viewed
from the positive edge axis) in both paths so that the unsigned
formulation applied to xor flags reproduces the signed one bit for bit.
"""

from __future__ import annotations

import numpy as np

from ._dual import (active_cell_mask, assemble_dual_mesh, cell_edges, edge_ring, interior_edges,
                    ring_cells)
from .grids import EdgeField, SignGrid, VertexOffsetGrid, xor_flags
from .mesh import QuadMesh


def ndc_extract(signs: SignGrid, offsets: VertexOffsetGrid) -> QuadMesh:
    """Dual mesh from signs plus per-cell vertex offsets."""
    return assemble_dual_mesh(xor_flags(signs), offsets)


def undc_extract(flags: EdgeField, offsets: VertexOffsetGrid) -> QuadMesh:
    """Dual mesh from crossing flags alone; output may be open."""
    return assemble_dual_mesh(flags, offsets)


def mesh_cells(field: SignGrid | EdgeField) -> np.ndarray:
    """The cells whose vertex offsets a mesh from `field` reads: those of
    ndc_extract for signs, and of undc_extract for flags, with or without
    close_holes. close_holes adds no cell: it sets a flag only when 3 of
    its quad's 4 mesh edges have a face, and each such edge joins two of
    the quad's cells through a flagged edge they share, so all four cells
    have a vertex already."""
    return active_cell_mask(xor_flags(field) if isinstance(field, SignGrid) else field)


def _face_counts(flags: EdgeField) -> list[np.ndarray]:
    """Faces incident to each dual mesh edge, one int8 cell array per axis.

    counts[d][q] is the number of faces on the mesh edge between cells
    q - e_d and q: the flagged edges of their shared cell face, which
    are the edges `cell_edges` gives cell q at the ring slots with
    offset 0 along d. The slice q_d = 0 has no lower cell and is 0.
    Border rule: a flag on the grid's boundary plane makes no quad but
    is still an edge of its cell face, so it counts as the face beyond
    the border, and a surface cut by the border does not read as a hole.
    """
    shape = flags.dims.cell_shape
    counts = []
    for d in range(3):
        cd = np.zeros(shape, dtype=np.int8)
        for a in range(3):
            if a != d:
                for r, view in zip(edge_ring(a), cell_edges(flags.axis(a), a, shape)):
                    if r[d] == 0:
                        cd += view
        cd[(slice(None),) * d + (0,)] = 0
        counts.append(cd)
    return counts


def close_holes(flags: EdgeField, max_passes: int = 3) -> EdgeField:
    """Flip false interior flags whose quad would mend a hole.

    A candidate is flipped when at least 3 of its quad's 4 mesh edges are
    currently boundary, that is, have exactly one incident face. The
    mesh edge between consecutive ring cells r[s - 1] and r[s] is read
    from `_face_counts` at the upper of the two cells along the axis
    where they differ, and by the border rule there a flag on the grid's
    boundary plane counts as a face. Adding the quad converts those
    edges to interior. Each pass evaluates every candidate against the
    same snapshot, then applies all flips at once; passes repeat to a
    fixpoint, bounded by max_passes. Flags whose ring would fall outside
    the cell lattice are never touched.
    """
    out = flags.copy()
    for _ in range(max_passes):
        single = [c == 1 for c in _face_counts(out)]
        flips = []
        for a in range(3):
            ring = edge_ring(a)
            candidates = ~out.axis(a)[interior_edges(a)].astype(bool)
            boundary = np.zeros(candidates.shape, dtype=np.int8)
            for s in range(4):
                # the pair differs by one unit along one axis d
                step = ring[s] - ring[s - 1]
                d = int(np.flatnonzero(step)[0])
                upper = s if step[d] > 0 else s - 1
                boundary += ring_cells(single[d], a)[upper]
            flips.append(candidates & (boundary >= 3))
        if not any(f.any() for f in flips):
            break
        for a, f in enumerate(flips):
            out.axis(a)[interior_edges(a)] |= f
    return out
