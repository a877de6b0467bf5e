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

from ._dual import assemble_dual_mesh
from .grids import EdgeField, SignGrid, VertexOffsetGrid, xor_flags
from .mesh import QuadMesh


def ndc_extract(signs: SignGrid, offsets: VertexOffsetGrid) -> QuadMesh:
    """Dual mesh from signs plus per-cell vertex offsets."""
    return assemble_dual_mesh(xor_flags(signs), offsets)


def undc_extract(flags: EdgeField, offsets: VertexOffsetGrid) -> QuadMesh:
    """Dual mesh from crossing flags alone; output may be open."""
    return assemble_dual_mesh(flags, offsets)


def _face_counts(flags: EdgeField) -> list[np.ndarray]:
    """Faces incident to each dual mesh edge.

    The mesh edge between cells adjacent along axis d (indexed by the
    lower cell) collects one face per flagged grid edge of their shared
    cell face.
    """
    dims = flags.dims
    cells = dims.cell_shape
    counts = []
    for d in range(3):
        e, f = (d + 1) % 3, (d + 2) % 3
        fe = np.moveaxis(flags.axis(e).astype(np.int32), (d, e, f), (0, 1, 2))
        ff = np.moveaxis(flags.axis(f).astype(np.int32), (d, e, f), (0, 1, 2))
        p, q, r = cells[d], cells[e], cells[f]
        cd = (
            fe[1:p, 0:q, 0:r]
            + fe[1:p, 0:q, 1 : r + 1]
            + ff[1:p, 0:q, 0:r]
            + ff[1:p, 1 : q + 1, 0:r]
        )
        counts.append(np.moveaxis(cd, (0, 1, 2), (d, e, f)))
    return counts


def close_holes(flags: EdgeField, max_passes: int = 3) -> EdgeField:
    """Flip false interior flags whose quad would mend a hole.

    A candidate is flipped when at least 3 of its quad's 4 mesh edges are
    currently boundary (exactly one incident face), so adding the quad
    converts them to interior. Each pass evaluates every candidate
    against the same snapshot, then applies all flips at once; passes
    repeat to a fixpoint, bounded by max_passes. Flags whose quad would
    fall outside the cell lattice are never touched.
    """
    out = flags.copy()
    dims = flags.dims
    cells = dims.cell_shape
    for _ in range(max_passes):
        counts = _face_counts(out)
        flips = []
        for a in range(3):
            b, c = (a + 1) % 3, (a + 2) % 3
            fa = np.moveaxis(out.axis(a).astype(bool), (a, b, c), (0, 1, 2))
            cb = np.moveaxis(counts[b], (a, b, c), (0, 1, 2))
            cc = np.moveaxis(counts[c], (a, b, c), (0, 1, 2))
            q, r = cells[b], cells[c]
            interior = fa[:, 1:q, 1:r]
            boundary = (
                (cb[:, 0 : q - 1, 0 : r - 1] == 1).astype(np.int32)
                + (cc[:, 1:q, 0 : r - 1] == 1)
                + (cb[:, 0 : q - 1, 1:r] == 1)
                + (cc[:, 0 : q - 1, 0 : r - 1] == 1)
            )
            flips.append(~interior & (boundary >= 3))
        if not any(np.any(f) for f in flips):
            break
        for a in range(3):
            b, c = (a + 1) % 3, (a + 2) % 3
            fa = np.moveaxis(out.axis(a), (a, b, c), (0, 1, 2))
            q, r = cells[b], cells[c]
            fa[:, 1:q, 1:r] |= flips[a]
    return out
