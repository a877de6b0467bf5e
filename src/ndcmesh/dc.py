"""Classical dual contouring over a sampled scalar field.

With estimated normals, crossing points come from linear interpolation
along sign-change edges and normals from interpolated central-difference
vertex gradients. With an analytic normal callable, each sign-change
edge instead contributes the plane through the projection of its outside
endpoint onto the surface (p - phi(p) * n(p)), which for a true distance
field passes exactly through the nearest surface feature; this keeps
sharp corners exact where linear interpolation of a kinked field would
misplace both the point and the normal. Each active cell solves one QEF;
faces are assembled dual to the sign-change edges with outward winding.
"""

from __future__ import annotations

from typing import Callable, Literal

import numpy as np

from ._dual import assemble_dual_mesh, cell_edges, edge_ring
from .grids import (
    EdgeField,
    ScalarGrid,
    SignGrid,
    VertexOffsetGrid,
    edge_crossing_normals,
    edge_crossings_linear,
    signs_from_scalar,
    unit_normals,
    xor_flags,
)
from .mesh import QuadMesh
from .qef import TRUNCATION_RATIO, qef_solve_batch

NormalSource = Callable[[np.ndarray], np.ndarray] | Literal["estimated"]

# How far outside its own cell a classical DC vertex may sit. Sharp box
# corners frequently fall in cells none of whose edges cross the surface;
# the vertex that recovers such a corner belongs to a nearby active cell
# and must be allowed to leave it. One cell of slack is enough for any
# feature the dual structure can represent while still bounding spikes.
CELL_MARGIN = 1.0

# A neighborhood slide is adopted only when the gathered planes agree on
# the slid point to this rms tolerance. Planes anchored on a true sharp
# feature agree to float noise (finite-difference normals leave ~1e-8);
# tangent planes of a curved surface disagree at the 1e-2 scale, so the
# threshold cleanly separates the two.
FEATURE_TOL = 1e-6


def _projected_edge_anchors(
    grid: ScalarGrid, crossings: EdgeField, normal_fn, iso: float
) -> tuple[EdgeField, EdgeField]:
    """Surface anchors and normals from each crossing edge's endpoints.

    The endpoint nearer the surface (smaller |phi - iso|) is projected
    along the analytic normal by its own sampled distance:
    p = v - (phi(v) - iso) * n(v). For a true distance field that lands
    exactly on the nearest surface feature (face, sharp edge, or corner),
    so every constraint plane contains the feature regardless of how the
    field kinks between samples; taking the nearer endpoint keeps the
    tangency points tight on curved surfaces.
    """
    dims = grid.dims
    values = grid.values
    anchors = EdgeField.full(dims, np.nan, np.float64, trailing=(3,))
    normals = EdgeField.full(dims, np.nan, np.float64, trailing=(3,))
    for axis in range(3):
        t = crossings.axis(axis)
        mask = ~np.isnan(t)
        if not np.any(mask):
            continue
        lo = np.argwhere(mask)
        hi = lo.copy()
        hi[:, axis] += 1
        phi_lo = values[tuple(lo.T)] - iso
        phi_hi = values[tuple(hi.T)] - iso
        take_lo = np.abs(phi_lo) <= np.abs(phi_hi)
        v = np.where(take_lo[:, None], lo, hi)
        phi = np.where(take_lo, phi_lo, phi_hi)
        n = np.asarray(normal_fn(v.astype(np.float64)), dtype=np.float64)
        n = unit_normals(n.reshape(-1, 3))
        anchors.axis(axis)[mask] = v - phi[:, None] * n
        normals.axis(axis)[mask] = n
    return anchors, normals


def _cell_constraints(
    crossings: EdgeField, normals: EdgeField, anchors: EdgeField | None = None
):
    """Stack each cell's 12 edge slots into batched constraint arrays.

    Returns (valid, points, nvec) shaped (cells..., 12[, 3]) with points
    in cell-local coordinates. Points come from the crossing parameter on
    the edge, or from `anchors` (absolute positions, e.g. surface
    projections that may lie off the edge) when given. Slots run by edge
    axis, then by the edge's offset along the lower-numbered other axis,
    then the higher one; the QEF sums rows in this order.
    """
    dims = crossings.dims
    shape = dims.cell_shape
    valid = np.zeros(shape + (12,), dtype=bool)
    pts = np.zeros(shape + (12, 3), dtype=np.float64)
    nrm = np.zeros(shape + (12, 3), dtype=np.float64)
    origin = np.stack(
        np.meshgrid(*(np.arange(s, dtype=np.float64) for s in shape), indexing="ij"),
        axis=-1,
    )
    fields = (crossings, normals) if anchors is None else (crossings, normals, anchors)
    for axis in range(3):
        views = [cell_edges(f.axis(axis), axis, shape) for f in fields]
        offsets = -edge_ring(axis)
        # the offsets sort lexicographically into the slot order
        for k, s in enumerate(sorted(range(4), key=lambda s: tuple(offsets[s]))):
            slot = 4 * axis + k
            tt = views[0][s]
            valid[..., slot] = ~np.isnan(tt)
            if anchors is None:
                pts[..., slot, :] = offsets[s]
                pts[..., slot, axis] = np.nan_to_num(tt)
            else:
                pts[..., slot, :] = np.nan_to_num(views[2][s]) - origin
            nrm[..., slot, :] = np.nan_to_num(views[1][s])
    return valid, pts, nrm


def qef_cell_offsets(
    crossings: EdgeField,
    normals: EdgeField,
    anchors: EdgeField | None = None,
    bounds: tuple[np.ndarray, np.ndarray] = (np.zeros(3), np.ones(3)),
):
    """One QEF solve per cell that has a crossing edge.

    Returns (offsets, constraints): cell-local vertex offsets clamped to
    bounds, (0.5, 0.5, 0.5) for cells without crossings, and the
    (valid, points, normals) arrays of `_cell_constraints`.
    """
    valid, pts, nrm = _cell_constraints(crossings, normals, anchors)
    active = valid.any(axis=-1)
    offsets = np.full(crossings.dims.cell_shape + (3,), 0.5)
    if np.any(active):
        offsets[active] = qef_solve_batch(pts[active], nrm[active], valid[active], bounds)
    return offsets, (valid, pts, nrm)


def _gather_neighborhood(cells: np.ndarray, valid, pts, nrm):
    """Stack constraints from each cell's 3x3x3 cell neighborhood.

    Points are shifted into the center cell's local frame; out-of-grid
    neighbors and empty slots contribute zero normals, which drop out of
    any residual. Returns (normals, points) shaped (len(cells), 324, 3).
    """
    shape = valid.shape[:3]
    count = len(cells)
    pp = np.zeros((count, 27 * 12, 3))
    nn = np.zeros((count, 27 * 12, 3))
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


def _nullspace_resolve(cells, x0, null_basis, valid, pts, nrm):
    """Slide under-determined QEF answers along their free directions.

    Each cell's own solve already fixed the constrained directions; here
    the leftover null directions (rows of null_basis, zero rows for the
    constrained ones) are resolved against planes gathered from the 3x3x3
    neighborhood. Where the neighborhood adds no information along a free
    direction the slide stays at zero, so flats keep the mass-point
    answer untouched. Returns the slid positions together with the mean
    squared plane residual at each, which tells a genuine sharp feature
    (residual at float noise) from curvature misfit.
    """
    a, p = _gather_neighborhood(cells, valid, pts, nrm)
    r = np.einsum("bnd,bnd->bn", a, p - x0[:, None, :])
    m = np.einsum("bnd,bqd->bnq", a, null_basis)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = s >= np.maximum(TRUNCATION_RATIO * s[:, :1], 1e-9)
    inv_s = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    utr = np.einsum("bnq,bn->bq", u, r)
    y = np.einsum("bqd,bq->bd", vt, inv_s * utr)
    x = np.clip(x0 + np.einsum("bq,bqd->bd", y, null_basis),
                -CELL_MARGIN, 1.0 + CELL_MARGIN)
    res = np.einsum("bnd,bnd->bn", a, x[:, None, :] - p)
    rows = np.maximum((np.abs(a).sum(axis=-1) > 0).sum(axis=-1), 1)
    return x, np.sum(res * res, axis=-1) / rows


def _dc_solve(
    grid: ScalarGrid,
    normal_source: NormalSource,
    iso: float,
) -> tuple[SignGrid, np.ndarray]:
    """Signs plus raw per-cell vertex offsets (may leave the cell).

    Offsets are bounded by CELL_MARGIN around the unit cell; inactive
    cells hold (0.5, 0.5, 0.5). Cells whose own crossings do not span
    three directions (flats, sharp edges, and corner cells whose third
    face only cuts adjacent cells) get their truncated directions
    re-resolved against the 3x3x3 neighborhood via _nullspace_resolve;
    the candidate is kept only if the cell's own residual does not grow,
    so smooth regions keep the single-cell answer while box corners are
    pinned.
    """
    signs = signs_from_scalar(grid, iso)
    crossings = edge_crossings_linear(grid, iso)
    if normal_source == "estimated":
        normals, _ = edge_crossing_normals(grid, crossings)
        anchors = None
    else:
        anchors, normals = _projected_edge_anchors(
            grid, crossings, normal_source, iso)

    bounds = (np.full(3, -CELL_MARGIN), np.full(3, 1.0 + CELL_MARGIN))
    offsets, (valid, pts, nrm) = qef_cell_offsets(crossings, normals, anchors, bounds)
    active = valid.any(axis=-1)
    if anchors is not None and np.any(active):
        sol = offsets[active]
        rows = nrm[active] * valid[active][..., None]
        _, s, vt = np.linalg.svd(rows, full_matrices=False)
        kept = s >= TRUNCATION_RATIO * s[:, :1]
        deficient = ~kept[:, 2]
        if np.any(deficient):
            cells = np.argwhere(active)[deficient]
            basis = np.where(~kept[deficient][:, :, None], vt[deficient], 0.0)
            x_aug, misfit = _nullspace_resolve(
                cells, sol[deficient], basis, valid, pts, nrm)
            at = tuple(cells.T)
            feature = misfit <= FEATURE_TOL * FEATURE_TOL
            offsets[at] = np.where(feature[:, None], x_aug, sol[deficient])
    return signs, offsets


def dc_fields(
    grid: ScalarGrid,
    normal_source: NormalSource = "estimated",
    iso: float = 0.0,
) -> tuple[SignGrid, VertexOffsetGrid]:
    """Signs plus per-cell QEF vertex offsets clipped into each cell.

    Inactive cells hold the centered offset (0.5, 0.5, 0.5). The offset
    grid keeps its in-cell contract; dc_extract applies the solver's raw
    positions instead, which may leave the cell by up to CELL_MARGIN.
    """
    signs, offsets = _dc_solve(grid, normal_source, iso)
    return signs, VertexOffsetGrid(grid.dims, np.clip(offsets, 0.0, 1.0))


def dc_extract(
    grid: ScalarGrid,
    normal_source: NormalSource = "estimated",
    iso: float = 0.0,
) -> QuadMesh:
    """Dual contour a scalar grid into a quad mesh with outward winding."""
    signs, offsets = _dc_solve(grid, normal_source, iso)
    return assemble_dual_mesh(xor_flags(signs), offsets, flip_inside=signs)
