"""The symmetry group used for data augmentation.

96 transforms: 48 signed axis permutations of the grid (the 24 proper
rotations by quarter turns plus their mirror images) times an optional
global inside/outside inversion. Transform ids are stable:

    id = spatial + 48 * invert
    spatial = 8 * perm_index + flip_bits

where perm_index enumerates axis permutations lexicographically and flip
bit j reverses output axis j. Id 0 is the identity.

The spatial part acts on lattice data by axis permutation plus index
reversal; sign inversion complements inside flags and negates signed
distance values while leaving crossing flags and offsets untouched.

Augmentation (datagen.augment_sample) draws an id and applies it; an
id's inverse, which only the tests need, is found by searching the 96.
"""

from __future__ import annotations

import itertools

import numpy as np

from .grids import EdgeField, GridDims, GridKind, ScalarGrid, SignGrid, VertexOffsetGrid

PERMS: tuple[tuple[int, int, int], ...] = tuple(itertools.permutations(range(3)))
NUM_SPATIAL = 48
NUM_TRANSFORMS = 96


def spatial_parts(transform_id: int) -> tuple[tuple[int, int, int], tuple[bool, bool, bool], bool]:
    """Decompose an id into (perm, flips, invert_sign)."""
    if not 0 <= transform_id < NUM_TRANSFORMS:
        raise ValueError(f"transform id out of range: {transform_id}")
    invert = transform_id >= NUM_SPATIAL
    spatial = transform_id % NUM_SPATIAL
    perm = PERMS[spatial // 8]
    bits = spatial % 8
    flips = tuple(bool((bits >> j) & 1) for j in range(3))
    return perm, flips, invert


def _apply_spatial(arr: np.ndarray, perm, flips) -> np.ndarray:
    out = np.transpose(arr, perm)
    sl = tuple(slice(None, None, -1) if flips[j] else slice(None) for j in range(3))
    return np.ascontiguousarray(out[sl])


def transformed_dims(dims: GridDims, transform_id: int) -> GridDims:
    perm, _, _ = spatial_parts(transform_id)
    sizes = dims.vertex_shape
    return GridDims(*(sizes[perm[j]] for j in range(3)))


def transform_offsets(grid: VertexOffsetGrid, transform_id: int) -> VertexOffsetGrid:
    perm, flips, _ = spatial_parts(transform_id)
    arr = np.transpose(grid.offsets, perm + (3,))
    sl = tuple(slice(None, None, -1) if flips[j] else slice(None) for j in range(3))
    arr = arr[sl + (slice(None),)]
    comps = [arr[..., perm[j]] for j in range(3)]
    comps = [1.0 - comps[j] if flips[j] else comps[j] for j in range(3)]
    out = np.stack(comps, axis=-1)
    return VertexOffsetGrid(transformed_dims(grid.dims, transform_id), np.ascontiguousarray(out))


def transform_edge_field(field: EdgeField, transform_id: int) -> EdgeField:
    """Re-axis an edge field of per-edge values that do not depend on the
    edge's direction, such as crossing flags."""
    perm, flips, _ = spatial_parts(transform_id)
    return EdgeField(transformed_dims(field.dims, transform_id),
                     *(_apply_spatial(field.axis(perm[j]), perm, flips) for j in range(3)))


def transform_sign_grid(signs: SignGrid, transform_id: int) -> SignGrid:
    perm, flips, invert = spatial_parts(transform_id)
    arr = _apply_spatial(signs.inside, perm, flips)
    if invert:
        arr = ~arr
    return SignGrid(transformed_dims(signs.dims, transform_id), arr)


def transform_scalar_grid(grid: ScalarGrid, transform_id: int) -> ScalarGrid:
    perm, flips, invert = spatial_parts(transform_id)
    new_dims = transformed_dims(grid.dims, transform_id)
    if grid.kind == GridKind.OCC:
        # occupancy is cell data anchored at min corners with zero padding
        cells = grid.values[:-1, :-1, :-1]
        cells = _apply_spatial(cells, perm, flips)
        if invert:
            cells = 1.0 - cells
        out = np.zeros(new_dims.vertex_shape)
        out[:-1, :-1, :-1] = cells
        return ScalarGrid(new_dims, GridKind.OCC, out)
    arr = _apply_spatial(grid.values, perm, flips)
    if invert and grid.kind == GridKind.SDF:
        arr = -arr
    return ScalarGrid(new_dims, grid.kind, arr)


def transform_points(points: np.ndarray, dims: GridDims, transform_id: int) -> np.ndarray:
    """Map grid-unit point coordinates through the spatial part."""
    perm, flips, _ = spatial_parts(transform_id)
    sizes = dims.vertex_shape
    cols = []
    for j in range(3):
        col = points[:, perm[j]]
        if flips[j]:
            col = (sizes[perm[j]] - 1) - col
        cols.append(col)
    return np.stack(cols, axis=1)
