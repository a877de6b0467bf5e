"""The 96-element augmentation group and its action on grid data."""

import numpy as np
import pytest

from ndcmesh.grids import (EdgeField, GridDims, GridKind, ScalarGrid,
                           SignGrid, VertexOffsetGrid, xor_flags)
from ndcmesh.rng import rng_for
from ndcmesh.transforms import (NUM_SPATIAL, NUM_TRANSFORMS, spatial_parts,
                                transform_edge_field, transform_offsets,
                                transform_points, transform_scalar_grid,
                                transform_sign_grid, transformed_dims)

from helpers import inverse_id, transform_vertex_array

DIMS = GridDims(4, 5, 6)  # distinct sizes so axis mixups change shapes


def random_scalar(rng, kind=GridKind.SDF) -> ScalarGrid:
    vals = rng.normal(size=DIMS.vertex_shape)
    if kind == GridKind.UDF:
        vals = np.abs(vals)
    return ScalarGrid(DIMS, kind, vals)


def random_edges(rng) -> EdgeField:
    return EdgeField(DIMS, *(rng.random(DIMS.edge_shape(a)) < 0.4 for a in range(3)))


def edge_equal(a: EdgeField, b: EdgeField) -> bool:
    return all(np.array_equal(np.asarray(a.axis(i)), np.asarray(b.axis(i)))
               for i in range(3))


def test_id_zero_is_the_identity():
    rng = rng_for(1, "identity")
    grid = random_scalar(rng)
    assert np.array_equal(transform_scalar_grid(grid, 0).values, grid.values)
    signs = SignGrid(DIMS, rng.random(DIMS.vertex_shape) < 0.5)
    assert np.array_equal(transform_sign_grid(signs, 0).inside, signs.inside)
    offs = VertexOffsetGrid(DIMS, rng.random(DIMS.cell_shape + (3,)))
    assert np.array_equal(transform_offsets(offs, 0).offsets, offs.offsets)
    edges = random_edges(rng)
    assert edge_equal(transform_edge_field(edges, 0), edges)


def test_out_of_range_ids_are_rejected():
    with pytest.raises(ValueError):
        spatial_parts(96)
    with pytest.raises(ValueError):
        spatial_parts(-1)


def test_inverse_followed_by_transform_is_identity_for_all_96():
    rng = rng_for(2, "roundtrip")
    grid = random_scalar(rng)
    signs = SignGrid(DIMS, rng.random(DIMS.vertex_shape) < 0.5)
    offs = VertexOffsetGrid(DIMS, rng.random(DIMS.cell_shape + (3,)))
    flags = random_edges(rng)
    points = rng.random((40, 3)) * np.array(DIMS.vertex_shape)
    for t in range(NUM_TRANSFORMS):
        inv = inverse_id(t)
        mid_dims = transformed_dims(DIMS, t)

        g2 = transform_scalar_grid(transform_scalar_grid(grid, t), inv)
        assert np.array_equal(g2.values, grid.values), t
        s2 = transform_sign_grid(transform_sign_grid(signs, t), inv)
        assert np.array_equal(s2.inside, signs.inside), t
        o2 = transform_offsets(transform_offsets(offs, t), inv)
        assert np.allclose(o2.offsets, offs.offsets, atol=1e-15), t
        f2 = transform_edge_field(transform_edge_field(flags, t), inv)
        assert edge_equal(f2, flags), t
        p1 = transform_points(points, DIMS, t)
        p2 = transform_points(p1, mid_dims, inv)
        assert np.allclose(p2, points, atol=1e-12), t


def test_sign_inversion_negates_distances_and_complements_signs():
    rng = rng_for(4, "inversion")
    grid = random_scalar(rng)
    flipped = transform_scalar_grid(grid, NUM_SPATIAL)  # spatial part = identity
    assert np.array_equal(flipped.values, -grid.values)
    signs = SignGrid(DIMS, rng.random(DIMS.vertex_shape) < 0.5)
    inv_signs = transform_sign_grid(signs, NUM_SPATIAL)
    assert np.array_equal(inv_signs.inside, ~signs.inside)
    # crossing flags are xor-invariant under complement
    assert edge_equal(xor_flags(inv_signs), xor_flags(signs))


def test_unsigned_distances_are_not_negated_by_inversion():
    rng = rng_for(5, "udf")
    grid = random_scalar(rng, GridKind.UDF)
    flipped = transform_scalar_grid(grid, NUM_SPATIAL)
    assert np.array_equal(flipped.values, grid.values)


def test_lattice_values_travel_with_their_points():
    rng = rng_for(6, "travel")
    grid = random_scalar(rng)
    lattice = np.stack(np.meshgrid(*[np.arange(float(s)) for s in DIMS.vertex_shape],
                                   indexing="ij"), axis=-1).reshape(-1, 3)
    for t in range(0, NUM_SPATIAL, 7):
        moved = transform_scalar_grid(grid, t)
        new_pos = transform_points(lattice, DIMS, t).astype(int)
        got = moved.values[new_pos[:, 0], new_pos[:, 1], new_pos[:, 2]]
        assert np.array_equal(got, grid.values.reshape(-1)), t


def test_dual_vertices_travel_like_points():
    rng = rng_for(7, "dual-travel")
    offs = VertexOffsetGrid(DIMS, rng.random(DIMS.cell_shape + (3,)))
    cell_ids = np.arange(np.prod(DIMS.cell_shape)).reshape(DIMS.cell_shape)
    origins = np.argwhere(np.ones(DIMS.cell_shape, dtype=bool)).astype(np.float64)
    positions = origins + offs.offsets.reshape(-1, 3)
    for t in range(0, NUM_SPATIAL, 5):
        moved = transform_offsets(offs, t)
        moved_ids = transform_vertex_array(cell_ids, t)
        new_origins = np.argwhere(np.ones(moved_ids.shape, dtype=bool))
        new_positions = new_origins + moved.offsets.reshape(-1, 3)
        want = transform_points(positions, DIMS, t)
        # match cells through the id array to compare the same dual vertex
        order = moved_ids.reshape(-1)
        assert np.allclose(new_positions, want[order], atol=1e-12), t
