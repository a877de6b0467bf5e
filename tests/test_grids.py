"""Grid containers and the scalar-field primitives."""

import itertools

import numpy as np
import pytest

from ndcmesh.errors import InvalidKind, NonFiniteValues, ShapeError
from ndcmesh.grids import (EdgeField, GridDims, GridKind, ScalarGrid,
                           SignGrid, VertexOffsetGrid, central_gradients,
                           edge_crossing_normals, edge_crossings_linear,
                           signs_from_scalar, xor_flags)
from ndcmesh.rng import rng_for


def sphere_grid(dims, center, radius):
    i, j, l = np.meshgrid(*[np.arange(s) for s in dims.vertex_shape], indexing="ij")
    p = np.stack([i, j, l], axis=-1).astype(float)
    return ScalarGrid(dims, GridKind.SDF, np.linalg.norm(p - center, axis=-1) - radius)


# -- dims and container shape checks ---------------------------------------


def test_dims_reject_degenerate_axes():
    with pytest.raises(ShapeError):
        GridDims(1, 4, 4)
    with pytest.raises(ShapeError):
        GridDims(4, 4, 0)


def test_edge_shapes_match_combinatorial_counts():
    # every axis loses one vertex along itself; exhaustive over small dims
    for m, n, k in itertools.product(range(2, 9), repeat=3):
        dims = GridDims(m, n, k)
        assert dims.edge_shape(0) == (m - 1, n, k)
        assert dims.edge_shape(1) == (m, n - 1, k)
        assert dims.edge_shape(2) == (m, n, k - 1)
        expected = (m - 1) * n * k + m * (n - 1) * k + m * n * (k - 1)
        assert dims.edge_count == expected
        assert dims.cell_count == (m - 1) * (n - 1) * (k - 1)


def test_container_shape_validation():
    dims = GridDims(3, 4, 5)
    with pytest.raises(ShapeError):
        ScalarGrid(dims, GridKind.SDF, np.zeros((3, 4, 4)))
    with pytest.raises(ShapeError):
        SignGrid(dims, np.zeros((4, 4, 5), dtype=bool))
    with pytest.raises(ShapeError):
        VertexOffsetGrid(dims, np.zeros((2, 3, 4, 2)))
    good = [np.zeros(dims.edge_shape(a)) for a in range(3)]
    EdgeField(dims, *good)
    with pytest.raises(ShapeError):
        EdgeField(dims, good[0], good[0], good[2])


def test_kind_value_constraints():
    dims = GridDims(2, 2, 2)
    with pytest.raises(InvalidKind):
        ScalarGrid(dims, GridKind.UDF, -np.ones(dims.vertex_shape))
    with pytest.raises(InvalidKind):
        ScalarGrid(dims, GridKind.OCC, 0.5 * np.ones(dims.vertex_shape))
    ScalarGrid(dims, GridKind.OCC, np.ones(dims.vertex_shape))


def test_scalar_grids_reject_nan_and_inf():
    dims = GridDims(2, 3, 2)
    for bad in (np.nan, np.inf, -np.inf):
        vals = np.zeros(dims.vertex_shape)
        vals[1, 2, 0] = bad
        for kind in (GridKind.SDF, GridKind.UDF):
            with pytest.raises(NonFiniteValues):
                ScalarGrid(dims, kind, vals)


def test_vertex_offset_grids_reject_nan_and_inf():
    dims = GridDims(2, 3, 2)
    for bad in (np.nan, np.inf, -np.inf):
        offsets = np.full(dims.cell_shape + (3,), 0.5)
        offsets[0, 1, 0, 2] = bad
        with pytest.raises(NonFiniteValues):
            VertexOffsetGrid(dims, offsets)


# -- signs ------------------------------------------------------------------


def test_all_positive_grid_has_no_inside_vertices():
    dims = GridDims(4, 4, 4)
    grid = ScalarGrid(dims, GridKind.SDF, np.ones(dims.vertex_shape))
    assert not signs_from_scalar(grid).inside.any()


def test_sphere_center_vertex_is_inside():
    dims = GridDims(9, 9, 9)
    grid = sphere_grid(dims, np.array([4.0, 4.0, 4.0]), 0.4 * 8)
    signs = signs_from_scalar(grid)
    assert signs.inside[4, 4, 4]
    assert not signs.inside[0, 0, 0]


def test_signs_match_elementwise_comparison():
    dims = GridDims(8, 8, 8)
    rng = rng_for(101, "signs")
    vals = rng.standard_normal(dims.vertex_shape)
    signs = signs_from_scalar(ScalarGrid(dims, GridKind.SDF, vals), iso=0.1)
    for i in range(8):
        for j in range(8):
            for l in range(8):
                assert signs.inside[i, j, l] == (vals[i, j, l] < 0.1)


def test_value_exactly_at_iso_is_outside():
    dims = GridDims(2, 2, 2)
    grid = ScalarGrid(dims, GridKind.SDF, np.zeros(dims.vertex_shape))
    assert not signs_from_scalar(grid).inside.any()
    assert not signs_from_scalar(grid, iso=0.0).inside.any()


def test_field_negation_flips_every_sign():
    dims = GridDims(5, 6, 7)
    rng = rng_for(102, "flip")
    vals = rng.standard_normal(dims.vertex_shape) + 0.01  # keep off exact zero
    a = signs_from_scalar(ScalarGrid(dims, GridKind.SDF, vals))
    b = signs_from_scalar(ScalarGrid(dims, GridKind.SDF, -vals))
    assert np.array_equal(a.inside, ~b.inside)


def test_signs_reject_occupancy_grids():
    dims = GridDims(2, 2, 2)
    occ = ScalarGrid(dims, GridKind.OCC, np.ones(dims.vertex_shape))
    with pytest.raises(InvalidKind):
        signs_from_scalar(occ)
    with pytest.raises(InvalidKind):
        edge_crossings_linear(occ)


# -- crossings --------------------------------------------------------------


def test_crossing_parameter_simple_values():
    dims = GridDims(2, 2, 2)
    vals = np.ones(dims.vertex_shape)
    vals[0, 0, 0] = -1.0
    t = edge_crossings_linear(ScalarGrid(dims, GridKind.SDF, vals))
    assert t.x[0, 0, 0] == pytest.approx(0.5)

    vals[1, 0, 0] = 3.0
    t = edge_crossings_linear(ScalarGrid(dims, GridKind.SDF, vals))
    assert t.x[0, 0, 0] == pytest.approx(0.25)


def test_crossing_exists_iff_endpoint_signs_differ():
    # exhaustive over the four sign pairs of a single edge
    dims = GridDims(2, 2, 2)
    for a, b in itertools.product((-1.0, 1.0), repeat=2):
        vals = np.ones(dims.vertex_shape)
        vals[0, 0, 0], vals[1, 0, 0] = a, b
        t = edge_crossings_linear(ScalarGrid(dims, GridKind.SDF, vals))
        crossed = not np.isnan(t.x[0, 0, 0])
        assert crossed == ((a < 0) != (b < 0))


def test_crossings_agree_with_xor_of_signs():
    dims = GridDims(6, 5, 7)
    rng = rng_for(103, "xor")
    grid = ScalarGrid(dims, GridKind.SDF, rng.standard_normal(dims.vertex_shape))
    t = edge_crossings_linear(grid)
    flags = xor_flags(signs_from_scalar(grid))
    for axis in range(3):
        assert np.array_equal(~np.isnan(t.axis(axis)), flags.axis(axis))


def test_crossing_parameter_invariant_under_positive_scaling():
    dims = GridDims(7, 7, 7)
    rng = rng_for(104, "scale")
    vals = rng.standard_normal(dims.vertex_shape)
    t1 = edge_crossings_linear(ScalarGrid(dims, GridKind.SDF, vals))
    t2 = edge_crossings_linear(ScalarGrid(dims, GridKind.SDF, 37.5 * vals))
    for axis in range(3):
        a, b = t1.axis(axis), t2.axis(axis)
        mask = ~np.isnan(a)
        assert np.array_equal(mask, ~np.isnan(b))
        assert np.max(np.abs(a[mask] - b[mask]), initial=0.0) < 1e-12


def test_sphere_crossings_sit_near_the_true_surface():
    dims = GridDims(32, 32, 32)
    center = np.array([15.5, 15.5, 15.5])
    radius = 10.0
    grid = sphere_grid(dims, center, radius)
    t = edge_crossings_linear(grid)
    worst = 0.0
    for axis in range(3):
        ta = t.axis(axis)
        idx = np.argwhere(~np.isnan(ta))
        pts = idx.astype(float)
        pts[:, axis] += ta[tuple(idx.T)]
        resid = np.abs(np.linalg.norm(pts - center, axis=-1) - radius)
        worst = max(worst, float(resid.max()))
    assert worst < 0.02


# -- gradients and crossing normals ----------------------------------------


def test_linear_field_gradient_is_exact():
    dims = GridDims(5, 5, 5)
    i = np.arange(5).reshape(-1, 1, 1) * np.ones(dims.vertex_shape)
    grads = central_gradients(ScalarGrid(dims, GridKind.SDF, i))
    assert np.allclose(grads[..., 0], 1.0)
    assert np.allclose(grads[..., 1:], 0.0)


def test_plane_crossing_normals_are_axis_aligned():
    dims = GridDims(6, 6, 6)
    l = np.arange(6).reshape(1, 1, -1) * np.ones(dims.vertex_shape)
    grid = ScalarGrid(dims, GridKind.SDF, l - 2.5)
    t = edge_crossings_linear(grid)
    normals, degenerate = edge_crossing_normals(grid, t)
    assert degenerate == 0
    nz = normals.z[~np.isnan(normals.z).any(axis=-1)]
    assert len(nz) == 36
    assert np.allclose(nz, (0.0, 0.0, 1.0))


def test_sphere_gradients_track_the_analytic_direction():
    dims = GridDims(24, 24, 24)
    center = np.array([11.5, 11.5, 11.5])
    grid = sphere_grid(dims, center, 7.0)
    grads = central_gradients(grid)
    i, j, l = np.meshgrid(*[np.arange(s) for s in dims.vertex_shape], indexing="ij")
    p = np.stack([i, j, l], axis=-1).astype(float)
    d = p - center
    dist = np.linalg.norm(d, axis=-1)
    interior = (np.minimum.reduce([i, j, l]) >= 1) & (np.maximum.reduce([i, j, l]) <= 22)
    away = interior & (dist > 3.0)  # curvature error is O(1/dist)
    analytic = d[away] / dist[away][..., None]
    assert np.max(np.linalg.norm(grads[away] - analytic, axis=-1)) < 0.05


def test_flat_field_crossing_normals_fall_back_and_count():
    # force a sign flip inside an otherwise constant field: the blended
    # gradient at t=0.5 cancels, which must be flagged, not propagated
    dims = GridDims(4, 4, 4)
    vals = np.ones(dims.vertex_shape)
    vals[1, 1, 1] = -1.0
    vals[2, 1, 1] = 1.0
    grid = ScalarGrid(dims, GridKind.SDF, vals)
    t = edge_crossings_linear(grid)
    normals, degenerate = edge_crossing_normals(grid, t)
    finite = [np.count_nonzero(~np.isnan(normals.axis(a)).any(axis=-1)) for a in range(3)]
    assert sum(finite) == 6
    lengths = np.linalg.norm(normals.x[~np.isnan(normals.x).any(axis=-1)], axis=-1)
    assert np.allclose(lengths, 1.0)
    assert degenerate >= 0  # this field happens to keep all blends nonzero


def test_xor_flags_shapes_and_unit_case():
    dims = GridDims(3, 3, 3)
    inside = np.zeros(dims.vertex_shape, dtype=bool)
    inside[1, 1, 1] = True
    flags = xor_flags(SignGrid(dims, inside))
    assert sum(int(flags.axis(a).sum()) for a in range(3)) == 6
    assert flags.x[0, 1, 1] and flags.x[1, 1, 1]
