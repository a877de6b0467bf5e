"""The boolean masks of the grid and point networks against scipy.ndimage.

vertex_band on OCC input and cloud_active_cells compute their masks
with numpy shifts (grids.box_any, grids.dilate_cross); the filters of
scipy.ndimage are the reference they must equal bit for bit. The
dilation is checked at every reach from 0 to 4, and the point cloud's
active cells at the one reach they use, ACTIVE_MANHATTAN.
"""

import numpy as np
import pytest
from scipy import ndimage

from ndcmesh.datagen import ACTIVE_MANHATTAN, cloud_active_cells
from ndcmesh.grids import GridDims, GridKind, ScalarGrid, dilate_cross
from ndcmesh.mc_tables import CORNER_OFFSETS
from ndcmesh.nn.network import vertex_band
from ndcmesh.rng import rng_for

# cell shapes, with axes 1 and 2 cells wide among them
CELL_SHAPES = [(1, 1, 1), (1, 2, 1), (2, 2, 2), (1, 5, 2), (2, 1, 7), (6, 1, 3),
               (3, 2, 1), (5, 7, 4), (9, 8, 6)]


def masks(shape, seed):
    """All-false, all-true and random masks of several densities."""
    rng = rng_for(seed, "masks", *shape)
    yield np.zeros(shape, dtype=bool)
    yield np.ones(shape, dtype=bool)
    for density in (0.05, 0.3, 0.5, 0.8):
        yield rng.random(shape) < density


def reference_vertex_band(occ: np.ndarray) -> np.ndarray:
    """Corners of the cells whose in-grid 3x3x3 neighbourhood holds both
    occupancies; "nearest" repeats a border cell, so only in-grid
    neighbours count."""
    boundary = (ndimage.maximum_filter(occ, size=3, mode="nearest")
                != ndimage.minimum_filter(occ, size=3, mode="nearest"))
    band = np.zeros(tuple(s + 1 for s in occ.shape), dtype=bool)
    for corner in CORNER_OFFSETS:
        band[tuple(slice(o, o + n) for o, n in zip(corner, occ.shape))] |= boundary
    return band


def reference_active_cells(occ: np.ndarray, reach: int) -> np.ndarray:
    """`reach` 6-neighbour dilations with a false border (iterations=0
    would mean "until nothing changes" to ndimage)."""
    return ndimage.binary_dilation(occ, iterations=reach) if reach else occ


@pytest.mark.parametrize("shape", CELL_SHAPES)
def test_occupancy_band_equals_the_max_min_filter_reference(shape):
    dims = GridDims(*(s + 1 for s in shape))
    for occ in masks(shape, 1):
        values = np.zeros(dims.vertex_shape)
        values[:-1, :-1, :-1] = occ
        got = vertex_band(ScalarGrid(dims, GridKind.OCC, values))
        assert np.array_equal(got, reference_vertex_band(occ)), occ.astype(int)


@pytest.mark.parametrize("shape", CELL_SHAPES)
def test_cross_dilation_equals_the_binary_dilation_reference(shape):
    for occ in masks(shape, 2):
        for reach in range(5):
            got = dilate_cross(occ, reach)
            assert np.array_equal(got, reference_active_cells(occ, reach)), (occ.sum(), reach)


@pytest.mark.parametrize("shape", CELL_SHAPES)
def test_active_cells_equal_the_binary_dilation_reference(shape):
    dims = GridDims(*(s + 1 for s in shape))
    rng = rng_for(2, "cloud", *shape)
    for occ in masks(shape, 2):
        # two points anywhere inside each marked cell
        cells = np.repeat(np.argwhere(occ), 2, axis=0)
        cloud = cells + rng.random(cells.shape)
        got = cloud_active_cells(cloud, dims)
        assert np.array_equal(got, reference_active_cells(occ, ACTIVE_MANHATTAN)), occ.sum()


def test_points_outside_the_grid_dilate_from_the_nearest_border_cell():
    dims = GridDims(6, 4, 5)
    cloud = np.array([[-3.0, 1.5, 9.0], [7.2, -0.5, 2.5]])
    occ = np.zeros(dims.cell_shape, dtype=bool)
    occ[0, 1, 3] = occ[4, 0, 2] = True
    assert np.array_equal(cloud_active_cells(cloud, dims),
                          reference_active_cells(occ, ACTIVE_MANHATTAN))
