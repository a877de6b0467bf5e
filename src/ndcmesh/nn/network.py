"""Grid-input prediction networks and head plumbing.

A network instance owns one output head. The SDF-input family uses
three 3^3 convolutions followed by three 1^3 convolutions (receptive
field 7^3); the occupancy-input family uses seven 3^3 convolutions for
a 15^3 receptive field. Hidden layers default to 64 channels. The
final convolution produces logits; sigmoids are applied only at
prediction time so training can work in logit space.

Head conventions on a (m, n, k) vertex lattice:
  sign    1 channel per vertex, probability of "inside".
  vertex  3 channels, cropped to the (m-1, n-1, k-1) cell lattice,
          sigmoid output used directly as the in-cell offset.
  flag    3 channels per cell; channel a is the crossing probability of
          the cell's edge along axis a from its min corner. Border
          edges not owned by any cell are never predicted (left false).
"""

import numpy as np

from ..errors import InvalidKind, ShapeError
from ..grids import (EdgeField, GridDims, GridKind, ScalarGrid, SignGrid,
                     VertexOffsetGrid)
from ..rng import rng_for
from .layers import Conv3d, LeakyReLU, Sequential, sigmoid

GRID_VARIANTS = {
    "sdf_v": ("sdf", "vertex", 3),
    "sdf_s": ("sdf", "sign", 3),
    "sdf_f": ("sdf", "flag", 3),
    "vox_s": ("occ", "sign", 7),
    "vox_v": ("occ", "vertex", 7),
    "vox_f": ("occ", "flag", 7),
}
HEAD_CHANNELS = {"sign": 1, "vertex": 3, "flag": 3}


def edge_field_to_cells(field: EdgeField) -> np.ndarray:
    """Gather the cell-owned edges of a field into a (3, cells) array."""
    m, n, k = field.dims.vertex_shape
    return np.stack([
        np.asarray(field.axis(0))[:, : n - 1, : k - 1],
        np.asarray(field.axis(1))[: m - 1, :, : k - 1],
        np.asarray(field.axis(2))[: m - 1, : n - 1, :],
    ])


def cells_to_edge_field(values: np.ndarray, dims: GridDims,
                        fill=False) -> EdgeField:
    """Scatter per-cell edge values back to a full field.

    Border edges owned by no cell take `fill`.
    """
    m, n, k = dims.vertex_shape
    if values.shape != (3,) + dims.cell_shape:
        raise ShapeError(
            f"cell edge array must be (3,)+{dims.cell_shape}, got {values.shape}")
    parts = []
    for a in range(3):
        arr = np.full(dims.edge_shape(a), fill, dtype=values.dtype)
        sl = [slice(0, m - 1), slice(0, n - 1), slice(0, k - 1)]
        sl[a] = slice(None)
        arr[tuple(sl)] = values[a]
        parts.append(arr)
    return EdgeField(dims, *parts)


class GridNetwork:
    """Fully convolutional network over a scalar grid, one head."""

    def __init__(self, variant: str, channels: int = 64, seed: int = 0,
                 dtype=np.float32):
        if variant not in GRID_VARIANTS:
            raise ValueError(f"unknown grid variant {variant!r}")
        self.variant = variant
        self.input_kind, self.head, n_conv3 = GRID_VARIANTS[variant]
        self.channels = channels
        self.out_channels = HEAD_CHANNELS[self.head]
        self.dtype = dtype
        layers = []
        in_ch = 1
        for i in range(n_conv3):
            layers.append(Conv3d(in_ch, channels, 3,
                                 rng_for(seed, "conv3", i), dtype))
            layers.append(LeakyReLU())
            in_ch = channels
        for i in range(2):
            layers.append(Conv3d(channels, channels, 1,
                                 rng_for(seed, "conv1", i), dtype))
            layers.append(LeakyReLU())
        layers.append(Conv3d(channels, self.out_channels, 1,
                             rng_for(seed, "conv1", 2), dtype))
        self.trunk = Sequential(layers)

    def params(self):
        return self.trunk.params()

    def param_layers(self):
        return [l for l in self.trunk.layers if isinstance(l, Conv3d)]

    def zero_grad(self):
        self.trunk.zero_grad()

    def _check_grid(self, grid: ScalarGrid) -> None:
        ok = ((self.input_kind == "sdf" and grid.kind in (GridKind.SDF, GridKind.UDF))
              or (self.input_kind == "occ" and grid.kind is GridKind.OCC))
        if not ok:
            raise InvalidKind(
                f"{self.variant} expects {self.input_kind} input, got {grid.kind.name}")

    def forward_logits(self, x: np.ndarray) -> np.ndarray:
        return self.trunk.forward(x)

    def backward(self, glogits: np.ndarray) -> np.ndarray:
        return self.trunk.backward(glogits)

    def input_tensor(self, grid: ScalarGrid) -> np.ndarray:
        self._check_grid(grid)
        return grid.values[None].astype(self.dtype)

    def predict_probs(self, grid: ScalarGrid) -> np.ndarray:
        """Sigmoid probabilities over the full vertex lattice."""
        return sigmoid(self.forward_logits(self.input_tensor(grid)))

    def predict(self, grid: ScalarGrid):
        """Thresholded, typed output for this network's head."""
        probs = self.predict_probs(grid)
        dims = grid.dims
        m, n, k = dims.vertex_shape
        if self.head == "sign":
            return SignGrid(dims, probs[0] > 0.5)
        if self.head == "vertex":
            cropped = probs[:, : m - 1, : n - 1, : k - 1]
            return VertexOffsetGrid(dims, np.moveaxis(cropped, 0, -1).astype(np.float64))
        cropped = probs[:, : m - 1, : n - 1, : k - 1] > 0.5
        return cells_to_edge_field(cropped, dims)


def make_network(variant: str, channels: int | None = None, seed: int = 0,
                 dtype=np.float32, head: str | None = None,
                 resblocks: int | None = None):
    """Build a prediction network by variant name.

    Grid variants fix their head; "pc_encoder" takes the head
    explicitly (default "flag") and defaults to 128 channels.
    """
    if variant == "pc_encoder":
        from .pointnet import PointNetwork
        return PointNetwork(head or "flag",
                            channels=128 if channels is None else channels,
                            seed=seed, dtype=dtype,
                            resblocks=2 if resblocks is None else resblocks)
    net = GridNetwork(variant, channels=64 if channels is None else channels,
                      seed=seed, dtype=dtype)
    if head is not None and head != net.head:
        raise ValueError(f"variant {variant} has head {net.head!r}, not {head!r}")
    return net
