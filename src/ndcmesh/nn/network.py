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

from ..errors import InvalidKind
from ..grids import (GridKind, ScalarGrid, SignGrid, VertexOffsetGrid,
                     cells_to_edge_field)
from ..rng import rng_for
from .layers import Conv3d, LeakyReLU, Layer, Sequential, sigmoid

GRID_VARIANTS = {
    "sdf_v": ("sdf", "vertex", 3),
    "sdf_s": ("sdf", "sign", 3),
    "sdf_f": ("sdf", "flag", 3),
    "vox_s": ("occ", "sign", 7),
    "vox_v": ("occ", "vertex", 7),
    "vox_f": ("occ", "flag", 7),
}
HEAD_CHANNELS = {"sign": 1, "vertex": 3, "flag": 3}


def conv_stack(in_channels: int, channels: int, out_channels: int, n_conv3: int,
               seed: int, tags: tuple[str, str], dtype) -> Sequential:
    """n_conv3 3^3 convolutions, then three 1^3 ones; leaky ReLU between.

    Layer i of each kernel size draws its weights from rng_for(seed,
    tag, i), with tags = (3^3 tag, 1^3 tag). The last 1^3 convolution
    maps to out_channels logits.
    """
    tag3, tag1 = tags
    layers = []
    for i in range(n_conv3):
        layers += [Conv3d(in_channels if i == 0 else channels, channels, 3,
                          rng_for(seed, tag3, i), dtype), LeakyReLU()]
    for i in range(2):
        layers += [Conv3d(channels, channels, 1, rng_for(seed, tag1, i), dtype),
                   LeakyReLU()]
    layers.append(Conv3d(channels, out_channels, 1, rng_for(seed, tag1, 2), dtype))
    return Sequential(layers)


def crop_cells(arr: np.ndarray, cell_shape) -> np.ndarray:
    """The (C, *cell_shape) corner of a (C, *vertex_shape) array."""
    return arr[:, : cell_shape[0], : cell_shape[1], : cell_shape[2]]


def cell_head_output(head: str, probs: np.ndarray, dims):
    """Typed vertex or flag output from (3, *cell_shape) probabilities."""
    if head == "flag":
        return cells_to_edge_field(probs > 0.5, dims)
    return VertexOffsetGrid(dims, np.moveaxis(probs, 0, -1).astype(np.float64))


class GridNetwork(Layer):
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
        self.trunk = conv_stack(1, channels, self.out_channels, n_conv3, seed,
                                ("conv3", "conv1"), dtype)

    def param_layers(self):
        return self.trunk.param_layers()

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

    def predict(self, grid: ScalarGrid):
        """Thresholded, typed output for this network's head."""
        probs = sigmoid(self.forward_logits(self.input_tensor(grid)))
        if self.head == "sign":
            return SignGrid(grid.dims, probs[0] > 0.5)
        return cell_head_output(self.head, crop_cells(probs, grid.dims.cell_shape),
                                grid.dims)


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
