"""Grid-input prediction networks and head plumbing.

A network instance owns one output head. The SDF-input family uses
three 3^3 convolutions followed by three 1^3 convolutions (receptive
field 7^3); the occupancy-input family uses seven 3^3 convolutions for
a 15^3 receptive field. Hidden layers default to 64 channels. The
final convolution produces logits; sigmoids are applied only at
prediction time so training can work in logit space.

Head conventions on a (m, n, k) vertex lattice, where the logits lie;
a cell's outputs are those at its min corner:
  sign    1 channel per vertex, probability of "inside".
  vertex  3 channels per cell of the (m-1, n-1, k-1) cell lattice,
          sigmoid output used directly as the in-cell offset.
  flag    3 channels per cell; channel a is the crossing probability of
          the cell's edge along axis a from its min corner. Border
          edges not owned by any cell are never predicted (left false).

A network runs its stack only on the outputs that are used, a mask
over the head's lattice, through band_sets and stack_rows: 3^3 layer i
of n runs on those outputs dilated by n-1-i voxels and the 1^3 layers
on the outputs alone, and the rows equal the dense pass's voxels bit
for bit. Only forward_rows maps a cell mask onto the vertex lattice.

used_outputs is the one definition of a head's output set: predict
computes it and fills the rest, and training (nn.train) supervises the
sign and flag heads on exactly it. With S the input's band
(vertex_band: |v| < BAND_WIDTH for SDF/UDF, the corners of boundary
cells for OCC):
  sign    predicted on S; elsewhere the input's own sign (v < 0, or
          for OCC the occupancy of the vertex's own cell).
  vertex  predicted at cells with a corner in S; elsewhere 0.5.
  flag    predicted on edges with both ends in S; elsewhere false.
Outside the supervised outputs the loss, and so every gradient, is
zero; backward_rows (stack_rows_backward) is exact there. The dense
forward_logits is the reference both passes are tested against.

A vertex head's predict also takes the cells a mesh reads (`cells`,
ndc.mesh_cells of the predicted signs or flags) and then computes only
the used outputs among them: a mesh places a vertex only in cells the
surface crosses, so the other offsets would never be read.

Every pass reads the network's input as training and predict hold it:
GridNetwork takes the ScalarGrid, PointNetwork (nn.pointnet) the
cloud's CloudNeighbors. So nn.train makes one forward_rows(input, out)
call whatever the network.
"""

import numpy as np

from .._dual import cells_to_edge_field, edge_field_to_cells, neighbor_rows
from ..errors import InvalidArgument, InvalidKind, ShapeError
from ..grids import (EdgeField, GridDims, GridKind, ScalarGrid, SignGrid, VertexOffsetGrid,
                     box_any, edge_ends)
from ..mc_tables import CORNER_OFFSETS
from ..rng import rng_for
from .layers import Conv3d, LeakyReLU, Layer, Sequential, inference, sigmoid

GRID_VARIANTS = {
    "sdf_v": ("sdf", "vertex", 3),
    "sdf_s": ("sdf", "sign", 3),
    "sdf_f": ("sdf", "flag", 3),
    "vox_s": ("occ", "sign", 7),
    "vox_v": ("occ", "vertex", 7),
    "vox_f": ("occ", "flag", 7),
}
HEAD_CHANNELS = {"sign": 1, "vertex": 3, "flag": 3}
BAND_WIDTH = 1.0  # field units: the band of SDF/UDF inputs


def vertex_band(grid: ScalarGrid) -> np.ndarray:
    """The vertices a grid network predicts signs at: |v| < BAND_WIDTH
    for SDF/UDF; for OCC, the corners of boundary cells, those with an
    in-grid 26-neighbour of the other occupancy. That rule is unchanged
    by the 96 transforms, sign inversion included."""
    if grid.kind != GridKind.OCC:
        return np.abs(grid.values) < BAND_WIDTH
    occ = grid.values[:-1, :-1, :-1] > 0.5
    boundary = box_any(occ) & box_any(~occ)
    band = np.zeros(grid.dims.vertex_shape, dtype=bool)
    for corner in CORNER_OFFSETS:
        band[tuple(slice(o, o + n) for o, n in zip(corner, occ.shape))] |= boundary
    return band


def band_edges(dims: GridDims, band: np.ndarray) -> EdgeField:
    """Edges with both endpoints in a per-vertex band."""
    return EdgeField(dims, *(np.logical_and(*edge_ends(band, a)) for a in range(3)))


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


def band_sets(stack: Sequential, out: np.ndarray) -> list[np.ndarray]:
    """The voxel masks a conv_stack runs on to give logits at mask `out`.

    3^3 layer i of n reads entry i and writes entry i + 1, where entry i
    is `out` dilated by n - i voxels (3^3 box, clipped to the grid); the
    1^3 layers run on the last entry, `out` itself.
    """
    sets = [out]
    for layer in stack.layers:
        if isinstance(layer, Conv3d) and layer.kernel == 3:
            sets.insert(0, box_any(sets[0]))
    return sets


def stack_rows(stack: Sequential, x: np.ndarray, sets: list[np.ndarray]) -> np.ndarray:
    """A conv_stack's logits at the voxels of sets[-1] from its input at
    those of sets[0], both as (C, N) rows in C order.

    The rows equal forward()'s voxels bit for bit, for any dense input
    that agrees with x on sets[0] (Conv3d.forward_rows).
    """
    tables = (neighbor_rows(np.flatnonzero(b[a]), np.argwhere(a), a.shape)
              for a, b in zip(sets, sets[1:]))
    for layer in stack.layers:
        if isinstance(layer, Conv3d):
            x = layer.forward_rows(x, next(tables) if layer.kernel == 3 else None)
        else:
            x = layer.forward(x)
    return x


def stack_rows_backward(stack: Sequential, g: np.ndarray) -> np.ndarray:
    """The backward pass of the last stack_rows: the gradient at the
    input rows (sets[0]) from the gradient at the logit rows (sets[-1]).

    It is the dense backward pass restricted to the sets, exact whenever
    the logit gradient is zero outside sets[-1]: no voxel outside the
    sets then reaches a gradient.
    """
    for layer in reversed(stack.layers):
        g = layer.backward_rows(g) if isinstance(layer, Conv3d) else layer.backward(g)
    return g


def vertex_cells(head: str, cells, dims: GridDims) -> np.ndarray:
    """Check the `cells` argument of predict: a cell mask, given to a
    vertex head only (signs and flags are what a mesh's cells come from)."""
    if head != "vertex":
        raise InvalidArgument(f"only a vertex head predicts at given cells, not a {head} head")
    cells = np.asarray(cells)
    if cells.shape != dims.cell_shape:
        raise ShapeError(f"cells must be a mask on {dims.cell_shape}, got {cells.shape}")
    return cells.astype(bool)


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

    def _input_tensor(self, grid: ScalarGrid) -> np.ndarray:
        self._check_grid(grid)
        return grid.values[None].astype(self.dtype)

    def forward_logits(self, grid: ScalarGrid) -> np.ndarray:
        """Logits at every voxel (the dense reference; nothing is cached)."""
        return self.trunk.forward(self._input_tensor(grid))

    def forward_rows(self, grid: ScalarGrid, out: np.ndarray) -> np.ndarray:
        """Logits at the outputs of mask `out`, over the head's lattice, as
        (channels, N) rows in C order."""
        x = self._input_tensor(grid)
        lattice = grid.dims.vertex_shape if self.head == "sign" else grid.dims.cell_shape
        if out.shape != lattice:
            raise ShapeError(f"{self.variant} outputs lie on {lattice}, not {out.shape}")
        if self.head != "sign":
            out = np.pad(out, [(0, 1)] * 3)
        sets = band_sets(self.trunk, out)
        return stack_rows(self.trunk, x[:, sets[0]], sets)

    def backward_rows(self, grows: np.ndarray) -> None:
        """Accumulate the parameter gradients of the last forward_rows
        from the gradient at its rows."""
        stack_rows_backward(self.trunk, grows)

    def predict(self, grid: ScalarGrid, cells=None):
        """Thresholded, typed output for this network's head: computed at
        used_outputs, the fill elsewhere. A vertex head given a cell mask
        `cells` computes only at the used outputs among those cells."""
        used, fill = self.used_outputs(grid)
        if cells is not None:
            used = used & vertex_cells(self.head, cells, grid.dims)
        out = used.any(axis=0)
        probs = np.zeros(used.shape, dtype=self.dtype)
        with inference():
            probs[:, out] = sigmoid(self.forward_rows(grid, out))
        probs = np.where(used, probs, fill)
        if self.head == "sign":
            return SignGrid(grid.dims, probs[0] > 0.5)
        return cell_head_output(self.head, probs, grid.dims)

    def used_outputs(self, grid: ScalarGrid):
        """(C, *lattice) mask of the outputs predict computes, and the
        fill of the others. With S = vertex_band(grid): signs on S,
        filled with the input's own sign; vertex offsets at cells with a
        corner in S, filled with 0.5; flags on the cell-owned edges with
        both ends in S, filled with false."""
        self._check_grid(grid)
        band = vertex_band(grid)
        if self.head == "sign":
            own = grid.values > 0.5 if grid.kind is GridKind.OCC else grid.values < 0
            return band[None], own[None]
        if self.head == "vertex":
            m, n, k = grid.dims.cell_shape
            cells = np.zeros((m, n, k), dtype=bool)
            for ox, oy, oz in CORNER_OFFSETS:
                cells |= band[ox:ox + m, oy:oy + n, oz:oz + k]
            return np.broadcast_to(cells, (3, m, n, k)), 0.5
        return edge_field_to_cells(band_edges(grid.dims, band)), 0.0


def make_network(variant: str, channels: int | None = None, seed: int = 0,
                 head: str | None = None, resblocks: int | None = None):
    """Build a float32 prediction network by variant name.

    Grid variants fix their head; "pc_encoder" takes the head
    explicitly (default "flag") and defaults to 128 channels.
    """
    if variant == "pc_encoder":
        from .pointnet import PointNetwork
        return PointNetwork(head or "flag",
                            channels=128 if channels is None else channels, seed=seed,
                            resblocks=2 if resblocks is None else resblocks)
    net = GridNetwork(variant, channels=64 if channels is None else channels, seed=seed)
    if head is not None and head != net.head:
        raise ValueError(f"variant {variant} has head {net.head!r}, not {head!r}")
    return net
