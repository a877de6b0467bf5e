"""Point-cloud encoder: local KNN PointNet pooled onto the cell grid.

Stage one builds a feature per input point from the relative positions
of its K nearest neighbors (two linear layers, leaky ReLU, max-pool),
then refines it with residual blocks. Stage two queries the K nearest
points from each active cell center, concatenates relative positions
with point features, and pools the same way into a per-cell feature.
Active cells are those within a small Manhattan reach of a cell that
contains a point (datagen.cloud_active_cells); all other cells carry
zero features. Stage three runs three 3^3 and three 1^3 convolutions
over the cell grid to produce head logits.

The head's output set, used_outputs, is the active cells on every
channel: predict keeps its output there, and every other cell gets no
crossing on the flag head and the cell center (0.5) on the vertex head.
Training supervises the flag head on exactly that set. It runs stage
three band-sparse, like GridNetwork (network.stack_rows): on band_sets
of the supervised cells, from an input that is non-zero only at active
cells, and its input gradient is read only there.

predict runs the flag head's grid stage dense: the active set follows
how far the points spread (2,300 to 9,400 cells for 2,048-point clouds
of random 48^3 scenes), and a sparse pass's cost with it, while the
dense pass costs the same for every cloud: each 3^3 layer mixes
D * (H + 2) * (W + 2) columns of windows it reads in place
(layers.Conv3d). A vertex head given the cells a mesh reads
(ndc.mesh_cells, as `ndcmesh infer` passes them) runs forward_rows at
the active cells among them instead: the few hundred cells the surface
crosses.

Both neighborhoods hold K_NEIGHBORS points, and the active reach is
datagen.ACTIVE_MANHATTAN; neither is an option of the network. So they
depend on the cloud alone: cloud_neighbors finds them once, and every
network that reads the same cloud (`ndcmesh infer` with a flag and a
vertex head) takes the same CloudNeighbors. forward_rows and
forward_logits read only a CloudNeighbors, which carries the grid dims;
predict also takes the raw (N, 3) cloud with the dims.

Neighbor queries break distance ties by the smaller point index. The
neighbor sets therefore do not depend on the input point order, except
where several points tie at the k-th distance: then the ones that come
first in the cloud are kept.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..datagen import cloud_active_cells
from ..errors import NonFiniteValues, ShapeError, TooFewPoints
from ..grids import GridDims
from ..rng import rng_for
from .layers import (Layer, LeakyReLU, Linear, MaxPoolAxis, ResBlockFC,
                     Sequential, _cached, inference, sigmoid)
from .network import (HEAD_CHANNELS, band_sets, cell_head_output, conv_stack, stack_rows,
                      stack_rows_backward, vertex_cells)

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

K_NEIGHBORS = 8


def knn_indices(points: np.ndarray, queries: np.ndarray, k: int,
                tree: "cKDTree | None" = None) -> np.ndarray:
    """Indices of the k nearest points per query, ties by point index.

    The tree is asked for k + 8 candidates. A row whose last candidate
    still lies at the k-th distance may have more points on that sphere;
    those rows are answered by _tied_knn.
    """
    n = len(points)
    if n < k:
        raise TooFewPoints(f"need at least {k} points, got {n}")
    if tree is None:
        from scipy.spatial import cKDTree
        tree = cKDTree(points)
    kq = min(n, k + 8)
    d, i = tree.query(queries, k=kq)
    order = np.lexsort((i, d), axis=-1)
    out = np.take_along_axis(i, order, axis=-1)[:, :k]
    if kq < n:
        tied = d[:, -1] == d[:, k - 1]
        if tied.any():
            out[tied] = _tied_knn(points, queries[tied], k)
    return out


def _tied_knn(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """knn_indices for rows with ties at the k-th distance.

    Sampled clouds tie mostly through repeated points, so the search
    runs over distinct positions, each standing for its k smallest point
    indices: its cost stays near that of untied rows however many points
    share a position. Each row starts from its two nearest positions and
    doubles them until the last one lies beyond the k-th distance.
    """
    n = len(points)
    members = np.lexsort(points.T)  # grouped by position, stable within
    ordered = points[members]
    starts = np.flatnonzero(np.r_[True, np.any(ordered[1:] != ordered[:-1], axis=1)])
    counts = np.diff(np.r_[starts, n])
    j = np.arange(k)
    # the k smallest point indices at each position, padded with n
    table = np.where(j < counts[:, None],
                     members[np.minimum(starts[:, None] + j, n - 1)], n)
    from scipy.spatial import cKDTree
    tree = cKDTree(ordered[starts])
    out = np.empty((len(queries), k), dtype=np.intp)
    rows = np.arange(len(queries))
    kq = min(len(starts), 2)
    while len(rows):
        d, i = tree.query(queries[rows], k=kq)
        d, i = d.reshape(len(rows), kq), i.reshape(len(rows), kq)
        cand = table[i]
        dist = np.where(cand < n, d[:, :, None], np.inf).reshape(len(rows), -1)
        cand = cand.reshape(len(rows), -1)
        order = np.lexsort((cand, dist), axis=-1)[:, :k]
        out[rows] = np.take_along_axis(cand, order, axis=-1)
        if kq == len(starts):
            break
        # done once the last position lies beyond the k-th distance
        kth = np.take_along_axis(dist, order[:, -1:], axis=-1)[:, 0]
        rows = rows[~(d[:, -1] > kth)]
        kq = min(len(starts), 2 * kq)
    return out


@dataclass(frozen=True)
class CloudNeighbors:
    """What the point networks compute from a cloud alone, whatever their
    weights: the K_NEIGHBORS nearest points of every point and of every
    active cell center, and the active cell mask."""

    cloud: np.ndarray  # (N, 3) float64
    dims: GridDims
    points: np.ndarray  # (N, K) point indices
    active: np.ndarray  # cell mask, datagen.cloud_active_cells
    cells: np.ndarray  # (active cells, K) point indices, cells in C order


def cloud_neighbors(cloud: np.ndarray, dims: GridDims) -> CloudNeighbors:
    """Check a cloud and find its neighborhoods, one KD-tree for both."""
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.ndim != 2 or cloud.shape[1] != 3:
        raise ShapeError(f"cloud must be (N, 3), got {cloud.shape}")
    if not np.all(np.isfinite(cloud)):
        raise NonFiniteValues("point cloud coordinates must be finite")
    if len(cloud) < K_NEIGHBORS:
        raise TooFewPoints(
            f"point network needs at least {K_NEIGHBORS} points, got {len(cloud)}")
    from scipy.spatial import cKDTree
    tree = cKDTree(cloud)
    points = knn_indices(cloud, cloud, K_NEIGHBORS, tree=tree)
    active = cloud_active_cells(cloud, dims)
    cells = knn_indices(cloud, np.argwhere(active) + 0.5, K_NEIGHBORS, tree=tree)
    return CloudNeighbors(cloud, dims, points, active, cells)


class PointNetwork(Layer):
    variant = "pc_encoder"

    def __init__(self, head: str, channels: int = 128, seed: int = 0,
                 dtype=np.float32, resblocks: int = 2):
        if head not in ("vertex", "flag"):
            raise ValueError(f"point network head must be vertex or flag, got {head!r}")
        self.head = head
        self.channels = channels
        self.out_channels = HEAD_CHANNELS[head]
        self.dtype = dtype
        c = channels
        self.point_enc = Sequential([
            Linear(3, c, rng_for(seed, "enc", 0), dtype), LeakyReLU(),
            Linear(c, c, rng_for(seed, "enc", 1), dtype), LeakyReLU(),
        ])
        self.point_pool = MaxPoolAxis()
        self.resblock_count = resblocks
        self.res = Sequential([
            ResBlockFC(c, rng_for(seed, "res", i), dtype) for i in range(resblocks)
        ])
        self.cell_enc = Sequential([
            Linear(3 + c, c, rng_for(seed, "cell", 0), dtype), LeakyReLU(),
            Linear(c, c, rng_for(seed, "cell", 1), dtype), LeakyReLU(),
        ])
        self.cell_pool = MaxPoolAxis()
        self.grid = conv_stack(c, c, self.out_channels, 3, seed, ("grid3", "grid1"), dtype)
        self._cache = None

    def param_layers(self):
        return Sequential([self.point_enc, self.res, self.cell_enc, self.grid]).param_layers()

    def _cell_features(self, nb: CloudNeighbors) -> np.ndarray:
        """Stages one and two: (active cells, channels) features in C order."""
        cloud = nb.cloud
        rel1 = (cloud[nb.points] - cloud[:, None, :]).astype(self.dtype)
        feats = self.point_pool.forward(self.point_enc.forward(rel1))
        feats = self.res.forward(feats)

        centers = np.argwhere(nb.active) + 0.5
        rel2 = (cloud[nb.cells] - centers[:, None, :]).astype(self.dtype)
        cat = np.concatenate([rel2, feats[nb.cells]], axis=-1)
        return self.cell_pool.forward(self.cell_enc.forward(cat))

    def forward_logits(self, nb: CloudNeighbors) -> np.ndarray:
        """Logits over the whole cell grid (the dense reference). There is
        no dense backward, so it drops what forward_rows cached."""
        self._cache = None
        vol = np.zeros((self.channels,) + nb.dims.cell_shape, dtype=self.dtype)
        vol[:, nb.active] = self._cell_features(nb).T
        return self.grid.forward(vol)

    def forward_rows(self, nb: CloudNeighbors, out: np.ndarray) -> np.ndarray:
        """Logits at the cells of mask `out`, as (channels, N) rows in C
        order; caches what backward_rows needs."""
        if out.shape != nb.dims.cell_shape:
            raise ShapeError(f"pc_encoder outputs lie on {nb.dims.cell_shape}, not {out.shape}")
        sets = band_sets(self.grid, out)
        # the active cells among the input rows, and the input rows among
        # the active cells: the same cells, both in C order
        at_rows, at_active = nb.active[sets[0]], sets[0][nb.active]
        x = np.zeros((self.channels, len(at_rows)), dtype=self.dtype)
        x[:, at_rows] = self._cell_features(nb)[at_active].T
        self._cache = _cached((nb, at_rows, at_active))
        return stack_rows(self.grid, x, sets)

    def backward_rows(self, grows: np.ndarray) -> None:
        """Accumulate the parameter gradients of the last forward_rows
        from the gradient at its rows."""
        nb, at_rows, at_active = self._cache
        gx = stack_rows_backward(self.grid, grows)
        gcells = np.zeros((len(at_active), self.channels), dtype=grows.dtype)
        gcells[at_active] = gx[:, at_rows].T
        gcat = self.cell_enc.backward(self.cell_pool.backward(gcells))
        gfeats = np.zeros((len(nb.cloud), self.channels), dtype=grows.dtype)
        np.add.at(gfeats, nb.cells, gcat[..., 3:])
        gfeats = self.res.backward(gfeats)
        self.point_enc.backward(self.point_pool.backward(gfeats))

    def used_outputs(self, nb: CloudNeighbors):
        """(3, *cell_shape) mask of the outputs predict computes, the
        active cells on every channel, and the fill of the others: no
        crossing on the flag head, the cell center on the vertex head."""
        return (np.broadcast_to(nb.active, (3,) + nb.active.shape),
                0.0 if self.head == "flag" else 0.5)

    def predict(self, cloud, dims: GridDims, cells=None):
        """Typed head output: computed at used_outputs, the fill
        elsewhere. `cloud` is an (N, 3) array or its CloudNeighbors,
        which several networks can share. A vertex head given a cell
        mask `cells` computes only at the active cells among them, on
        their rows (forward_rows); otherwise the grid stage runs dense."""
        nb = cloud if isinstance(cloud, CloudNeighbors) else cloud_neighbors(cloud, dims)
        if nb.dims != dims:
            raise ShapeError(f"cloud neighborhoods are for {nb.dims}, not {dims}")
        used, fill = self.used_outputs(nb)
        with inference():
            if cells is None:
                probs = sigmoid(self.forward_logits(nb))
            else:
                used = used & vertex_cells(self.head, cells, dims)
                probs = np.zeros(used.shape, dtype=self.dtype)
                probs[:, used[0]] = sigmoid(self.forward_rows(nb, used[0]))
        return cell_head_output(self.head, np.where(used, probs, fill), dims)
