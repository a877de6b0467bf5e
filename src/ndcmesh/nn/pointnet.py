"""Point-cloud encoder: local KNN PointNet pooled onto the cell grid.

Stage one builds a feature per input point from the relative positions
of its K nearest neighbors (two linear layers, leaky ReLU, max-pool),
then refines it with residual blocks. Stage two queries the K nearest
points from each active cell center, concatenates relative positions
with point features, and pools the same way into a per-cell feature.
Active cells are those within a small Manhattan reach of a cell that
contains a point; all other cells carry zero features and are forced
to predict nothing. Stage three runs three 3^3 and three 1^3
convolutions over the cell grid to produce head logits.

Neighbor queries break distance ties by the smaller point index, so
results do not depend on the input point order (up to exact duplicate
coordinates).
"""

import numpy as np
from scipy.spatial import cKDTree

from ..datagen import ACTIVE_MANHATTAN, cloud_active_cells
from ..errors import ShapeError, TooFewPoints
from ..grids import GridDims, VertexOffsetGrid, cells_to_edge_field
from ..rng import rng_for
from .layers import (Conv3d, LeakyReLU, Linear, MaxPoolAxis, ResBlockFC,
                     Sequential, sigmoid)
from .network import HEAD_CHANNELS

K_NEIGHBORS = 8


def knn_indices(points: np.ndarray, queries: np.ndarray, k: int,
                tree: cKDTree | None = None) -> np.ndarray:
    """Indices of the k nearest points per query, ties by point index."""
    n = len(points)
    if n < k:
        raise TooFewPoints(f"need at least {k} points, got {n}")
    if tree is None:
        tree = cKDTree(points)
    kq = min(n, k + 8)
    d, i = tree.query(queries, k=kq)
    order = np.lexsort((i, d), axis=-1)
    return np.take_along_axis(i, order, axis=-1)[:, :k]


class PointNetwork:
    variant = "pc_encoder"

    def __init__(self, head: str, channels: int = 128, seed: int = 0,
                 dtype=np.float32, k_neighbors: int = K_NEIGHBORS,
                 reach: int = ACTIVE_MANHATTAN, resblocks: int = 2):
        if head not in ("vertex", "flag"):
            raise ValueError(f"point network head must be vertex or flag, got {head!r}")
        self.head = head
        self.channels = channels
        self.out_channels = HEAD_CHANNELS[head]
        self.dtype = dtype
        self.k_neighbors = k_neighbors
        self.reach = reach
        c = channels
        self.point_enc = Sequential([
            Linear(3, c, rng_for(seed, "enc", 0), dtype), LeakyReLU(),
            Linear(c, c, rng_for(seed, "enc", 1), dtype), LeakyReLU(),
        ])
        self.point_pool = MaxPoolAxis(axis=1)
        self.resblock_count = resblocks
        self.res = Sequential([
            ResBlockFC(c, rng_for(seed, "res", i), dtype) for i in range(resblocks)
        ])
        self.cell_enc = Sequential([
            Linear(3 + c, c, rng_for(seed, "cell", 0), dtype), LeakyReLU(),
            Linear(c, c, rng_for(seed, "cell", 1), dtype), LeakyReLU(),
        ])
        self.cell_pool = MaxPoolAxis(axis=1)
        grid_layers = []
        for i in range(3):
            grid_layers += [Conv3d(c, c, 3, rng_for(seed, "grid3", i), dtype),
                            LeakyReLU()]
        for i in range(2):
            grid_layers += [Conv3d(c, c, 1, rng_for(seed, "grid1", i), dtype),
                            LeakyReLU()]
        grid_layers.append(Conv3d(c, self.out_channels, 1,
                                  rng_for(seed, "grid1", 2), dtype))
        self.grid = Sequential(grid_layers)
        self._cache = None

    def _modules(self):
        return [self.point_enc, self.res, self.cell_enc, self.grid]

    def params(self):
        out = []
        for mod in self._modules():
            out.extend(mod.params())
        return out

    def param_layers(self):
        out = []
        for mod in self._modules():
            for layer in mod.layers:
                if isinstance(layer, (Conv3d, Linear)):
                    out.append(layer)
                elif isinstance(layer, ResBlockFC):
                    out.extend([layer.fc1, layer.fc2])
        return out

    def zero_grad(self):
        for mod in self._modules():
            mod.zero_grad()

    def forward_logits(self, cloud: np.ndarray, dims: GridDims) -> np.ndarray:
        cloud = np.asarray(cloud, dtype=np.float64)
        if cloud.ndim != 2 or cloud.shape[1] != 3:
            raise ShapeError(f"cloud must be (N, 3), got {cloud.shape}")
        n = len(cloud)
        if n < self.k_neighbors:
            raise TooFewPoints(
                f"point network needs at least {self.k_neighbors} points, got {n}")
        tree = cKDTree(cloud)
        nb1 = knn_indices(cloud, cloud, self.k_neighbors, tree=tree)
        rel1 = (cloud[nb1] - cloud[:, None, :]).astype(self.dtype)
        feats = self.point_pool.forward(self.point_enc.forward(rel1))
        feats = self.res.forward(feats)

        active = cloud_active_cells(cloud, dims, self.reach)
        acells = np.argwhere(active)
        centers = acells + 0.5
        nb2 = knn_indices(cloud, centers, self.k_neighbors, tree=tree)
        rel2 = (cloud[nb2] - centers[:, None, :]).astype(self.dtype)
        cat = np.concatenate([rel2, feats[nb2]], axis=-1)
        cell_feats = self.cell_pool.forward(self.cell_enc.forward(cat))

        vol = np.zeros((self.channels,) + dims.cell_shape, dtype=self.dtype)
        vol[:, acells[:, 0], acells[:, 1], acells[:, 2]] = cell_feats.T
        self._cache = (n, nb2, acells, active)
        return self.grid.forward(vol)

    def backward(self, glogits: np.ndarray) -> None:
        n, nb2, acells, _ = self._cache
        gvol = self.grid.backward(glogits)
        gcell = gvol[:, acells[:, 0], acells[:, 1], acells[:, 2]].T
        gcat = self.cell_enc.backward(self.cell_pool.backward(gcell))
        gfeats = np.zeros((n, self.channels), dtype=glogits.dtype)
        np.add.at(gfeats, nb2, gcat[..., 3:])
        gfeats = self.res.backward(gfeats)
        self.point_enc.backward(self.point_pool.backward(gfeats))

    def active_cells(self) -> np.ndarray:
        return self._cache[3]

    def predict_probs(self, cloud: np.ndarray, dims: GridDims):
        """(probs, active): per-cell head probabilities, inactive forced.

        Inactive cells get probability 0 on the flag head and the cell
        center on the vertex head.
        """
        probs = sigmoid(self.forward_logits(cloud, dims))
        active = self.active_cells()
        if self.head == "flag":
            probs = np.where(active, probs, 0.0)
        else:
            probs = np.where(active, probs, 0.5)
        return probs, active

    def predict(self, cloud: np.ndarray, dims: GridDims):
        probs, _ = self.predict_probs(cloud, dims)
        if self.head == "flag":
            return cells_to_edge_field(probs > 0.5, dims)
        return VertexOffsetGrid(dims, np.moveaxis(probs, 0, -1).astype(np.float64))
