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

Both neighborhoods hold K_NEIGHBORS points, and the active reach is
datagen.ACTIVE_MANHATTAN, the one the supervision masks use; neither is
an option of the network.

Neighbor queries break distance ties by the smaller point index. The
neighbor sets therefore do not depend on the input point order, except
where several points tie at the k-th distance: then the ones that come
first in the cloud are kept.
"""

import numpy as np
from scipy.spatial import cKDTree

from ..datagen import ACTIVE_MANHATTAN, cloud_active_cells
from ..errors import ShapeError, TooFewPoints
from ..grids import GridDims
from ..rng import rng_for
from .layers import (Layer, LeakyReLU, Linear, MaxPoolAxis, ResBlockFC,
                     Sequential, sigmoid)
from .network import HEAD_CHANNELS, cell_head_output, conv_stack

K_NEIGHBORS = 8


def knn_indices(points: np.ndarray, queries: np.ndarray, k: int,
                tree: cKDTree | None = None) -> np.ndarray:
    """Indices of the k nearest points per query, ties by point index.

    The tree is asked for k + 8 candidates. A row whose last candidate
    still lies at the k-th distance may have more points on that sphere;
    those rows are answered by _tied_knn.
    """
    n = len(points)
    if n < k:
        raise TooFewPoints(f"need at least {k} points, got {n}")
    if tree is None:
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
        self.grid = conv_stack(c, c, self.out_channels, 3, seed, ("grid3", "grid1"), dtype)
        self._cache = None

    def param_layers(self):
        return Sequential([self.point_enc, self.res, self.cell_enc, self.grid]).param_layers()

    def forward_logits(self, cloud: np.ndarray, dims: GridDims) -> np.ndarray:
        cloud = np.asarray(cloud, dtype=np.float64)
        if cloud.ndim != 2 or cloud.shape[1] != 3:
            raise ShapeError(f"cloud must be (N, 3), got {cloud.shape}")
        n = len(cloud)
        if n < K_NEIGHBORS:
            raise TooFewPoints(
                f"point network needs at least {K_NEIGHBORS} points, got {n}")
        tree = cKDTree(cloud)
        nb1 = knn_indices(cloud, cloud, K_NEIGHBORS, tree=tree)
        rel1 = (cloud[nb1] - cloud[:, None, :]).astype(self.dtype)
        feats = self.point_pool.forward(self.point_enc.forward(rel1))
        feats = self.res.forward(feats)

        active = cloud_active_cells(cloud, dims, ACTIVE_MANHATTAN)
        acells = np.argwhere(active)
        centers = acells + 0.5
        nb2 = knn_indices(cloud, centers, K_NEIGHBORS, tree=tree)
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

    def predict(self, cloud: np.ndarray, dims: GridDims):
        """Typed head output; inactive cells predict no crossing on the
        flag head and the cell center on the vertex head."""
        probs = sigmoid(self.forward_logits(cloud, dims))
        _, _, _, active = self._cache
        probs = np.where(active, probs, 0.0 if self.head == "flag" else 0.5)
        return cell_head_output(self.head, probs, dims)
