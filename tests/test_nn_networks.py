"""Networks and training: the point network's backward pass against
finite differences, its invariance to point order, neighbor queries
against a brute-force order, reproducible training runs and divergence."""

import numpy as np
import pytest

from ndcmesh.csg import random_scene
from ndcmesh.datagen import make_training_sample, sample_point_cloud
from ndcmesh.errors import TrainingDiverged
from ndcmesh.fileio import save_weights
from ndcmesh.grids import GridDims
from ndcmesh.nn import PointNetwork, TrainConfig, knn_indices, train_network
from ndcmesh.rng import rng_for

FD_H = 1e-6
FD_TOL = 1e-5


def brute_force_knn(points, queries, k):
    """The k nearest points per query in (distance, index) order."""
    d2 = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    idx = np.broadcast_to(np.arange(len(points)), d2.shape)
    order = np.lexsort((idx, d2), axis=-1)
    return order[:, :k]


def test_knn_breaks_ties_by_index_like_brute_force():
    ax = np.arange(5.0)
    lattice = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    for k in (8, 11, 27):
        assert np.array_equal(knn_indices(lattice, lattice, k),
                              brute_force_knn(lattice, lattice, k)), k
    cloud = rng_for(40, "cloud").random((300, 3)) * 6.0
    queries = rng_for(40, "queries").random((50, 3)) * 6.0
    assert np.array_equal(knn_indices(cloud, queries, 8), brute_force_knn(cloud, queries, 8))
    # repeated points: up to 20 copies of one position, in shuffled order
    copies = rng_for(40, "copies").integers(1, 21, len(lattice))
    shuffle = rng_for(40, "shuffle").permutation(int(copies.sum()))
    repeated = np.repeat(lattice, copies, axis=0)[shuffle]
    for queries in (lattice, lattice[::7] + 0.5):
        for k in (8, 27):
            assert np.array_equal(knn_indices(repeated, queries, k),
                                  brute_force_knn(repeated, queries, k)), k


def test_point_network_backward_matches_finite_differences():
    dims = GridDims(4, 4, 4)
    cloud = 0.5 + 2.0 * rng_for(41, "cloud").random((24, 3))
    net = PointNetwork("vertex", channels=3, seed=41, dtype=np.float64, resblocks=1)
    # zero biases would put the self-neighbor (relative position 0) on a relu kink
    for i, layer in enumerate(net.param_layers()):
        layer.bias.value[:] = 0.3 * rng_for(41, "bias", i).standard_normal(layer.bias.value.shape)
    logits = net.forward_logits(cloud, dims)
    r = rng_for(41, "projection").standard_normal(logits.shape)

    def loss():
        return float(np.sum(net.forward_logits(cloud, dims) * r))

    net.zero_grad()
    net.forward_logits(cloud, dims)
    net.backward(r.copy())
    pick = rng_for(41, "entries")
    worst = 0.0
    for p in net.params():
        flat, gflat = p.value.reshape(-1), p.grad.reshape(-1)
        for i in pick.choice(flat.size, size=min(flat.size, 6), replace=False):
            keep = flat[i]
            flat[i] = keep + FD_H
            up = loss()
            flat[i] = keep - FD_H
            down = loss()
            flat[i] = keep
            fd = (up - down) / (2.0 * FD_H)
            worst = max(worst, abs(fd - gflat[i]) / max(abs(fd) + abs(gflat[i]), 1e-8))
    assert worst < FD_TOL, f"max relative error {worst}"


def test_point_network_predictions_ignore_point_order():
    dims = GridDims(12, 12, 12)
    cloud = sample_point_cloud(random_scene(42, 11.0), 400, 0.0, 42)
    perm = rng_for(42, "perm").permutation(len(cloud))
    for head in ("flag", "vertex"):
        net = PointNetwork(head, channels=8, seed=42)
        a, b = net.predict(cloud, dims), net.predict(cloud[perm], dims)
        if head == "flag":
            assert all(np.array_equal(x, y) for x, y in zip(a.axes, b.axes))
        else:
            assert np.allclose(a.offsets, b.offsets, rtol=0.0, atol=1e-6)


def _weights_bytes(tmp_path, config, samples, name):
    net, history = train_network(config, samples)
    path = tmp_path / name
    save_weights(path, net)
    return path.read_bytes(), history


@pytest.mark.parametrize("variant,head,kind", [("sdf_v", None, "sdf"),
                                               ("pc_encoder", "flag", "points")])
def test_training_twice_from_one_seed_saves_identical_weights(tmp_path, variant, head, kind):
    dims = GridDims(13, 13, 13)
    samples = [make_training_sample(random_scene(s, 12.0), dims, kind, seed=s, cloud_size=256)
               for s in (43, 44)]
    config = TrainConfig(variant, head=head, channels=4, lr=1e-3, epochs=2,
                         augment=True, seed=43)
    first, h1 = _weights_bytes(tmp_path, config, samples, "a.ndcw")
    second, h2 = _weights_bytes(tmp_path, config, samples, "b.ndcw")
    assert first == second and h1 == h2 and len(h1) == 2


def test_a_diverging_run_raises_training_diverged():
    dims = GridDims(13, 13, 13)
    samples = [make_training_sample(random_scene(45, 12.0), dims, "sdf", seed=45)]
    assert samples[0].masks.m_v.any()
    config = TrainConfig("sdf_v", channels=4, lr=float("inf"), epochs=3, seed=45)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
        train_network(config, samples)
