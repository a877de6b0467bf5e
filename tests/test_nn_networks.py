"""Networks and training: the point network's backward pass against
finite differences, its invariance to point order, neighbor queries
against a brute-force order, band-sparse training steps against a dense
forward and backward and against a loss computed on logit volumes,
reproducible training runs and divergence, one neighborhood build per
unaugmented point sample, set-restricted prediction
against the dense pass, prediction that keeps nothing for a backward
pass, dense logits that do not depend on the BLAS thread count, and
masks off a head's lattice."""

import functools
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import ndcmesh.nn.train as train_module
from ndcmesh._dual import edge_field_to_cells
from ndcmesh.csg import random_scene
from ndcmesh.datagen import cloud_active_cells, make_training_sample, sample_point_cloud
from ndcmesh.errors import InvalidArgument, NonFiniteValues, ShapeError, TrainingDiverged
from ndcmesh.fileio import save_weights
from ndcmesh.grids import GridDims, GridKind, ScalarGrid, SignGrid, VertexOffsetGrid
from ndcmesh.nn import (BCE_EPS, GRID_VARIANTS, Adam, Conv3d, GridNetwork, PointNetwork,
                        TrainConfig, Sigmoid, cloud_neighbors, knn_indices, make_network,
                        sigmoid, train_network, train_step)
from ndcmesh.nn.layers import Layer
from ndcmesh.nn.network import band_sets, stack_rows
from ndcmesh.nn.train import head_loss, network_input, supervised_outputs
from ndcmesh.rng import rng_for

FD_H = 1e-6
FD_TOL = 1e-5

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Prints a digest of the dense logits of a 32-channel sdf_v network and a
# 32-channel point network at 20^3, one line each.
THREAD_PROBE = """
import hashlib
from ndcmesh.csg import random_scene
from ndcmesh.datagen import sample_csg_grid, sample_point_cloud
from ndcmesh.grids import GridDims
from ndcmesh.nn import GridNetwork, PointNetwork, cloud_neighbors
dims = GridDims(20, 20, 20)
scene = random_scene(3, 19.0)
cloud = sample_point_cloud(scene, 512, 0.0, 3)
for net, inp in ((GridNetwork("sdf_v", channels=32, seed=4), sample_csg_grid(scene, dims)),
                 (PointNetwork("flag", channels=32, seed=4), cloud_neighbors(cloud, dims))):
    print(hashlib.sha256(net.forward_logits(inp).tobytes()).hexdigest())
"""


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
    """backward_rows against finite differences of the dense logits, read
    at a band set and at the full cell set."""
    dims = GridDims(4, 4, 4)
    cloud = 0.5 + 2.0 * rng_for(41, "cloud").random((24, 3))
    net = PointNetwork("vertex", channels=3, seed=41, dtype=np.float64, resblocks=1)
    # zero biases would put the self-neighbor (relative position 0) on a relu kink
    for i, layer in enumerate(net.param_layers()):
        layer.bias.value[:] = 0.3 * rng_for(41, "bias", i).standard_normal(layer.bias.value.shape)
    band = np.zeros(dims.cell_shape, dtype=bool)
    band[0, 1, :] = band[2, 2, 1] = True
    nb = cloud_neighbors(cloud, dims)
    for out in (band, np.ones(dims.cell_shape, dtype=bool)):
        r = rng_for(41, "projection").standard_normal((3, int(out.sum())))

        def loss():
            return float(np.sum(net.forward_logits(nb)[:, out] * r))

        net.zero_grad()
        net.forward_rows(nb, out)
        net.backward_rows(r.copy())
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
        assert worst < FD_TOL, f"{out.sum()} cells: max relative error {worst}"


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
                                               ("pc_encoder", "flag", "points"),
                                               ("sdf_s", None, "sdf"),
                                               ("sdf_f", None, "sdf")])
def test_training_twice_from_one_seed_saves_identical_weights(tmp_path, variant, head, kind):
    dims = GridDims(13, 13, 13)
    samples = [make_training_sample(random_scene(s, 12.0), dims, kind, seed=s, cloud_size=256)
               for s in (43, 44)]
    config = TrainConfig(variant, head=head, channels=4, lr=1e-3, epochs=2,
                         augment=True, seed=43)
    first, h1 = _weights_bytes(tmp_path, config, samples, "a.ndcw")
    second, h2 = _weights_bytes(tmp_path, config, samples, "b.ndcw")
    assert first == second and h1 == h2 and len(h1) == 2


def test_unaugmented_training_builds_each_clouds_neighborhoods_once(tmp_path, monkeypatch):
    dims = GridDims(13, 13, 13)
    sample = make_training_sample(random_scene(46, 12.0), dims, "points", seed=46, cloud_size=256)
    config = TrainConfig("pc_encoder", head="vertex", channels=4, lr=1e-3, epochs=6,
                         halve_every=0, seed=46)
    calls = []
    build = train_module.cloud_neighbors
    monkeypatch.setattr(train_module, "cloud_neighbors",
                        lambda *args: calls.append(1) or build(*args))
    got, history = _weights_bytes(tmp_path, config, [sample], "once.ndcw")
    assert len(calls) == 1 and len(history) == 6
    # the reference builds the neighborhoods in every step
    net = make_network("pc_encoder", channels=4, head="vertex",
                       seed=rng_for(46, "init").integers(2 ** 31))
    adam = Adam(net.params(), lr=1e-3)
    want = [train_step(net, sample, adam) for _ in range(6)]
    save_weights(tmp_path / "each.ndcw", net)
    assert len(calls) == 7 and want == history
    assert (tmp_path / "each.ndcw").read_bytes() == got


def test_a_diverging_run_raises_training_diverged():
    dims = GridDims(13, 13, 13)
    samples = [make_training_sample(random_scene(45, 12.0), dims, "sdf", seed=45)]
    assert supervised_outputs(GridNetwork("sdf_v", channels=4), samples[0]).any()
    config = TrainConfig("sdf_v", channels=4, lr=float("inf"), epochs=3, seed=45)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
        train_network(config, samples)


# ------------------------------------------------- band-sparse training


def dense_conv_backward(conv, x, gy):
    """The dense Conv3d backward pass: one loop over the 3^3 (or 1^3)
    windows of the zero-padded input. Returns (input gradient, weight
    gradient, bias gradient)."""
    p = conv.kernel // 2
    _, d, h, w = gy.shape
    xp = np.pad(x, [(0, 0)] + [(p, p)] * 3)
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(conv.weight.value)
    for dz, dy, dx in itertools.product(range(conv.kernel), repeat=3):
        win = (slice(None), slice(dz, dz + d), slice(dy, dy + h), slice(dx, dx + w))
        gw[:, :, dz, dy, dx] = np.tensordot(gy, xp[win], axes=([1, 2, 3], [1, 2, 3]))
        gxp[win] += np.tensordot(conv.weight.value[:, :, dz, dy, dx].T, gy, axes=1)
    return gxp[:, p:p + d, p:p + h, p:p + w], gw, gy.sum(axis=(1, 2, 3))


def dense_stack_backward(stack, x, glogits):
    """Dense forward and backward of a conv stack: the input gradient, and
    {conv: (weight gradient, bias gradient)}."""
    inputs = []
    for layer in stack.layers:
        inputs.append(x)
        x = layer.forward(x)
    grads = {}
    for layer, x in zip(reversed(stack.layers), reversed(inputs)):
        if isinstance(layer, Conv3d):
            glogits, *grads[layer] = dense_conv_backward(layer, x, glogits)
        else:
            glogits = layer.backward(glogits)
    return glogits, grads


def on_output_grid(out, shape):
    """A head-lattice mask over a network's output grid: a grid
    network's cell heads read the logits at each cell's min corner."""
    return out if out.shape == shape else np.pad(out, [(0, 1)] * 3)


def dense_training_step(net, sample):
    """The loss and the parameter gradients of one training step run
    densely over the whole grid, parameters in params() order. The loss
    reads the dense logits at the supervised outputs."""
    net.zero_grad()
    used = supervised_outputs(net, sample)

    def loss_and_gradient(logits):
        at = on_output_grid(used.any(axis=0), logits.shape[1:])
        loss, grows = head_loss(net, sample, logits[:, at], used)
        glogits = np.zeros_like(logits)
        glogits[:, at] = grows
        return loss, glogits

    if net.variant == "pc_encoder":
        nb = cloud_neighbors(sample.cloud, sample.dims)
        vol = np.zeros((net.channels,) + sample.dims.cell_shape, dtype=net.dtype)
        vol[:, nb.active] = net._cell_features(nb).T
        loss, glogits = loss_and_gradient(net.grid.forward(vol))
        gvol, grads = dense_stack_backward(net.grid, vol, glogits)
        gcat = net.cell_enc.backward(net.cell_pool.backward(gvol[:, nb.active].T))
        gfeats = np.zeros((len(nb.cloud), net.channels), dtype=net.dtype)
        np.add.at(gfeats, nb.cells, gcat[..., 3:])
        net.point_enc.backward(net.point_pool.backward(net.res.backward(gfeats)))
    else:
        loss, glogits = loss_and_gradient(net.forward_logits(sample.grid))
        x = sample.grid.values[None].astype(net.dtype)
        _, grads = dense_stack_backward(net.trunk, x, glogits)
    return loss, [g for layer in net.param_layers()
                  for g in grads.get(layer, (layer.weight.grad, layer.bias.grad))]


class CaptureGradients:
    """An optimizer stand-in that keeps the gradients of a step."""

    def __init__(self, net):
        self.net, self.grads = net, None

    def step(self):
        self.grads = [p.grad.copy() for p in self.net.params()]

    def zero_grad(self):
        self.net.zero_grad()


def training_nets_and_samples(scene_seed, net_seed):
    """Every grid variant and point head with random biases, each with a
    13^3 sample of its input kind from random_scene(scene_seed)."""
    dims = GridDims(13, 13, 13)
    scene = random_scene(scene_seed, 12.0)
    samples = {kind: make_training_sample(scene, dims, kind, seed=scene_seed, cloud_size=256)
               for kind in ("sdf", "occ", "points")}
    nets = [GridNetwork(v, channels=6, seed=net_seed) for v in GRID_VARIANTS]
    nets += [PointNetwork(h, channels=6, seed=net_seed, resblocks=1)
             for h in ("flag", "vertex")]
    for net in nets:
        random_biases(net, net_seed)
        yield net, samples["points" if net.variant == "pc_encoder" else net.input_kind]


def test_band_sparse_training_steps_equal_the_dense_pass():
    """train_step runs each network on its head's supervision mask only;
    its loss is the dense pass's bit for bit, and every parameter
    gradient the dense backward pass's to float32 rounding."""
    # every mask of scene 63 holds 0.5% to 25% of its grid
    for net, sample in training_nets_and_samples(63, 55):
        out = supervised_outputs(net, sample)
        assert out.any() and not out.all(), net.variant
        capture = CaptureGradients(net)
        loss = train_step(net, sample, capture)
        want_loss, want_grads = dense_training_step(net, sample)
        assert loss == want_loss, (net.variant, net.head)
        for got, want in zip(capture.grads, want_grads, strict=True):
            assert got.dtype == want.dtype == np.float32
            scale = np.abs(want).max()
            assert scale > 0 and np.abs(got - want).max() <= 1e-5 * scale, (net.variant, net.head)


def masked_mse_reference(pred, gt, mask):
    """Mean over the masked cells of a (..., 3) volume of the squared
    error summed per cell, and its gradient."""
    count = int(mask.sum())
    if count == 0:
        return 0.0, np.zeros_like(pred)
    diff = (pred - gt) * mask[..., None]
    return float(np.sum(diff * diff) / count), ((2.0 / count) * diff).astype(pred.dtype)


def masked_bce_reference(logits, labels, mask):
    """Mean binary cross entropy over the masked entries of a volume of
    logits, and its gradient."""
    labels = np.asarray(labels, dtype=logits.dtype)
    count = int(mask.sum())
    if count == 0:
        return 0.0, np.zeros_like(logits)
    p = sigmoid(logits)
    pc = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    per = -(labels * np.log(pc) + (1.0 - labels) * np.log1p(-pc))
    grad = np.where(mask, p - labels, 0.0) / count
    return float(per[mask].sum() / count), grad.astype(logits.dtype)


def volume_head_loss(net, sample, logits, used):
    """(loss, gradient) of net's head at logits over its whole output
    grid, whose cell heads read the (3, *cell_shape) corner, supervised
    at the outputs `used` (supervised_outputs)."""
    m, n, k = sample.dims.cell_shape
    cells = logits[:, :m, :n, :k]
    if net.head == "sign":
        loss, g = masked_bce_reference(logits[0], sample.gt_signs.inside, used[0])
        return loss, g[None]
    if net.head == "flag":
        loss, g = masked_bce_reference(cells, edge_field_to_cells(sample.gt_flags), used)
    else:
        act = Sigmoid()
        pred = np.moveaxis(act.forward(cells), 0, -1)
        loss, gp = masked_mse_reference(pred, sample.gt_offsets.offsets, used[0])
        g = act.backward(np.moveaxis(gp, -1, 0)).astype(logits.dtype)
    full = np.zeros_like(logits)
    full[:, :m, :n, :k] = g
    return loss, full


def volume_training_step(net, sample):
    """The loss and the parameter gradients of a training step whose
    loss reads a logit volume: the rows are scattered into zero logits
    over the network's output grid, and the loss's gradient is gathered
    back at the rows."""
    net.zero_grad()
    used = supervised_outputs(net, sample)
    out = used.any(axis=0)
    rows = net.forward_rows(network_input(sample), out)
    at = out if net.variant == "pc_encoder" else on_output_grid(out, sample.dims.vertex_shape)
    logits = np.zeros((net.out_channels,) + at.shape, dtype=rows.dtype)
    logits[:, at] = rows
    loss, glogits = volume_head_loss(net, sample, logits, used)
    net.backward_rows(glogits[:, at])
    return loss, [p.grad.copy() for p in net.params()]


def test_training_steps_on_rows_equal_a_loss_on_logit_volumes():
    """The loss on rows gives every gradient of a loss on the logit
    volume bit for bit, and the same sign and flag losses; the vertex
    loss sums only the rows, not the volume's zeros, so it may round
    differently, by a few ulp."""
    for scene_seed in (63, 64):
        for net, sample in training_nets_and_samples(scene_seed, 56):
            capture = CaptureGradients(net)
            loss = train_step(net, sample, capture)
            want_loss, want_grads = volume_training_step(net, sample)
            what = (scene_seed, net.variant, net.head)
            if net.head == "vertex":
                assert abs(loss - want_loss) <= 4 * np.spacing(want_loss), what
            else:
                assert loss == want_loss, what
            for got, want in zip(capture.grads, want_grads, strict=True):
                assert same_bits(got, want), what


# ------------------------------------------------------------- output sets


ORACLE_CASES = [("sdf", v) for v in ("sdf_s", "sdf_v", "sdf_f")]
ORACLE_CASES += [("udf", v) for v in ("sdf_v", "sdf_f")]
ORACLE_CASES += [("occ", v) for v in ("vox_s", "vox_v", "vox_f")]
ORACLE_CASES += [("points", "flag"), pytest.param(
    "points", "vertex", marks=pytest.mark.xfail(strict=True, reason=(
        "pc_v is supervised at ground-truth vertex cells that a clustered CSG "
        "cloud leaves outside its active set, where predict fills 0.5")))]


@functools.cache
def oracle_sample(kind, res, seed):
    return make_training_sample(random_scene(seed, res - 1.0), GridDims(res, res, res), kind,
                                seed=seed, cloud_size=512)


@pytest.mark.parametrize("kind,variant", ORACLE_CASES)
def test_supervised_outputs_lie_within_the_outputs_predict_computes(kind, variant):
    """Training reads no output that predict fills. For grid inputs,
    every cell-owned ground-truth crossing lies within the flag set, and
    every ground-truth vertex cell within the vertex set."""
    for res, seeds in ((13, range(55, 61)), (24, range(55, 58))):
        for seed in seeds:
            sample = oracle_sample(kind, res, seed)
            if kind == "points":
                net = PointNetwork(variant, channels=2)
            else:
                net = GridNetwork(variant, channels=2)
            inp = network_input(sample)
            used = net.used_outputs(inp)[0]
            supervised = supervised_outputs(net, sample, inp)
            what = (res, seed)
            assert supervised.any() and not np.any(supervised & ~used), what
            if net.head == "flag" and kind != "points":
                assert not np.any(edge_field_to_cells(sample.gt_flags) & ~used), what


# ---------------------------------------------------------------- prediction


def random_biases(net, seed):
    """Nonzero biases, so that no layer's output is a plain channel mix."""
    for i, layer in enumerate(net.param_layers()):
        layer.bias.value[:] = rng_for(seed, "bias", i).standard_normal(layer.bias.value.shape)
    return net


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_stack_rows_equal_the_dense_pass_bit_for_bit():
    stacks = [GridNetwork(v, channels=6, seed=50, dtype=dt).trunk
              for v in GRID_VARIANTS for dt in (np.float32, np.float64)]
    stacks += [PointNetwork(h, channels=5, seed=50, dtype=dt).grid
               for h in ("flag", "vertex") for dt in (np.float32, np.float64)]
    shape = (9, 2, 7)
    rng = rng_for(50, "stack-rows")
    masks = {"empty": np.zeros(shape, dtype=bool), "full": np.ones(shape, dtype=bool),
             "border corner": np.zeros(shape, dtype=bool), "random": rng.random(shape) < 0.1}
    masks["border corner"][-1, :, -1] = True
    for i, stack in enumerate(stacks):
        random_biases(stack, i)
        c_in = stack.layers[0].in_channels
        dtype = stack.layers[0].weight.value.dtype
        x = rng.standard_normal((c_in,) + shape).astype(dtype)
        dense = stack.forward(x)
        for name, out in masks.items():
            sets = band_sets(stack, out)
            assert all(np.array_equal(a, a | b) for a, b in zip(sets, sets[1:]))
            rows = stack_rows(stack, x[:, sets[0]], sets)
            assert same_bits(rows, dense[:, out]), (i, name)


def expected_grid_output(net, grid, probs):
    """The documented prediction from dense probabilities: predicted on
    the supervision band S and filled elsewhere."""
    v = grid.values
    if grid.kind is GridKind.OCC:
        # the corners of cells with an in-grid neighbour of the other occupancy
        occ = v[:-1, :-1, :-1] > 0.5
        boundary = np.zeros_like(occ)
        for ix in np.ndindex(*occ.shape):
            lo, hi = np.maximum(np.array(ix) - 1, 0), np.array(ix) + 2
            window = occ[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
            boundary[ix] = window.any() and not window.all()
        band = np.zeros(v.shape, dtype=bool)
        for ix in np.argwhere(boundary):
            band[ix[0]:ix[0] + 2, ix[1]:ix[1] + 2, ix[2]:ix[2] + 2] = True
        own = v > 0.5
    else:
        band = np.abs(v) < 1.0
        own = v < 0
    cells = np.array(v.shape) - 1
    if net.head == "sign":
        return np.where(band, probs[0] > 0.5, own)
    out = np.where(net.head == "vertex", 0.5, 0.0) * np.ones((3,) + tuple(cells))
    for ix in np.ndindex(*cells):
        corners = band[ix[0]:ix[0] + 2, ix[1]:ix[1] + 2, ix[2]:ix[2] + 2]
        for a in range(3):
            upper = np.add(ix, np.eye(3, dtype=int)[a])
            if net.head == "vertex" and corners.any():
                out[(a,) + ix] = probs[(a,) + ix]
            elif net.head == "flag" and band[ix] and band[tuple(upper)]:
                out[(a,) + ix] = probs[(a,) + ix]
    return out


def prediction_grids():
    """SDF and occupancy grids with a 2-wide axis: a band that touches
    the border, and one that is empty; and an occupied block whose
    interior lies outside the band."""
    dims = GridDims(8, 2, 7)
    p = np.stack(np.meshgrid(*[np.arange(n, dtype=np.float64) for n in dims.vertex_shape],
                             indexing="ij"), axis=-1)
    plane = p @ np.array([0.6, 0.3, -0.74]) - 0.9
    occ = np.zeros(dims.vertex_shape)
    occ[:-1, :-1, :-1] = plane[:-1, :-1, :-1] < 0
    block = np.zeros((9, 8, 7))
    block[1:7, 1:6, 1:5] = 1.0
    return {GridKind.SDF: [ScalarGrid(dims, GridKind.SDF, plane),
                           ScalarGrid(dims, GridKind.SDF, np.full(dims.vertex_shape, -3.0))],
            GridKind.OCC: [ScalarGrid(dims, GridKind.OCC, occ),
                           ScalarGrid(dims, GridKind.OCC, np.zeros(dims.vertex_shape)),
                           ScalarGrid(GridDims(9, 8, 7), GridKind.OCC, block)]}


def test_grid_predictions_equal_the_dense_pass_on_the_band_and_the_fill_elsewhere():
    grids = prediction_grids()
    for variant in GRID_VARIANTS:
        for dtype in (np.float32, np.float64):
            net = random_biases(GridNetwork(variant, channels=5, seed=51, dtype=dtype), 51)
            for grid in grids[GridKind.OCC if net.input_kind == "occ" else GridKind.SDF]:
                probs = sigmoid(net.forward_logits(grid))
                want = expected_grid_output(net, grid, probs)
                got = net.predict(grid)
                if net.head == "sign":
                    assert np.array_equal(got.inside, want), variant
                elif net.head == "vertex":
                    assert same_bits(got.offsets, np.moveaxis(want, 0, -1)), variant
                else:
                    for a in range(3):
                        owned = got.axis(a)[: want.shape[1], : want.shape[2], : want.shape[3]]
                        assert np.array_equal(owned, want[a] > 0.5), (variant, a)
                        assert owned.sum() == got.axis(a).sum(), (variant, a)


def test_point_predictions_equal_the_dense_pass_on_active_cells_and_the_fill_elsewhere():
    for dims in (GridDims(9, 2, 8), GridDims(14, 14, 14)):
        cloud = 0.3 + rng_for(52, "cloud").random((40, 3)) * np.array([2.0, 0.5, 3.0])
        active = cloud_active_cells(cloud, dims)
        assert active.any() and not active.all()
        for head in ("flag", "vertex"):
            for dtype in (np.float32, np.float64):
                net = random_biases(PointNetwork(head, channels=5, seed=52, dtype=dtype,
                                                 resblocks=1), 52)
                probs = sigmoid(net.forward_logits(cloud_neighbors(cloud, dims)))
                want = np.where(active, probs, 0.5 if head == "vertex" else 0.0)
                got = net.predict(cloud, dims)
                if head == "vertex":
                    assert same_bits(got.offsets, np.moveaxis(want, 0, -1).astype(np.float64))
                else:
                    cells = dims.cell_shape
                    for a in range(3):
                        owned = got.axis(a)[: cells[0], : cells[1], : cells[2]]
                        assert np.array_equal(owned, want[a] > 0.5), (dims, a)
                        assert owned.sum() == got.axis(a).sum(), (dims, a)


def test_vertex_predictions_at_given_cells_equal_the_full_prediction_there():
    """predict(x, cells=m) computes the used outputs among m, on rows,
    with the bits of the full prediction, and holds the fill elsewhere."""
    dims = GridDims(14, 14, 14)
    cloud = 0.3 + rng_for(55, "cloud").random((40, 3)) * np.array([6.0, 5.0, 9.0])
    grid = prediction_grids()[GridKind.SDF][0]
    rng = rng_for(55, "cells")
    for dtype in (np.float32, np.float64):
        point = random_biases(PointNetwork("vertex", channels=5, seed=55, dtype=dtype,
                                           resblocks=1), 55)
        sdf_v = random_biases(GridNetwork("sdf_v", channels=5, seed=55, dtype=dtype), 55)
        for net, args, used in ((point, (cloud, dims), cloud_active_cells(cloud, dims)),
                                (sdf_v, (grid,), sdf_v.used_outputs(grid)[0][0])):
            full = net.predict(*args).offsets
            shape = used.shape
            masks = [np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool), used,
                     rng.random(shape) < 0.2, rng.random(shape) < 0.6]
            for cells in masks:
                got = net.predict(*args, cells=cells).offsets
                at = used & cells
                assert same_bits(got[at], full[at]), net.variant
                assert np.all(got[~at] == 0.5), net.variant
            assert not np.all(full[used] == 0.5)


def test_predict_refuses_cells_of_the_wrong_shape_or_head():
    dims = GridDims(8, 8, 8)
    nb = cloud_neighbors(1.0 + 6.0 * rng_for(56, "cloud").random((40, 3)), dims)
    grid = ScalarGrid(dims, GridKind.SDF, np.full(dims.vertex_shape, 0.5))
    right, wrong = np.ones(dims.cell_shape, dtype=bool), np.ones(dims.vertex_shape, dtype=bool)
    with pytest.raises(ShapeError):
        PointNetwork("vertex", channels=4, seed=56, resblocks=1).predict(nb, dims, cells=wrong)
    with pytest.raises(InvalidArgument):
        PointNetwork("flag", channels=4, seed=56, resblocks=1).predict(nb, dims, cells=right)
    with pytest.raises(ShapeError):
        GridNetwork("sdf_v", channels=4, seed=56).predict(grid, cells=wrong)
    for variant in ("sdf_s", "sdf_f"):
        with pytest.raises(InvalidArgument):
            GridNetwork(variant, channels=4, seed=56).predict(grid, cells=right)


def test_non_finite_clouds_are_rejected_before_any_work():
    dims = GridDims(5, 5, 5)
    with pytest.raises(NonFiniteValues):
        cloud_active_cells(np.array([[np.nan, 2.0, 2.0]]), dims)
    cloud = 1.0 + 2.0 * rng_for(53, "cloud").random((12, 3))
    cloud[4, 1] = np.inf
    net = PointNetwork("flag", channels=4, seed=53)
    with pytest.raises(NonFiniteValues):
        net.predict(cloud, dims)
    with pytest.raises(NonFiniteValues):
        cloud_neighbors(cloud, dims)


def test_point_networks_share_a_clouds_neighborhoods():
    dims = GridDims(9, 8, 10)
    cloud = 0.5 + rng_for(54, "cloud").random((60, 3)) * np.array([7.0, 6.0, 8.0])
    shared = cloud_neighbors(cloud, dims)
    for head in ("flag", "vertex"):
        net = random_biases(PointNetwork(head, channels=5, seed=54, resblocks=1), 54)
        a, b = net.predict(shared, dims), net.predict(cloud, dims)
        for x, y in zip(a.axes if head == "flag" else [a.offsets],
                        b.axes if head == "flag" else [b.offsets]):
            assert same_bits(x, y), head
        with pytest.raises(ShapeError):
            net.predict(shared, GridDims(9, 8, 11))


def cached_state(layer, path="net") -> list:
    """Paths of what a layer, and every layer it holds, keeps for a
    backward pass: each private attribute that is not None."""
    found = []
    for name, value in vars(layer).items():
        held = value if isinstance(value, list) else [value]
        layers = [v for v in held if isinstance(v, Layer)]
        for i, sub in enumerate(layers):
            found += cached_state(sub, f"{path}.{name}[{i}]")
        if not layers and name.startswith("_") and value is not None:
            found.append(f"{path}.{name}")
    return found


def training_forward(net, sample, inp) -> None:
    """The forward half of train_step, which caches for backward_rows."""
    net.forward_rows(inp, supervised_outputs(net, sample, inp).any(axis=0))


def head_arrays(output) -> list:
    """The arrays of a typed head output."""
    if isinstance(output, SignGrid):
        return [output.inside]
    return [output.offsets] if isinstance(output, VertexOffsetGrid) else list(output.axes)


def test_dense_logits_do_not_depend_on_the_blas_thread_count():
    """Every channel mix has one shape (MIX_BLOCK), and a threaded BLAS
    splits such a product over its output rows and columns, not over the
    sums, so prediction gives the same bits on one thread and on two.
    Each count runs in a fresh interpreter, since BLAS reads it once."""
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                              capture_output=True, text=True, check=False, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    assert len(digests[0]) == 2 and digests[0] == digests[1], digests


def test_predict_keeps_nothing_for_a_backward_pass():
    for net, sample in training_nets_and_samples(5, 59):
        inp = network_input(sample)
        args = (inp, sample.dims) if net.variant == "pc_encoder" else (inp,)
        first = net.predict(*args)
        assert cached_state(net) == [], net.variant
        training_forward(net, sample, inp)
        assert cached_state(net), net.variant
        # predict drops the training step's rows and gives the same output
        again = net.predict(*args)
        assert cached_state(net) == [], (net.variant, cached_state(net))
        for x, y in zip(head_arrays(first), head_arrays(again)):
            assert same_bits(x, y), net.variant
        # and the next training step caches again
        training_forward(net, sample, inp)
        assert cached_state(net), net.variant


def test_grid_network_rows_reject_a_mask_off_the_heads_lattice():
    dims = GridDims(8, 8, 8)
    grid = ScalarGrid(dims, GridKind.SDF, np.full(dims.vertex_shape, 0.5))
    for variant in ("sdf_s", "sdf_v", "sdf_f"):
        net = GridNetwork(variant, channels=4, seed=57)
        wrong = dims.cell_shape if net.head == "sign" else dims.vertex_shape
        with pytest.raises(ShapeError):
            net.forward_rows(grid, np.ones(wrong, dtype=bool))
        with pytest.raises(ShapeError):
            net.forward_rows(grid, np.ones((9, 9), dtype=bool))


def test_point_network_rows_reject_a_mask_off_the_cell_lattice():
    dims = GridDims(8, 8, 8)
    nb = cloud_neighbors(1.0 + 6.0 * rng_for(57, "cloud").random((40, 3)), dims)
    for head in ("flag", "vertex"):
        net = PointNetwork(head, channels=4, seed=57, resblocks=1)
        with pytest.raises(ShapeError):
            net.forward_rows(nb, np.ones(dims.vertex_shape, dtype=bool))
