"""Training loop: one network head, batch size 1, Adam.

Each head trains on its own loss against the sample's ground truth,
restricted to the head's supervised outputs (supervised_outputs): the
sign and flag heads on exactly the outputs predict computes (the
network's used_outputs), the vertex head at the cells with a
ground-truth vertex. Both are computed in each step from the possibly
augmented sample. The loss, and with it every gradient, is zero outside
that set, so each step runs the network on it alone (forward_rows,
backward_rows), and the loss reads those rows and its targets gathered
there. A step makes the same forward_rows(input, outputs) call for
every network: the input (network_input) is the sample's grid, or a
point-cloud sample's neighborhoods, so the step never asks which kind
of network it trains.

The learning rate halves every `halve_every` epochs (0 disables the
schedule). With augmentation enabled, each sample gets one group
transform per epoch, drawn deterministically from the seed. Sample
order, augmentation and initialization are all seeded, so a run is
reproducible bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .._dual import active_cell_mask, edge_field_to_cells
from ..datagen import TrainingSample, augment_sample
from ..errors import TrainingDiverged
from ..grids import xor_flags
from ..rng import rng_for
from ..transforms import NUM_TRANSFORMS
from .adam import Adam
from .layers import Sigmoid
from .losses import bce_loss, mse_loss
from .network import make_network
from .pointnet import cloud_neighbors


@dataclass
class TrainConfig:
    variant: str
    head: str | None = None
    channels: int | None = None
    lr: float = 1e-4
    epochs: int = 400
    halve_every: int = 100
    augment: bool = False
    seed: int = 0
    stop_below: float | None = None


def network_input(sample: TrainingSample):
    """What a network reads of a sample: its grid, or for a point-cloud
    sample, which has none, its cloud's neighborhoods."""
    if sample.grid is None:
        return cloud_neighbors(sample.cloud, sample.dims)
    return sample.grid


def supervised_outputs(net, sample: TrainingSample, inp=None) -> np.ndarray:
    """(C, *lattice) mask of the outputs the loss of net's head reads:
    net.used_outputs of its input `inp` (network_input of the sample by
    default) for signs and flags; for vertices, the cells with a
    ground-truth vertex, those the sample's sign changes (ndc) or
    crossing flags (undc) make active."""
    if net.head == "vertex":
        flags = xor_flags(sample.gt_signs) if sample.mode == "ndc" else sample.gt_flags
        cells = active_cell_mask(flags)
        return np.broadcast_to(cells, (3,) + cells.shape)
    return net.used_outputs(network_input(sample) if inp is None else inp)[0]


def head_loss(net, sample: TrainingSample, rows: np.ndarray, used: np.ndarray):
    """(loss, gradient) of net's head at its rows, the logits at the
    outputs of `used` (supervised_outputs) that any channel has; a flag
    row is supervised only on the channels `used` holds."""
    out = used.any(axis=0)
    if net.head == "sign":
        loss, g = bce_loss(rows[0], sample.gt_signs.inside[out])
        return loss, g[None]
    if net.head == "flag":
        mask = used[:, out]
        labels = edge_field_to_cells(sample.gt_flags)[:, out]
        loss, g = bce_loss(rows[mask], labels[mask])
        grad = np.zeros_like(rows)
        grad[mask] = g
        return loss, grad
    act = Sigmoid()
    loss, gp = mse_loss(act.forward(rows).T, sample.gt_offsets.offsets[out])
    return loss, act.backward(gp.T).astype(rows.dtype)


def train_step(net, sample: TrainingSample, adam: Adam, inp=None) -> float:
    """One forward/backward/update on a single sample; returns the loss.
    `inp` is network_input of the sample, built here if not given."""
    if inp is None:
        inp = network_input(sample)
    used = supervised_outputs(net, sample, inp)
    rows = net.forward_rows(inp, used.any(axis=0))
    loss, grows = head_loss(net, sample, rows, used)
    # the last conv sums its weight and bias gradients in an order that
    # follows gy's layout; Fortran order, that of a gather from a logit
    # volume (logits[:, out]), keeps the trained weights bit-identical to
    # those of a loss computed on logit volumes
    net.backward_rows(np.asfortranarray(grows))
    adam.step()
    adam.zero_grad()
    return loss


def train_network(config: TrainConfig, samples: list):
    """Train one head over a dataset; returns (network, epoch loss list)."""
    if not samples:
        raise ValueError("training needs at least one sample")
    net = make_network(config.variant, channels=config.channels,
                       seed=rng_for(config.seed, "init").integers(2 ** 31),
                       head=config.head)
    adam = Adam(net.params(), lr=config.lr)
    # an unaugmented sample's input (a cloud's neighborhoods) is built once
    inputs = [None if config.augment else network_input(s) for s in samples]
    history = []
    for epoch in range(config.epochs):
        if config.halve_every:
            adam.lr = config.lr * 0.5 ** (epoch // config.halve_every)
        if len(samples) > 1:
            order = rng_for(config.seed, "order", epoch).permutation(len(samples))
        else:
            order = np.array([0])
        total = 0.0
        for i in order:
            sample = samples[int(i)]
            if config.augment:
                t = int(rng_for(config.seed, "augment", epoch, int(i))
                        .integers(NUM_TRANSFORMS))
                sample = augment_sample(sample, t)
            loss = train_step(net, sample, adam, inputs[int(i)])
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"loss {loss} at epoch {epoch}, sample {int(i)}")
            total += loss
        history.append(total / len(order))
        if config.stop_below is not None and history[-1] < config.stop_below:
            break
    return net, history
