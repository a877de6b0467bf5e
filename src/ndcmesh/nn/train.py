"""Training loop: one network head, batch size 1, Adam.

Each head trains on its own loss against the sample's ground truth,
restricted to that head's supervision mask. The loss, and with it every
gradient, is zero outside that mask, so each step runs the network
band-sparse on the mask alone (forward_rows, backward_rows); its loss
equals the dense pass's bit for bit. The learning rate halves
every `halve_every` epochs (0 disables the schedule). With
augmentation enabled, each sample gets one group transform per epoch,
drawn deterministically from the seed. Sample order, augmentation and
initialization are all seeded, so a run is reproducible bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .._dual import edge_field_to_cells
from ..datagen import TrainingSample, augment_sample
from ..errors import TrainingDiverged
from ..rng import rng_for
from ..transforms import NUM_TRANSFORMS
from .adam import Adam
from .layers import Sigmoid
from .losses import masked_bce_loss, masked_mse_loss
from .network import crop_cells, make_network


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


def supervised_outputs(net, sample: TrainingSample) -> np.ndarray:
    """The logits the loss of net's head reads, as a mask over the
    network's output grid: m_s for signs, m_v for vertices, and the cells
    owning an m_f edge for flags. A grid network's output covers the
    vertex lattice, so its cell masks gain a last layer of cells."""
    masks = sample.masks
    if net.head == "sign":
        return masks.m_s
    if net.head == "vertex":
        cells = masks.m_v
    else:
        cells = edge_field_to_cells(masks.m_f).any(axis=0)
    return cells if net.variant == "pc_encoder" else np.pad(cells, [(0, 1)] * 3)


def head_loss(net, sample: TrainingSample, logits: np.ndarray):
    """(loss, gradient) of net's head at logits over its whole output grid."""
    cropped = crop_cells(logits, sample.dims.cell_shape)
    if net.head == "sign":
        loss, g = masked_bce_loss(logits[0], sample.gt_signs.inside,
                                  sample.masks.m_s)
        return loss, g[None]
    if net.head == "flag":
        labels = edge_field_to_cells(sample.gt_flags)
        mask = edge_field_to_cells(sample.masks.m_f)
        loss, g = masked_bce_loss(cropped, labels, mask)
        return loss, _embed(g, logits)
    act = Sigmoid()
    pred = np.moveaxis(act.forward(cropped), 0, -1)
    loss, gp = masked_mse_loss(pred, sample.gt_offsets.offsets, sample.masks.m_v)
    g = act.backward(np.moveaxis(gp, -1, 0))
    return loss, _embed(g.astype(logits.dtype), logits)


def train_step(net, sample: TrainingSample, adam: Adam) -> float:
    """One forward/backward/update on a single sample; returns the loss.

    The network runs on the supervised outputs only; the rows are
    scattered into zero logits, which the loss reads only there.
    """
    out = supervised_outputs(net, sample)
    if net.variant == "pc_encoder":
        rows = net.forward_rows(sample.cloud, sample.dims, out)
    else:
        rows = net.forward_rows(net.input_tensor(sample.grid), out)
    logits = np.zeros((net.out_channels,) + out.shape, dtype=rows.dtype)
    logits[:, out] = rows
    loss, glogits = head_loss(net, sample, logits)
    net.backward_rows(glogits[:, out])
    adam.step()
    adam.zero_grad()
    return loss


def _embed(g: np.ndarray, logits: np.ndarray) -> np.ndarray:
    if g.shape == logits.shape:
        return g
    full = np.zeros_like(logits)
    full[:, : g.shape[1], : g.shape[2], : g.shape[3]] = g
    return full


def train_network(config: TrainConfig, samples: list):
    """Train one head over a dataset; returns (network, epoch loss list)."""
    if not samples:
        raise ValueError("training needs at least one sample")
    net = make_network(config.variant, channels=config.channels,
                       seed=rng_for(config.seed, "init").integers(2 ** 31),
                       head=config.head)
    adam = Adam(net.params(), lr=config.lr)
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
            loss = train_step(net, sample, adam)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"loss {loss} at epoch {epoch}, sample {int(i)}")
            total += loss
        history.append(total / len(order))
        if config.stop_below is not None and history[-1] < config.stop_below:
            break
    return net, history
