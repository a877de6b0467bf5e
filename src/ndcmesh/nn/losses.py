"""Training losses on rows.

A head's loss reads only the outputs it supervises (nn.train gathers
them as rows), so both losses average over every entry they are given.
Each returns (loss, grad) where grad has the shape of the prediction
argument and is already divided by the entry count, ready to feed
straight into a backward pass. Empty input gives loss 0 and an empty
gradient.
"""

import numpy as np

from ..errors import ShapeError
from .layers import sigmoid

BCE_EPS = 1e-7


def mse_loss(pred: np.ndarray, gt: np.ndarray):
    """Mean over rows of the squared error summed per row.

    pred and gt are (N, C), one row per cell. One row predicting
    (0,0,0) against (1,1,1) scores 3.0.
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape or pred.ndim != 2:
        raise ShapeError(f"mse shapes disagree: pred {pred.shape} gt {gt.shape}")
    count = len(pred)
    if count == 0:
        return 0.0, np.zeros_like(pred)
    diff = pred - gt
    loss = float(np.sum(diff * diff) / count)
    grad = (2.0 / count) * diff
    return loss, grad.astype(pred.dtype, copy=False)


def bce_loss(logits: np.ndarray, labels: np.ndarray):
    """Mean binary cross entropy, computed from logits.

    labels is boolean (or 0/1). Probabilities are clamped to
    [eps, 1-eps] inside the log only; the returned gradient is the exact
    sigmoid-composed form (p - y) / count, with respect to the logits.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels, dtype=logits.dtype)
    if logits.shape != labels.shape:
        raise ShapeError(f"bce shapes disagree: logits {logits.shape} labels {labels.shape}")
    count = logits.size
    if count == 0:
        return 0.0, np.zeros_like(logits)
    p = sigmoid(logits)
    pc = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    per = -(labels * np.log(pc) + (1.0 - labels) * np.log1p(-pc))
    loss = float(per.sum() / count)
    grad = (p - labels) / count
    return loss, grad.astype(logits.dtype, copy=False)
