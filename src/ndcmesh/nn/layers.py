"""Neural network layers with explicit forward and backward passes.

Everything is plain numpy. Convolutions act on (C, D, H, W) tensors, or
on (C, N) rows of a voxel set; linear layers act on (..., features)
arrays. Each layer caches what its backward pass needs, so forward must
be called before backward and a layer instance processes one input at a
time. A convolution trains on voxel sets only: forward_rows caches for
backward_rows, and the dense forward caches nothing. Both forwards sum
a convolution block-major: for each block of MIX_BLOCK output columns,
every tap's channel mix in tap order (Conv3d._mix). Inside `inference()`
no layer caches anything, and each forward drops what an earlier one
cached, so a prediction holds no rows for a backward pass that never
comes. The switch is a context variable, so it holds for the thread or
task that set it and ends with its block. Parameter gradients
accumulate into Param.grad until zero_grad(), which lets a shared
module sum contributions from several forward passes.

Weights use Kaiming fan-in initialization matched to the leaky ReLU
slope; biases start at zero. Arrays keep whatever dtype the layer was
built with (float32 for training, float64 for gradient checking).
"""

import contextlib
import contextvars
import itertools
import math

import numpy as np

from ..errors import ShapeError

LEAKY_SLOPE = 0.01

# Convolutions mix channels through BLAS as (out, in) x (in, MIX_BLOCK)
# products. BLAS picks its kernel, and with it the order of each sum,
# from a product's shape: with OpenBLAS, a single output row's sums
# split into input-channel blocks once a call has more than 16384
# columns, and column counts that leave an edge block, or make
# out * in * columns at most 1e6, change how some columns are summed. One
# shape makes every voxel's value independent of the voxels it is
# computed with, which lets Conv3d.forward_rows reproduce forward. The
# taps of a block are summed before the next block starts, so the sum
# lives in one (out, MIX_BLOCK) accumulator that stays in cache.
MIX_BLOCK = 512

_CACHING = contextvars.ContextVar("caching", default=True)


@contextlib.contextmanager
def inference():
    """Run forward passes that cache nothing for a backward pass."""
    token = _CACHING.set(False)
    try:
        yield
    finally:
        _CACHING.reset(token)


def _cached(value):
    """What a forward pass keeps for its backward: value, or None
    inside inference()."""
    return value if _CACHING.get() else None


class Param:
    """A trainable array together with its accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)


def _kaiming_std(fan_in: int) -> float:
    return math.sqrt(2.0 / ((1.0 + LEAKY_SLOPE * LEAKY_SLOPE) * fan_in))


class Layer:
    """Base class; stateless layers only need forward/backward.

    A layer with weights lists the Conv3d and Linear layers it owns in
    param_layers(); params() and zero_grad() follow from that list.
    Every layer answers forward and backward; a pass a layer does not
    have (Conv3d has no dense backward) raises NotImplementedError.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no forward pass")

    def backward(self, gy: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no backward pass")

    def param_layers(self) -> list:
        return []

    def params(self) -> list:
        return [p for layer in self.param_layers() for p in (layer.weight, layer.bias)]

    def zero_grad(self) -> None:
        for p in self.params():
            p.grad[...] = 0.0


class Conv3d(Layer):
    """3D cross-correlation with kernel size 1 or 3, stride 1.

    The input is zero-padded by kernel // 2 voxels so the spatial shape
    is preserved. Weights are stored as (out, in, kz, ky, kx). Both
    forwards hand _mix a view of each tap's input columns, block by
    block, and _mix sums the taps' channel mixes in one accumulator per
    block. The dense forward copies the input once, into a flat padded
    volume with 2 * (W + 2) + 2 zero columns appended: tap (dz, dy, dx)
    then reads columns shifted by dz * (H + 2) * (W + 2) + dy * (W + 2)
    + dx, in place, and the output spans D * (H + 2) * (W + 2) columns,
    whose padding columns are dropped at the end. Kernel size 1 is the
    unpadded case with a single tap, the input itself, so it is neither
    copied nor padded.

    forward_rows computes the same outputs at a set of voxels only, from
    the inputs as (in, N) rows, gathering each tap's rows one block at a
    time; it sums the same products in the same order, so its rows equal
    forward's voxels bit for bit. backward_rows is its backward pass, one
    loop over the taps: the weight gradient correlates the output
    gradient with each tap's input rows, and the input gradient scatters
    each tap's share back to those rows. The dense forward is the
    reference the row passes are tested against; there is no dense
    backward.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 rng: np.random.Generator, dtype=np.float32):
        if kernel not in (1, 3):
            raise ValueError(f"kernel must be 1 or 3, got {kernel}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        std = _kaiming_std(in_channels * kernel ** 3)
        w = rng.normal(0.0, std, size=(out_channels, in_channels, kernel, kernel, kernel))
        self.weight = Param(w.astype(dtype))
        self.bias = Param(np.zeros(out_channels, dtype=dtype))
        self._rows = None

    def param_layers(self):
        return [self]

    def _taps(self):
        """Weight index of each kernel offset (dz, dy, dx), dx fastest."""
        for offset in itertools.product(range(self.kernel), repeat=3):
            yield (slice(None), slice(None)) + offset

    def _mix(self, tap_cols, n: int, dtype) -> np.ndarray:
        """Sum the taps' channel mixes of n input columns, then add the
        bias: the one summation of both forwards. tap_cols(lo, hi) yields
        each tap's (in, hi - lo) input columns lo:hi, in tap order. Block
        by block, every tap's product is summed, taps in order, into one
        reused (out, MIX_BLOCK) accumulator; the last block is
        zero-padded to MIX_BLOCK columns. Returns (out, n)."""
        # BLAS cannot read a tap's strided weight slice; copy each once
        weights = [np.ascontiguousarray(self.weight.value[tap]) for tap in self._taps()]
        dtype = np.result_type(self.weight.value, dtype)
        y = np.empty((self.out_channels, n), dtype=dtype)
        acc = np.empty((self.out_channels, MIX_BLOCK), dtype=dtype)
        term = np.empty_like(acc)
        for lo in range(0, n, MIX_BLOCK):
            hi = min(lo + MIX_BLOCK, n)
            for i, (w, col) in enumerate(zip(weights, tap_cols(lo, hi))):
                if hi - lo < MIX_BLOCK:
                    col = np.concatenate(
                        [col, np.zeros((len(col), MIX_BLOCK - (hi - lo)), dtype=col.dtype)], axis=1)
                np.dot(w, col, out=term if i else acc)
                if i:
                    acc += term
            np.add(acc[:, :hi - lo], self.bias.value[:, None], out=y[:, lo:hi])
        return y

    def _check_channels(self, x: np.ndarray, ndim: int, shape: str) -> None:
        if x.ndim != ndim or x.shape[0] != self.in_channels:
            raise ShapeError(f"conv input must be ({self.in_channels}, {shape}), got {x.shape}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The output at every voxel. There is no dense backward, so it
        caches nothing and drops what a forward_rows cached."""
        self._check_channels(x, 4, "D, H, W")
        self._rows = None
        c, (d, h, w), p = self.in_channels, x.shape[1:], self.kernel // 2
        hp, wp = h + 2 * p, w + 2 * p
        if p:
            # 2 * wp + 2 trailing zeros keep the last tap's window in range
            flat = np.zeros((c, (d + 2) * hp * wp + 2 * wp + 2), dtype=x.dtype)
            flat[:, :(d + 2) * hp * wp].reshape(c, d + 2, hp, wp)[:, 1:-1, 1:-1, 1:-1] = x
        else:
            flat = x.reshape(c, -1)
        offsets = [dz * hp * wp + dy * wp + dx for _, _, dz, dy, dx in self._taps()]
        y = self._mix(lambda lo, hi: (flat[:, o + lo:o + hi] for o in offsets),
                      d * hp * wp, x.dtype)
        return np.ascontiguousarray(y.reshape(self.out_channels, d, hp, wp)[:, :, :h, :w])

    def forward_rows(self, x: np.ndarray, nb: np.ndarray | None = None) -> np.ndarray:
        """forward at a set of voxels; caches its input for backward_rows.

        x holds the input at N voxels as (in, N) rows. For kernel 3, row
        r of the (M, 27) table nb lists the input row under each tap of
        output voxel r, in tap order, with N standing for the zero
        padding (see _dual.neighbor_rows); the result is (out, M). A
        1^3 kernel takes no table: its output rows are the input rows.
        """
        self._check_channels(x, 2, "N")
        if (nb is None) != (self.kernel == 1):
            raise ValueError("a neighbor table is needed for, and only for, kernel 3")
        if nb is None:
            self._rows = _cached((x, None))
            return self._mix(lambda lo, hi: [x[:, lo:hi]], x.shape[1], x.dtype)
        padded = np.concatenate([x, np.zeros_like(x[:, :1])], axis=1)
        self._rows = _cached((padded, nb))
        return self._mix(lambda lo, hi: (padded.take(rows[lo:hi], axis=1) for rows in nb.T),
                         len(nb), x.dtype)

    def backward_rows(self, gy: np.ndarray) -> np.ndarray:
        """The (in, N) input gradient of the last forward_rows from its
        (out, M) output gradient; accumulates the parameter gradients."""
        xp, nb = self._rows
        wv = self.weight.value
        self.bias.grad += gy.sum(axis=1)
        if nb is None:
            self.weight.grad[:, :, 0, 0, 0] += gy @ xp.T
            return wv[:, :, 0, 0, 0].T @ gy
        # voxel-major rows: each tap's rows are contiguous to gather and
        # to scatter to
        xt = np.ascontiguousarray(xp.T)
        gxt = np.zeros_like(xt)
        for tap, rows in zip(self._taps(), nb.T):
            self.weight.grad[tap] += gy @ xt.take(rows, axis=0)
            # one tap reads each row once, except the zero padding row,
            # whose gradient is dropped
            gxt[rows] += (wv[tap].T @ gy).T
        return gxt[:-1].T


class Linear(Layer):
    """Affine map on the trailing axis: y = x @ W.T + b."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, dtype=np.float32):
        self.in_features = in_features
        self.out_features = out_features
        std = _kaiming_std(in_features)
        w = rng.normal(0.0, std, size=(out_features, in_features))
        self.weight = Param(w.astype(dtype))
        self.bias = Param(np.zeros(out_features, dtype=dtype))
        self._x = None

    def param_layers(self):
        return [self]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"linear input must end in {self.in_features} features, got {x.shape}")
        self._x = _cached(x)
        return x @ self.weight.value.T + self.bias.value

    def backward(self, gy: np.ndarray) -> np.ndarray:
        flat_g = gy.reshape(-1, self.out_features)
        flat_x = self._x.reshape(-1, self.in_features)
        self.weight.grad += flat_g.T @ flat_x
        self.bias.grad += flat_g.sum(axis=0)
        return gy @ self.weight.value


class LeakyReLU(Layer):
    """Leaky ReLU with slope LEAKY_SLOPE below zero.

    Since 0 < LEAKY_SLOPE < 1, max(x, LEAKY_SLOPE * x) is x where x >= 0
    and LEAKY_SLOPE * x below, with the same bits as selecting either
    (signed zeros, infinities and NaN included). Only backward reads the
    x >= 0 mask, so it is not built inside inference().
    """

    def __init__(self):
        self._pos = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._pos = x >= 0 if _CACHING.get() else None
        return np.maximum(x, LEAKY_SLOPE * x)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        return np.where(self._pos, gy, LEAKY_SLOPE * gy)


class Sigmoid(Layer):
    def __init__(self):
        self._y = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = sigmoid(x)
        self._y = _cached(y)
        return y

    def backward(self, gy: np.ndarray) -> np.ndarray:
        y = self._y
        return gy * y * (1.0 - y)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x)
    out = np.empty_like(x, dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class ResBlockFC(Layer):
    """Residual block of two linear layers: y = lrelu(x + fc2(lrelu(fc1(x))))."""

    def __init__(self, channels: int, rng: np.random.Generator, dtype=np.float32):
        self.channels = channels
        self.fc1 = Linear(channels, channels, rng, dtype)
        self.act1 = LeakyReLU()
        self.fc2 = Linear(channels, channels, rng, dtype)
        self.act2 = LeakyReLU()

    def param_layers(self):
        return [self.fc1, self.fc2]

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.act1.forward(self.fc1.forward(x))
        return self.act2.forward(x + self.fc2.forward(h))

    def backward(self, gy: np.ndarray) -> np.ndarray:
        gz = self.act2.backward(gy)
        gh = self.fc2.backward(gz)
        return gz + self.fc1.backward(self.act1.backward(gh))


class Sequential(Layer):
    def __init__(self, layers: list):
        self.layers = list(layers)

    def param_layers(self):
        return [pl for layer in self.layers for pl in layer.param_layers()]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, gy: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            gy = layer.backward(gy)
        return gy


class MaxPoolAxis(Layer):
    """Max over axis 1, which holds the K neighbor features of each query
    in a (queries, K, features) array."""

    def __init__(self):
        self._arg = None
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        arg = np.argmax(x, axis=1)
        self._arg = _cached(arg)
        self._shape = _cached(x.shape)
        return np.take_along_axis(x, np.expand_dims(arg, 1), axis=1).squeeze(1)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        gx = np.zeros(self._shape, dtype=gy.dtype)
        np.put_along_axis(gx, np.expand_dims(self._arg, 1), np.expand_dims(gy, 1), axis=1)
        return gx
