"""Neural network layers with explicit forward and backward passes.

Everything is plain numpy. Convolutions act on (C, D, H, W) tensors,
linear layers on (..., features) arrays. Each layer caches what its
backward pass needs, so forward must be called before backward and a
layer instance processes one input at a time. Parameter gradients
accumulate into Param.grad until zero_grad(), which lets a shared
module sum contributions from several forward passes.

Weights use Kaiming fan-in initialization matched to the leaky ReLU
slope; biases start at zero. Arrays keep whatever dtype the layer was
built with (float32 for training, float64 for gradient checking).
"""

import itertools
import math

import numpy as np

from ..errors import ShapeError

LEAKY_SLOPE = 0.01


class Param:
    """A trainable array together with its accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)


def _kaiming_std(fan_in: int, slope: float = LEAKY_SLOPE) -> float:
    return math.sqrt(2.0 / ((1.0 + slope * slope) * fan_in))


class Layer:
    """Base class; stateless layers only need forward/backward.

    A layer with weights lists the Conv3d and Linear layers it owns in
    param_layers(); params() and zero_grad() follow from that list.
    """

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
    is preserved, and every pass is one loop over the kernel^3 windows
    of the padded input: the output sums each window's channel mix, the
    weight gradient correlates the output gradient with each window, and
    the input gradient scatters each window's share back. Kernel size 1
    is the unpadded case with a single window, the input itself, so it
    is neither copied nor padded. Weights are stored as
    (out, in, kz, ky, kx).
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
        self._xp = None

    def param_layers(self):
        return [self]

    def _windows(self, d: int, h: int, w: int):
        """(weight tap, padded-input window) index pairs, dx fastest."""
        for dz, dy, dx in itertools.product(range(self.kernel), repeat=3):
            yield ((slice(None), slice(None), dz, dy, dx),
                   (slice(None), slice(dz, dz + d), slice(dy, dy + h), slice(dx, dx + w)))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[0] != self.in_channels:
            raise ShapeError(
                f"conv input must be ({self.in_channels}, D, H, W), got {x.shape}")
        p = self.kernel // 2
        self._xp = xp = np.pad(x, [(0, 0)] + [(p, p)] * 3) if p else x
        wv = self.weight.value
        terms = (np.tensordot(wv[tap], xp[win], axes=1)
                 for tap, win in self._windows(*x.shape[1:]))
        y = next(terms)
        for term in terms:
            y += term
        return y + self.bias.value[:, None, None, None]

    def backward(self, gy: np.ndarray) -> np.ndarray:
        self.bias.grad += gy.sum(axis=(1, 2, 3))
        wv = self.weight.value
        xp = self._xp
        _, d, h, w = gy.shape
        gxp = np.zeros_like(xp)
        for tap, win in self._windows(d, h, w):
            self.weight.grad[tap] += np.tensordot(gy, xp[win], axes=([1, 2, 3], [1, 2, 3]))
            gxp[win] += np.tensordot(wv[tap].T, gy, axes=1)
        p = self.kernel // 2
        return gxp[:, p:p + d, p:p + h, p:p + w]


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
        self._x = x
        return x @ self.weight.value.T + self.bias.value

    def backward(self, gy: np.ndarray) -> np.ndarray:
        flat_g = gy.reshape(-1, self.out_features)
        flat_x = self._x.reshape(-1, self.in_features)
        self.weight.grad += flat_g.T @ flat_x
        self.bias.grad += flat_g.sum(axis=0)
        return gy @ self.weight.value


class LeakyReLU(Layer):
    def __init__(self, slope: float = LEAKY_SLOPE):
        self.slope = slope
        self._pos = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._pos = x >= 0
        return np.where(self._pos, x, self.slope * x)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        return np.where(self._pos, gy, self.slope * gy)


class Sigmoid(Layer):
    def __init__(self):
        self._y = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = sigmoid(x)
        self._y = y
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
    """Max over one axis (used to pool K neighbor features per query)."""

    def __init__(self, axis: int = 1):
        self.axis = axis
        self._arg = None
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._arg = np.argmax(x, axis=self.axis)
        self._shape = x.shape
        return np.take_along_axis(x, np.expand_dims(self._arg, self.axis),
                                  axis=self.axis).squeeze(self.axis)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        gx = np.zeros(self._shape, dtype=gy.dtype)
        np.put_along_axis(gx, np.expand_dims(self._arg, self.axis),
                          np.expand_dims(gy, self.axis), axis=self.axis)
        return gx
