"""Layer forward passes against loop oracles, backward passes against
finite differences, loss values and gradients, and the optimizer.
Convolutions train on voxel sets (forward_rows, backward_rows); their
gradients are checked on a band set and on the full set."""

import math

import numpy as np
import pytest

from ndcmesh.errors import ShapeError
from ndcmesh.nn import (BCE_EPS, LEAKY_SLOPE, Adam, Conv3d, LeakyReLU, Linear, MaxPoolAxis,
                        Param, ResBlockFC, Sequential, Sigmoid, bce_loss, mse_loss, sigmoid)
from ndcmesh.nn.layers import inference
from ndcmesh.nn.network import band_sets, stack_rows
from ndcmesh.rng import rng_for

FD_H = 1e-3
FD_TOL = 1e-4


def conv3d_loop(x, weight, bias, kernel):
    """Independent cross-correlation: plain loops, zero padding for k=3."""
    cin, d, h, w = x.shape
    cout = weight.shape[0]
    pad = 1 if kernel == 3 else 0
    xp = np.zeros((cin, d + 2 * pad, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + d, pad:pad + h, pad:pad + w] = x
    y = np.zeros((cout, d, h, w))
    for o in range(cout):
        for z in range(d):
            for r in range(h):
                for c in range(w):
                    acc = 0.0
                    for i in range(cin):
                        for dz in range(kernel):
                            for dy in range(kernel):
                                for dx in range(kernel):
                                    acc += (weight[o, i, dz, dy, dx]
                                            * xp[i, z + dz, r + dy, c + dx])
                    y[o, z, r, c] = acc + bias[o]
    return y


class reference_conv3d:
    """The two-branch Conv3d this package had before its single window
    loop: a direct channel mix for kernel 1, a zero-padded 27-window sum
    for kernel 3. Shares weights with a Conv3d, keeps its own gradients."""

    def __init__(self, conv):
        self.kernel = conv.kernel
        self.in_channels, self.out_channels = conv.in_channels, conv.out_channels
        self.weight = conv.weight.value
        self.weight_grad = np.zeros_like(self.weight)
        self.bias = conv.bias.value
        self.bias_grad = np.zeros_like(self.bias)

    def forward(self, x):
        _, d, h, w = x.shape
        wv = self.weight
        if self.kernel == 1:
            self._x = x
            y = np.tensordot(wv[:, :, 0, 0, 0], x, axes=1)
        else:
            xp = np.zeros((self.in_channels, d + 2, h + 2, w + 2), dtype=x.dtype)
            xp[:, 1:-1, 1:-1, 1:-1] = x
            self._xp = xp
            y = np.zeros((self.out_channels, d, h, w), dtype=x.dtype)
            for dz in range(3):
                for dy in range(3):
                    for dx in range(3):
                        y += np.tensordot(
                            wv[:, :, dz, dy, dx],
                            xp[:, dz:dz + d, dy:dy + h, dx:dx + w],
                            axes=1)
        return y + self.bias[:, None, None, None]

    def backward(self, gy):
        self.bias_grad += gy.sum(axis=(1, 2, 3))
        wv = self.weight
        if self.kernel == 1:
            x = self._x
            self.weight_grad[:, :, 0, 0, 0] += np.tensordot(
                gy, x, axes=([1, 2, 3], [1, 2, 3]))
            return np.tensordot(wv[:, :, 0, 0, 0].T, gy, axes=1)
        xp = self._xp
        _, d, h, w = gy.shape
        gxp = np.zeros_like(xp)
        for dz in range(3):
            for dy in range(3):
                for dx in range(3):
                    window = xp[:, dz:dz + d, dy:dy + h, dx:dx + w]
                    self.weight_grad[:, :, dz, dy, dx] += np.tensordot(
                        gy, window, axes=([1, 2, 3], [1, 2, 3]))
                    gxp[:, dz:dz + d, dy:dy + h, dx:dx + w] += np.tensordot(
                        wv[:, :, dz, dy, dx].T, gy, axes=1)
        return gxp[:, 1:-1, 1:-1, 1:-1]


def conv_rows(conv, x, out):
    """forward_rows of one convolution at the voxels of mask `out`, from
    the dense input x: (the output rows, the mask of the input rows). The
    input rows are C-contiguous, like every hidden layer's."""
    stack = Sequential([conv])
    sets = band_sets(stack, out)
    return stack_rows(stack, np.ascontiguousarray(x[:, sets[0]]), sets), sets[0]


def fd_grad(loss_fn, arr, h=FD_H):
    """Central-difference gradient of a scalar function in every entry."""
    g = np.zeros(arr.shape, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = loss_fn()
        flat[i] = keep - h
        down = loss_fn()
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return g


def max_rel_err(fd, an):
    denom = np.maximum(np.abs(fd) + np.abs(an), 1e-8)
    return float(np.max(np.abs(fd - an) / denom))


def check_layer_gradients(layer, x, seed, tol=FD_TOL):
    """FD-check input and parameter gradients through a random projection."""
    y0 = layer.forward(x)
    r = rng_for(seed, "projection").standard_normal(y0.shape)

    def loss():
        return float(np.sum(layer.forward(x) * r))

    layer.zero_grad()
    layer.forward(x)
    gx = layer.backward(r.copy())
    worst = max_rel_err(fd_grad(loss, x), gx)
    for p in layer.params():
        worst = max(worst, max_rel_err(fd_grad(loss, p.value), p.grad))
    assert worst < tol, f"max relative error {worst}"
    return worst


def away_from_zero(rng, shape, low=0.1, span=1.0):
    """Random values with |x| >= low, so relu kinks stay outside +-h."""
    mag = low + span * rng.random(shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def test_conv3d_ones_kernel_counts_neighbors():
    conv = Conv3d(1, 1, 3, rng_for(0, "w"), dtype=np.float64)
    conv.weight.value[...] = 1.0
    conv.bias.value[...] = 0.0
    y = conv.forward(np.ones((1, 4, 4, 4)))[0]
    # neighborhood size depends only on how many axes sit on the border
    expected = np.full((4, 4, 4), 27.0)
    for axis in range(3):
        sl = [slice(None)] * 3
        for edge in (0, 3):
            sl[axis] = edge
            expected[tuple(sl)] *= 2.0 / 3.0
    assert np.array_equal(y, expected)
    assert y[0, 0, 0] == 8.0 and y[1, 1, 1] == 27.0 and y[0, 1, 1] == 18.0


def test_conv3d_matches_loop_oracle():
    rng = rng_for(10, "conv-oracle")
    for kernel in (1, 3):
        conv = Conv3d(2, 3, kernel, rng_for(10, "w", kernel), dtype=np.float64)
        conv.bias.value[:] = rng.standard_normal(3)
        x = rng.standard_normal((2, 4, 5, 3))
        want = conv3d_loop(x, conv.weight.value, conv.bias.value, kernel)
        got = conv.forward(x)
        assert got.shape == (3, 4, 5, 3)
        assert np.allclose(got, want, atol=1e-12)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_conv3d_is_bit_identical_to_the_two_branch_reference():
    # on the full voxel set, the row passes are the dense passes
    for kernel in (1, 3):
        for cin in (1, 16):
            conv = Conv3d(cin, 8, kernel, rng_for(12, "w", kernel, cin))
            conv.bias.value[:] = rng_for(12, "b", kernel, cin).standard_normal(8)
            ref = reference_conv3d(conv)
            x = rng_for(12, "x", kernel, cin).standard_normal((cin, 6, 5, 7)).astype(np.float32)
            gy = rng_for(12, "gy", kernel, cin).standard_normal((8, 6, 5, 7)).astype(np.float32)
            want = ref.forward(x)
            assert same_bits(conv.forward(x), want), (kernel, cin)
            rows, _ = conv_rows(conv, x, np.ones(x.shape[1:], dtype=bool))
            assert same_bits(rows.reshape(want.shape), want), (kernel, cin)
            gx = conv.backward_rows(gy.reshape(8, -1))
            assert same_bits(gx.reshape(x.shape), ref.backward(gy)), (kernel, cin)
            assert same_bits(conv.weight.grad, ref.weight_grad), (kernel, cin)
            assert same_bits(conv.bias.grad, ref.bias_grad), (kernel, cin)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel", [1, 3])
def test_dense_windows_equal_the_row_pass_bit_for_bit(kernel, dtype):
    # the dense pass reads each tap's window in place from the flattened
    # padded input, over D*(H+2)*(W+2) columns for kernel 3 and D*H*W for
    # kernel 1; these shapes put that count on both sides of one and two
    # MIX_BLOCK multiples, and give axes of length 1 and 2
    shapes = [(5, 7, 3), (1, 4, 2), (2, 1, 1), (1, 1, 1), (2, 2, 2)]
    shapes += ([(1, 5, 71), (2, 14, 14), (3, 7, 17), (3, 9, 29), (5, 3, 39)] if kernel == 3
               else [(1, 7, 73), (8, 8, 8), (3, 9, 19), (3, 11, 31), (5, 5, 41)])
    conv = Conv3d(3, 4, kernel, rng_for(13, "w", kernel), dtype=dtype)
    conv.bias.value[:] = rng_for(13, "b", kernel).standard_normal(4)
    for shape in shapes:
        rng = rng_for(13, "x", kernel, *shape)
        x = rng.standard_normal((3,) + shape).astype(dtype)
        dense = conv.forward(x)
        assert dense.shape == (4,) + shape and dense.flags.c_contiguous, shape
        masks = {"full": np.ones(shape, dtype=bool), "empty": np.zeros(shape, dtype=bool),
                 "random": rng.random(shape) < 0.3}
        for name, out in masks.items():
            rows, _ = conv_rows(conv, x, out)
            assert same_bits(rows, dense[:, out]), (shape, name)


def test_conv3d_rejects_bad_kernel_and_input():
    with pytest.raises(ValueError):
        Conv3d(1, 1, 2, rng_for(0, "w"))
    conv = Conv3d(2, 1, 3, rng_for(0, "w"))
    with pytest.raises(ShapeError):
        conv.forward(np.zeros((3, 4, 4, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        conv.forward(np.zeros((2, 4, 4), dtype=np.float32))


def test_linear_matches_matmul_and_rejects_bad_features():
    rng = rng_for(11, "linear")
    lin = Linear(4, 6, rng_for(11, "w"), dtype=np.float64)
    lin.bias.value[:] = rng.standard_normal(6)
    x = rng.standard_normal((5, 7, 4))
    want = x @ lin.weight.value.T + lin.bias.value
    assert np.allclose(lin.forward(x), want, atol=1e-12)
    with pytest.raises(ShapeError):
        lin.forward(np.zeros((5, 3)))


def test_conv3d_gradients_match_finite_differences():
    """backward_rows against finite differences of the dense forward, read
    at a band set and at the full set: the upstream gradient is supported
    on the output rows, and every input outside the input rows must get
    none."""
    rng = rng_for(20, "conv-fd")
    shape = (4, 5, 4)
    band = np.zeros(shape, dtype=bool)
    band[1, 2, :] = band[3, 0, 3] = True
    for kernel in (1, 3):
        conv = Conv3d(2, 3, kernel, rng_for(20, "w", kernel), dtype=np.float64)
        conv.bias.value[:] = 0.3 * rng.standard_normal(3)
        x = rng.standard_normal((2,) + shape)
        for out in (band, np.ones(shape, dtype=bool)):
            r = rng_for(200 + kernel, "projection").standard_normal((3, int(out.sum())))

            def loss():
                return float(np.sum(conv.forward(x)[:, out] * r))

            conv.zero_grad()
            _, inputs = conv_rows(conv, x, out)
            gx = np.zeros_like(x)
            gx[:, inputs] = conv.backward_rows(r.copy())
            worst = max_rel_err(fd_grad(loss, x), gx)
            for p in conv.params():
                worst = max(worst, max_rel_err(fd_grad(loss, p.value), p.grad))
            assert worst < FD_TOL, (kernel, out.sum(), worst)


def test_linear_gradients_match_finite_differences():
    rng = rng_for(21, "lin-fd")
    lin = Linear(5, 4, rng_for(21, "w"), dtype=np.float64)
    lin.bias.value[:] = 0.3 * rng.standard_normal(4)
    x = rng.standard_normal((6, 5))
    check_layer_gradients(lin, x, seed=201)


def test_leaky_relu_gradients_match_finite_differences():
    x = away_from_zero(rng_for(22, "lrelu-fd"), (3, 4, 4, 4))
    check_layer_gradients(LeakyReLU(), x, seed=202)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_equals_the_select_formula_bit_for_bit(dtype):
    info = np.finfo(dtype)
    sub = info.smallest_subnormal
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0, -3.5,
                        info.tiny, -info.tiny, info.max, -info.max,
                        sub, -sub, 7 * sub, -7 * sub, -100 * sub, -1000 * sub], dtype=dtype)
    x = np.concatenate([special, rng_for(29, "lrelu").standard_normal(500).astype(dtype)])
    pos = x >= 0
    want = np.where(pos, x, LEAKY_SLOPE * x)
    gy = rng_for(29, "lrelu-gy").standard_normal(x.shape).astype(dtype)
    relu = LeakyReLU()
    with inference():
        assert same_bits(relu.forward(x), want)
    assert relu._pos is None  # nothing kept for a backward pass
    assert same_bits(relu.forward(x), want)
    assert same_bits(relu.backward(gy), np.where(pos, gy, LEAKY_SLOPE * gy))


def test_sigmoid_gradients_match_finite_differences():
    x = 2.0 * rng_for(23, "sig-fd").standard_normal((2, 4, 4, 4))
    check_layer_gradients(Sigmoid(), x, seed=203)


def test_resblock_gradients_match_finite_differences():
    block = ResBlockFC(5, rng_for(24, "w"), dtype=np.float64)
    x = away_from_zero(rng_for(24, "res-fd"), (7, 5))
    check_layer_gradients(block, x, seed=204)


def test_maxpool_gradients_match_finite_differences():
    # distinct entries with gaps well above 2h keep the argmax stable
    rng = rng_for(25, "pool-fd")
    vals = 0.013 * rng.permutation(3 * 6 * 5).astype(np.float64)
    x = vals.reshape(3, 6, 5)
    check_layer_gradients(MaxPoolAxis(), x, seed=205)


def test_sequential_composite_gradients_match_finite_differences():
    seq = Sequential([
        Linear(4, 5, rng_for(26, "w", 0), dtype=np.float64),
        LeakyReLU(),
        Linear(5, 2, rng_for(26, "w", 1), dtype=np.float64),
        Sigmoid(),
    ])
    x = away_from_zero(rng_for(26, "seq-fd"), (6, 4))
    check_layer_gradients(seq, x, seed=206)


def test_layers_list_their_parameter_layers_in_order():
    rng = rng_for(29, "w")
    conv, lin, block = Conv3d(1, 2, 3, rng), Linear(2, 2, rng), ResBlockFC(2, rng)
    seq = Sequential([conv, LeakyReLU(), Sequential([lin, block]), MaxPoolAxis()])
    assert conv.param_layers() == [conv] and lin.param_layers() == [lin]
    assert block.param_layers() == [block.fc1, block.fc2]
    assert LeakyReLU().param_layers() == [] and Sigmoid().params() == []
    assert seq.param_layers() == [conv, lin, block.fc1, block.fc2]
    want = [p for layer in (conv, lin, block.fc1, block.fc2) for p in (layer.weight, layer.bias)]
    assert seq.params() == want


def test_maxpool_routes_gradient_to_argmax_only():
    pool = MaxPoolAxis()
    x = np.array([[1.0, 5.0, 2.0], [7.0, 3.0, 4.0]])
    y = pool.forward(x)
    assert np.array_equal(y, [5.0, 7.0])
    gx = pool.backward(np.array([10.0, 20.0]))
    assert np.array_equal(gx, [[0.0, 10.0, 0.0], [20.0, 0.0, 0.0]])


def test_mse_documented_values():
    pred = np.zeros((2, 3))
    gt = np.zeros((2, 3))
    gt[1] = 1.0
    loss, grad = mse_loss(pred[1:], gt[1:])
    assert loss == 3.0 and np.array_equal(grad, np.full((1, 3), -2.0))
    # the mean is over rows: a second, exact row halves the loss
    loss, grad = mse_loss(pred, gt)
    assert loss == 1.5 and np.array_equal(grad, [[0.0, 0.0, 0.0], [-1.0, -1.0, -1.0]])
    loss0, grad0 = mse_loss(np.zeros((0, 3)), np.zeros((0, 3)))
    assert loss0 == 0.0 and grad0.shape == (0, 3)


def test_bce_documented_values():
    logits = np.zeros(9)
    labels = np.zeros(9)
    labels[4] = 1.0
    loss, grad = bce_loss(logits, labels)
    assert abs(loss - math.log(2.0)) < 1e-12
    assert np.allclose(grad, (0.5 - labels) / 9.0, atol=1e-15)
    loss0, grad0 = bce_loss(np.zeros(0), np.zeros(0, dtype=bool))
    assert loss0 == 0.0 and grad0.shape == (0,)


def test_bce_clamps_saturated_logits_in_the_log_only():
    """Logits of +-800 against the opposite labels cost -log(BCE_EPS)
    each, a finite loss, and the gradient stays the exact (p - y) / n."""
    logits = np.array([800.0, -800.0, 800.0, -800.0])
    labels = np.array([False, True, False, True])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        loss, grad = bce_loss(logits, labels)
    assert loss == pytest.approx(-math.log(BCE_EPS), rel=1e-9)
    assert np.array_equal(grad, (sigmoid(logits) - labels) / 4)
    assert np.array_equal(grad, [0.25, -0.25, 0.25, -0.25])


def test_loss_gradients_match_finite_differences():
    rng = rng_for(27, "loss-fd")
    pred = rng.standard_normal((20, 3))
    gt = rng.standard_normal((20, 3))
    fd = fd_grad(lambda: mse_loss(pred, gt)[0], pred)
    assert max_rel_err(fd, mse_loss(pred, gt)[1]) < FD_TOL

    logits = 2.0 * rng.standard_normal(30)
    labels = (rng.random(30) < 0.5).astype(np.float64)
    fd = fd_grad(lambda: bce_loss(logits, labels)[0], logits)
    assert max_rel_err(fd, bce_loss(logits, labels)[1]) < FD_TOL


def test_loss_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        mse_loss(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        mse_loss(np.zeros(3), np.zeros(3))
    with pytest.raises(ShapeError):
        bce_loss(np.zeros((2, 3)), np.zeros((3, 2)))


def test_sigmoid_saturates_without_overflow():
    x = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
    with np.errstate(over="raise"):
        y = sigmoid(x)
    assert y[0] == 0.0 and y[4] == 1.0 and y[2] == 0.5
    assert 0.0 < y[1] < 1e-12 and 0.0 < 1.0 - y[3] < 1e-12


def test_gradients_accumulate_until_zeroed():
    lin = Linear(3, 2, rng_for(28, "w"), dtype=np.float64)
    x = rng_for(28, "x").standard_normal((4, 3))
    gy = rng_for(28, "gy").standard_normal((4, 2))
    lin.zero_grad()
    lin.forward(x)
    lin.backward(gy)
    once = lin.weight.grad.copy()
    lin.forward(x)
    lin.backward(gy)
    assert np.allclose(lin.weight.grad, 2.0 * once, atol=1e-12)
    lin.zero_grad()
    assert not lin.weight.grad.any() and not lin.bias.grad.any()


def test_adam_first_step_is_signed_learning_rate():
    g = np.array([3.0, -0.5, 1e-3, -200.0])
    p = Param(np.zeros(4))
    adam = Adam([p], lr=0.01)
    p.grad[:] = g
    adam.step()
    # with fresh moments the bias-corrected update is g / (|g| + eps)
    assert np.allclose(p.value, -0.01 * np.sign(g), rtol=1e-4)
    assert np.allclose(p.value, -0.01 * g / (np.abs(g) + 1e-8), atol=1e-18)


def test_adam_zero_learning_rate_changes_nothing():
    p = Param(np.array([1.0, 2.0]))
    adam = Adam([p], lr=0.0)
    p.grad[:] = [5.0, -7.0]
    adam.step()
    assert np.array_equal(p.value, [1.0, 2.0])
    # the lr attribute is live: raising it makes the next step move
    adam.lr = 0.1
    adam.step()
    assert not np.array_equal(p.value, [1.0, 2.0])


def test_adam_minimizes_quadratic_bowl():
    target = np.array([1.5, -2.0, 0.25])
    p = Param(np.zeros(3))
    adam = Adam([p], lr=0.05)
    for _ in range(400):
        p.grad[:] = 2.0 * (p.value - target)
        adam.step()
        adam.zero_grad()
    assert np.allclose(p.value, target, atol=1e-3)
