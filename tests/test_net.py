import os
import select
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from weightsteg import net
from weightsteg.net import (
    _pool_backward,
    _pool_forward,
    AdamState,
    ConvBlock,
    ConvNetConfig,
    NetParams,
    TrainConfig,
    adam_step,
    backward,
    batch_loss,
    forward,
    init_params,
    make_triplets,
    preset,
    train,
)

SMALL = ConvNetConfig(
    input_size=8,
    blocks=(ConvBlock(2, 3, pool=True), ConvBlock(3, 2, pool=False)),
    embedding_dim=3,
)


def small_data(seed=0, count=4):
    rng = np.random.default_rng(seed)
    images = rng.random((count, 8, 8))
    labels = [0] * (count // 2) + [1] * (count - count // 2)
    return images, labels


class TestConfig:
    def test_feature_shapes(self):
        cfg = preset("osl-small", 100)
        assert cfg.feature_shapes() == [(16, 45, 45), (32, 19, 19), (32, 8, 8), (64, 5, 5)]
        assert cfg.flat_features() == 64 * 25

    def test_collapsing_map_rejected(self):
        with pytest.raises(ValueError):
            ConvNetConfig(input_size=4, blocks=(ConvBlock(2, 5, pool=False),))
        with pytest.raises(ValueError):
            ConvNetConfig(input_size=5, blocks=(ConvBlock(2, 5, pool=True),))

    def test_embedding_dim_floor(self):
        with pytest.raises(ValueError):
            ConvNetConfig(input_size=8, blocks=(), embedding_dim=1)

    def test_dict_roundtrip(self):
        cfg = preset("koch", 100)
        assert ConvNetConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("resnet")


class TestForward:
    def test_output_dim(self):
        params = init_params(SMALL)
        emb = forward(SMALL, params, np.random.default_rng(0).random((8, 8)))
        assert emb.shape == (3,)
        batch = forward(SMALL, params, np.random.default_rng(0).random((5, 8, 8)))
        assert batch.shape == (5, 3)
        assert forward(SMALL, params, []).shape == (0, 3)

    def test_deterministic(self):
        params = init_params(SMALL)
        img = np.random.default_rng(1).random((8, 8))
        a = forward(SMALL, params, img)
        b = forward(SMALL, params, img)
        assert np.array_equal(a, b)

    def test_zero_net_sigmoid_head(self):
        zeros = NetParams({k: np.zeros_like(v) for k, v in init_params(SMALL).tensors.items()})
        emb = forward(SMALL, zeros, np.zeros((8, 8)))
        assert np.all(emb == 0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            forward(SMALL, init_params(SMALL), np.zeros((9, 9)))


class ReadLog:
    """A sequence of images that logs the index and thread of each read."""

    def __init__(self, items):
        self.items, self.reads = items, []

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        self.reads.append((i, threading.get_ident()))
        return self.items[i]


class TestForwardOnASequence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_rows_read_once_on_the_caller(self, monkeypatch, workers):
        """forward on a sequence reads each item once, on the calling thread,
        in index order; its rows have the bits of forward on the same images
        as a list, a None item having none."""
        monkeypatch.setattr(net, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(net, "_helpers", None)
        config = preset("tiny", 28)
        params = init_params(config, np.random.default_rng(4))
        images = list(np.random.default_rng(6).random((5, 28, 28)))
        items = ReadLog([images[0], None, images[1], images[2], None, None, images[3], images[4]])
        got = forward(config, params, items)
        assert items.reads == [(i, threading.get_ident()) for i in range(8)]
        want = forward(config, params, images)
        assert got.shape == want.shape == (5, config.embedding_dim)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        one = np.stack([forward(config, params, image) for image in images])
        assert np.array_equal(got.view(np.uint32), one.view(np.uint32))

    def test_empty_and_single(self):
        config = preset("tiny", 28)
        params = init_params(config)
        image = np.random.default_rng(7).random((28, 28))
        assert forward(config, params, []).shape == (0, config.embedding_dim)
        assert forward(config, params, ReadLog([None, None])).shape == (0, config.embedding_dim)
        row = forward(config, params, image)
        assert row.shape == (config.embedding_dim,)
        assert np.array_equal(row, forward(config, params, [image])[0])

    def test_a_bad_item_fails_closed(self, monkeypatch):
        """An item of the wrong shape raises ValueError, and no later item is read."""
        monkeypatch.setattr(net, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(net, "_helpers", None)
        config = preset("tiny", 28)
        items = ReadLog([np.zeros((28, 28)), np.zeros((27, 28)), np.zeros((28, 28))])
        with pytest.raises(ValueError, match=r"got \(27, 28\)"):
            forward(config, init_params(config), items)
        assert [i for i, _ in items.reads] == [0, 1]


def argmax_pool(x, dy):
    """Reference 2x2 max pool: argmax per window (first max wins); dx gets dy there."""
    b, c, h, w = x.shape
    ph, pw = h // 2, w // 2
    win = (
        x[:, :, : 2 * ph, : 2 * pw]
        .reshape(b, c, ph, 2, pw, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(b, c, ph, pw, 4)
    )
    idx = win.argmax(axis=-1)
    y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    dx = np.zeros_like(x)
    di, dj = np.divmod(idx, 2)
    bi, ci, pi, pj = np.indices(idx.shape)
    dx[bi, ci, 2 * pi + di, 2 * pj + dj] = dy
    return y, dx


FLOATS = st.floats(width=32, allow_nan=False, allow_infinity=False)
TIES = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5])


@st.composite
def pool_cases(draw):
    shape = tuple(draw(st.integers(1, n)) for n in (2, 3)) + tuple(
        draw(st.integers(2, 7)) for _ in range(2)
    )
    kind = draw(st.sampled_from(["random", "relu", "ties", "tied-windows"]))
    if kind == "tied-windows":
        x = np.full(shape, draw(TIES), dtype=np.float32)
    else:
        x = draw(arrays(np.float32, shape, elements=TIES if kind == "ties" else FLOATS))
    if kind == "relu":
        x = x * (x > 0)  # negative inputs become -0.0, as after the net's ReLU
    dy = draw(arrays(np.float32, (*shape[:2], shape[2] // 2, shape[3] // 2), elements=FLOATS))
    return x, dy


class TestPool:
    @given(pool_cases())
    def test_matches_argmax_pool_bitwise(self, case):
        x, dy = case
        want_y, want_dx = argmax_pool(x, dy)
        y, cache = _pool_forward(x)
        dx = _pool_backward(dy, cache)
        assert y.shape == want_y.shape and dx.shape == x.shape
        assert np.array_equal(y.view(np.uint32), want_y.view(np.uint32))
        assert np.array_equal(dx.view(np.uint32), want_dx.view(np.uint32))

    def test_signed_zero_tie_keeps_first(self):
        x = np.array([[[[-0.0, 0.0], [0.0, 0.0]]]], dtype=np.float32)
        y, cache = _pool_forward(x)
        assert np.signbit(y).all()
        dx = _pool_backward(np.ones((1, 1, 1, 1), dtype=np.float32), cache)
        assert dx.tolist() == [[[[1.0, 0.0], [0.0, 0.0]]]]

    def test_nan_wins_only_as_first_view(self):
        """A NaN never beats the running max; a NaN first view is kept, and no
        view of its window takes the gradient."""
        nan = np.nan
        x = np.array([[[[1.0, nan, nan, 5.0], [2.0, 0.0, 3.0, nan]]]], dtype=np.float32)
        y, cache = _pool_forward(x)
        assert y[0, 0, 0, 0] == 2.0 and np.isnan(y[0, 0, 0, 1])
        dx = _pool_backward(np.ones((1, 1, 1, 2), dtype=np.float32), cache)
        assert dx.tolist() == [[[[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]]]


class TestMakeTriplets:
    def test_three_plus_three(self):
        assert len(make_triplets([0, 0, 0, 1, 1, 1])) == 36

    def test_one_plus_one(self):
        assert make_triplets([0, 1]) == []

    def test_two_plus_one(self):
        assert make_triplets([0, 0, 1]) == [(0, 1, 2), (1, 0, 2)]

    def test_deterministic_order(self):
        assert make_triplets([1, 0, 0]) == make_triplets([1, 0, 0])
        assert make_triplets([1, 0, 0])[0] == (1, 2, 0)


class TestBackward:
    def test_inactive_triplets_zero_gradients(self):
        # two well separated clusters and a tiny margin: hinge strictly inactive
        cfg = ConvNetConfig(input_size=4, blocks=(), embedding_dim=2)
        params = NetParams(
            {
                "embed.weight": np.eye(2, 16, dtype=np.float64),
                "embed.bias": np.zeros(2, dtype=np.float64),
            }
        )
        images = np.zeros((4, 4, 4))
        images[0, 0, 0] = images[1, 0, 0] = 0.01
        images[2, 0, 0] = images[3, 0, 0] = 100.0
        triplets = make_triplets([0, 0, 1, 1])
        grads, loss = backward(cfg, params, images, triplets, margin=1e-6)
        assert loss == 0.0
        assert all(not g.any() for g in grads.values())

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        params = init_params(SMALL, rng).astype(np.float64)
        images = rng.random((4, 8, 8))
        triplets = make_triplets([0, 0, 1, 1])
        grads, loss = backward(SMALL, params, images, triplets, margin=1.0)
        assert loss > 0.0

        h = 1e-5
        worst = 0.0
        for name, tensor in params.tensors.items():
            flat = tensor.reshape(-1)
            grad = grads[name].reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = batch_loss(SMALL, params, images, triplets, 1.0)
                flat[i] = keep - h
                down = batch_loss(SMALL, params, images, triplets, 1.0)
                flat[i] = keep
                fd = (up - down) / (2 * h)
                worst = max(worst, abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-6))
        assert worst < 1e-4

    def test_identical_filters_get_identical_gradients(self):
        cfg = ConvNetConfig(
            input_size=6, blocks=(ConvBlock(2, 3, pool=True),), embedding_dim=2
        )
        rng = np.random.default_rng(3)
        params = init_params(cfg, rng)
        # make the two conv channels and their downstream weights identical
        w = params.tensors["conv0.weight"]
        w[1] = w[0]
        ew = params.tensors["embed.weight"].reshape(2, 2, 2, 2)
        ew[:, 1] = ew[:, 0]
        images = rng.random((4, 6, 6)).astype(np.float32)
        grads, _ = backward(cfg, params, images, make_triplets([0, 0, 1, 1]), 1.0)
        gw = grads["conv0.weight"]
        assert np.allclose(gw[0], gw[1])
        assert np.allclose(grads["conv0.bias"][0], grads["conv0.bias"][1])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            backward(SMALL, init_params(SMALL), np.zeros((2, 8, 8)), [], 1.0)


def reference_im2col(x, k):
    """(B, OH*OW, C*k*k) patch rows by one transpose-reshape of the whole batch."""
    win = sliding_window_view(x, (k, k), axis=(2, 3))  # (B, C, OH, OW, k, k)
    batch, _, oh, ow = win.shape[:4]
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(batch, oh * ow, -1)


@settings(max_examples=300)
@given(
    batch=st.integers(1, 3),
    channels=st.integers(1, 3),
    k=st.integers(1, 4),
    extra=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    layout=st.sampled_from(["contiguous", "channels-last", "one-of-a-batch"]),
    seed=st.integers(0, 2**16),
)
@example(batch=2, channels=3, k=1, extra=(2, 3), layout="contiguous", seed=0)  # k = 1
@example(batch=1, channels=1, k=3, extra=(2, 0), layout="contiguous", seed=0)  # OW = 1, C = 1
@example(batch=2, channels=3, k=2, extra=(0, 0), layout="contiguous", seed=0)  # 1x1, C > 1
@example(batch=1, channels=2, k=3, extra=(0, 0), layout="channels-last", seed=0)  # 1x1, copied
def test_im2col_view_exactly_where_reshape_needs_no_copy(batch, channels, k, extra, layout, seed):
    """_im2col returns a view of x, with the strides reshape gives it, exactly
    where the window view reshapes to the patch rows without a copy, and a
    C-contiguous copy everywhere else; the rows are the reference's."""
    rng = np.random.default_rng(seed)
    h, w = k + extra[0], k + extra[1]
    if layout == "contiguous":
        x = rng.standard_normal((batch, channels, h, w))
    elif layout == "channels-last":  # as a conv output or its pooled copy
        x = rng.standard_normal((batch, h, w, channels)).transpose(0, 3, 1, 2)
    else:  # one image of a batch, as _conv_forward passes it
        x = rng.standard_normal((batch, channels, h, w))[-1:]
    win = sliding_window_view(x, (k, k), axis=(2, 3)).transpose(0, 2, 3, 1, 4, 5)
    try:
        view = win.reshape(x.shape[0], -1, channels * k * k, copy=False)
    except ValueError:
        view = None
    rows = net._im2col(x, k)
    assert np.array_equal(rows, reference_im2col(x, k))
    if view is not None:
        assert np.shares_memory(rows, x) and rows.strides == view.strides
    else:
        assert rows.flags.c_contiguous and not np.shares_memory(rows, x)


def reference_conv_backward(dy, w, x, input_grad=True):
    """The convolution backward pass that always computes the input gradient,
    by im2col transpose and a k*k col2im loop over the whole batch's dcols;
    dw is each image's gemm, summed in image order."""
    batch, out_c, oh, ow = dy.shape
    k = w.shape[2]
    x_shape = x.shape
    dmat = dy.reshape(batch, out_c, oh * ow).transpose(0, 2, 1)
    dw = reduce(np.add, (dmat[n].T @ reference_im2col(x[n : n + 1], k)[0] for n in range(batch)))
    dw = dw.reshape(w.shape)
    db = dy.sum(axis=(0, 2, 3))
    dcols = (dmat @ w.reshape(out_c, -1)).reshape(batch, oh, ow, x_shape[1], k, k)
    dx = np.zeros(x_shape, dtype=dy.dtype)
    for i in range(k):
        for j in range(k):
            dx[:, :, i : i + oh, j : j + ow] += dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return dx, dw, db


@pytest.mark.parametrize("arch,size", [("tiny", 28), ("osl-small", 100)])
def test_backward_bit_identical_to_reference(monkeypatch, arch, size):
    """Skipping block 0's input gradient leaves every gradient bit for bit the same."""
    config = preset(arch, input_size=size)
    params = init_params(config)
    images = np.random.default_rng(5).random((6, size, size))
    triplets = make_triplets([0, 0, 0, 1, 1, 1])
    input_grads = []
    conv_backward = net._conv_backward

    def counting(dy, w, x, input_grad=True):
        input_grads.append(input_grad)
        return conv_backward(dy, w, x, input_grad)

    monkeypatch.setattr(net, "_conv_backward", counting)
    grads, loss = backward(config, params, images, triplets, 1.0)
    assert input_grads == [True] * (len(config.blocks) - 1) + [False]
    monkeypatch.setattr(net, "_conv_backward", reference_conv_backward)
    want, want_loss = backward(config, params, images, triplets, 1.0)
    assert loss == want_loss > 0.0
    assert grads.keys() == want.keys()
    for name in want:
        assert grads[name].dtype == want[name].dtype == np.float32
        assert np.array_equal(grads[name].view(np.uint32), want[name].view(np.uint32)), name


def reference_conv_forward(x, w, b):
    """The convolution forward pass as one stacked matmul over the whole batch's patches."""
    out_c, _, k, _ = w.shape
    oh, ow = x.shape[2] - k + 1, x.shape[3] - k + 1
    out = reference_im2col(x, k) @ w.reshape(out_c, -1).T + b
    return out.transpose(0, 2, 1).reshape(x.shape[0], out_c, oh, ow)


def reference_pool_forward(x):
    """2x2 max pool by np.where over the four strided views, the first winning ties."""
    views = net._pool_views(x)
    y = views[0]
    for v in views[1:]:
        y = np.where(v > y, v, y)
    return y, (x, y)


def reference_pool_backward(dy, cache):
    x, y = cache
    dx = np.zeros(x.shape, dtype=dy.dtype)
    taken = np.zeros(y.shape, dtype=bool)
    for view, dview in zip(net._pool_views(x), net._pool_views(dx)):
        winner = (view == y) & ~taken
        np.copyto(dview, dy, where=winner)
        taken |= winner
    return dx


def reference_layers():
    """Run the net on the reference conv and pool layers inside this context."""
    return mock.patch.multiple(
        net,
        _conv_forward=reference_conv_forward,
        _conv_backward=reference_conv_backward,
        _pool_forward=reference_pool_forward,
        _pool_backward=reference_pool_backward,
    )


def reference_net(config, params, x, demb):
    """Embeddings and gradients on the reference layers, each block caching
    its ReLU mask and applying it to the gradient after the pool's backward,
    which reads the block's pre-pool activation."""
    caches = []
    for i, block in enumerate(config.blocks):
        w, b = params.tensors[f"conv{i}.weight"], params.tensors[f"conv{i}.bias"]
        y = reference_conv_forward(x, w, b)
        mask = y > 0
        y = y * mask
        pool_cache = None
        if block.pool:
            y, pool_cache = reference_pool_forward(y)
        caches.append((x, mask, pool_cache))
        x = y
    flat = x.reshape(x.shape[0], -1)
    z = flat @ params.tensors["embed.weight"].T + params.tensors["embed.bias"]
    with np.errstate(over="ignore"):
        emb = 1.0 / (1.0 + np.exp(-z))
    demb = demb * emb * (1.0 - emb)
    grads = {"embed.weight": demb.T @ flat, "embed.bias": demb.sum(axis=0)}
    dx = (demb @ params.tensors["embed.weight"]).reshape(x.shape)
    for i in range(len(config.blocks) - 1, -1, -1):
        block_input, mask, pool_cache = caches[i]
        if pool_cache is not None:
            dx = reference_pool_backward(dx, pool_cache)
        dx = dx * mask
        dx, grads[f"conv{i}.weight"], grads[f"conv{i}.bias"] = reference_conv_backward(
            dx, params.tensors[f"conv{i}.weight"], block_input
        )
    return emb, grads


def bits(a):
    return a.view(f"u{a.itemsize}")


FLOAT_TYPES = st.sampled_from([np.float32, np.float64])  # float64 is the shadow mode


class TestConvOracle:
    """The conv layer, one image's patches at a time, against the batched reference."""

    @given(
        batch=st.integers(1, 4),
        channels=st.integers(1, 3),
        out_c=st.integers(1, 3),
        k=st.integers(1, 5),
        extra=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        dtype=FLOAT_TYPES,
        seed=st.integers(0, 2**16),
    )
    # OW = 1: the patch rows are a view of x, and matmul takes its non-BLAS loop
    @example(batch=1, channels=1, out_c=1, k=2, extra=(3, 0), dtype=np.float32, seed=1)
    def test_layer_bitwise(self, batch, channels, out_c, k, extra, dtype, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch, channels, k + extra[0], k + extra[1])).astype(dtype)
        w = rng.standard_normal((out_c, channels, k, k)).astype(dtype)
        b = rng.standard_normal(out_c).astype(dtype)
        y = net._conv_forward(x, w, b)
        want_y = reference_conv_forward(x, w, b)
        assert y.shape == want_y.shape and y.dtype == want_y.dtype == dtype
        assert np.array_equal(bits(y), bits(want_y))
        dy = rng.standard_normal(y.shape).astype(dtype)
        for got, want in zip(net._conv_backward(dy, w, x), reference_conv_backward(dy, w, x)):
            assert got.shape == want.shape and got.dtype == want.dtype == dtype
            assert np.array_equal(bits(got), bits(want))
        assert net._conv_backward(dy, w, x, input_grad=False)[0] is None

    @given(
        blocks=st.lists(
            st.builds(ConvBlock, st.integers(1, 3), st.integers(1, 5), st.booleans()),
            min_size=1,
            max_size=2,
        ),
        extra=st.integers(0, 5),
        batch=st.integers(1, 4),
        dtype=FLOAT_TYPES,
        seed=st.integers(0, 2**16),
    )
    def test_net_bitwise(self, blocks, extra, batch, dtype, seed):
        size = 1  # the smallest input that leaves the last map 1x1, then 0-5 more
        for block in reversed(blocks):
            size = (2 * size if block.pool else size) + block.kernel - 1
        config = ConvNetConfig(input_size=size + extra, blocks=blocks, embedding_dim=3)
        rng = np.random.default_rng(seed)
        params = init_params(config, rng).astype(dtype)
        for name, tensor in params.tensors.items():
            if name.endswith(".bias"):
                tensor[...] = rng.standard_normal(tensor.shape)
        images = rng.random((batch, config.input_size, config.input_size)).astype(dtype)
        demb = rng.standard_normal((batch, 3)).astype(dtype)

        def run():
            x = net._prepare_batch(config, images, dtype)
            _, cache = net._forward(config, params, x, with_cache=True)
            return forward(config, params, images), net._backward(config, params, cache, demb)

        emb, grads = run()
        with reference_layers():
            want_emb, want = run()
        assert emb.dtype == want_emb.dtype == dtype
        assert np.array_equal(bits(emb), bits(want_emb))
        assert grads.keys() == want.keys()
        for name in want:
            assert grads[name].dtype == want[name].dtype == dtype
            assert np.array_equal(bits(grads[name]), bits(want[name])), name


@given(
    blocks=st.lists(
        st.builds(ConvBlock, st.integers(1, 3), st.integers(1, 5), st.booleans()),
        min_size=0,
        max_size=3,
    ),
    extra=st.integers(0, 5),
    batch=st.integers(1, 4),
    dtype=FLOAT_TYPES,
    seed=st.integers(0, 2**16),
)
def test_backward_bitwise_against_masked_reference(blocks, extra, batch, dtype, seed):
    """The net, which caches no ReLU mask and applies ReLU to a pooled block's
    gradient before the pool, against reference_net, which keeps the mask and
    applies it after: embeddings and gradients bit for bit, on inputs with
    zero pixels (for -0/+0 ties) and, in a quarter of the cases, a NaN pixel."""
    size = 1
    for block in reversed(blocks):
        size = (2 * size if block.pool else size) + block.kernel - 1
    config = ConvNetConfig(input_size=size + extra, blocks=blocks, embedding_dim=3)
    rng = np.random.default_rng(seed)
    params = init_params(config, rng).astype(dtype)
    for name, tensor in params.tensors.items():
        if name.endswith(".bias"):
            tensor[...] = rng.standard_normal(tensor.shape) * (rng.random(tensor.shape) < 0.5)
    images = rng.random((batch, config.input_size, config.input_size)).astype(dtype)
    images[rng.random(images.shape) < 0.3] = 0.0
    if rng.random() < 0.25:  # a NaN reaches most gradients, so only now and then
        images[0, rng.integers(config.input_size), rng.integers(config.input_size)] = np.nan
    demb = rng.standard_normal((batch, 3)).astype(dtype)
    x = net._prepare_batch(config, images, dtype)
    emb, cache = net._forward(config, params, x, with_cache=True)
    grads = net._backward(config, params, cache, demb)
    want_emb, want = reference_net(config, params, x, demb)
    assert np.array_equal(bits(emb), bits(want_emb))
    assert grads.keys() == want.keys()
    for name in want:
        assert grads[name].dtype == want[name].dtype == dtype
        assert np.array_equal(bits(grads[name]), bits(want[name])), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])  # float64 is the shadow mode
def test_osl_small_bitwise(dtype):
    """The osl-small preset at 100x100 (k = 10 and 7, C = 16 and 32, beyond the
    hypothesis oracle's reach) against the reference layers: batch-1
    embeddings and the gradients of one 6-image backward."""
    config = preset("osl-small", input_size=100)
    rng = np.random.default_rng(11)
    params = init_params(config, rng).astype(dtype)
    for name, tensor in params.tensors.items():
        if name.endswith(".bias"):
            tensor[...] = 0.1 * rng.standard_normal(tensor.shape)
    images = rng.random((6, 100, 100)).astype(dtype)
    images[0, 60:] = 0.0  # zero rows, as a small model renders
    triplets = make_triplets([0, 0, 0, 1, 1, 1])

    def run():
        embs = [forward(config, params, image) for image in images[:3]]
        return embs, backward(config, params, images, triplets, 1.0)

    embs, (grads, loss) = run()
    with reference_layers():
        want_embs, (want, want_loss) = run()
    for emb, want_emb in zip(embs, want_embs):
        assert emb.dtype == want_emb.dtype == dtype
        assert np.array_equal(bits(emb), bits(want_emb))
    assert loss == want_loss > 0.0
    assert grads.keys() == want.keys()
    for name in want:
        assert grads[name].dtype == want[name].dtype == dtype
        assert np.array_equal(bits(grads[name]), bits(want[name])), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])  # float64 is the shadow mode
def test_osl_small_backward_nan_and_signed_zero_windows(dtype):
    """One osl-small backward whose block-0 pool sees windows with a NaN first
    view beside finite views, and (-0, +0) and (+0, -0) ties, gives the
    reference layers' gradients bit for bit (NaNs included: conv0 and conv1
    weights each have taps that read the NaN pixel's activations)."""
    config = preset("osl-small", input_size=100)
    rng = np.random.default_rng(11)
    params = init_params(config, rng).astype(dtype)  # zero biases: a zero patch gives +0
    images = rng.random((6, 100, 100)).astype(dtype)
    images[0, 61:] = 0.0  # conv0 rows 61-90 are +0, row 60 is -0 where negative
    images[0, :, :40] = 0.0  # conv0 cols 0-30 are +0, col 31 is -0 where negative
    # conv0 rows 88-90, cols 41-50 read it; pooled row 44 reaches only block 1's
    # conv row 38, which its pool drops, so the embeddings stay finite
    images[1, 97, 50] = np.nan
    x = images[:, None]
    relu0 = net._conv_forward(x, params.tensors["conv0.weight"], params.tensors["conv0.bias"])
    relu0 *= relu0 > 0
    views = np.stack(net._pool_views(relu0))
    neg, pos = (views == 0) & np.signbit(views), (views == 0) & ~np.signbit(views)
    assert (neg[0] & pos[1:].any(axis=0)).any() and (pos[0] & neg[1:].any(axis=0)).any()
    assert (np.isnan(views[0]) & ~np.isnan(views[1:]).all(axis=0)).any()
    triplets = make_triplets([0, 0, 0, 1, 1, 1])

    grads, loss = backward(config, params, images, triplets, 1.0)
    with reference_layers():
        want, want_loss = backward(config, params, images, triplets, 1.0)
    assert loss == want_loss > 0.0
    assert np.isnan(grads["conv0.weight"]).any() and np.isnan(grads["conv1.weight"]).any()
    assert grads.keys() == want.keys()
    for name in want:
        assert grads[name].dtype == want[name].dtype == dtype
        assert np.array_equal(bits(grads[name]), bits(want[name])), name
    demb = np.random.default_rng(3).standard_normal((6, config.embedding_dim)).astype(dtype)
    _, cache = net._forward(config, params, x, with_cache=True)
    masked = reference_net(config, params, x, demb)[1]
    for name, grad in net._backward(config, params, cache, demb).items():
        assert np.array_equal(bits(grad), bits(masked[name])), name


def test_backward_peak_memory(monkeypatch):
    """One osl-small training step holds, per thread, one gemm operand (one
    image's patches or its dcols) plus one kernel row of dcols at a time, and
    a pooled block keeps its pool's "greater" masks, not its pre-pool
    activation and ReLU mask: a backward on 6 images peaks at 11.2 MB traced
    on 1 usable CPU, 17.0 MB on 2 and 27.9 MB on 4, where four threads'
    dcols and rows set it, each bound 5% above that."""
    config = preset("osl-small", input_size=100)
    params = init_params(config)
    images = np.random.default_rng(5).random((6, 100, 100)).astype(np.float32)
    triplets = make_triplets([0, 0, 0, 1, 1, 1])
    for cpus, bound_mb in ((1, 11.8), (2, 17.9), (4, 29.2)):
        monkeypatch.setattr(net, "_usable_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            backward(config, params, images, triplets, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6, (cpus, peak / 1e6)


class TestAdam:
    def test_zero_gradients_leave_params(self):
        params = init_params(SMALL)
        before = params.copy()
        state = AdamState.zeros_like(params)
        zero = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        out = params
        for _ in range(3):
            state, out = adam_step(state, out, zero, lr=0.1)
        assert out == before

    def test_first_step_magnitude(self):
        params = NetParams({"w": np.full(4, 5.0, dtype=np.float64)})
        state = AdamState.zeros_like(params)
        _, updated = adam_step(state, params, {"w": np.ones(4)}, lr=0.01)
        expected = 5.0 - 0.01 * (1.0 / (1.0 + 1e-8))
        assert np.allclose(updated.tensors["w"], expected, rtol=0, atol=1e-12)

    def test_identical_histories_identical_updates(self):
        params = NetParams({"w": np.array([1.0, 1.0], dtype=np.float64)})
        state = AdamState.zeros_like(params)
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = float(rng.standard_normal())
            state, params = adam_step(state, params, {"w": np.array([g, g])}, lr=0.05)
        assert params.tensors["w"][0] == params.tensors["w"][1]


def reference_adam_step(state, params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """adam_step as one expression per quantity, each allocating its temporaries."""
    t = state.step + 1
    new_m, new_v, new_p = {}, {}, {}
    for name, p in params.tensors.items():
        g = grads[name]
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        v = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        new_m[name], new_v[name] = m, v
        new_p[name] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return AdamState(new_m, new_v, t), NetParams(new_p)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([np.float32, np.float64]), st.integers(0, 40), st.integers(1, 4),
       st.floats(1e-6, 1.0), st.integers(0, 2**16))
def test_adam_step_bit_identical_to_reference(dtype, size, steps, lr, seed):
    rng = np.random.default_rng(seed)
    params = NetParams({"w": rng.standard_normal((size, 3)).astype(dtype),
                        "b": rng.standard_normal(size).astype(dtype)})
    # adam_step updates in place, so the reference gets its own copies of
    # the state, the parameters and the gradients
    state, want_state = AdamState.zeros_like(params), AdamState.zeros_like(params)
    got, want = params, params.copy()
    for _ in range(steps):
        # gradients spanning many magnitudes, zeros included
        grads = {k: (rng.standard_normal(v.shape) * 10.0 ** rng.integers(-12, 4, v.shape)
                     * (rng.random(v.shape) < 0.9)).astype(dtype)
                 for k, v in params.tensors.items()}
        want_grads = {k: g.copy() for k, g in grads.items()}
        state, got = adam_step(state, got, grads, lr)
        want_state, want = reference_adam_step(want_state, want, want_grads, lr)
    assert state.step == want_state.step == steps
    for name in params.tensors:
        for a, b in ((got.tensors[name], want.tensors[name]),
                     (state.m[name], want_state.m[name]), (state.v[name], want_state.v[name])):
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(bits(a), bits(b)), name


def test_adam_step_updates_in_place_and_leaves_grads():
    """adam_step writes m, v and the parameters into the arrays it was given,
    over more than one chunk, and leaves the gradients as they were."""
    n = 2 * net._ADAM_CHUNK + 3
    rng = np.random.default_rng(4)
    params = NetParams({"w": rng.standard_normal(n).astype(np.float32),
                        "b": rng.standard_normal((3, 5)).astype(np.float32)})
    state = AdamState.zeros_like(params)

    def arrays():
        return [*params.tensors.values(), *state.m.values(), *state.v.values()]

    given = arrays()
    before = params.copy()
    grads = {k: rng.standard_normal(v.shape).astype(np.float32) for k, v in params.tensors.items()}
    grads_before = {k: g.copy() for k, g in grads.items()}
    for _ in range(2):
        new_state, new_params = adam_step(state, params, grads, lr=1e-3)
        assert new_state is state and new_params is params
    assert state.step == 2
    assert all(a is b for a, b in zip(arrays(), given, strict=True))
    for name, g in grads.items():
        assert np.array_equal(bits(g), bits(grads_before[name])), name
        assert (params.tensors[name] != before.tensors[name]).all(), name


def test_adam_step_peak_memory():
    """adam_step allocates only its two scratch arrays of one chunk each,
    whatever the tensor's size."""
    n = 1 << 20
    params = NetParams({"w": np.ones(n, dtype=np.float32)})
    state = AdamState.zeros_like(params)
    grads = {"w": np.full(n, 0.5, dtype=np.float32)}
    tracemalloc.start()
    try:
        adam_step(state, params, grads, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * 2 * 4 * net._ADAM_CHUNK < 4 * n, peak


@pytest.mark.parametrize("arch", ["koch", "osl-small"])
def test_init_params_bit_identical_to_one_draw(arch):
    """Drawing each weight tensor in row blocks gives the bits of one float64
    draw of the whole tensor cast to float32."""
    config = preset(arch, input_size=100)
    params = init_params(config, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    for name, shape in net.param_shapes(config).items():
        got = params.tensors[name]
        assert got.dtype == np.float32 and got.shape == shape
        if name.endswith(".bias"):
            assert not got.any()
            continue
        limit = np.sqrt(6.0 / np.prod(shape[1:]))
        want = rng.uniform(-limit, limit, size=shape).astype(np.float32)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), name
        del want


class TestTrain:
    def test_es_single_epoch(self):
        images, labels = small_data()
        result = train(images, labels, SMALL, TrainConfig(strategy="ES", seed=0))
        assert result.epochs_run == 1

    def test_st_five_epochs(self):
        images, labels = small_data()
        result = train(images, labels, SMALL, TrainConfig(strategy="ST", seed=0))
        assert result.epochs_run == 5

    def test_ub_stops_when_loss_inside_interval(self):
        images, labels = small_data()
        cfg = TrainConfig(strategy="UB", seed=0, ub_low=0.0, ub_high=1e9)
        result = train(images, labels, SMALL, cfg)
        assert result.epochs_run == 1

    def test_ub_runs_to_cap_when_interval_unreachable(self):
        images, labels = small_data()
        cfg = TrainConfig(strategy="UB", seed=0, ub_low=1e8, ub_high=1e9)
        result = train(images, labels, SMALL, cfg)
        assert result.epochs_run == net.UB_MAX_EPOCHS == 100

    def test_deterministic_given_seed(self):
        images, labels = small_data()
        a = train(images, labels, SMALL, TrainConfig(strategy="ST", seed=5))
        b = train(images, labels, SMALL, TrainConfig(strategy="ST", seed=5))
        assert a.params == b.params
        assert a.epoch_losses == b.epoch_losses
        c = train(images, labels, SMALL, TrainConfig(strategy="ST", seed=6))
        assert a.params != c.params

    def test_no_triplets_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((2, 8, 8)), [0, 1], SMALL, TrainConfig(seed=0))

    def test_loss_mostly_nonincreasing_over_first_epoch(self):
        # separable synthetic data: label comes from a strong intensity cue
        rng = np.random.default_rng(99)
        images = rng.random((6, 8, 8)) * 0.1
        images[3:] += 0.8
        labels = [0, 0, 0, 1, 1, 1]
        improved = 0
        for seed in range(20):
            result = train(
                images, labels, SMALL, TrainConfig(strategy="ST", seed=seed, learning_rate=1e-3)
            )
            if result.epoch_losses[1] <= result.epoch_losses[0] + 1e-12:
                improved += 1
        assert improved >= 18

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            TrainConfig(strategy="XX")
        with pytest.raises(ValueError):
            TrainConfig(margin=0.0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=float("nan"))
        with pytest.raises(ValueError):
            TrainConfig(margin=float("inf"))
        with pytest.raises(ValueError):
            TrainConfig(ub_low=2.0, ub_high=1.0)


def tiny_data():
    """Six 12x12 images, three per class: 36 triplets for the tiny preset."""
    rng = np.random.default_rng(21)
    return preset("tiny", input_size=12), rng.random((6, 12, 12)), [0, 0, 0, 1, 1, 1]


class TestBatchSize:
    @pytest.mark.parametrize("batch_size", [36, 37, 1000])
    def test_one_chunk_equals_full_batch(self, batch_size):
        config, images, labels = tiny_data()
        full = train(images, labels, config, TrainConfig(strategy="ST", seed=4))
        chunked = train(
            images, labels, config, TrainConfig(strategy="ST", seed=4, batch_size=batch_size)
        )
        assert chunked.params == full.params
        assert chunked.epoch_losses == full.epoch_losses

    def test_adam_steps_per_epoch(self):
        config, images, labels = tiny_data()
        assert len(make_triplets(labels)) == 36
        with mock.patch.object(net, "adam_step", wraps=net.adam_step) as step:
            result = train(
                images, labels, config, TrainConfig(strategy="ST", seed=0, batch_size=10)
            )
        assert result.epochs_run == 5
        assert step.call_count == 4 * 5  # ceil(36 / 10) steps an epoch

    def test_epoch_loss_is_triplet_weighted_mean_of_chunk_losses(self, monkeypatch):
        config, images, labels = tiny_data()
        chunks = []
        original = net.backward

        def recording(config, params, images, triplets, margin):
            grads, loss = original(config, params, images, triplets, margin)
            chunks.append((len(triplets), loss))
            return grads, loss

        monkeypatch.setattr(net, "backward", recording)
        result = train(images, labels, config, TrainConfig(strategy="ES", seed=2, batch_size=10))
        assert [size for size, _ in chunks] == [10, 10, 10, 6]
        assert len({loss for _, loss in chunks}) > 1
        total = 0.0
        for size, loss in chunks:
            total += loss * size
        assert result.epoch_losses == [total / 36]


@pytest.fixture(params=[1, 8], ids=["one-cpu", "more-cpus-than-images"])
def cpus(request, monkeypatch):
    """The usable CPUs _fan_out sees, with a pool made afresh for them."""
    monkeypatch.setattr(net, "_usable_cpus", lambda: request.param)
    monkeypatch.setattr(net, "_helpers", None)
    return request.param


class TestFanOut:
    @pytest.mark.parametrize("arch,size", [("tiny", 28), ("osl-small", 100)],
                             ids=["sigmoid-tiny-28", "sigmoid-osl-small-100"])
    def test_batch_rows_are_batch_1_forwards(self, cpus, arch, size):
        """forward on a batch of 1, 2, 3 or 7 gives, row by row, the bits of
        each image's own forward."""
        config = preset(arch, size)
        rng = np.random.default_rng(5)
        params = init_params(config, rng)
        for name, tensor in params.tensors.items():
            if name.endswith(".bias"):
                tensor[...] = 0.1 * rng.standard_normal(tensor.shape)
        images = rng.random((7, size, size))
        want = np.stack([forward(config, params, image) for image in images])
        for batch in (1, 2, 3, 7):
            got = forward(config, params, images[:batch])
            assert got.dtype == np.float32 and got.shape == (batch, config.embedding_dim)
            assert np.array_equal(got.view(np.uint32), want[:batch].view(np.uint32))

    def test_train_bits_do_not_depend_on_the_workers(self, monkeypatch):
        config, images, labels = tiny_data()
        results = []
        for workers in (1, 2, 4):
            monkeypatch.setattr(net, "_usable_cpus", lambda: workers)
            results.append(train(images, labels, config, TrainConfig(strategy="ST", seed=3)))
        one = results[0]
        for other in results[1:]:
            assert one.epoch_losses == other.epoch_losses
            for name, tensor in one.params.tensors.items():
                assert np.array_equal(tensor.view(np.uint32), other.params.tensors[name].view(np.uint32))

    def test_backward_bits_do_not_depend_on_the_workers(self, monkeypatch):
        """Each conv's dw is the image-order sum of its images' gemms, whichever
        thread ran each image: one osl-small backward on 6 images gives the
        same gradient bits on 1, 2 and 4 usable CPUs."""
        config = preset("osl-small", input_size=100)
        params = init_params(config)
        images = np.random.default_rng(5).random((6, 100, 100)).astype(np.float32)
        triplets = make_triplets([0, 0, 0, 1, 1, 1])
        results = []
        for workers in (1, 2, 4):
            monkeypatch.setattr(net, "_usable_cpus", lambda: workers)
            results.append(backward(config, params, images, triplets, 1.0))
        (one, loss), *others = results
        for grads, other_loss in others:
            assert other_loss == loss > 0.0
            assert grads.keys() == one.keys()
            for name, grad in one.items():
                assert np.array_equal(grad.view(np.uint32), grads[name].view(np.uint32)), name

    def test_lowest_failing_index_raises(self, cpus):
        ran = []

        def fn(i):
            ran.append(i)
            if i in (2, 4):
                raise ValueError(f"index {i}")

        with pytest.raises(ValueError, match="index 2"):
            net._fan_out(fn, 6)
        assert set(range(3)) <= set(ran)

    def test_each_index_runs_once_under_contention(self, monkeypatch):
        """Eight threads on a short switch interval claim 5,000 indices: each
        runs exactly once, which a lost or repeated claim would break."""
        monkeypatch.setattr(net, "_usable_cpus", lambda: 8)
        runs = np.zeros(5000, dtype=np.int64)

        def fn(i):
            runs[i] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=net._fan_out, args=(fn, len(runs)), daemon=True)
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert (runs == 1).all()

    @staticmethod
    def made_then_run(n, pause=0.0):
        """make and fn for _fan_out that log, in one list, ("made", i, thread)
        when make(i) returns and ("start", i, thread) when fn(i) starts."""
        log = []

        def make(i):
            time.sleep(pause)  # gives a pool thread time to claim an index not made yet
            log.append(("made", i, threading.get_ident()))

        def fn(i):
            log.append(("start", i, threading.get_ident()))

        return make, fn, log

    @staticmethod
    def check_made_then_run(log, n, caller):
        made = [(i, thread) for kind, i, thread in log if kind == "made"]
        assert made == [(i, caller) for i in range(n)]  # on the caller, in index order
        started = sorted(i for kind, i, _ in log if kind == "start")
        assert started == list(range(n))
        at = {(kind, i): pos for pos, (kind, i, _) in enumerate(log)}
        assert all(at["made", i] < at["start", i] for i in range(n))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_make_runs_on_the_caller_before_each_call(self, monkeypatch, workers):
        """make(i) runs on the calling thread, in index order, and fn(i) starts
        only after make(i) has returned, on 1, 2 and 4 usable CPUs."""
        monkeypatch.setattr(net, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(net, "_helpers", None)
        make, fn, log = self.made_then_run(12, pause=0.002)
        net._fan_out(fn, 12, make)
        self.check_made_then_run(log, 12, threading.get_ident())
        if workers > 1:  # the pool ran the calls the caller was making ahead of
            assert {thread for kind, _, thread in log if kind == "start"} != {threading.get_ident()}

    def test_make_keeps_its_order_under_contention(self, monkeypatch):
        """Eight threads on a short switch interval: make still runs on the
        calling thread in index order, each fn(i) once and after make(i)."""
        monkeypatch.setattr(net, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(net, "_helpers", None)
        make, fn, log = self.made_then_run(2000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=net._fan_out, args=(fn, 2000, make), daemon=True)
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        self.check_made_then_run(log, 2000, caller.ident)

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_a_failing_make_leaves_no_thread_waiting(self, monkeypatch, error):
        """make raising at index 3 of 6 is raised once the started calls have
        returned, no later index starts, and every pool thread is free after."""
        monkeypatch.setattr(net, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(net, "_helpers", None)
        started, finished = [], []

        def make(i):
            if i == 3:
                raise error("make 3")

        def fn(i):
            started.append(i)
            time.sleep(0.02)
            finished.append(i)

        raised = []

        def call():
            try:
                net._fan_out(fn, 6, make)
            except BaseException as exc:  # with whether the started calls had returned
                raised.append((exc, sorted(finished) == sorted(started)))

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        [(exc, returned)] = raised
        assert type(exc) is error and str(exc) == "make 3" and returned
        assert set(started) <= {0, 1, 2}
        # all three pool threads meet at a barrier: none is left waiting on an index
        barrier = threading.Barrier(3)
        meets = [net._helpers[2].submit(barrier.wait, 30) for _ in range(3)]
        assert all(meet.result(timeout=60) is not None for meet in meets)
        ran = []
        fresh = threading.Thread(target=net._fan_out, args=(ran.append, 8), daemon=True)
        fresh.start()
        fresh.join(timeout=60)
        assert not fresh.is_alive()
        assert sorted(ran) == list(range(8))

    def test_forked_child_makes_its_own_pool(self, monkeypatch):
        """A forward in a forked child completes once the parent has used the
        pool: the child's copy names threads that do not run in it."""
        monkeypatch.setattr(net, "_usable_cpus", lambda: 2)
        config = preset("tiny", input_size=28)
        params = init_params(config)
        images = np.random.default_rng(2).random((3, 28, 28))
        want = forward(config, params, images)
        assert net._helpers is not None and net._helpers[0] == os.getpid()
        read_end, write_end = os.pipe()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads running
            pid = os.fork()
        if pid == 0:  # the child: embed, send the bytes, and leave without cleanup
            try:
                os.write(write_end, forward(config, params, images).tobytes())
            finally:
                os._exit(0)
        os.close(write_end)
        try:
            ready, _, _ = select.select([read_end], [], [], 60)
            got = os.read(read_end, want.nbytes + 1) if ready else None
        finally:
            os.close(read_end)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert got == want.tobytes(), "the child's forward did not complete"
