"""A small deterministic convolutional embedding network.

Implemented directly on numpy so that training is a pure function of
(data, config, seed): valid convolutions, 2x2 max pooling, ReLU, a dense
embedding head with optional sigmoid, triplet-loss backpropagation, and Adam.
Parameters live in float32; casting them to float64 gives a shadow mode for
gradient checking.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class ConvBlock:
    channels: int
    kernel: int
    pool: bool = False


# Detector format v1 records these settings, which every net has: no l2-normalised
# head, He-uniform initialisation drawn from the run seed (init_params with no rng
# draws from seed 0). They are written so that v1 files stay byte-identical, and a
# file with any other value is refused rather than run as a net it does not describe.
_FIXED_FIELDS = {"l2_normalize": False, "init_scheme": "he_uniform", "init_seed": 0}


@dataclass(frozen=True)
class ConvNetConfig:
    input_size: int
    blocks: tuple[ConvBlock, ...]
    embedding_dim: int = 128
    sigmoid_head: bool = True

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if self.embedding_dim < 2:
            raise ValueError("embedding_dim must be >= 2")
        self.feature_shapes()  # raises if any map collapses below 1x1

    def feature_shapes(self) -> list[tuple[int, int, int]]:
        """(channels, h, w) after each block."""
        c, h, w = 1, self.input_size, self.input_size
        shapes = []
        for i, block in enumerate(self.blocks):
            h, w = h - block.kernel + 1, w - block.kernel + 1
            if block.pool:
                h, w = h // 2, w // 2
            if h < 1 or w < 1:
                raise ValueError(f"block {i} shrinks the feature map below 1x1")
            c = block.channels
            shapes.append((c, h, w))
        return shapes

    def flat_features(self) -> int:
        c, h, w = self.feature_shapes()[-1] if self.blocks else (1, self.input_size, self.input_size)
        return c * h * w

    def to_dict(self) -> dict:
        return {
            "input_size": self.input_size,
            "blocks": [[b.channels, b.kernel, b.pool] for b in self.blocks],
            "embedding_dim": self.embedding_dim,
            "sigmoid_head": self.sigmoid_head,
            **_FIXED_FIELDS,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ConvNetConfig":
        """The config a JSON document describes; a value of another JSON type raises ValueError."""
        for key, value in _FIXED_FIELDS.items():
            if doc[key] != value or type(doc[key]) is not type(value):
                raise ValueError(f"config {key} must be {value!r}, got {doc[key]!r}")
        blocks = tuple(ConvBlock(c, k, p) for c, k, p in doc["blocks"])
        sizes = [doc["input_size"], doc["embedding_dim"], *(b.channels for b in blocks),
                 *(b.kernel for b in blocks)]
        flags = [doc["sigmoid_head"], *(b.pool for b in blocks)]
        if any(type(v) is not int for v in sizes) or any(type(v) is not bool for v in flags):
            raise ValueError(f"config sizes {sizes} must be JSON integers, flags {flags} booleans")
        return cls(doc["input_size"], blocks, doc["embedding_dim"], doc["sigmoid_head"])


_PRESETS = {
    # default desk-scale embedding net for 100x100 weight images
    "osl-small": (((16, 10, True), (32, 7, True), (32, 4, True), (64, 4, False)), 128),
    # the classic one-shot siamese feature stack, for fidelity runs
    "koch": (((64, 10, True), (128, 7, True), (128, 4, True), (256, 4, False)), 4096),
    # small enough for quick experiments and CI
    "tiny": (((4, 5, True), (8, 3, True)), 16),
}


def preset(name: str, input_size: int = 100) -> ConvNetConfig:
    try:
        blocks, dim = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown architecture {name!r}; known: {sorted(_PRESETS)}") from None
    return ConvNetConfig(
        input_size=input_size,
        blocks=tuple(ConvBlock(*b) for b in blocks),
        embedding_dim=dim,
    )


@dataclass(eq=False)
class NetParams:
    """Named parameter tensors; row order is fixed by the config."""

    tensors: dict[str, np.ndarray]

    @property
    def dtype(self) -> np.dtype:
        return next(iter(self.tensors.values())).dtype

    def astype(self, dtype) -> "NetParams":
        return NetParams({k: v.astype(dtype) for k, v in self.tensors.items()})

    def copy(self) -> "NetParams":
        return NetParams({k: v.copy() for k, v in self.tensors.items()})

    def n_params(self) -> int:
        return sum(v.size for v in self.tensors.values())

    def __eq__(self, other):
        return (
            isinstance(other, NetParams)
            and self.tensors.keys() == other.tensors.keys()
            and all(np.array_equal(v, other.tensors[k]) for k, v in self.tensors.items())
        )


def param_shapes(config: ConvNetConfig) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    c_in = 1
    for i, block in enumerate(config.blocks):
        shapes[f"conv{i}.weight"] = (block.channels, c_in, block.kernel, block.kernel)
        shapes[f"conv{i}.bias"] = (block.channels,)
        c_in = block.channels
    shapes["embed.weight"] = (config.embedding_dim, config.flat_features())
    shapes["embed.bias"] = (config.embedding_dim,)
    return shapes


_INIT_BLOCK_VALUES = 1 << 18  # float64 draws held at once by init_params


def init_params(config: ConvNetConfig, rng: np.random.Generator | None = None) -> NetParams:
    """He-uniform weights, zero biases, float32."""
    if rng is None:
        rng = np.random.default_rng(0)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".bias"):
            tensors[name] = np.zeros(shape, dtype=np.float32)
        else:
            fan_in = math.prod(shape[1:])
            limit = math.sqrt(6.0 / fan_in)
            # drawn in row blocks, each cast to float32 as drawn: the same
            # stream as one draw of the whole tensor, without its float64 copy
            weights = np.empty(shape, dtype=np.float32)
            rows = max(1, _INIT_BLOCK_VALUES // fan_in)
            for lo in range(0, shape[0], rows):
                block = weights[lo : lo + rows]
                block[...] = rng.uniform(-limit, limit, size=block.shape)
            tensors[name] = weights
    return NetParams(tensors)


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where the platform cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_helpers = None  # (pid, size, executor): the pool _fan_out shares its indices with


def _helper_pool(size: int):
    """The persistent pool of size threads: made on first use, and again for
    another size or in a forked child, whose copy names threads it lacks."""
    global _helpers
    if _helpers is None or _helpers[:2] != (os.getpid(), size):
        # imported here, so that only a command that fans out loads the thread pool
        from concurrent.futures import ThreadPoolExecutor

        _helpers = (os.getpid(), size, ThreadPoolExecutor(size))
    return _helpers[2]


def _fan_out(fn, n: int) -> None:
    """Run fn(0), ..., fn(n - 1), each once, on this thread and a persistent
    pool of one thread per other usable CPU; inline on one CPU or for one index.

    Each thread claims the next index until none is left, so the calls start
    in index order, and once one has raised no thread starts another. Returns
    when every started call has, raising the error of the lowest index that
    failed. Each fn(i) writes only what index i owns. A call made inside fn
    runs inline when it has one index, and with more it waits only on pool
    threads that started its work, so nesting never deadlocks.
    """
    cpus = _usable_cpus() if n > 1 else 1
    if cpus < 2:
        for i in range(n):
            fn(i)
        return
    claims, failed = iter(range(n)), []  # each next() on it is atomic under the GIL

    def work():
        for i in claims:
            if failed:
                return
            try:
                fn(i)
            except Exception as exc:
                failed.append((i, exc))

    pool = _helper_pool(cpus - 1)
    shares = [pool.submit(work) for _ in range(min(cpus, n) - 1)]
    work()
    for share in shares:
        if not share.cancel():  # one no thread has started would find no index left
            share.result()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]


def _im2col(x, k):
    """(B, OH*OW, C*k*k) rows of the k x k patches of a (B, C, H, W) batch.

    Built one image at a time in two copies of whole runs. Each k-float run
    x[n, c, h, ow : ow + k] goes, as one ``V{k*itemsize}`` item, to
    rows[c, ow, h], so rows[c, ow, oh : oh + k] is a patch's k*k floats in
    one run; those go, as one ``V{k*k*itemsize}`` item each, to the patch
    rows. Where the patch rows are a view of x that needs no copy (k = 1, or
    a 1-wide output of one channel, or a 1x1 output of a C-contiguous x),
    the view is returned as it is: matmul picks its loop by the operand's
    layout (its non-BLAS loop on a 1-wide view), and a copy could change the
    bits.

    The window view (B, OH, OW, C, k, k), with x's strides (sB, sH, sW, sC,
    sH, sW), reshapes to the rows without a copy exactly when its OH and OW
    axes merge and its C, k and k axes merge, axes of length 1 left out: a
    merged axis's stride is the next one's times its length.
    """
    batch, c, h, w = x.shape
    _, sc, sh, sw = x.strides
    oh, ow = h - k + 1, w - k + 1
    if (oh == 1 or ow == 1 or sh == ow * sw) and (
        k == 1 or (sh == k * sw and (c == 1 or sc == k * sh))
    ):
        win = sliding_window_view(x, (k, k), axis=(2, 3))  # (B, C, OH, OW, k, k)
        return win.transpose(0, 2, 3, 1, 4, 5).reshape(batch, oh * ow, -1, copy=False)
    s = x.itemsize
    run, patch = np.dtype(f"V{k * s}"), np.dtype(f"V{k * k * s}")
    rows = np.empty((c, ow, h, k), dtype=x.dtype)
    cols = np.empty((batch, oh * ow, c * k * k), dtype=x.dtype)
    for n in range(batch):
        image = np.ascontiguousarray(x[n])
        rows.view(run)[..., 0] = np.ndarray(
            (c, ow, h), dtype=run, buffer=image, strides=(h * w * s, s, w * s)
        )
        cols[n].view(patch).reshape(oh, ow, c)[...] = np.ndarray(
            (oh, ow, c), dtype=patch, buffer=rows, strides=(k * s, h * k * s, ow * h * k * s)
        )
    return cols


def _conv_forward(x, w, b):
    """Valid convolution that builds one image's patches at a time, the
    images spread over the usable CPUs.

    Each image's gemm is the one a stacked ``matmul`` over the whole batch
    runs for that image, so the output bits are the batched product's.
    """
    batch, _, h, width = x.shape
    out_c, _, k, _ = w.shape
    oh, ow = h - k + 1, width - k + 1
    wt = w.reshape(out_c, -1).T
    out = np.empty((batch, oh * ow, out_c), dtype=np.result_type(x, w, b))
    _fan_out(lambda n: np.matmul(_im2col(x[n : n + 1], k), wt, out=out[n : n + 1]), batch)
    out += b
    return out.transpose(0, 2, 1).reshape(batch, out_c, oh, ow)


def _conv_backward(dy, w, x, input_grad=True):
    """(dx, dw, db) of a convolution of the block input x; dx is None unless input_grad.

    dw takes one gemm over the whole batch's patches, rebuilt here and freed
    before dx, which is summed one image at a time in (i, j) tap order, the
    images spread over the usable CPUs.
    """
    batch, out_c, oh, ow = dy.shape
    k = w.shape[2]
    dmat = dy.reshape(batch, out_c, oh * ow).transpose(0, 2, 1)
    dw = np.tensordot(dmat, _im2col(x, k), axes=([0, 1], [0, 1])).reshape(w.shape)
    db = dy.sum(axis=(0, 2, 3))
    if not input_grad:
        return None, dw, db
    w2 = w.reshape(out_c, -1)
    dx = np.zeros(x.shape, dtype=dy.dtype)

    def image(n):
        # (C, k, k, OH, OW), so that each tap adds one contiguous slice
        taps = np.ascontiguousarray(
            (dmat[n] @ w2).reshape(oh, ow, x.shape[1], k, k).transpose(2, 3, 4, 0, 1)
        )
        for i in range(k):
            for j in range(k):
                dx[n, :, i : i + oh, j : j + ow] += taps[:, i, j]

    _fan_out(image, batch)
    return dx, dw, db


# The four strided views of a 2x2 pool window, in row-major window order.
_POOL_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _pool_views(x):
    h, w = x.shape[2] // 2 * 2, x.shape[3] // 2 * 2  # an odd last row/column is dropped
    return [x[:, :, i:h:2, j:w:2] for i, j in _POOL_OFFSETS]


def _pool_forward(x):
    """2x2 max pool; on ties the first view in window order wins, as argmax does.

    A later view replaces the running max only where it is greater, by
    blending bits, so a NaN never wins and a (-0, +0) tie keeps the first,
    as ``np.where(v > y, v, y)`` does. y keeps the memory order of x. The
    cache holds x's shape, the blend's "greater" mask of each later view and
    y, not x: the last view whose mask is set won its window.
    """
    views = _pool_views(x)
    y = views[0].copy(order="K")
    y_bits = y.view(f"u{y.itemsize}")
    diff = np.empty_like(y_bits)
    greater = []
    for v in views[1:]:
        wins = np.greater(v, y, out=np.empty_like(y, dtype=bool))
        np.bitwise_xor(v.view(y_bits.dtype), y_bits, out=diff)
        diff *= wins
        y_bits ^= diff
        greater.append(wins)
    return y, (x.shape, greater, y)


def _pool_backward(dy, cache):
    """dy goes to each window's winner: the last view that beat the running
    max, else the first view, unless y is NaN (a NaN first view that no
    view beat), which takes no gradient, as no view equals it."""
    shape, greater, y = cache
    dx = np.zeros(shape, dtype=dy.dtype)
    dviews = _pool_views(dx)
    taken = np.zeros_like(y, dtype=bool)
    winner = np.empty_like(taken)
    for wins, dview in zip(reversed(greater), reversed(dviews[1:])):
        np.greater(wins, taken, out=winner)  # won, and no later view did
        np.copyto(dview, dy, where=winner)
        taken |= wins
    np.equal(y, y, out=winner)  # not NaN
    np.greater(winner, taken, out=winner)
    np.copyto(dviews[0], dy, where=winner)
    return dx


def _prepare_batch(config: ConvNetConfig, images, dtype) -> np.ndarray:
    x = np.asarray(images)
    if x.shape == (0,):  # an empty list: no images
        x = x.reshape(0, config.input_size, config.input_size)
    single = x.ndim == 2
    if single:
        x = x[None]
    if x.ndim != 3 or x.shape[1] != config.input_size or x.shape[2] != config.input_size:
        raise ValueError(
            f"expected images of shape ({config.input_size}, {config.input_size}), got {x.shape}"
        )
    return x[:, None].astype(dtype, copy=False), single


def _forward(config: ConvNetConfig, params: NetParams, x, with_cache=False):
    caches = []
    for i, block in enumerate(config.blocks):
        w, b = params.tensors[f"conv{i}.weight"], params.tensors[f"conv{i}.bias"]
        y = _conv_forward(x, w, b)
        y *= y > 0  # ReLU, in place on the fresh conv output
        pool_cache = None
        if block.pool:
            y, pool_cache = _pool_forward(y)
        if with_cache:
            caches.append((x, pool_cache))
        x = y
    flat = x.reshape(x.shape[0], -1)
    z = flat @ params.tensors["embed.weight"].T + params.tensors["embed.bias"]
    if config.sigmoid_head:
        with np.errstate(over="ignore"):
            emb = 1.0 / (1.0 + np.exp(-z))
    else:
        emb = z
    if not with_cache:
        return emb, None
    return emb, (caches, flat, emb, x.shape)


def _backward(config: ConvNetConfig, params: NetParams, cache, demb):
    caches, flat, emb, last_shape = cache
    if config.sigmoid_head:
        demb = demb * emb * (1.0 - emb)
    grads: dict[str, np.ndarray] = {}
    grads["embed.weight"] = demb.T @ flat
    grads["embed.bias"] = demb.sum(axis=0)
    dx = (demb @ params.tensors["embed.weight"]).reshape(last_shape)
    out = flat.reshape(last_shape)
    for i in range(len(config.blocks) - 1, -1, -1):
        block_input, pool_cache = caches[i]
        # ReLU, applied to the gradient of the block's output (the next block's
        # input): the pool routes each window's gradient to its winner, whose
        # conv output is > 0 exactly where the pooled output is.
        dx *= out > 0
        if pool_cache is not None:
            dx = _pool_backward(dx, pool_cache)
        w = params.tensors[f"conv{i}.weight"]
        # the images need no gradient, so block 0 skips its col2im
        dx, grads[f"conv{i}.weight"], grads[f"conv{i}.bias"] = _conv_backward(
            dx, w, block_input, input_grad=i > 0
        )
        out = block_input
    return grads


def forward(config: ConvNetConfig, params: NetParams, images) -> np.ndarray:
    """Embed one (h, w) image or a batch of them; deterministic.

    Each image's row has the bits of its own batch-1 forward, whatever the
    batch: a batched head gemm could sum in another order. The images are
    spread over the usable CPUs.
    """
    x, single = _prepare_batch(config, images, params.dtype)
    emb = np.empty((len(x), config.embedding_dim), dtype=params.dtype)

    def image(n):
        emb[n] = _forward(config, params, x[n : n + 1])[0][0]

    _fan_out(image, len(x))
    return emb[0] if single else emb


def triplet_loss(anchor, positive, negative, margin: float) -> float:
    """max(0, ||a-p||^2 - ||a-n||^2 + margin) with squared l2 distances."""
    a = np.asarray(anchor, dtype=np.float64)
    p = np.asarray(positive, dtype=np.float64)
    n = np.asarray(negative, dtype=np.float64)
    if not (a.shape == p.shape == n.shape):
        raise ValueError("triplet members must share one shape")
    d_ap = ((a - p) ** 2).sum()
    d_an = ((a - n) ** 2).sum()
    return float(max(0.0, d_ap - d_an + margin))


def make_triplets(labels) -> list[tuple[int, int, int]]:
    """All ordered same-label (anchor, positive) pairs times all opposite-label
    negatives, in deterministic index order."""
    labels = list(labels)
    out = []
    for value in sorted(set(labels)):
        members = [i for i, l in enumerate(labels) if l == value]
        others = [i for i, l in enumerate(labels) if l != value]
        for a in members:
            for p in members:
                if p == a:
                    continue
                for n in others:
                    out.append((a, p, n))
    return out


def _triplet_terms(emb, ia, ip, inn, margin):
    d_ap = ((emb[ia] - emb[ip]) ** 2).sum(axis=1)
    d_an = ((emb[ia] - emb[inn]) ** 2).sum(axis=1)
    return d_ap - d_an + margin


def batch_loss(config: ConvNetConfig, params: NetParams, images, triplets, margin: float) -> float:
    """Mean triplet loss of a batch, forward pass only."""
    x, _ = _prepare_batch(config, images, params.dtype)
    emb, _ = _forward(config, params, x)
    ia, ip, inn = (np.asarray(v) for v in zip(*triplets))
    viol = _triplet_terms(emb.astype(np.float64), ia, ip, inn, margin)
    return float(np.maximum(viol, 0.0).sum() / len(triplets))


def backward(config: ConvNetConfig, params: NetParams, images, triplets, margin: float):
    """Analytic gradients of the mean batch triplet loss.

    Returns (grads, loss); inactive triplets contribute nothing to either.
    """
    if not triplets:
        raise ValueError("empty triplet batch")
    x, _ = _prepare_batch(config, images, params.dtype)
    emb, cache = _forward(config, params, x, with_cache=True)
    ia, ip, inn = (np.asarray(v) for v in zip(*triplets))
    viol = _triplet_terms(emb, ia, ip, inn, margin)
    active = viol > 0
    count = len(triplets)
    loss = float(viol[active].astype(np.float64).sum() / count)
    demb = np.zeros_like(emb)
    if active.any():
        ea, ep, en = emb[ia[active]], emb[ip[active]], emb[inn[active]]
        np.add.at(demb, ia[active], 2.0 * (en - ep))
        np.add.at(demb, ip[active], 2.0 * (ep - ea))
        np.add.at(demb, inn[active], 2.0 * (ea - en))
    demb /= count
    return _backward(config, params, cache, demb), loss


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, params: NetParams) -> "AdamState":
        return cls(
            m={k: np.zeros_like(t) for k, t in params.tensors.items()},
            v={k: np.zeros_like(t) for k, t in params.tensors.items()},
        )


_ADAM_CHUNK = 1 << 16  # elements of a tensor that adam_step updates at a time


def adam_step(
    state: AdamState,
    params: NetParams,
    grads: dict[str, np.ndarray],
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[AdamState, NetParams]:
    """One standard Adam update with bias correction, in place.

    Each tensor's ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + (1-beta2)*g*g``
    and ``p - lr*(m/(1-beta1**t)) / (sqrt(v/(1-beta2**t)) + eps)`` are computed
    operation by operation in that order, _ADAM_CHUNK elements at a time
    through two scratch arrays of that size, into state.m, state.v and the
    parameter tensors themselves. grads are only read. Returns the state,
    its step advanced, and params: the objects it was given.
    """
    t = state.step + 1
    for name, p in params.tensors.items():
        g = grads[name].reshape(-1)
        # copy=False: a tensor that has no flat view raises rather than
        # having a copy of it updated
        m, v, p = (a.reshape(-1, copy=False) for a in (state.m[name], state.v[name], p))
        scratch = np.empty(min(g.size, _ADAM_CHUNK), dtype=g.dtype)
        step = np.empty(scratch.size, dtype=v.dtype)
        for lo in range(0, g.size, _ADAM_CHUNK):
            hi = lo + _ADAM_CHUNK
            gs, ms, vs = g[lo:hi], m[lo:hi], v[lo:hi]
            a, s = scratch[: gs.size], step[: gs.size]
            np.multiply(gs, 1.0 - beta1, out=a)
            ms *= beta1
            ms += a
            np.multiply(gs, 1.0 - beta2, out=a)
            a *= gs
            vs *= beta2
            vs += a
            np.divide(vs, 1.0 - beta2**t, out=s)  # v_hat, then sqrt(v_hat) + eps
            np.sqrt(s, out=s)
            s += eps
            np.divide(ms, 1.0 - beta1**t, out=a)  # m_hat, then the step
            a *= lr
            a /= s
            p[lo:hi] -= a
    state.step = t
    return state, params


STRATEGIES = ("ES", "ST", "UB")
ES, ST, UB = STRATEGIES


@dataclass(frozen=True)
class TrainConfig:
    strategy: str = UB
    learning_rate: float = 1e-4
    margin: float = 1.0
    batch_size: int | None = None  # None = all triplets per step
    seed: int = 0
    ub_low: float = 0.5
    ub_high: float = 1.25
    max_epochs: int = 100

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if not (0 < self.learning_rate < math.inf and 0 < self.margin < math.inf):
            raise ValueError("learning rate and margin must be positive and finite")
        if not self.ub_low < self.ub_high:
            raise ValueError("UB interval must satisfy low < high")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 (or None for full batch)")


@dataclass
class TrainResult:
    params: NetParams
    epoch_losses: list[float]

    @property
    def epochs_run(self) -> int:
        return len(self.epoch_losses)


def train(images, labels, config: ConvNetConfig, train_config: TrainConfig) -> TrainResult:
    """Train the embedding net; a pure function of (data, config, seed).

    The run seed drives both initialization and per-epoch triplet shuffling.
    ES stops after 1 epoch, ST after 5; UB stops once the mean epoch loss
    falls inside [ub_low, ub_high], else at max_epochs.
    """
    triplets = make_triplets(labels)
    if not triplets:
        raise ValueError("training data yields no triplets (need two samples of one class)")
    rng = np.random.default_rng(train_config.seed)
    params = init_params(config, rng)
    state = AdamState.zeros_like(params)
    x = np.asarray(images, dtype=np.float32)
    batch = train_config.batch_size or len(triplets)

    losses: list[float] = []
    for _ in range({ES: 1, ST: 5, UB: train_config.max_epochs}[train_config.strategy]):
        order = rng.permutation(len(triplets))
        total = 0.0
        for start in range(0, len(triplets), batch):
            chunk = [triplets[i] for i in order[start : start + batch]]
            grads, loss = backward(config, params, x, chunk, train_config.margin)
            state, params = adam_step(state, params, grads, train_config.learning_rate)
            total += loss * len(chunk)
        epoch_loss = total / len(triplets)
        losses.append(epoch_loss)
        if train_config.strategy == UB and train_config.ub_low <= epoch_loss <= train_config.ub_high:
            break
    return TrainResult(params, losses)
