"""The netcore layer kernels against reference copies of their earlier,
plainer implementations: im2col through one 6-D gather, a k*k scatter loop
for col2im, and MaxPool through argmax over a transposed copy. Every
output, gradient and input gradient must match byte for byte.

The reference kernels always saw C-contiguous gradients, so they get those
here, while the current kernels get the layout (channels-last or NCHW)
named by each test.
"""

import numpy as np
import pytest

from sscope import netcore as nc
from sscope.expcli.presets import net_spec, task_spec

DTYPES = (np.float32, np.float64)


# --------------------------------------------------------------------------
# reference kernels


def _conv_windows(xp, kernel, stride, out_h, out_w):
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        (n, c, out_h, out_w, kernel, kernel),
        (sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


class RefConv2d:
    def __init__(self, layer):
        self.layer = layer

    def forward(self, x, params):
        lay = self.layer
        _, oh, ow = lay.out_shape(x.shape[1:])
        p = lay.pad
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        n, c = xp.shape[:2]
        k = lay.kernel
        win = _conv_windows(xp, k, lay.stride, oh, ow)
        col = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(
            n * oh * ow, c * k * k
        )
        wmat = params["w"].reshape(lay.out_ch, c * k * k)
        y = (col @ wmat.T).reshape(n, oh, ow, lay.out_ch).transpose(0, 3, 1, 2)
        y = y + params["b"][None, :, None, None]
        return y, (col, xp.shape, x.shape, oh, ow)

    def backward(self, dy, cache, params, need_dx=True):
        lay = self.layer
        col, xp_shape, x_shape, oh, ow = cache
        n, c = xp_shape[:2]
        k = lay.kernel
        dy_mat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(
            n * oh * ow, lay.out_ch
        )
        wmat = params["w"].reshape(lay.out_ch, c * k * k)
        grads = {
            "w": (dy_mat.T @ col).reshape(params["w"].shape),
            "b": dy.sum(axis=(0, 2, 3)),
        }
        if not need_dx:
            return None, grads
        dcol = (dy_mat @ wmat).reshape(n, oh, ow, c, k, k).transpose(0, 3, 1, 2, 4, 5)
        dxp = np.zeros(xp_shape, dtype=dy.dtype)
        s = lay.stride
        for kh in range(k):
            for kw in range(k):
                dxp[:, :, kh : kh + s * oh : s, kw : kw + s * ow : s] += dcol[
                    :, :, :, :, kh, kw
                ]
        if lay.pad:
            p = lay.pad
            dxp = dxp[:, :, p : p + x_shape[2], p : p + x_shape[3]]
        return dxp, grads


class RefReLU:
    def forward(self, x, params):
        return np.maximum(x, 0), x > 0

    def backward(self, dy, cache, params, need_dx=True):
        return dy * cache, {}


class RefMaxPool:
    def __init__(self, layer):
        self.k = layer.kernel

    def forward(self, x, params):
        k = self.k
        n, c, h, w = x.shape
        oh, ow = h // k, w // k
        win = (
            x.reshape(n, c, oh, k, ow, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, oh, ow, k * k)
        )
        idx = win.argmax(axis=-1)
        y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
        return y, (idx, x.shape)

    def backward(self, dy, cache, params, need_dx=True):
        idx, x_shape = cache
        k = self.k
        n, c, h, w = x_shape
        oh, ow = h // k, w // k
        flat = np.zeros((n, c, oh, ow, k * k), dtype=dy.dtype)
        np.put_along_axis(flat, idx[..., None], dy[..., None], axis=-1)
        dx = (
            flat.reshape(n, c, oh, ow, k, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w)
        )
        return dx, {}


class RefGlobalAvgPool:
    def forward(self, x, params):
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, dy, cache, params, need_dx=True):
        n, c, h, w = cache
        dx = np.broadcast_to(dy[:, :, None, None], (n, c, h, w)) / (h * w)
        return dx.astype(dy.dtype), {}


def reference(layer):
    if isinstance(layer, nc.Conv2d):
        return RefConv2d(layer)
    if isinstance(layer, nc.MaxPool):
        return RefMaxPool(layer)
    if isinstance(layer, nc.ReLU):
        return RefReLU()
    if isinstance(layer, nc.GlobalAvgPool):
        return RefGlobalAvgPool()
    return layer  # Dense and Flatten are unchanged


# --------------------------------------------------------------------------
# helpers


def same(a, b):
    """Byte equality of two arrays' logical contents (layout ignored)."""
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape, a.dtype) == (b.shape, b.dtype) and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


def channels_last(a):
    """The same values, NCHW-shaped but channels-last in memory."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def layouts(a):
    return [np.ascontiguousarray(a), channels_last(a)]


def quantised(rng, shape, dtype, levels=3):
    """Values on a coarse grid: many exact ties, zeros of both signs."""
    q = rng.integers(-levels, levels + 1, size=shape).astype(dtype) / levels
    flip = rng.random(shape) < 0.5
    q[flip & (q == 0)] = -0.0
    return q


def relu_zeroed(rng, shape, dtype):
    """A ReLU output of quantised values, with a share of its zeros made
    negative, so whole windows are zero and -0.0/+0.0 ties occur."""
    x, _ = nc.ReLU().forward(quantised(rng, shape, dtype), {})
    x = np.array(x)
    flip = rng.random(shape) < 0.3
    x[flip & (x == 0)] = -0.0
    return x


def conv_params(rng, layer, dtype):
    p = {k: v.astype(dtype) for k, v in layer.init_params(rng).items()}
    p["b"] = rng.uniform(-0.1, 0.1, size=p["b"].shape).astype(dtype)
    return p


# --------------------------------------------------------------------------
# per-layer equality

CONVS = [
    # (in_ch, out_ch, kernel, stride, pad, size)
    (1, 4, 3, 1, 1, 8),
    (3, 16, 3, 2, 0, 9),
    (16, 3, 3, 1, 2, 6),
    (3, 1, 2, 2, 2, 7),
    (16, 16, 3, 1, 1, 2),
]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("cfg", CONVS)
def test_conv2d_matches_reference(cfg, dtype):
    in_ch, out_ch, k, stride, pad, size = cfg
    layer = nc.Conv2d(in_ch, out_ch, k, stride=stride, pad=pad)
    ref = RefConv2d(layer)
    rng = np.random.default_rng(sum(cfg))
    params = conv_params(rng, layer, dtype)
    for make in (quantised, lambda r, s, d: r.standard_normal(s).astype(d)):
        x = make(rng, (5, in_ch, size, size), dtype)
        y_ref, cache_ref = ref.forward(x, params)
        dy = make(rng, y_ref.shape, dtype)
        dx_ref, g_ref = ref.backward(dy, cache_ref, params)
        _, g_ref_nodx = ref.backward(dy, cache_ref, params, need_dx=False)
        for xin in layouts(x):
            y, cache = layer.forward(xin, params)
            assert same(y, y_ref)
            for dyin in layouts(dy):
                dx, g = layer.backward(dyin, cache, params)
                assert same(dx, dx_ref)
                assert g.keys() == g_ref.keys()
                assert all(same(g[n], g_ref[n]) for n in g)
                none, g = layer.backward(dyin, cache, params, need_dx=False)
                assert none is None
                assert all(same(g[n], g_ref_nodx[n]) for n in g)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("channels, size, k", [(1, 8, 2), (3, 6, 3), (16, 4, 2)])
def test_maxpool_matches_reference(channels, size, k, dtype):
    layer = nc.MaxPool(k)
    ref = RefMaxPool(layer)
    rng = np.random.default_rng(channels * 100 + size)
    shape = (6, channels, size, size)
    inputs = [
        relu_zeroed(rng, shape, dtype),
        quantised(rng, shape, dtype),
        np.zeros(shape, dtype),  # every window is an all-equal tie
        -np.zeros(shape, dtype),
        rng.standard_normal(shape).astype(dtype),
    ]
    for x in inputs:
        y_ref, cache_ref = ref.forward(x, {})
        dy = quantised(rng, y_ref.shape, dtype)
        dx_ref, _ = ref.backward(dy, cache_ref, {})
        for xin in layouts(x):
            y, cache = layer.forward(xin, {})
            assert same(y, y_ref)
            for dyin in layouts(dy):
                dx, grads = layer.backward(dyin, cache, {})
                assert grads == {}
                assert same(dx, dx_ref)


def test_maxpool_negative_zero_tie_keeps_first():
    x = np.zeros((1, 1, 2, 2), np.float32)
    for first in (-0.0, 0.0):
        x[0, 0, 0, 0] = first
        x[0, 0, 1, 1] = -first
        y, cache = nc.MaxPool(2).forward(x, {})
        assert np.signbit(y[0, 0, 0, 0]) == np.signbit(first)
        dx, _ = nc.MaxPool(2).backward(np.full((1, 1, 1, 1), -2.0, np.float32), cache, {})
        assert dx[0, 0, 0, 0] == -2.0
        assert not np.signbit(dx).reshape(-1)[1:].any()  # +0.0 elsewhere


@pytest.mark.parametrize("dtype", DTYPES)
def test_relu_and_gap_match_reference(dtype):
    rng = np.random.default_rng(3)
    x = quantised(rng, (4, 3, 5, 5), dtype)
    dy = quantised(rng, x.shape, dtype)
    y_ref, mask = RefReLU().forward(x, {})
    dx_ref, _ = RefReLU().backward(dy, mask, {})
    for xin in layouts(x):
        y, cache = nc.ReLU().forward(xin, {})
        assert same(y, y_ref)
        for dyin in layouts(dy):
            assert same(nc.ReLU().backward(dyin, cache, {})[0], dx_ref)
        # GlobalAvgPool reads its input in the layout it arrives in
        g_ref, shape = RefGlobalAvgPool().forward(xin, {})
        g, cache = nc.GlobalAvgPool().forward(xin, {})
        assert same(g, g_ref)
        dg = quantised(rng, g.shape, dtype)
        assert same(
            nc.GlobalAvgPool().backward(dg, cache, {})[0],
            RefGlobalAvgPool().backward(dg, shape, {})[0],
        )


# --------------------------------------------------------------------------
# whole-network equality, every start block


def reference_loss_and_grad(net, x, labels, start=0):
    """loss_and_grad of netcore, run on the reference kernels."""
    if start == 0:
        x = net._ingest(x)
    caches = []
    for bi in range(start, net.m):
        for li, layer in enumerate(net.spec.blocks[bi]):
            impl = reference(layer)
            x, cache = impl.forward(x, net._layer_params(bi, li))
            caches.append((bi, li, layer, impl, cache))
    loss, dy = nc.softmax_xent(x, labels)
    lowest = next(i for i, c in enumerate(caches) if isinstance(c[2], (nc.Conv2d, nc.Dense)))
    grads = {}
    for i in range(len(caches) - 1, lowest - 1, -1):
        bi, li, _, impl, cache = caches[i]
        dy, layer_grads = impl.backward(
            dy, cache, net._layer_params(bi, li), need_dx=i > lowest
        )
        grads.update({f"b{bi}.l{li}.{n}": g for n, g in layer_grads.items()})
    return loss, grads


def reference_forward(net, x, hi):
    x = net._ingest(x)
    for bi in range(hi):
        for li, layer in enumerate(net.spec.blocks[bi]):
            x, _ = reference(layer).forward(x, net._layer_params(bi, li))
    return x


def small_spec():
    return nc.NetSpec(
        [
            [nc.Conv2d(3, 4, 3, pad=2), nc.ReLU(), nc.MaxPool(2)],
            [nc.Conv2d(4, 16, 3, stride=2), nc.ReLU()],
            [nc.Conv2d(16, 3, 1), nc.ReLU(), nc.Flatten(), nc.Dense(12, 4)],
        ],
        4,
        (3, 10, 10),
    ).validate()


NETS = {
    "minicnn6-bars16": lambda: net_spec("minicnn6", task_spec("bars16", None)),
    "minicnn6-bars32": lambda: net_spec("minicnn6", task_spec("bars32", None)),
    "small": small_spec,
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(NETS))
def test_network_gradients_match_reference(name, dtype):
    spec = NETS[name]()
    net = nc.build_net(spec, seed=4, dtype=dtype)
    rng = np.random.default_rng(len(name))
    for key, arr in net.params.items():
        if key.endswith(".b"):
            arr += rng.uniform(-0.05, 0.05, size=arr.shape).astype(dtype)
    batch = 6
    raw = rng.random((batch, *spec.input_shape))
    labels = rng.integers(0, spec.class_count, size=batch)
    for x in (raw, np.round(raw * 4) / 4):  # smooth, then tie-heavy pixels
        x = x.astype(dtype)
        for start in range(spec.m):
            ref_in = reference_forward(net, x, start) if start else x
            new_in = net.forward(x, 0, start) if start else x
            assert same(new_in, ref_in)
            loss_ref, g_ref = reference_loss_and_grad(net, ref_in, labels, start)
            loss, g = nc.loss_and_grad(net, new_in, labels, start)
            assert loss == loss_ref
            assert g.keys() == g_ref.keys()
            for key in g:
                assert same(g[key], g_ref[key]), (start, key)
        logits = reference_forward(net, x, spec.m)
        assert same(net.forward(x), logits)
