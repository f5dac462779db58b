"""The netcore layer kernels against reference copies of their earlier,
plainer implementations: im2col through one 6-D gather, a k*k scatter loop
for col2im, MaxPool through argmax over a transposed copy, a Dense that adds
its bias out of place and a ReLU that caches its mask. Every output,
gradient and input gradient must match byte for byte.

The reference kernels always saw C-contiguous gradients, so they get those
here, while the current kernels get the layout (channels-last or NCHW)
named by each test.
"""

import numpy as np
import pytest
from conftest import evaluate_logits, plan_layers

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


class RefDense:
    def __init__(self, layer):
        self.layer = layer

    def forward(self, x, params):
        return x @ params["w"] + params["b"], x

    def backward(self, dy, cache, params, need_dx=True):
        return self.layer.backward(dy, cache, params, need_dx)


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
    if isinstance(layer, nc.Dense):
        return RefDense(layer)
    return layer  # Flatten is unchanged


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
    (4, 8, 3, 1, 1, 7),  # 49 rows per image: an odd batch has odd rows
    (8, 16, 3, 1, 1, 16),  # MiniCNN-6's widest im2col input per image
]

# 1 image; an odd batch, so a 49-row geometry's bias add takes r = 1; 64
# images, which the old chunked im2col filled in several passes at 16x16x8
BATCHES = (1, 5, 64)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("cfg", CONVS)
def test_conv2d_matches_reference(cfg, dtype):
    in_ch, out_ch, k, stride, pad, size = cfg
    layer = nc.Conv2d(in_ch, out_ch, k, stride=stride, pad=pad)
    ref = RefConv2d(layer)
    rng = np.random.default_rng(sum(cfg))
    params = conv_params(rng, layer, dtype)
    for batch in BATCHES:
        for make in (quantised, lambda r, s, d: r.standard_normal(s).astype(d)):
            x = make(rng, (batch, in_ch, size, size), dtype)
            y_ref, cache_ref = ref.forward(x, params)
            dy = make(rng, y_ref.shape, dtype)
            dx_ref, g_ref = ref.backward(dy, cache_ref, params)
            _, g_ref_nodx = ref.backward(dy, cache_ref, params, need_dx=False)
            for xin in layouts(x):
                y, cache = layer.forward(xin, params)
                assert same(y, y_ref)
                assert same(cache[0], cache_ref[0])  # the column matrix
                # a pass that keeps no cache (64 16x16 images run in two pieces)
                y, none = layer.forward(xin, params, keep=False)
                assert same(y, y_ref) and none is None
                for dyin in layouts(dy):
                    dx, g = layer.backward(dyin, cache, params)
                    assert same(dx, dx_ref)
                    assert g.keys() == g_ref.keys()
                    assert all(same(g[n], g_ref[n]) for n in g)
                    none, g = layer.backward(dyin, cache, params, need_dx=False)
                    assert none is None
                    assert all(same(g[n], g_ref_nodx[n]) for n in g)


def test_conv_index_is_shared_and_read_only(monkeypatch):
    built = []
    col_index = nc._col_index

    def spy(*geometry):
        built.append(col_index(*geometry))
        return built[-1]

    monkeypatch.setattr(nc, "_col_index", spy)
    spec = net_spec("minicnn6", task_spec("bars16", None))
    x = np.zeros((2, *spec.input_shape), np.float32)
    for seed in (0, 1):
        nc.build_net(spec, seed=seed).forward(x)
    convs = len(built) // 2
    assert convs == 5
    assert all(a is b for a, b in zip(built[:convs], built[convs:]))
    for idx in built:
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 0


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
    for bi, li, layer, params in plan_layers(net, start):
        impl = reference(layer)
        x, cache = impl.forward(x, params)
        caches.append((bi, li, layer, impl, params, cache))
    loss, dy = nc.softmax_xent(x, labels)
    lowest = next(i for i, c in enumerate(caches) if isinstance(c[2], (nc.Conv2d, nc.Dense)))
    grads = {}
    for i in range(len(caches) - 1, lowest - 1, -1):
        bi, li, _, impl, params, cache = caches[i]
        dy, layer_grads = impl.backward(dy, cache, params, need_dx=i > lowest)
        grads.update({f"b{bi}.l{li}.{n}": g for n, g in layer_grads.items()})
    return loss, grads


def grads_by_name(net, grad, start):
    """The gradients of blocks start..m-1 in loss_and_grad's flat gradient,
    by parameter name."""
    views = net.views(grad)
    return {k: views[k] for b in range(start, net.m) for k in net.block_keys(b)}


def reference_forward(net, x, hi):
    x = net._ingest(x)
    for _, _, layer, params in plan_layers(net, 0, hi):
        x, _ = reference(layer).forward(x, params)
    return x


def with_random_biases(net, rng):
    for key, arr in net.params.items():
        if key.endswith(".b"):
            arr += rng.uniform(-0.05, 0.05, size=arr.shape).astype(net.dtype)
    return net


def small_spec():
    return nc.NetSpec(
        [
            [nc.Conv2d(3, 4, 3, pad=2), nc.ReLU(), nc.MaxPool(2)],
            [nc.Conv2d(4, 16, 3, stride=2), nc.ReLU()],
            [nc.Conv2d(16, 3, 1), nc.ReLU(), nc.Flatten(), nc.Dense(12, 4)],
        ],
        4,
        (3, 10, 10),
    )


NETS = {
    "minicnn6-bars16": lambda: net_spec("minicnn6", task_spec("bars16", None)),
    "minicnn6-bars32": lambda: net_spec("minicnn6", task_spec("bars32", None)),
    "mlp4-tint2": lambda: net_spec("mlp4", task_spec("tint2", None)),
    "small": small_spec,
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(NETS))
def test_network_gradients_match_reference(name, dtype):
    spec = NETS[name]()
    rng = np.random.default_rng(len(name))
    net = with_random_biases(nc.build_net(spec, seed=4, dtype=dtype), rng)
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
            g = grads_by_name(net, g, start)
            assert loss == loss_ref
            assert g.keys() == g_ref.keys()
            for key in g:
                assert same(g[key], g_ref[key]), (start, key)
        logits = reference_forward(net, x, spec.m)
        assert same(net.forward(x), logits)


@pytest.mark.parametrize("dtype", DTYPES)
def test_minicnn6_matches_reference_at_training_and_evaluation_sizes(dtype):
    spec = NETS["minicnn6-bars16"]()
    rng = np.random.default_rng(32)
    net = with_random_biases(nc.build_net(spec, seed=5, dtype=dtype), rng)
    # one training batch: logits, loss and every gradient
    x = rng.random((32, *spec.input_shape)).astype(dtype)
    labels = rng.integers(0, spec.class_count, size=32)
    assert same(net.forward(x), reference_forward(net, x, spec.m))
    loss_ref, g_ref = reference_loss_and_grad(net, x, labels)
    loss, g = nc.loss_and_grad(net, x, labels)
    g = grads_by_name(net, g, 0)
    assert loss == loss_ref
    assert g.keys() == g_ref.keys()
    assert all(same(g[key], g_ref[key]) for key in g)
    # one evaluate call of two chunks, 512 + 88 images
    x = rng.random((600, *spec.input_shape)).astype(dtype)
    labels = rng.integers(0, spec.class_count, size=600)
    for lo, hi in ((0, 512), (512, 600)):
        assert same(net.forward(x[lo:hi]), reference_forward(net, x[lo:hi], spec.m))
    ref_net = net.copy()
    ref_net.forward = lambda chunk, start=0, **kw: reference_forward(net, chunk, spec.m)
    assert evaluate_logits(net, x, labels) == evaluate_logits(ref_net, x, labels)


def relu_first_spec():
    """Blocks that open with the layers that could write or alias a pass's
    input (a ReLU on the conv output that enters block 1, a Flatten of a
    channels-last pool output), and one that ends on a Flatten whose output
    is a view of a buffer the pass made."""
    return nc.NetSpec(
        [
            [nc.Conv2d(2, 3, 3, pad=1)],
            [nc.ReLU(), nc.MaxPool(2)],
            [nc.Flatten(), nc.ReLU(), nc.Dense(48, 6), nc.Flatten()],
            [nc.ReLU(), nc.Dense(6, 4)],
        ],
        4,
        (2, 8, 8),
    )


OWNED = dict(NETS, **{"relu-first": relu_first_spec})


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(OWNED))
def test_workspace_pass_never_writes_its_input(name, dtype):
    """A pass that keeps no cache, run through a workspace from any start
    block, leaves its caller's input byte for byte as it was, returns an
    array that is not in the workspace, and computes what a pass without a
    workspace computes."""
    spec = OWNED[name]()
    rng = np.random.default_rng(len(name))
    net = with_random_biases(nc.build_net(spec, seed=8, dtype=dtype), rng)
    n = 40
    x = rng.standard_normal((n, *spec.input_shape)).astype(dtype)
    labels = rng.integers(0, spec.class_count, size=n)
    work = nc.Workspace(spec, dtype, [n], 16)  # chunks of 16, 16 and 8
    for start in range(spec.m):
        made = net.forward(x, 0, start) if start else x  # channels-last after a conv
        signed = rng.standard_normal(made.shape).astype(dtype)  # a ReLU would change it
        for entering in (made, signed):
            before = entering.tobytes()
            for hi in (start + 1, spec.m):
                got = net.forward(entering[:16], start, hi, work=work)
                assert not np.shares_memory(got, work._buf)
                assert same(got, net.forward(entering[:16], start, hi)), (start, hi)
            plain = nc.evaluate(net, entering, labels, batch_size=16, start=start)
            assert nc.evaluate(net, entering, labels, batch_size=16, start=start,
                               work=work) == plain
            assert entering.tobytes() == before, start


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", ["minicnn6-bars16", "minicnn6-bars32"])
def test_evaluation_matches_reference_on_a_ragged_chunk(name, dtype):
    """One evaluate call of a 128-image chunk and a ragged 88-image one, both
    run through the call's workspace: each chunk's logits are the reference
    kernels' byte for byte."""
    spec = NETS[name]()
    rng = np.random.default_rng(88)
    net = with_random_biases(nc.build_net(spec, seed=7, dtype=dtype), rng)
    x = rng.random((128 + 88, *spec.input_shape)).astype(dtype)
    labels = rng.integers(0, spec.class_count, size=len(x))
    ref_net = net.copy()
    ref_net.forward = lambda chunk, start=0, **kw: reference_forward(net, chunk, spec.m)
    got = evaluate_logits(net, x, labels, batch_size=128)
    assert len(got[1]) == 2
    assert got == evaluate_logits(ref_net, x, labels, batch_size=128)


# Image counts whose convolutions run in pieces when no cache is kept, most
# of them in pieces of unequal size; 33 bars16 and 9 bars32 images run in one.
PIECED = {"minicnn6-bars16": (33, 129, 300, 600), "minicnn6-bars32": (9, 17, 100)}


def whole_gemm_forward(net, x):
    """The logits with each conv run as a pass that keeps its caches runs
    it: one GEMM over the whole column matrix."""
    x = net._ingest(x)
    for _, _, layer, params in plan_layers(net):
        x, _ = layer.forward(x, params)
    return x


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(PIECED))
def test_minicnn6_conv_pieces_match_one_gemm(name, dtype, monkeypatch):
    """An evaluation's convolutions run their GEMMs in row pieces of at
    least _PIECE_ROWS rows, and the logits are byte for byte those of one
    GEMM per conv. A BLAS whose row results depend on the piece fails here."""
    spec = NETS[name]()
    rng = np.random.default_rng(len(name))
    net = with_random_biases(nc.build_net(spec, seed=6, dtype=dtype), rng)
    used = []  # (GEMM rows per image, piece bounds) of every conv called
    pieces = nc._pieces

    def spy(n, rows):
        used.append((rows, pieces(n, rows)))
        return used[-1][1]

    monkeypatch.setattr(nc, "_pieces", spy)
    ragged = False
    for n in PIECED[name]:
        x = rng.random((n, *spec.input_shape)).astype(dtype)
        used.clear()
        assert same(net.forward(x), whole_gemm_forward(net, x)), n
        assert len(used) == 5  # every conv of MiniCNN-6
        for rows, bounds in used:
            sizes = np.diff(bounds) * rows
            assert bounds[0] == 0 and bounds[-1] == n
            assert len(sizes) == max(n * rows // nc._PIECE_ROWS, 1)
            assert len(sizes) == 1 or sizes.min() >= nc._PIECE_ROWS
            ragged |= len(set(sizes)) > 1
    assert ragged
