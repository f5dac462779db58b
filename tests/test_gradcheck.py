"""Reverse-mode gradients vs central finite differences (64-bit mode).

The oracle perturbs every parameter by +-h and differences the loss of a
plain forward pass; it never touches the backward pass it is checking. A
batch whose perturbed passes cross a ReLU or pooling kink is redrawn.
"""

import numpy as np
import pytest

from sscope import netcore as nc
from sscope.rng import stream

FD_STEP = 1e-5
REL_TOL = 1e-4


def finite_difference_grads(net, x, labels, h=FD_STEP):
    """Central differences of the loss, or None when some +-h evaluation goes
    through a different ReLU mask or pooling argmax than the unperturbed pass
    (the difference quotient then straddles a kink)."""
    _, base = loss_and_pattern(net, x, labels)
    grads = {}
    for key, arr in net.params.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, plus = loss_and_pattern(net, x, labels)
            flat[i] = orig - h
            lm, minus = loss_and_pattern(net, x, labels)
            flat[i] = orig
            if plus != base or minus != base:
                return None
            gflat[i] = (lp - lm) / (2 * h)
        grads[key] = g
    return grads


def rel_err(a, b, floor=1e-4):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def _chain_shape(blocks, in_shape):
    shape = in_shape
    for block in blocks:
        for layer in block:
            shape = layer.out_shape(shape)
    return shape


def random_small_spec(rng):
    """A random conv or dense net with at most a few hundred parameters."""
    class_count = int(rng.integers(2, 5))
    if rng.random() < 0.5:
        ch = int(rng.integers(1, 3))
        size = int(rng.choice([4, 6, 8]))
        mid = int(rng.integers(2, 5))
        stages = [
            [nc.Conv2d(ch, mid, 3, stride=1, pad=1), nc.ReLU()],
            [nc.Conv2d(mid, mid, 3, stride=int(rng.choice([1, 2])), pad=1), nc.ReLU()],
        ]
        if rng.random() < 0.5:
            stages[0].append(nc.MaxPool(2))
        in_shape = (ch, size, size)
        if rng.random() < 0.5:
            tail = [nc.GlobalAvgPool(), nc.Dense(mid, class_count)]
        else:
            width = int(np.prod(_chain_shape(stages, in_shape)))
            tail = [nc.Flatten(), nc.Dense(width, class_count)]
        return nc.NetSpec(stages + [tail], class_count, in_shape)
    dims = [int(rng.integers(3, 9)) for _ in range(3)]
    blocks = [
        [nc.Dense(dims[0], dims[1]), nc.ReLU()],
        [nc.Dense(dims[1], dims[2]), nc.ReLU()],
        [nc.Dense(dims[2], class_count)],
    ]
    return nc.NetSpec(blocks, class_count, (dims[0],))


def loss_and_pattern(net, x, labels):
    """Loss of a plain forward pass, and the bytes of every ReLU mask and
    pooling argmax on the way (argmax ties break to the lowest offset)."""
    x = net._ingest(x)
    pattern = []
    for bi, block in enumerate(net.spec.blocks):
        for li, layer in enumerate(block):
            if isinstance(layer, nc.ReLU):
                pattern.append((x > 0).tobytes())
            elif isinstance(layer, nc.MaxPool):
                k = layer.kernel
                n, c, h, w = x.shape
                win = (
                    x.reshape(n, c, h // k, k, w // k, k)
                    .transpose(0, 1, 2, 4, 3, 5)
                    .reshape(n, c, h // k, w // k, k * k)
                )
                pattern.append(win.argmax(axis=-1).tobytes())
            x, _ = layer.forward(x, net._layer_params(bi, li))
    loss, _ = nc.softmax_xent(x, labels)
    return loss, b"".join(pattern)


def check_one_net(seed):
    rng = stream(seed, "gradcheck")
    spec = random_small_spec(rng).validate()
    net = nc.build_net(spec, seed=seed, dtype=np.float64)
    assert sum(a.size for a in net.params.values()) <= 5000
    # zero-init biases sit exactly on the ReLU kink; jitter them off it
    noise = stream(seed, "gradcheck-bias")
    for key, arr in net.params.items():
        if key.endswith(".b"):
            arr += noise.uniform(-0.05, 0.05, size=arr.shape)
    batch = int(rng.integers(2, 5))
    labels = rng.integers(0, spec.class_count, size=batch)
    for attempt in range(20):
        x = stream(seed, "gradcheck-x", attempt).random((batch, *spec.input_shape))
        fd = finite_difference_grads(net, x, labels)
        if fd is not None:
            break
    else:
        raise AssertionError(f"seed {seed}: no kink-free batch found")
    _, ad = nc.loss_and_grad(net, x, labels)
    worst = 0.0
    for key in ad:
        err = rel_err(ad[key], fd[key]).max()
        worst = max(worst, float(err))
        assert err < REL_TOL, f"{key}: rel err {err:.2e}"
    return worst


@pytest.mark.parametrize("seed", range(12))
def test_gradients_match_finite_differences(seed):
    check_one_net(seed)


def test_uniform_logits_loss_is_log_k():
    # a net whose final Dense has zero weights/bias emits uniform logits
    spec = nc.NetSpec(
        [[nc.Dense(6, 4), nc.ReLU()], [nc.Dense(4, 5)]], 5, (6,)
    ).validate()
    net = nc.build_net(spec, seed=3, dtype=np.float64)
    net.params["b1.l0.w"][:] = 0.0
    net.params["b1.l0.b"][:] = 0.0
    x = stream(0, "x").random((8, 6))
    labels = np.arange(8) % 5
    loss, _ = nc.loss_and_grad(net, x, labels)
    assert loss == pytest.approx(np.log(5), abs=1e-12)


def test_duplicated_batch_same_loss_and_grads():
    spec = nc.NetSpec(
        [[nc.Dense(5, 4), nc.ReLU()], [nc.Dense(4, 3)]], 3, (5,)
    ).validate()
    net = nc.build_net(spec, seed=11, dtype=np.float64)
    rng = stream(4, "dup")
    x = rng.random((6, 5))
    labels = rng.integers(0, 3, size=6)
    loss1, g1 = nc.loss_and_grad(net, x, labels)
    x2 = np.concatenate([x, x])
    labels2 = np.concatenate([labels, labels])
    loss2, g2 = nc.loss_and_grad(net, x2, labels2)
    assert loss2 == pytest.approx(loss1, rel=1e-12)
    for k in g1:
        np.testing.assert_allclose(g2[k], g1[k], rtol=1e-12, atol=1e-15)
