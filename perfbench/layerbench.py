"""Per-layer microbenchmark of MiniCNN-6 and MLP-4, and their computed FLOPs.

Each layer's forward and backward run on a 32-image batch of the previous
layer's real output; the reported time is the median of many calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from sscope.expcli.config import ExperimentConfig
from sscope.netcore import Conv2d, Dense, build_net

BATCH = 32

# (net preset, task preset) pairs, as the workloads train them
NETS = (("minicnn6", "bars16"), ("mlp4", "tint2"))


def net_spec(net: str, task: str):
    skew = {"kind": "sampling"} if task == "tint2" else {"kind": "watermark"}
    return ExperimentConfig.from_dict({"net": net, "task": task, "skew": skew}).net_spec()


def _layers(spec):
    for bi, block in enumerate(spec.blocks):
        for li, layer in enumerate(block):
            yield bi, li, layer


def _shapes(spec, batch):
    """(layer, input shape, output shape) in order, batch dimension included."""
    shape = spec.input_shape
    for _bi, _li, layer in _layers(spec):
        out = layer.out_shape(shape)
        yield layer, (batch, *shape), (batch, *out)
        shape = out


def pass_flops(spec, batch: int = BATCH) -> int:
    """Multiply-adds x 2 of one forward+backward pass, GEMM layers only.

    Backward costs twice the forward: one GEMM for the weight gradient and
    one for the input gradient, which netcore computes for every layer.
    """
    total = 0
    for layer, x, y in _shapes(spec, batch):
        if isinstance(layer, Conv2d):
            fwd = 2 * batch * y[2] * y[3] * layer.out_ch * layer.in_ch * layer.kernel**2
        elif isinstance(layer, Dense):
            fwd = 2 * batch * layer.in_dim * layer.out_dim
        else:
            continue
        total += 3 * fwd
    return total


def _median_us(fn, calls):
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def layer_times(seed: int, calls: int = 41) -> dict:
    """netcore.<net>.b<i>.l<j>.{fwd_us,bwd_us} for every layer of both nets."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, task in NETS:
        spec = net_spec(name, task)
        net = build_net(spec, seed=seed)
        x = rng.random((BATCH, *spec.input_shape), dtype=np.float32)
        for bi, li, layer in _layers(spec):
            prefix = f"b{bi}.l{li}."
            params = {k[len(prefix):]: v for k, v in net.params.items()
                      if k.startswith(prefix)}
            y, cache = layer.forward(x, params)
            dy = rng.standard_normal(y.shape).astype(np.float32)
            key = f"netcore.{name}.b{bi}.l{li}"
            out[f"{key}.fwd_us"] = _median_us(lambda: layer.forward(x, params), calls)
            out[f"{key}.bwd_us"] = _median_us(
                lambda: layer.backward(dy, cache, params), calls)
            x = y
    return out
