"""Minimal deterministic block-decomposed feed-forward networks.

Parameters are partitioned into m ordered blocks. The layer set is small on
purpose: every op is a pure function of (params, input), there is no
normalization and no dropout, so two networks holding identical bytes produce
identical outputs and counterfactual equivalences can be checked bit-exactly.

Training arithmetic defaults to float32; float64 is available for gradient
verification. All reductions use plain numpy ops, which are deterministic
for a fixed platform and input bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NumericError, UsageError
from .rng import stream

__all__ = [
    "Dense",
    "Conv2d",
    "ReLU",
    "MaxPool",
    "GlobalAvgPool",
    "Flatten",
    "NetSpec",
    "BlockNet",
    "EvalReport",
    "build_net",
    "loss_and_grad",
    "evaluate",
    "get_blocks",
    "set_blocks",
    "save_checkpoint",
    "load_checkpoint",
]


# --------------------------------------------------------------------------
# layer specs

@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.in_dim:
            raise UsageError(
                f"Dense({self.in_dim},{self.out_dim}) cannot consume shape {in_shape}"
            )
        return (self.out_dim,)

    def init_params(self, rng):
        limit = np.sqrt(6.0 / (self.in_dim + self.out_dim))
        w = rng.uniform(-limit, limit, size=(self.in_dim, self.out_dim))
        return {"w": w, "b": np.zeros(self.out_dim)}

    def forward(self, x, params):
        return x @ params["w"] + params["b"], x

    def backward(self, dy, cache, params, need_dx=True):
        x = cache
        grads = {"w": x.T @ dy, "b": dy.sum(axis=0)}
        return (dy @ params["w"].T if need_dx else None), grads

    def encode(self):
        return ["dense", self.in_dim, self.out_dim]


def _conv_windows(xp, kernel, stride, out_h, out_w):
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        (n, c, out_h, out_w, kernel, kernel),
        (sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


@dataclass(frozen=True)
class Conv2d:
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    pad: int = 0

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.in_ch:
            raise UsageError(f"{self} cannot consume shape {in_shape}")
        _, h, w = in_shape
        oh = (h + 2 * self.pad - self.kernel) // self.stride + 1
        ow = (w + 2 * self.pad - self.kernel) // self.stride + 1
        if oh < 1 or ow < 1:
            raise UsageError(f"{self} produces empty output from shape {in_shape}")
        return (self.out_ch, oh, ow)

    def init_params(self, rng):
        fan_in = self.in_ch * self.kernel * self.kernel
        fan_out = self.out_ch * self.kernel * self.kernel
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(
            -limit, limit, size=(self.out_ch, self.in_ch, self.kernel, self.kernel)
        )
        return {"w": w, "b": np.zeros(self.out_ch)}

    def _pad(self, x):
        if self.pad == 0:
            return x
        p = self.pad
        return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))

    def forward(self, x, params):
        # im2col + GEMM; the column matrix is cached for the backward pass
        _, oh, ow = self.out_shape(x.shape[1:])
        xp = self._pad(x)
        n, c = xp.shape[:2]
        k = self.kernel
        win = _conv_windows(xp, k, self.stride, oh, ow)
        col = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(
            n * oh * ow, c * k * k
        )
        wmat = params["w"].reshape(self.out_ch, c * k * k)
        y = (col @ wmat.T).reshape(n, oh, ow, self.out_ch).transpose(0, 3, 1, 2)
        y = y + params["b"][None, :, None, None]
        return y, (col, xp.shape, x.shape, oh, ow)

    def backward(self, dy, cache, params, need_dx=True):
        col, xp_shape, x_shape, oh, ow = cache
        n, c = xp_shape[:2]
        k = self.kernel
        dy_mat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(
            n * oh * ow, self.out_ch
        )
        wmat = params["w"].reshape(self.out_ch, c * k * k)
        grads = {
            "w": (dy_mat.T @ col).reshape(params["w"].shape),
            "b": dy.sum(axis=(0, 2, 3)),
        }
        if not need_dx:
            return None, grads
        dcol = (dy_mat @ wmat).reshape(n, oh, ow, c, k, k).transpose(0, 3, 1, 2, 4, 5)
        dxp = np.zeros(xp_shape, dtype=dy.dtype)
        s = self.stride
        for kh in range(k):
            for kw in range(k):
                dxp[:, :, kh : kh + s * oh : s, kw : kw + s * ow : s] += dcol[
                    :, :, :, :, kh, kw
                ]
        if self.pad:
            p = self.pad
            dxp = dxp[:, :, p : p + x_shape[2], p : p + x_shape[3]]
        return dxp, grads

    def encode(self):
        return ["conv2d", self.in_ch, self.out_ch, self.kernel, self.stride, self.pad]


@dataclass(frozen=True)
class ReLU:
    def out_shape(self, in_shape):
        return in_shape

    def init_params(self, rng):
        return {}

    def forward(self, x, params):
        return np.maximum(x, 0), x > 0

    def backward(self, dy, cache, params, need_dx=True):
        return dy * cache, {}

    def encode(self):
        return ["relu"]


@dataclass(frozen=True)
class MaxPool:
    kernel: int

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise UsageError(f"MaxPool cannot consume shape {in_shape}")
        c, h, w = in_shape
        if h % self.kernel or w % self.kernel:
            raise UsageError(
                f"MaxPool({self.kernel}) needs dims divisible by kernel, got {in_shape}"
            )
        return (c, h // self.kernel, w // self.kernel)

    def init_params(self, rng):
        return {}

    def forward(self, x, params):
        k = self.kernel
        n, c, h, w = x.shape
        oh, ow = h // k, w // k
        win = (
            x.reshape(n, c, oh, k, ow, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, oh, ow, k * k)
        )
        # argmax picks the first maximum: ties break to the lowest offset
        idx = win.argmax(axis=-1)
        y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
        return y, (idx, x.shape)

    def backward(self, dy, cache, params, need_dx=True):
        idx, x_shape = cache
        k = self.kernel
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

    def encode(self):
        return ["maxpool", self.kernel]


@dataclass(frozen=True)
class GlobalAvgPool:
    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise UsageError(f"GlobalAvgPool cannot consume shape {in_shape}")
        return (in_shape[0],)

    def init_params(self, rng):
        return {}

    def forward(self, x, params):
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, dy, cache, params, need_dx=True):
        n, c, h, w = cache
        dx = np.broadcast_to(dy[:, :, None, None], (n, c, h, w)) / (h * w)
        return dx.astype(dy.dtype), {}

    def encode(self):
        return ["gap"]


@dataclass(frozen=True)
class Flatten:
    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def init_params(self, rng):
        return {}

    def forward(self, x, params):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dy, cache, params, need_dx=True):
        return dy.reshape(cache), {}

    def encode(self):
        return ["flatten"]


_LAYER_DECODERS = {
    "dense": lambda a: Dense(*a),
    "conv2d": lambda a: Conv2d(*a),
    "relu": lambda a: ReLU(),
    "maxpool": lambda a: MaxPool(*a),
    "gap": lambda a: GlobalAvgPool(),
    "flatten": lambda a: Flatten(),
}

_PARAMETERIZED = (Dense, Conv2d)


# --------------------------------------------------------------------------
# network spec

@dataclass(frozen=True)
class NetSpec:
    """Block-partitioned architecture: blocks is a list of layer lists."""

    blocks: tuple
    class_count: int
    input_shape: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "blocks", tuple(tuple(b) for b in self.blocks)
        )
        object.__setattr__(self, "input_shape", tuple(self.input_shape))

    @property
    def m(self):
        return len(self.blocks)

    def validate(self):
        if self.m < 2:
            raise UsageError(f"need at least 2 blocks, got {self.m}")
        if self.class_count < 2:
            raise UsageError("class_count must be >= 2")
        first = [l for l in self.blocks[0] if not isinstance(l, Flatten)]
        if not first or not isinstance(first[0], _PARAMETERIZED):
            raise UsageError("first block must start with a Conv2d or Dense layer")
        last_layer = self.blocks[-1][-1]
        if not isinstance(last_layer, Dense) or last_layer.out_dim != self.class_count:
            raise UsageError("last block must end with a Dense layer to class_count")
        shape = self.input_shape
        prev = None
        for bi, block in enumerate(self.blocks):
            for li, layer in enumerate(block):
                try:
                    shape = layer.out_shape(shape)
                except UsageError as exc:
                    raise UsageError(
                        f"layer b{bi}.l{li} {layer} after {prev}: {exc}"
                    ) from None
                prev = layer
        if shape != (self.class_count,):
            raise UsageError(
                f"network output shape {shape} != ({self.class_count},)"
            )
        return self

    def encode(self):
        return {
            "blocks": [[l.encode() for l in b] for b in self.blocks],
            "class_count": self.class_count,
            "input_shape": list(self.input_shape),
        }

    @staticmethod
    def decode(obj):
        blocks = [
            [_LAYER_DECODERS[enc[0]](enc[1:]) for enc in b] for b in obj["blocks"]
        ]
        return NetSpec(blocks, obj["class_count"], tuple(obj["input_shape"]))

    def canonical_text(self):
        return json.dumps(self.encode(), sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------
# network

class BlockNet:
    """A NetSpec plus its parameter store, addressed per block."""

    def __init__(self, spec: NetSpec, params: dict, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self.params = {k: np.asarray(v, dtype=self.dtype) for k, v in params.items()}

    @property
    def m(self):
        return self.spec.m

    def block_keys(self, i):
        return [k for k in self.params if k.startswith(f"b{i}.")]

    def block_values(self, i):
        return {k: self.params[k] for k in self.block_keys(i)}

    def block_bytes(self, i):
        return b"".join(self.params[k].tobytes() for k in self.block_keys(i))

    def copy(self):
        return BlockNet(
            self.spec, {k: v.copy() for k, v in self.params.items()}, self.dtype
        )

    def astype(self, dtype):
        return BlockNet(self.spec, self.params, dtype)

    def num_params(self):
        return sum(v.size for v in self.params.values())

    def _ingest(self, x):
        x = np.asarray(x, dtype=self.dtype)
        want = self.spec.input_shape
        if x.shape[1:] != want:
            if int(np.prod(x.shape[1:])) != int(np.prod(want)):
                raise UsageError(f"batch shape {x.shape[1:]} != input {want}")
            x = x.reshape(x.shape[0], *want)
        return x

    def forward(self, x, lo=0, hi=None):
        """Run blocks lo..hi-1 (default: all) on the activation entering block
        lo, which is the raw batch when lo is 0; with the defaults this gives
        the logits. Raises NumericError naming the block on overflow."""
        if lo == 0:
            x = self._ingest(x)
        for bi in range(lo, self.m if hi is None else hi):
            for li, layer in enumerate(self.spec.blocks[bi]):
                x, _ = layer.forward(x, self._layer_params(bi, li))
            if not np.isfinite(x).all():
                raise NumericError(f"non-finite activation in block {bi}", bi)
        return x

    def _layer_params(self, bi, li):
        prefix = f"b{bi}.l{li}."
        return {k[len(prefix):]: v for k, v in self.params.items() if k.startswith(prefix)}


def build_net(spec: NetSpec, seed: int, dtype=np.float32) -> BlockNet:
    """Construct a network with Xavier-uniform weights and zero biases.

    Weights are drawn in declaration order from a single named stream, so
    (spec, seed) determines every byte of the parameter store.
    """
    spec.validate()
    rng = stream(seed, "init")
    params = {}
    for bi, block in enumerate(spec.blocks):
        for li, layer in enumerate(block):
            for name, arr in layer.init_params(rng).items():
                params[f"b{bi}.l{li}.{name}"] = arr
    return BlockNet(spec, params, dtype)


# --------------------------------------------------------------------------
# loss / gradients

def softmax_xent(logits, labels):
    """Mean softmax cross-entropy and its logit gradient."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(denom)
    loss = -log_probs[np.arange(n), labels].mean()
    dlogits = exp / denom
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return float(loss), dlogits.astype(logits.dtype)


def loss_and_grad(net: BlockNet, x, labels, start=0):
    """Mean cross-entropy loss and the gradients of blocks start..m-1.

    x is the activation entering block `start`, which is the raw batch when
    start is 0 (see `BlockNet.forward`). The backward pass stops at the
    lowest parameterised layer of blocks >= start and never computes that
    layer's input gradient. Pure in (params, batch): caches live only for
    the duration of the call.
    """
    if not 0 <= start < net.m:
        raise UsageError(f"start block {start} outside [0, {net.m})")
    if start == 0:
        x = net._ingest(x)
    labels = np.asarray(labels)
    if x.shape[0] == 0:
        raise UsageError("empty batch")
    if labels.min() < 0 or labels.max() >= net.spec.class_count:
        raise UsageError("label out of range")
    caches = []
    for bi in range(start, net.m):
        for li, layer in enumerate(net.spec.blocks[bi]):
            x, cache = layer.forward(x, net._layer_params(bi, li))
            caches.append((bi, li, layer, cache))
        if not np.isfinite(x).all():
            raise NumericError(f"non-finite activation in block {bi}", bi)
    loss, dy = softmax_xent(x, labels)
    if not np.isfinite(loss):
        raise NumericError("non-finite loss", net.m - 1)
    lowest = next(
        i for i, (_, _, layer, _) in enumerate(caches)
        if isinstance(layer, _PARAMETERIZED)
    )
    grads = {}
    for i in range(len(caches) - 1, lowest - 1, -1):
        bi, li, layer, cache = caches[i]
        dy, layer_grads = layer.backward(
            dy, cache, net._layer_params(bi, li), need_dx=i > lowest
        )
        for name, g in layer_grads.items():
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient in block {bi}", bi)
            grads[f"b{bi}.l{li}.{name}"] = g
    return loss, grads


# --------------------------------------------------------------------------
# evaluation

@dataclass(frozen=True)
class EvalReport:
    mispredictions: int
    n_examples: int
    loss_mean: float

    @property
    def error_rate(self) -> float:
        return self.mispredictions / self.n_examples

    @property
    def error_fraction(self) -> Fraction:
        return Fraction(self.mispredictions, self.n_examples)


def evaluate(net: BlockNet, pixels, labels=None, batch_size=512) -> EvalReport:
    """Error rate and mean loss over a dataset; argmax ties go to the lowest class."""
    if labels is None:  # accept dataset-like objects
        pixels, labels = pixels.pixels, pixels.labels
    labels = np.asarray(labels)
    n = len(labels)
    if n == 0:
        raise UsageError("empty dataset")
    wrong = 0
    loss_sum = 0.0
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        logits = net.forward(pixels[lo:hi])
        pred = logits.argmax(axis=1)
        wrong += int((pred != labels[lo:hi]).sum())
        shifted = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1))
        loss_sum += float((lse - shifted[np.arange(hi - lo), labels[lo:hi]]).sum())
    return EvalReport(wrong, n, loss_sum / n)


def mispredicted_indices(net: BlockNet, pixels, labels, batch_size=512):
    labels = np.asarray(labels)
    out = []
    for lo in range(0, len(labels), batch_size):
        hi = min(lo + batch_size, len(labels))
        pred = net.forward(pixels[lo:hi]).argmax(axis=1)
        out.extend((lo + np.nonzero(pred != labels[lo:hi])[0]).tolist())
    return out


# --------------------------------------------------------------------------
# per-block access

def _resolve_members(net, A):
    members = list(A.members) if hasattr(A, "members") else sorted(A)
    for i in members:
        if not 0 <= i < net.m:
            raise UsageError(f"block index {i} out of range for m={net.m}")
    return members


def get_blocks(net: BlockNet, A) -> dict:
    """Copies of the parameter tensors of blocks in A, keyed by block index."""
    return {
        i: {k: net.params[k].copy() for k in net.block_keys(i)}
        for i in _resolve_members(net, A)
    }


def set_blocks(net: BlockNet, A, values: dict):
    """Overwrite blocks in A from values; blocks outside A are untouched."""
    for i in _resolve_members(net, A):
        if i not in values:
            raise UsageError(f"no values supplied for block {i}")
        for k in net.block_keys(i):
            src = values[i][k]
            if src.shape != net.params[k].shape:
                raise UsageError(
                    f"shape mismatch for block {i} ({k}): "
                    f"{src.shape} != {net.params[k].shape}"
                )
            np.copyto(net.params[k], src)


def sync_blocks(dst: BlockNet, src: BlockNet, members):
    """Copy the listed blocks' values from src into dst (same spec assumed)."""
    for i in members:
        for k in dst.block_keys(i):
            np.copyto(dst.params[k], src.params[k])


# --------------------------------------------------------------------------
# checkpoint format: magic "SSC1", u32 spec length, canonical spec text,
# then per-block float32 little-endian tensors in declaration order.

_MAGIC = b"SSC1"


def save_checkpoint(net: BlockNet, path):
    text = net.spec.canonical_text().encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(text)))
        fh.write(text)
        for bi in range(net.m):
            for k in net.block_keys(bi):
                fh.write(net.params[k].astype("<f4").tobytes())


def load_checkpoint(path, dtype=np.float32) -> BlockNet:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise UsageError(f"{path}: not an SSC1 checkpoint")
        (length,) = struct.unpack("<I", fh.read(4))
        spec = NetSpec.decode(json.loads(fh.read(length).decode("utf-8")))
        net = build_net(spec, seed=0, dtype=dtype)
        for bi in range(net.m):
            for k in net.block_keys(bi):
                want = net.params[k]
                raw = fh.read(want.size * 4)
                if len(raw) != want.size * 4:
                    raise UsageError(f"{path}: truncated checkpoint at {k}")
                net.params[k] = np.frombuffer(raw, dtype="<f4").reshape(
                    want.shape
                ).astype(dtype)
        if fh.read(1):
            raise UsageError(f"{path}: trailing bytes after parameters")
    return net
