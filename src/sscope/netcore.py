"""Minimal deterministic block-decomposed feed-forward networks.

Parameters are partitioned into m ordered blocks. The layer set is small on
purpose: every op is a pure function of (params, input), there is no
normalization and no dropout, so two networks holding identical bytes produce
identical outputs and counterfactual equivalences can be checked bit-exactly.

Training arithmetic defaults to float32; float64 is available for gradient
verification. All reductions use plain numpy ops, which are deterministic
for a fixed platform and input bytes.

A net's parameters live in one contiguous 1-D buffer (`BlockNet.flat`), in
declaration order, with fixed per-block offsets; `BlockNet.params` holds
reshaped views into it. So a block is one slice of the buffer: block bytes,
block copies (`sync_blocks`) and SSC1 checkpoints are slice operations, and
the optimizer steps a run of consecutive blocks with one op per arithmetic
step (see optim).

`BlockNet.forward` holds the only block/layer loop (the raw batch is ingested
at block 0, and a non-finite activation raises NumericError naming its block);
`loss_and_grad` runs it keeping each layer's cache, and `evaluate` runs it
chunk by chunk, so every path computes a net's activations the same way.

Image activations are NCHW-shaped but channels-last in memory: a conv
writes its GEMM rows, ReLU and MaxPool keep their input's layout, and the
conv, MaxPool and GlobalAvgPool backward passes return input gradients in
that same layout, so ReLU's elementwise backward never mixes strides.
numpy's summation order follows the memory layout, so each reduction reads
the layout it has always read: the conv bias gradient sums an NCHW copy,
and GlobalAvgPool averages the channels-last activation. Likewise the conv
GEMMs always multiply a C-contiguous (n*oh*ow, c*k*k) column matrix by the
(out, c*k*k) weights. A MaxPool window's value and gradient go to its first
maximum (lowest offset), whatever the window holds.
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
    "sync_blocks",
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


_COL_CHUNK = 1 << 17  # column-matrix elements filled per pass (512 KB of float32)


def _taps(k, s, oh, ow):
    """(kh, kw, rows, cols) of each kernel tap, in order: the padded-input
    rows and columns that the tap meets across the output grid."""
    for kh in range(k):
        for kw in range(k):
            yield kh, kw, slice(kh, kh + s * oh, s), slice(kw, kw + s * ow, s)


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

    def forward(self, x, params):
        # im2col + GEMM; the column matrix is cached for the backward pass.
        # The input is padded channels-last, so each of the k*k slice fills
        # below copies whole channel runs into the (n, oh, ow, c, kh, kw)
        # columns, a few images at a time so the rows being filled stay in
        # cache across the fills.
        _, oh, ow = self.out_shape(x.shape[1:])
        n, c, h, w = x.shape
        k, s, p = self.kernel, self.stride, self.pad
        xp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
        xp[:, p : p + h, p : p + w, :] = x.transpose(0, 2, 3, 1)
        col = np.empty((n, oh, ow, c, k, k), dtype=x.dtype)
        step = max(1, _COL_CHUNK // col[0].size)
        for lo in range(0, n, step):
            src, dst = xp[lo : lo + step], col[lo : lo + step]
            for kh, kw, rows, cols in _taps(k, s, oh, ow):
                dst[..., kh, kw] = src[:, rows, cols, :]
        col = col.reshape(n * oh * ow, c * k * k)
        wmat = params["w"].reshape(self.out_ch, c * k * k)
        y = col @ wmat.T
        y += params["b"]
        return y.reshape(n, oh, ow, self.out_ch).transpose(0, 3, 1, 2), (col, x.shape)

    def backward(self, dy, cache, params, need_dx=True):
        col, (n, c, h, w) = cache
        _, _, oh, ow = dy.shape
        k, s, p = self.kernel, self.stride, self.pad
        dy_mat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(
            n * oh * ow, self.out_ch
        )
        wmat = params["w"].reshape(self.out_ch, c * k * k)
        grads = {
            "w": (dy_mat.T @ col).reshape(params["w"].shape),
            # summed over an NCHW copy: the reduction order, and so the
            # bytes, depend on the memory layout
            "b": np.ascontiguousarray(dy).sum(axis=(0, 2, 3)),
        }
        if not need_dx:
            return None, grads
        # col2im into a channels-last buffer, adding the k*k taps in order
        dcol = (dy_mat @ wmat).reshape(n, oh, ow, c, k, k)
        dxp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=dy.dtype)
        for kh, kw, rows, cols in _taps(k, s, oh, ow):
            dxp[:, rows, cols, :] += dcol[..., kh, kw]
        return dxp[:, p : p + h, p : p + w, :].transpose(0, 3, 1, 2), grads

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

    def _windows(self, a):
        """The k*k strided views a[:, :, i::k, j::k], in (i, j) order."""
        k = self.kernel
        return [a[:, :, i::k, j::k] for i in range(k) for j in range(k)]

    def forward(self, x, params):
        views = self._windows(x)
        y = views[0].copy(order="K")
        for v in views[1:]:
            np.maximum(y, v, out=y)
        # A window's first maximum (lowest offset) is its value. np.maximum
        # returns it except on a tie of -0.0 with +0.0, whose sign it leaves
        # unspecified, so where an input has its sign bit set (after a ReLU,
        # only a negative zero does) zero windows take their first zero.
        if np.signbit(x).any():
            zero = y == 0
            for v in reversed(views):
                np.copyto(y, v, where=zero & (v == 0))
        return y, (x, y)

    def backward(self, dy, cache, params, need_dx=True):
        # dy goes to each window's first maximum and every other input gets
        # +0.0. Multiplying dy's bit patterns by the 0/1 routing mask selects
        # exactly that; a masked np.copyto did the same at over twice the cost.
        # Activations are finite here (BlockNet._forward checks every block).
        x, y = cache
        bits = np.dtype(f"i{dy.itemsize}")
        dy_bits = dy.view(bits)
        dx = np.empty_like(x, dtype=dy.dtype)
        *views, _ = self._windows(x)
        *heads, last = self._windows(dx)
        todo = np.ones_like(y, dtype=bool)  # windows not routed yet
        for v, d in zip(views, heads):
            hit = v == y
            hit &= todo
            todo ^= hit
            np.multiply(dy_bits, hit, out=d.view(bits))
        # a window not routed by now has its first maximum at the last offset
        np.multiply(dy_bits, todo, out=last.view(bits))
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
        return x.mean(axis=(2, 3)), x

    def backward(self, dy, cache, params, need_dx=True):
        x = cache
        h, w = x.shape[2:]
        dx = np.empty_like(x, dtype=dy.dtype)  # in the input's memory layout
        dx[...] = (dy / (h * w))[:, :, None, None]
        return dx, {}

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
_PARAM_NAMES = ("w", "b")  # the keys of every parameterised layer's init_params


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
    """A NetSpec plus its parameters, held in one flat buffer per net.

    `flat` holds every parameter in declaration order (block, then layer,
    then w before b), so block i is the slice
    flat[block_offsets[i]:block_offsets[i + 1]] and a checkpoint is flat's
    bytes. `params` maps each parameter name to a reshaped view into `flat`;
    the forward and backward passes read it. While a lockstep partner
    trains, its shared blocks are views into its anchor's buffer instead,
    until `sync_blocks` copies them into its own (see counterfact).
    """

    def __init__(self, spec: NetSpec, params: dict, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        keys = [
            f"b{bi}.l{li}.{name}"
            for bi, block in enumerate(spec.blocks)
            for li, layer in enumerate(block) if isinstance(layer, _PARAMETERIZED)
            for name in _PARAM_NAMES
        ]
        if sorted(keys) != sorted(params):
            raise UsageError(f"parameters {sorted(params)} do not match the spec's {keys}")
        arrays = [np.asarray(params[k]) for k in keys]
        self.flat = np.concatenate(arrays, axis=None, dtype=self.dtype)
        self._slots = {}  # name -> (lo, hi, shape) within flat
        lo = 0
        for k, a in zip(keys, arrays):
            self._slots[k] = (lo, lo + a.size, a.shape)
            lo += a.size
        self._block_keys = [[k for k in keys if k.startswith(f"b{i}.")]
                            for i in range(spec.m)]
        self.block_offsets = [0]
        for names in self._block_keys:
            self.block_offsets.append(
                self._slots[names[-1]][1] if names else self.block_offsets[-1])
        self.params = {k: self._view(k) for k in keys}

    @property
    def m(self):
        return self.spec.m

    def _view(self, key):
        lo, hi, shape = self._slots[key]
        return self.flat[lo:hi].reshape(shape)

    def block_keys(self, i):
        return self._block_keys[i]

    def block_bytes(self, i):
        return self.flat[self.block_offsets[i] : self.block_offsets[i + 1]].tobytes()

    def copy(self):
        return BlockNet(self.spec, self.params, self.dtype)

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
        return self._forward(x, lo, hi)[0]

    def _forward(self, x, lo=0, hi=None, caches=None):
        """`forward`, appending each layer's (bi, li, layer, cache) to
        `caches` when a list is given (the backward pass reads them)."""
        if lo == 0:
            x = self._ingest(x)
        for bi in range(lo, self.m if hi is None else hi):
            for li, layer in enumerate(self.spec.blocks[bi]):
                x, cache = layer.forward(x, self._layer_params(bi, li))
                if caches is not None:
                    caches.append((bi, li, layer, cache))
            if not np.isfinite(x).all():
                raise NumericError(f"non-finite activation in block {bi}", bi)
        return x, caches

    def _layer_params(self, bi, li):
        """The live arrays of layer li of block bi, by parameter name."""
        if not isinstance(self.spec.blocks[bi][li], _PARAMETERIZED):
            return {}
        return {name: self.params[f"b{bi}.l{li}.{name}"] for name in _PARAM_NAMES}


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
    labels = np.asarray(labels)
    if len(x) == 0:
        raise UsageError("empty batch")
    if labels.min() < 0 or labels.max() >= net.spec.class_count:
        raise UsageError("label out of range")
    logits, caches = net._forward(x, start, caches=[])
    loss, dy = softmax_xent(logits, labels)
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
    def error_fraction(self) -> Fraction:
        return Fraction(self.mispredictions, self.n_examples)


def evaluate(net: BlockNet, pixels, labels=None, batch_size=512,
             start=0) -> EvalReport:
    """Error rate and mean loss over a dataset; argmax ties go to the lowest class.

    pixels is the activation entering block `start`, which is the raw images
    when start is 0 (see `BlockNet.forward`). The forward pass runs in chunks
    of batch_size images, so the activation must come from the same chunks
    for the result to match a call with start 0 byte for byte.
    """
    if not 0 <= start < net.m:
        raise UsageError(f"start block {start} outside [0, {net.m})")
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
        logits = net.forward(pixels[lo:hi], start)
        pred = logits.argmax(axis=1)
        wrong += int((pred != labels[lo:hi]).sum())
        shifted = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1))
        loss_sum += float((lse - shifted[np.arange(hi - lo), labels[lo:hi]]).sum())
    return EvalReport(wrong, n, loss_sum / n)


# --------------------------------------------------------------------------
# per-block access

def sync_blocks(dst: BlockNet, src: BlockNet, members):
    """Copy the listed blocks' values from src's buffer into dst's own, and
    point dst's parameters of those blocks at its own buffer (same spec
    assumed)."""
    for i in members:
        lo, hi = dst.block_offsets[i], dst.block_offsets[i + 1]
        dst.flat[lo:hi] = src.flat[lo:hi]
        dst.params.update((k, dst._view(k)) for k in dst.block_keys(i))


# --------------------------------------------------------------------------
# checkpoint format: magic "SSC1", u32 spec length, canonical spec text,
# then the flat parameter buffer as float32 little-endian, which is every
# block's tensors in declaration order.

_MAGIC = b"SSC1"


def save_checkpoint(net: BlockNet, path):
    text = net.spec.canonical_text().encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(text)))
        fh.write(text)
        fh.write(net.flat.astype("<f4").tobytes())


def load_checkpoint(path, dtype=np.float32) -> BlockNet:
    """Read an SSC1 file; a truncated or malformed file, or trailing bytes,
    raise UsageError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise UsageError(f"{path}: not an SSC1 checkpoint")
    if len(data) < 8:
        raise UsageError(f"{path}: truncated checkpoint header")
    (length,) = struct.unpack_from("<I", data, 4)
    end = 8 + length
    if len(data) < end:
        raise UsageError(f"{path}: truncated architecture text")
    try:
        spec = NetSpec.decode(json.loads(data[8:end].decode("utf-8")))
        net = build_net(spec, seed=0, dtype=dtype)
    except (ValueError, KeyError, TypeError, IndexError, OverflowError) as exc:
        raise UsageError(f"{path}: malformed architecture text: {exc}") from None
    raw = data[end:]
    want = net.flat.size * 4
    if len(raw) < want:
        raise UsageError(
            f"{path}: truncated checkpoint: {len(raw)} of {want} parameter bytes")
    if len(raw) > want:
        raise UsageError(f"{path}: trailing bytes after parameters")
    net.flat[:] = np.frombuffer(raw, dtype="<f4")
    return net
