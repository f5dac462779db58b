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
The loop reads a plan of each layer's parameter names that the net builds
once, and looks the names up in `params` on every call, so a rebound name
is read at the next pass; the gradients are keyed from the same plan.
Gradients are checked for non-finite values once, by the optimizer, over the
blocks it updates.

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

The conv forward builds that column matrix with one gather: a flat index,
built once per geometry and shared read-only by every net, lists for one
image the padded channels-last input element behind each column entry, so
`take` along each image's row copies exactly the elements a per-tap slice
fill would. The bias is then added to the GEMM output through a wide view,
rows//r rows of r*out elements, with the bias tiled r times: the same
elementwise adds over a longer inner loop. Neither changes a byte.
"""

from __future__ import annotations

import functools
import json
import math
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
        y = x @ params["w"]
        y += params["b"]
        return y, x

    def backward(self, dy, cache, params, need_dx=True):
        x = cache
        grads = {"w": x.T @ dy, "b": dy.sum(axis=0)}
        return (dy @ params["w"].T if need_dx else None), grads

    def encode(self):
        return ["dense", self.in_dim, self.out_dim]


def _taps(k, s, oh, ow):
    """(kh, kw, rows, cols) of each kernel tap, in order: the padded-input
    rows and columns that the tap meets across the output grid."""
    for kh in range(k):
        for kw in range(k):
            yield kh, kw, slice(kh, kh + s * oh, s), slice(kw, kw + s * ow, s)


@functools.lru_cache(maxsize=64)
def _col_index(c, hp, wp, k, s, oh, ow):
    """The read-only im2col gather index of one image: for each column-matrix
    entry, in (oh, ow, c, kh, kw) order, the flat offset of its element in
    the (hp, wp, c) padded channels-last input."""
    rows = np.arange(oh)[:, None, None, None, None] * s + np.arange(k)[:, None]
    cols = np.arange(ow)[:, None, None, None] * s + np.arange(k)
    ch = np.arange(c)[:, None, None]
    idx = ((rows * wp + cols) * c + ch).reshape(-1)
    idx.flags.writeable = False
    return idx


def _add_bias(y, b):
    """y += b on a C-contiguous (rows, out) y, as one add of b tiled r times
    over a (rows//r, r*out) view of y. r is the largest power of two that is
    at most 512/out and divides rows, so the add's inner loop is long; the
    tile is filled by broadcast, which is cheaper than np.tile."""
    rows, out = y.shape
    r = min(1 << (max(512 // out, 1).bit_length() - 1), rows & -rows)
    if r == 1:
        y += b
        return
    tile = np.empty((r, out), dtype=y.dtype)
    tile[...] = b
    y.reshape(rows // r, r * out)[...] += tile.reshape(-1)


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
        if self.kernel < 1 or self.stride < 1 or self.pad < 0:
            raise UsageError(f"{self} needs kernel, stride >= 1 and pad >= 0")
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
        # The input is padded channels-last and flattened per image, so one
        # gather of a cached index fills the (n, oh, ow, c, kh, kw) columns
        # (see _col_index); the bias goes in through one wide add. Every
        # index is in range, so mode="wrap" gathers the same elements as the
        # default mode, whose per-element range check costs about a quarter
        # of the gather.
        _, oh, ow = self.out_shape(x.shape[1:])
        n, c, h, w = x.shape
        k, s, p = self.kernel, self.stride, self.pad
        xp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
        xp[:, p : p + h, p : p + w, :] = x.transpose(0, 2, 3, 1)
        idx = _col_index(c, h + 2 * p, w + 2 * p, k, s, oh, ow)
        col = xp.reshape(n, -1).take(idx, axis=1, mode="wrap")
        col = col.reshape(n * oh * ow, c * k * k)
        wmat = params["w"].reshape(self.out_ch, c * k * k)
        y = col @ wmat.T
        _add_bias(y, params["b"])
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
        # the output is the cache: y > 0 exactly where x > 0
        y = np.maximum(x, 0)
        return y, y

    def backward(self, dy, cache, params, need_dx=True):
        return dy * (cache > 0), {}

    def encode(self):
        return ["relu"]


@dataclass(frozen=True)
class MaxPool:
    kernel: int

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise UsageError(f"MaxPool cannot consume shape {in_shape}")
        if self.kernel < 1:
            raise UsageError(f"MaxPool({self.kernel}) needs a kernel >= 1")
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

_PARAMETERIZED = (Dense, Conv2d)  # layers whose init_params has keys "w", "b"


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

    The parameter names of each layer are worked out once, at construction:
    `_plan[bi]` lists block bi's layers as (layer, weight name, bias name),
    with None for the names of a layer without parameters. The passes look
    those names up in `params` on every call, so rebinding a name (partner
    aliasing, `sync_blocks`) takes effect at the next pass.
    """

    def __init__(self, spec: NetSpec, params: dict, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self._plan = [
            [(layer, f"b{bi}.l{li}.w", f"b{bi}.l{li}.b")
             if isinstance(layer, _PARAMETERIZED) else (layer, None, None)
             for li, layer in enumerate(block)]
            for bi, block in enumerate(spec.blocks)
        ]
        self._block_keys = [[k for _, w, b in row if w for k in (w, b)]
                            for row in self._plan]
        keys = [k for names in self._block_keys for k in names]
        if sorted(keys) != sorted(params):
            raise UsageError(f"parameters {sorted(params)} do not match the spec's {keys}")
        arrays = [np.asarray(params[k]) for k in keys]
        self.flat = np.concatenate(arrays, axis=None, dtype=self.dtype)
        self._slots = {}  # name -> (lo, hi, shape) within flat
        lo = 0
        for k, a in zip(keys, arrays):
            self._slots[k] = (lo, lo + a.size, a.shape)
            lo += a.size
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
        """`forward`, appending each layer's (layer, weight name, bias name,
        parameters, cache) to `caches` when a list is given (the backward
        pass reads them)."""
        if lo == 0:
            x = self._ingest(x)
        params = self.params
        for bi in range(lo, self.m if hi is None else hi):
            for layer, w, b in self._plan[bi]:
                p = {"w": params[w], "b": params[b]} if w else {}
                x, cache = layer.forward(x, p)
                if caches is not None:
                    caches.append((layer, w, b, p, cache))
            if not np.isfinite(x).all():
                raise NumericError(f"non-finite activation in block {bi}", bi)
        return x, caches


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
    rows = np.arange(n)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(denom)
    loss = -log_probs[rows, labels].mean()
    dlogits = exp / denom  # logits' dtype, and stays so in place
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    return float(loss), dlogits


def loss_and_grad(net: BlockNet, x, labels, start=0):
    """Mean cross-entropy loss and the gradients of blocks start..m-1.

    x is the activation entering block `start`, which is the raw batch when
    start is 0 (see `BlockNet.forward`). The backward pass stops at the
    lowest parameterised layer of blocks >= start and never computes that
    layer's input gradient. Pure in (params, batch): caches live only for
    the duration of the call.

    A non-finite activation or loss raises NumericError; gradients are
    scanned only by `Optimizer.step`, over the blocks it updates.
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
    if not math.isfinite(loss):
        raise NumericError("non-finite loss", net.m - 1)
    lowest = next(i for i, (_, w, _, _, _) in enumerate(caches) if w)
    grads = {}
    for i in range(len(caches) - 1, lowest - 1, -1):
        layer, w, b, p, cache = caches[i]
        dy, layer_grads = layer.backward(dy, cache, p, need_dx=i > lowest)
        if w:
            grads[w] = layer_grads["w"]
            grads[b] = layer_grads["b"]
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
    raise UsageError, and so does a file that cannot be read."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UsageError(f"{path}: cannot read checkpoint: {exc.strerror}") from None
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
