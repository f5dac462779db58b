"""Minimal deterministic block-decomposed feed-forward networks.

Parameters are partitioned into m ordered blocks. The layer set is small on
purpose: every op is a pure function of (params, input), there is no
normalization and no dropout, so two networks holding identical bytes produce
identical outputs and counterfactual equivalences can be checked bit-exactly.
`_LAYERS`, the table from SSC1 name to layer class, is the only list of
layer kinds: a spec writes each layer as [name, *its dataclass fields] and
reads it back through the same table, so a new layer kind is one class plus
one table entry. Only `_PARAMETERIZED` kinds hold parameters (`init_params`).

Training arithmetic defaults to float32; float64 is available for gradient
verification. All reductions use plain numpy ops, which are deterministic
for a fixed platform and input bytes.

A net's parameters live in one contiguous 1-D buffer (`BlockNet.flat`), in
declaration order, with fixed per-block offsets; `BlockNet.params` holds
reshaped views into it. So a block is one slice of the buffer: block bytes,
block copies (`sync_blocks`) and SSC1 checkpoints are slice operations, and
the optimizer steps a run of consecutive blocks with one op per arithmetic
step (see optim). The gradient `loss_and_grad` returns has the same layout,
one 1-D array the size of `flat`, so the optimizer reads a block's gradient
as the same slice; only the net knows the parameter names, and
`BlockNet.views` maps them onto any buffer of that layout.

`BlockNet.forward` holds the only block/layer loop (the raw batch is ingested
at block 0, and a non-finite activation raises NumericError naming its block);
`loss_and_grad` runs it keeping each layer's cache, and `evaluate` runs it
chunk by chunk, so every path computes a net's activations the same way.
A pass that keeps no caches tells each layer so and drops what it returns
as it returns. A conv in such a pass runs its im2col and GEMM in pieces of
at least `_PIECE_ROWS` (8192) rows through one padded buffer and one column
buffer, so an evaluation never builds a chunk's column matrix. Evaluation
passes take every buffer (outputs, padded inputs, column pieces, window
masks) from one `Workspace` per `evaluate` or `evaluate_family` call: one
byte buffer, sized from the layer shapes, that each layer uses from the end
its input is not on, a ReLU writing over the conv output before it. So
every layer, net and chunk of the call reuses the same pages instead of
freeing them and faulting them in again. For a MiniCNN-6 chunk of 256
16x16 images the workspace is 4.5 MB (block 1's input and output, a 1.2 MB
column piece and its padded input), and the evaluation peaks at 4.6 MB, as
a 32-image training pass does; the 512-image chunk peaks at 7.7 MB. A
MiniCNN-6 suffix-family grid of the benchmark (`cnn-suffix-family`) takes
about 2.3k minor page faults where it took 16.8k.
The loop reads a plan of each layer's parameter names and buffer slots that
the net builds once, and looks the names up in `params` on every call, so a
rebound name is read at the next pass; the backward pass copies each layer's
gradients into their slots. Gradients are checked for non-finite values
once, by the optimizer, over the blocks it updates.

Image activations are NCHW-shaped but channels-last in memory: a conv
writes its GEMM rows, ReLU and MaxPool keep their input's layout, and the
conv, MaxPool and GlobalAvgPool backward passes return input gradients in
that same layout, so ReLU's elementwise backward never mixes strides.
numpy's summation order follows the memory layout, so each reduction reads
the layout it has always read: the conv bias gradient sums an NCHW copy,
and GlobalAvgPool averages the channels-last activation. Likewise the conv
GEMMs always multiply a C-contiguous (rows, c*k*k) column matrix, whole or
a piece of its rows, by the (out, c*k*k) weights. A MaxPool window's value
and gradient go to its first maximum (lowest offset), whatever the window
holds.

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
from dataclasses import astuple, dataclass
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
    "Workspace",
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

    def param_shapes(self):
        return (self.in_dim, self.out_dim), (self.out_dim,)

    def init_params(self, rng):
        w_shape, b_shape = self.param_shapes()
        limit = np.sqrt(6.0 / (self.in_dim + self.out_dim))
        return {"w": rng.uniform(-limit, limit, size=w_shape), "b": np.zeros(b_shape)}

    def forward(self, x, params, keep=True, work=None):
        out = None if work is None else work.out((len(x), self.out_dim), x.dtype)
        y = np.matmul(x, params["w"], out=out)
        y += params["b"]
        return y, x

    def backward(self, dy, cache, params, need_dx=True):
        x = cache
        grads = {"w": x.T @ dy, "b": dy.sum(axis=0)}
        return (dy @ params["w"].T if need_dx else None), grads


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


# The fewest GEMM rows in a piece of a convolution that keeps no cache: the
# rows of block 1's GEMM on a 32-image 16x16 training batch. A BLAS computes
# a row's dot products the same way in a piece as in the whole matrix only
# when the piece is not small (OpenBLAS 0.3.31 on Haswell: 256 rows and up
# matched, 64 and fewer did not), so pieces stay at least this large;
# tests/test_kernels.py checks the bytes.
_PIECE_ROWS = 8192


def _pieces(n, rows):
    """The image bounds (0, ..., n) of the pieces in which a convolution that
    keeps no cache runs n images of `rows` GEMM rows each: as many
    near-equal pieces as leave each at least _PIECE_ROWS rows, or one."""
    least = -(-_PIECE_ROWS // rows)  # images in the smallest piece
    count = max(n // least, 1)
    return [i * n // count for i in range(count + 1)]


def _tile_rows(rows, out):
    """The largest power of two that is at most 512/out and divides rows."""
    return min(1 << (max(512 // out, 1).bit_length() - 1), rows & -rows)


def _allocators(work):
    """(output, temporary) allocators of a layer's forward pass: the
    workspace's, or np.empty for both without one."""
    return (np.empty, np.empty) if work is None else (work.out, work.temp)


def _like(empty, x, dtype=None):
    """An array from `empty` of x's shape and dtype (or `dtype`), laid out in
    x's memory order, as a ufunc lays out the output it allocates for x
    (np.empty_like does this for np.empty)."""
    if empty is np.empty:
        return np.empty_like(x, dtype)
    order = sorted(range(x.ndim), key=x.strides.__getitem__, reverse=True)
    buf = empty(tuple(x.shape[a] for a in order), x.dtype if dtype is None else dtype)
    return buf.transpose(sorted(range(x.ndim), key=order.__getitem__))


def _add_bias(y, b, empty=np.empty):
    """y += b on a C-contiguous (rows, out) y, as one add of b tiled r times
    over a (rows//r, r*out) view of y, r = _tile_rows(rows, out), so the
    add's inner loop is long; the tile, taken from `empty`, is filled by
    broadcast, which is cheaper than np.tile."""
    rows, out = y.shape
    r = _tile_rows(rows, out)
    if r == 1:
        y += b
        return
    tile = empty((r, out), y.dtype)
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

    def param_shapes(self):
        return (self.out_ch, self.in_ch, self.kernel, self.kernel), (self.out_ch,)

    def init_params(self, rng):
        w_shape, b_shape = self.param_shapes()
        fan_in = self.in_ch * self.kernel * self.kernel
        fan_out = self.out_ch * self.kernel * self.kernel
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return {"w": rng.uniform(-limit, limit, size=w_shape), "b": np.zeros(b_shape)}

    def forward(self, x, params, keep=True, work=None):
        # im2col + GEMM. The input is padded channels-last and flattened per
        # image, so one gather of a cached index fills the (n, oh, ow, c,
        # kh, kw) columns (see _col_index); the bias goes in through one
        # wide add. Every index is in range, so mode="wrap" gathers the same
        # elements as the default mode, whose per-element range check costs
        # about a quarter of the gather. A pass that keeps the cache gets the
        # whole column matrix for its backward pass, built in one piece; a
        # pass that keeps none runs the images in pieces (see _pieces)
        # through one padded and one column buffer, each GEMM writing its
        # rows of the output, so it holds one piece's columns, not the
        # chunk's. With a workspace, the output is taken from it first, then
        # the padded and column buffers and the bias tile, which it frees
        # once the layer returns; for 256 16x16 images block 1's conv is
        # the 4.5 MB a MiniCNN-6 workspace holds (see Workspace).
        _, oh, ow = self.out_shape(x.shape[1:])
        n, c, h, w = x.shape
        k, s, p = self.kernel, self.stride, self.pad
        out, temp = _allocators(work)
        y = out((n * oh * ow, self.out_ch), x.dtype)
        bounds = (0, n) if keep else _pieces(n, oh * ow)
        most = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
        if work is None:
            xp = np.zeros((most, h + 2 * p, w + 2 * p, c), x.dtype)
        else:  # its bytes held another buffer, and the frame must be zeros
            xp = temp((most, h + 2 * p, w + 2 * p, c), x.dtype)
            xp[...] = 0
        col = temp((most, oh * ow * c * k * k), x.dtype)
        idx = _col_index(c, h + 2 * p, w + 2 * p, k, s, oh, ow)
        wmat = params["w"].reshape(self.out_ch, c * k * k)
        for lo, hi in zip(bounds, bounds[1:]):
            xp[: hi - lo, p : p + h, p : p + w, :] = x[lo:hi].transpose(0, 2, 3, 1)
            xp[: hi - lo].reshape(hi - lo, -1).take(idx, axis=1, mode="wrap",
                                                    out=col[: hi - lo])
            np.matmul(col[: hi - lo].reshape(-1, c * k * k), wmat.T,
                      out=y[lo * oh * ow : hi * oh * ow])
        _add_bias(y, params["b"], temp)
        cache = (col.reshape(n * oh * ow, c * k * k), x.shape) if keep else None
        return y.reshape(n, oh, ow, self.out_ch).transpose(0, 3, 1, 2), cache

    def scratch(self, n, in_shape, itemsize):
        """Bytes of the temporaries a pass that keeps no cache takes for n
        images: one piece's padded input and columns, and the bias tile."""
        c, h, w = in_shape
        _, oh, ow = self.out_shape(in_shape)
        bounds = _pieces(n, oh * ow)
        most = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
        k, p = self.kernel, self.pad
        return (most * (h + 2 * p) * (w + 2 * p) * c * itemsize,
                most * oh * ow * c * k * k * itemsize,
                _tile_rows(n * oh * ow, self.out_ch) * self.out_ch * itemsize)

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


@dataclass(frozen=True)
class ReLU:
    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x, params, keep=True, work=None):
        # the output is the cache: y > 0 exactly where x > 0. With a
        # workspace it overwrites an input that the pass made itself.
        y = None if work is None else x if work.in_place() else _like(work.out, x)
        y = np.maximum(x, 0, out=y)
        return y, y

    def backward(self, dy, cache, params, need_dx=True):
        return dy * (cache > 0), {}


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

    def _windows(self, a):
        """The k*k strided views a[:, :, i::k, j::k], in (i, j) order."""
        k = self.kernel
        return [a[:, :, i::k, j::k] for i in range(k) for j in range(k)]

    def forward(self, x, params, keep=True, work=None):
        out, temp = _allocators(work)
        views = self._windows(x)
        y = _like(out, views[0])
        np.copyto(y, views[0])
        for v in views[1:]:
            np.maximum(y, v, out=y)
        # A window's first maximum (lowest offset) is its value. np.maximum
        # returns it except on a tie of -0.0 with +0.0, whose sign it leaves
        # unspecified, so where an input has its sign bit set (after a ReLU,
        # only a negative zero does) zero windows take their first zero.
        if x.view(f"i{x.itemsize}").min() < 0:  # a sign bit is set
            zero = np.equal(y, 0, out=_like(temp, y, dtype=bool))
            hit = _like(temp, y, dtype=bool)
            for v in reversed(views):
                np.equal(v, 0, out=hit)
                hit &= zero
                np.copyto(y, v, where=hit)
        return y, (x, y)

    def scratch(self, n, in_shape, itemsize):
        """Bytes of the temporaries a pass takes for n images: the two window
        masks of a zero tie."""
        c, h, w = in_shape
        pooled = n * c * (h // self.kernel) * (w // self.kernel)
        return pooled, pooled

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


@dataclass(frozen=True)
class GlobalAvgPool:
    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise UsageError(f"GlobalAvgPool cannot consume shape {in_shape}")
        return (in_shape[0],)

    def forward(self, x, params, keep=True, work=None):
        # x.mean's bytes: the same sum, then a division by the count. x.mean
        # divides a float32 sum in float64 and rounds back, which gives the
        # float32 quotient (53 >= 2*24 + 2 bits), so an in-place division
        # into the output changes no byte
        n, c, h, w = x.shape
        out = None if work is None else work.out((n, c), x.dtype)
        y = np.add.reduce(x, axis=(2, 3), out=out)
        y /= h * w
        return y, x

    def backward(self, dy, cache, params, need_dx=True):
        x = cache
        h, w = x.shape[2:]
        dx = np.empty_like(x, dtype=dy.dtype)  # in the input's memory layout
        dx[...] = (dy / (h * w))[:, :, None, None]
        return dx, {}


@dataclass(frozen=True)
class Flatten:
    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x, params, keep=True, work=None):
        # a view of x, or, when x is channels-last, reshape's own copy
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dy, cache, params, need_dx=True):
        return dy.reshape(cache), {}


# SSC1 name -> layer class; a layer is written as [name, *its fields]
_LAYERS = {"dense": Dense, "conv2d": Conv2d, "relu": ReLU,
           "maxpool": MaxPool, "gap": GlobalAvgPool, "flatten": Flatten}
_LAYER_NAMES = {cls: name for name, cls in _LAYERS.items()}

# layers with a weight and a bias: param_shapes gives their shapes and
# init_params draws them, under the keys "w" and "b"
_PARAMETERIZED = (Dense, Conv2d)


def _ints(values):
    """values as a list, refused unless each is a JSON integer (true, false
    and 2.0 are not)."""
    values = list(values)
    if not all(type(v) is int for v in values):
        raise ValueError(f"expected integers, got {values}")
    return values


# --------------------------------------------------------------------------
# network spec

@dataclass(frozen=True)
class NetSpec:
    """Block-partitioned architecture: blocks is a list of layer lists. A
    spec checks its shapes once, when built: UsageError names the first
    layer that does not fit."""

    blocks: tuple
    class_count: int
    input_shape: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "blocks", tuple(tuple(b) for b in self.blocks)
        )
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
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

    @property
    def m(self):
        return len(self.blocks)

    def encode(self):
        return {
            "blocks": [[[_LAYER_NAMES[type(l)], *astuple(l)] for l in b]
                       for b in self.blocks],
            "class_count": self.class_count,
            "input_shape": list(self.input_shape),
        }

    @staticmethod
    def decode(obj):
        """The spec `encode` gave obj; a number that is not an integer, an
        unknown layer or an argument the layer lacks raises ValueError,
        KeyError or TypeError, and a spec that fails its checks UsageError."""
        blocks = [[_LAYERS[name](*_ints(args)) for name, *args in b]
                  for b in obj["blocks"]]
        (class_count,) = _ints([obj["class_count"]])
        return NetSpec(blocks, class_count, tuple(_ints(obj["input_shape"])))

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
    `_plan[bi]` lists block bi's layers as (layer, weight name, bias name,
    slots), where slots is (lo, mid, hi): the weight fills flat[lo:mid] and
    the bias flat[mid:hi]. A layer without parameters has None for the names
    and the slots. The passes look the names up in `params` on every call,
    so rebinding a name (partner aliasing, `sync_blocks`) takes effect at the
    next pass; the backward pass writes a gradient's slots.
    """

    def __init__(self, spec: NetSpec, params: dict, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        names = [
            [(f"b{bi}.l{li}.w", f"b{bi}.l{li}.b")
             if isinstance(layer, _PARAMETERIZED) else (None, None)
             for li, layer in enumerate(block)]
            for bi, block in enumerate(spec.blocks)
        ]
        self._block_keys = [[k for w, b in row if w for k in (w, b)] for row in names]
        keys = [k for block in self._block_keys for k in block]
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
        for block in self._block_keys:
            self.block_offsets.append(
                self._slots[block[-1]][1] if block else self.block_offsets[-1])
        self._plan = [
            [(layer, w, b, (self._slots[w][0], *self._slots[b][:2]) if w else None)
             for layer, (w, b) in zip(block, row)]
            for block, row in zip(spec.blocks, names)
        ]
        self.params = self.views(self.flat)

    @property
    def m(self):
        return self.spec.m

    def views(self, buf):
        """Each parameter's slot in `buf`, a 1-D array with `flat`'s layout
        (the buffer itself, a gradient, an optimizer moment), as a view shaped
        like the parameter, by name."""
        return {k: buf[lo:hi].reshape(shape) for k, (lo, hi, shape) in self._slots.items()}

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

    def forward(self, x, lo=0, hi=None, work=None):
        """Run blocks lo..hi-1 (default: all) on the activation entering block
        lo, which is the raw batch when lo is 0; with the defaults this gives
        the logits. The layers take their buffers from `work`, a `Workspace`
        sized for the pass, when one is given. The result is an array of
        its own, and x is never written. Raises NumericError naming the
        block on overflow."""
        return self._forward(x, lo, hi, work=work)[0]

    def _forward(self, x, lo=0, hi=None, caches=None, work=None):
        """`forward`, appending each layer's (layer, parameters, slots, cache)
        to `caches` when a list is given (the backward pass reads them).
        Without the list each layer is told it keeps no cache (a conv then
        runs in pieces), and what it returns is dropped as soon as it
        returns, so an evaluation holds one layer's cache at a time; with a
        workspace too, the workspace frees every buffer of a layer but its
        output once the layer returns."""
        if lo == 0:
            x = self._ingest(x)
        params = self.params
        keep = caches is not None
        hi = self.m if hi is None else hi
        if work is not None:
            work._begin()
        for bi in range(lo, hi):
            plan = self._plan[bi]
            for li, (layer, w, b, slots) in enumerate(plan):
                p = {"w": params[w], "b": params[b]} if w else {}
                if work is not None:  # the pass's result is an array of its own
                    work._result = bi == hi - 1 and li == len(plan) - 1
                x, cache = layer.forward(x, p, keep, work)
                if keep:
                    caches.append((layer, p, slots, cache))
                elif work is not None:
                    work._settle(x)
                del cache
            if work is None:
                finite = np.isfinite(x).all()
            else:  # no mask to allocate: min and max propagate NaN
                finite = np.isfinite(x.min()) and np.isfinite(x.max())
            if not finite:
                raise NumericError(f"non-finite activation in block {bi}", bi)
        if work is not None and work._in is not None:
            x = x.copy(order="K")  # a view into the workspace, as Flatten gives
        return x, caches


def _param_layers(spec):
    """(parameter name prefix, layer) of every parameterised layer, in
    declaration order."""
    for bi, block in enumerate(spec.blocks):
        for li, layer in enumerate(block):
            if isinstance(layer, _PARAMETERIZED):
                yield f"b{bi}.l{li}", layer


def build_net(spec: NetSpec, seed: int, dtype=np.float32) -> BlockNet:
    """Construct a network with Xavier-uniform weights and zero biases.

    Weights are drawn in declaration order from a single named stream, so
    (spec, seed) determines every byte of the parameter store.
    """
    rng = stream(seed, "init")
    params = {}
    for prefix, layer in _param_layers(spec):
        for name, arr in layer.init_params(rng).items():
            params[f"{prefix}.{name}"] = arr
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
    """Mean cross-entropy loss, and the gradient of blocks start..m-1 as one
    1-D array with `net.flat`'s shape, dtype and layout.

    Only the slices of blocks >= start are written; the rest of the array is
    left uninitialised. x is the activation entering block `start`, which is
    the raw batch when start is 0 (see `BlockNet.forward`). The backward pass
    stops at the lowest parameterised layer of blocks >= start and never
    computes that layer's input gradient. Pure in (params, batch): caches
    live only for the duration of the call.

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
    lowest = next(i for i, (_, _, slots, _) in enumerate(caches) if slots)
    grad = np.empty_like(net.flat)
    for i in range(len(caches) - 1, lowest - 1, -1):
        layer, p, slots, cache = caches[i]
        dy, layer_grads = layer.backward(dy, cache, p, need_dx=i > lowest)
        if slots:
            lo, mid, hi = slots
            grad[lo:mid] = layer_grads["w"].reshape(-1)
            grad[mid:hi] = layer_grads["b"]
    return loss, grad


# --------------------------------------------------------------------------
# evaluation

@dataclass(frozen=True)
class EvalReport:
    mispredictions: int
    n_examples: int

    @property
    def error_fraction(self) -> Fraction:
        return Fraction(self.mispredictions, self.n_examples)


def _pass_bytes(spec, n, start, itemsize):
    """The most bytes of a workspace that a pass keeping no cache holds at
    once, run on n images from block `start` to the logits. Every buffer is
    rounded up to whole cache lines."""
    shape = spec.input_shape
    for layer in (l for block in spec.blocks[:start] for l in block):
        shape = layer.out_shape(shape)
    layers = [layer for block in spec.blocks[start:] for layer in block]
    held = peak = 0  # workspace bytes of the activation a layer reads
    for i, layer in enumerate(layers):
        out_shape = layer.out_shape(shape)
        scratch = getattr(layer, "scratch", None)  # layers with temporaries
        temps = sum(map(_aligned, scratch(n, shape, itemsize))) if scratch else 0
        if i == len(layers) - 1:
            out, after = 0, 0  # the result is an array of its own
        elif isinstance(layer, Flatten) or isinstance(layer, ReLU) and held:
            out, after = 0, held  # a view of the input, or in place
        else:
            out = after = _aligned(n * math.prod(out_shape) * itemsize)
        peak = max(peak, held + out + temps)
        held = after
        shape = out_shape
    return peak


def _aligned(nbytes):
    return -(-nbytes // _ALIGN) * _ALIGN


_ALIGN = 64  # every workspace buffer starts on a cache line


class Workspace:
    """The buffers of an evaluation's passes: one byte buffer, sized up
    front from the layer shapes, used as a stack from each end.

    In a pass that keeps no cache, each layer takes its output and then its
    temporaries (padded input, column piece, bias tile, window masks) from
    the end that its input is not on. Once it returns, its output is all
    that stays, and a ReLU overwrites an input that the pass made itself.
    So the buffer holds one layer's input, output and temporaries at a
    time, and every pass of an evaluation reuses the same pages instead of
    allocating, freeing and faulting them in again. A pass's result (the
    logits, or an activation that `_Prefix` holds across nets) is an array
    of its own, never in the buffer, and a pass never writes its caller's
    input.

    A MiniCNN-6 workspace for 256 16x16 images is 4.5 MB, block 1's
    convolution: its input, its output, one piece's padded input and
    columns. A layer that takes temporaries lists their bytes in `scratch`,
    which sizes the buffer; running past its end is an AssertionError.
    """

    def __init__(self, spec: NetSpec, dtype, lengths, batch_size):
        """Sized for the passes, from any start block, over datasets of these
        lengths in chunks of batch_size images (the last chunk ragged)."""
        itemsize = np.dtype(dtype).itemsize
        counts = {c for n in lengths for c in (min(n, batch_size), n % batch_size) if c}
        self.nbytes = max((_pass_bytes(spec, c, s, itemsize)
                           for c in counts for s in range(spec.m)), default=0)
        raw = np.empty(self.nbytes + _ALIGN, np.uint8)
        skip = -raw.ctypes.data % _ALIGN
        self._buf = raw[skip : skip + self.nbytes]
        self._base = raw.ctypes.data + skip
        self._top = [0, 0]  # bytes taken from the low end, from the high end
        self._in = None  # the end holding a layer's input; None: the caller's
        self._result = False  # whether the layer's output is the pass's result

    def _begin(self):
        self._top = [0, 0]
        self._in = None

    def _settle(self, y):
        """After a layer: free every buffer but its output y's."""
        off = y.__array_interface__["data"][0] - self._base
        if 0 <= off < self._top[0]:
            self._top, self._in = [_aligned(off + y.nbytes), 0], 0
        elif 0 <= off < self.nbytes:
            self._top, self._in = [0, self.nbytes - off], 1
        else:
            self._top, self._in = [0, 0], None

    def in_place(self):
        """Whether a layer may write its output over its input: the pass made
        the input, and the output is not the pass's result."""
        return self._in is not None and not self._result

    def out(self, shape, dtype):
        """The layer's output, taken before its temporaries; the pass's
        result gets an array of its own."""
        return np.empty(shape, dtype) if self._result else self.temp(shape, dtype)

    def temp(self, shape, dtype):
        """A buffer on the end the layer's input is not on, free again once
        the layer returns."""
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        end = int(self._in == 0)
        top = self._top[end] + _aligned(nbytes)
        if top + self._top[1 - end] > self.nbytes:
            raise AssertionError(f"a pass outgrew its {self.nbytes}-byte workspace")
        self._top[end] = top
        lo = top - _aligned(nbytes) if end == 0 else self.nbytes - top
        return self._buf[lo : lo + nbytes].view(dtype).reshape(shape)


def evaluate(net: BlockNet, pixels, labels, batch_size=512, start=0,
             work=None) -> EvalReport:
    """Error rate over a dataset; argmax ties go to the lowest class.

    pixels is the activation entering block `start`, which is the raw images
    when start is 0 (see `BlockNet.forward`). The forward pass runs in chunks
    of batch_size images, so the activation must come from the same chunks
    for the result to match a call with start 0 byte for byte. Within a
    chunk a conv runs its GEMM in row pieces (see `Conv2d.forward`), which
    changes no byte: every piece has at least `_PIECE_ROWS` rows, and the
    logits equal those of one GEMM per conv. Every chunk's pass takes its
    layers' buffers from one `Workspace`: `work`, sized for these chunks,
    or one that the call makes (4.5 MB for a MiniCNN-6 chunk of 256 16x16
    images).
    """
    if not 0 <= start < net.m:
        raise UsageError(f"start block {start} outside [0, {net.m})")
    labels = np.asarray(labels)
    n = len(labels)
    if n == 0:
        raise UsageError("empty dataset")
    if work is None:
        work = Workspace(net.spec, net.dtype, [n], batch_size)
    wrong = 0
    for lo in range(0, n, batch_size):
        pred = net.forward(pixels[lo : lo + batch_size], start,
                           work=work).argmax(axis=1)
        wrong += int((pred != labels[lo : lo + batch_size]).sum())
    return EvalReport(wrong, n)


# --------------------------------------------------------------------------
# per-block access

def sync_blocks(dst: BlockNet, src: BlockNet, members):
    """Copy the listed blocks' values from src's buffer into dst's own, and
    point dst's parameters of those blocks at its own buffer (same spec
    assumed)."""
    own = dst.views(dst.flat)
    for i in members:
        lo, hi = dst.block_offsets[i], dst.block_offsets[i + 1]
        dst.flat[lo:hi] = src.flat[lo:hi]
        dst.params.update((k, own[k]) for k in dst.block_keys(i))


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
    """Read an SSC1 file; a truncated or malformed file, architecture text
    that is not exactly its spec's canonical text (integers only), or
    trailing bytes raise UsageError, and so does a file that cannot be read.

    The parameter count comes from the spec's layer shapes and is checked
    against the file length before anything is allocated; the net is then
    built from the file's bytes."""
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
        text = data[8:end].decode("utf-8")
        spec = NetSpec.decode(json.loads(text))
        if text != spec.canonical_text():
            raise ValueError("not the canonical text of its spec")
        shapes = {f"{prefix}.{name}": shape
                  for prefix, layer in _param_layers(spec)
                  for name, shape in zip("wb", layer.param_shapes())}
        if any(d < 0 for shape in shapes.values() for d in shape):
            raise ValueError("negative dimensions are not allowed")
    except (ValueError, KeyError, TypeError, IndexError, OverflowError) as exc:
        raise UsageError(f"{path}: malformed architecture text: {exc}") from None
    raw = memoryview(data)[end:]
    want = 4 * sum(math.prod(shape) for shape in shapes.values())
    if len(raw) < want:
        raise UsageError(
            f"{path}: truncated checkpoint: {len(raw)} of {want} parameter bytes")
    if len(raw) > want:
        raise UsageError(f"{path}: trailing bytes after parameters")
    values = np.frombuffer(raw, dtype="<f4")
    params = {}
    lo = 0
    for name, shape in shapes.items():
        hi = lo + math.prod(shape)
        params[name] = values[lo:hi].reshape(shape)
        lo = hi
    return BlockNet(spec, params, dtype)
