"""Clean / fully-skewed / frequency-mixed dataset construction.

The central object is a PairedDataset: a clean view and a fully skewed view
that are index-aligned (same labels at every index), plus a Bernoulli mask
that selects which indices the mixed "skewed" view serves from the fully
skewed side. Because the two views are aligned, the skew transform applied
to a batch of indices is a pure lookup.

Two skew mechanisms are supported:

* watermark -- blend a class-specific glyph into the upper-left corner.
  Clean images carry a uniformly random glyph (uncorrelated with the label);
  the fully skewed view re-blends the label's own glyph over the pre-blend
  base image, so an image whose random glyph already matches its label is
  unchanged.
* sampling -- replace items whose group attribute disagrees with the label's
  aligned group by same-label items from the aligned group, making the
  attribute perfectly predictive.

Synthetic clean tasks draw per-class bar or blob patterns on noisy
backgrounds; the class feature is kept outside the watermark window so both
features stay learnable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DataError, UsageError
from .rng import stream

__all__ = [
    "ImageDataset",
    "WatermarkSkewSpec",
    "SamplingSkewSpec",
    "SkewFrequency",
    "PairedDataset",
    "gen_clean_synthetic",
    "make_fully_skewed",
    "apply_frequency",
    "paired_batches",
    "SyntheticTaskSpec",
    "save_ssd1",
    "load_ssd1",
    "STRONG",
    "WEAK",
    "COMMON",
    "RARE",
]

STRONG = 0.75
WEAK = 0.25


@dataclass
class ImageDataset:
    """Column-oriented image dataset; immutable by convention after build."""

    pixels: np.ndarray  # (n, c, h, w) float32
    labels: np.ndarray  # (n,) int64
    class_count: int
    attributes: np.ndarray | None = None
    base_pixels: np.ndarray | None = None  # pre-watermark pixels
    glyph_ids: np.ndarray | None = None  # glyph class blended per image

    def __len__(self):
        return len(self.labels)

    def tobytes(self):
        parts = [self.pixels.tobytes(), self.labels.tobytes()]
        if self.attributes is not None:
            parts.append(self.attributes.tobytes())
        return b"".join(parts)


# --------------------------------------------------------------------------
# skew specs

@dataclass(frozen=True)
class WatermarkSkewSpec:
    patch_size: int = 10
    blend_strength: float = STRONG
    glyph_seed: int = 1717  # fixed default glyph family

    def validate(self, image_hw=None):
        if not 0 < self.blend_strength <= 1:
            raise UsageError("blend_strength must be in (0, 1]")
        if self.patch_size < 1:
            raise UsageError(f"patch_size must be >= 1, got {self.patch_size}")
        if image_hw is not None and self.patch_size > min(image_hw):
            raise UsageError(
                f"patch {self.patch_size} exceeds image dims {image_hw}"
            )
        return self

    def glyphs(self, class_count: int) -> np.ndarray:
        return _glyph_set(class_count, self.patch_size, self.glyph_seed)


@lru_cache(maxsize=32)
def _glyph_set(class_count, patch_size, seed):
    """One deterministic binary glyph per class."""
    rng = stream(seed, "glyphs")
    g = (rng.random((class_count, patch_size, patch_size)) < 0.5).astype(np.float32)
    g.setflags(write=False)
    return g


@dataclass(frozen=True)
class SamplingSkewSpec:
    """Group-sampling skew: the group aligned with label y is y % num_groups."""

    num_groups: int = 2

    def aligned_group(self, label):
        return label % self.num_groups


@dataclass(frozen=True)
class SkewFrequency:
    numerator: int
    denominator: int

    def __post_init__(self):
        if not 0 <= self.numerator <= self.denominator or self.denominator <= 0:
            raise UsageError(f"bad frequency {self.numerator}/{self.denominator}")

    @property
    def value(self) -> float:
        return self.numerator / self.denominator


COMMON = SkewFrequency(127, 128)
RARE = SkewFrequency(15, 16)


# --------------------------------------------------------------------------
# watermark blending

def _blend_batch(pixels, glyph_per_image, alpha):
    """Convex-blend each image's p x p glyph into its upper-left corner;
    glyph_per_image has shape (n, p, p)."""
    out = pixels.copy()
    p = glyph_per_image.shape[-1]
    out[:, :, :p, :p] = (
        (1.0 - alpha) * out[:, :, :p, :p]
        + alpha * glyph_per_image[:, None, :, :]
    ).astype(pixels.dtype)
    return out


# --------------------------------------------------------------------------
# synthetic clean tasks

@dataclass(frozen=True)
class SyntheticTaskSpec:
    class_count: int = 8
    channels: int = 1
    size: int = 16
    kind: str = "bars"  # bars | blobs
    noise: float = 0.9
    feature_contrast: float = 0.45
    bar_width: int = 1
    watermark: WatermarkSkewSpec | None = None
    attribute_groups: int = 0
    attribute_tint: float = 0.3

    def validate(self):
        if self.kind not in ("bars", "blobs"):
            raise UsageError(f"unknown task kind {self.kind!r}")
        if self.size not in (16, 32):
            raise UsageError("size must be 16 or 32")
        if not 1 <= self.channels <= 3:
            raise UsageError("channels must be 1..3")
        if self.watermark is not None:
            self.watermark.validate((self.size, self.size))
        return self


def _bar_positions(task):
    """Distinct bar positions spread over the full image.

    Bars span the whole image, so even classes whose bar crosses the
    watermark window keep a crisp segment outside it.
    """
    lo, hi = 1, task.size - 3
    k = task.class_count
    n_vert = (k + 1) // 2
    verts = np.linspace(lo, hi, n_vert).round().astype(int)
    horiz = np.linspace(lo, hi, k - n_vert).round().astype(int) if k > n_vert else []
    return verts, np.asarray(horiz, dtype=int)


def _blob_centers(task):
    """Blob centers along the L-shaped corridor outside the watermark window."""
    s = task.size
    pad = task.watermark.patch_size if task.watermark else 0
    lo, hi = 2.0, s - 3.0
    if pad and pad >= s - 4:
        raise UsageError("no room for blobs outside the watermark window")
    # path: down the right strip, then left along the bottom strip
    length = 2 * (hi - lo)
    centers = []
    for k in range(task.class_count):
        t = (k + 0.5) / task.class_count * length
        if t <= hi - lo:
            centers.append((lo + t, hi))
        else:
            centers.append((hi, hi - (t - (hi - lo))))
    return centers


def _render_base(task, labels, rng):
    n = len(labels)
    s = task.size
    img = (rng.random((n, task.channels, s, s)) * task.noise).astype(np.float32)
    jitter = rng.integers(-1, 2, size=n)
    amp = np.float32(task.feature_contrast)
    if task.kind == "bars":
        # class k < len(verts) draws the vertical bar verts[k], any other
        # class the horizontal bar horiz[k - len(verts)]: one band of
        # bar_width rows or columns per image, each pixel in it raised once
        verts, horiz = _bar_positions(task)
        w = task.bar_width
        start = np.clip(np.concatenate([verts, horiz])[labels] + jitter, 0, s - w)
        at = np.arange(s) - start[:, None]
        band = (at >= 0) & (at < w)  # (n, s): the image's bar rows or columns
        vertical = (labels < len(verts))[:, None, None]
        mask = np.where(vertical, band[:, None, :], band[:, :, None])
        np.add(img, amp, out=img, where=mask[:, None])
    else:
        centers = _blob_centers(task)
        ys, xs = np.mgrid[0:s, 0:s]
        for i in range(n):
            by, bx = centers[labels[i]]
            bump = np.exp(
                -((ys - by - jitter[i]) ** 2 + (xs - bx - jitter[i]) ** 2)
                / (2 * 1.6**2)
            )
            img[i] += 2.0 * amp * bump.astype(np.float32)[None]
    np.clip(img, 0.0, 1.0, out=img)
    return img


def gen_clean_synthetic(task: SyntheticTaskSpec, n: int, seed: int) -> ImageDataset:
    """Procedural class-distinctive images; any watermark glyph is assigned
    uniformly at random, independent of the label."""
    task.validate()
    if n <= 0:
        raise UsageError("n must be positive")
    labels = stream(seed, "labels").integers(0, task.class_count, size=n)
    base = _render_base(task, labels, stream(seed, "render"))
    attributes = None
    if task.attribute_groups:
        attributes = stream(seed, "attrs").integers(0, task.attribute_groups, size=n)
        # attribute tints the background so the group is visually readable
        tint = (attributes / max(task.attribute_groups - 1, 1)) * task.attribute_tint
        base = np.clip(base + tint[:, None, None, None].astype(np.float32), 0, 1)
    glyph_ids = None
    pixels = base
    if task.watermark is not None:
        glyph_ids = stream(seed, "match").integers(0, task.class_count, size=n)
        glyphs = task.watermark.glyphs(task.class_count)
        pixels = _blend_batch(base, glyphs[glyph_ids], task.watermark.blend_strength)
    return ImageDataset(
        pixels=pixels,
        labels=labels.astype(np.int64),
        class_count=task.class_count,
        attributes=None if attributes is None else attributes.astype(np.int64),
        base_pixels=base,
        glyph_ids=None if glyph_ids is None else glyph_ids.astype(np.int64),
    )


# --------------------------------------------------------------------------
# fully skewed construction

def make_fully_skewed(clean: ImageDataset, skew) -> ImageDataset:
    """A view where the skew feature is perfectly predictive of the label."""
    if isinstance(skew, WatermarkSkewSpec):
        return _fully_skewed_watermark(clean, skew)
    if isinstance(skew, SamplingSkewSpec):
        return _fully_skewed_sampling(clean, skew)
    raise UsageError(f"unknown skew spec {type(skew).__name__}")


def _fully_skewed_watermark(clean, skew):
    skew.validate(clean.pixels.shape[2:])
    base = clean.base_pixels if clean.base_pixels is not None else clean.pixels
    glyphs = skew.glyphs(clean.class_count)
    pixels = _blend_batch(base, glyphs[clean.labels], skew.blend_strength)
    return ImageDataset(
        pixels=pixels,
        labels=clean.labels.copy(),
        class_count=clean.class_count,
        attributes=None if clean.attributes is None else clean.attributes.copy(),
        base_pixels=base,
        glyph_ids=clean.labels.copy(),
    )


def _fully_skewed_sampling(clean, skew):
    if clean.attributes is None:
        raise DataError("sampling skew needs a dataset with group attributes")
    labels = clean.labels
    attrs = clean.attributes
    aligned = skew.aligned_group(labels)
    pixels = clean.pixels.copy()
    new_attrs = attrs.copy()
    base = None if clean.base_pixels is None else clean.base_pixels.copy()
    for y in np.unique(labels):
        donors = np.nonzero((labels == y) & (attrs == skew.aligned_group(y)))[0]
        cross = np.nonzero((labels == y) & (attrs != skew.aligned_group(y)))[0]
        if len(cross) and not len(donors):
            raise DataError(f"no aligned-group items for label {int(y)}")
        for j, i in enumerate(cross):  # replace round-robin over the donor pool
            d = donors[j % len(donors)]
            pixels[i] = clean.pixels[d]
            new_attrs[i] = attrs[d]
            if base is not None:
                base[i] = clean.base_pixels[d]
    assert (new_attrs == aligned).all()
    return ImageDataset(
        pixels=pixels,
        labels=labels.copy(),
        class_count=clean.class_count,
        attributes=new_attrs,
        base_pixels=base,
        glyph_ids=None if clean.glyph_ids is None else clean.glyph_ids.copy(),
    )


# --------------------------------------------------------------------------
# paired dataset

@dataclass
class PairedDataset:
    clean: ImageDataset
    fully_skewed: ImageDataset
    skew_mask: np.ndarray  # (n,) bool
    _skewed: ImageDataset | None = None

    def __post_init__(self):
        if not (
            len(self.clean) == len(self.fully_skewed) == len(self.skew_mask)
        ):
            raise UsageError("clean/fully_skewed/mask lengths differ")
        if not (self.clean.labels == self.fully_skewed.labels).all():
            raise UsageError("labels differ between views at some index")

    def __len__(self):
        return len(self.clean)

    @property
    def skewed(self) -> ImageDataset:
        """The frequency-mixed view: fully skewed where masked, clean elsewhere."""
        if self._skewed is None:
            m = self.skew_mask[:, None, None, None]
            pixels = np.where(m, self.fully_skewed.pixels, self.clean.pixels)
            attrs = self.clean.attributes
            if attrs is not None:
                attrs = np.where(
                    self.skew_mask, self.fully_skewed.attributes, attrs
                )
            self._skewed = ImageDataset(
                pixels=pixels,
                labels=self.clean.labels,
                class_count=self.clean.class_count,
                attributes=attrs,
            )
        return self._skewed


def apply_frequency(clean: ImageDataset, fully_skewed: ImageDataset,
                    freq: SkewFrequency, seed: int) -> PairedDataset:
    """Draw the skew mask at the given frequency and pair the two views."""
    if len(clean) != len(fully_skewed):
        raise UsageError("clean and fully_skewed lengths differ")
    mask = stream(seed, "skew-mask").random(len(clean)) < freq.value
    return PairedDataset(clean, fully_skewed, mask)


@dataclass(frozen=True)
class PairedBatch:
    indices: np.ndarray
    clean_x: np.ndarray
    skew_x: np.ndarray
    labels: np.ndarray


def paired_batches(pd: PairedDataset, batch_size: int, epoch_seed: int):
    """One epoch of aligned (clean, skewed) batches partitioning the index set."""
    n = len(pd)
    if batch_size > n:
        raise UsageError(f"batch_size {batch_size} exceeds dataset size {n}")
    order = stream(epoch_seed, "epoch-shuffle").permutation(n)
    skewed = pd.skewed
    for lo in range(0, n, batch_size):
        idx = order[lo : lo + batch_size]
        yield PairedBatch(
            indices=idx,
            clean_x=pd.clean.pixels[idx],
            skew_x=skewed.pixels[idx],
            labels=pd.clean.labels[idx],
        )


# --------------------------------------------------------------------------
# SSD1 raw binary format: magic, u32 (n, channels, h, w, class_count),
# u8 has_attributes, u8 pixels (round(p*255)), u16 labels, u16 attributes.

_MAGIC = b"SSD1"


def save_ssd1(ds: ImageDataset, path):
    import struct

    n, c, h, w = ds.pixels.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<5I", n, c, h, w, ds.class_count))
        fh.write(struct.pack("<B", 1 if ds.attributes is not None else 0))
        fh.write(np.rint(ds.pixels * 255.0).astype("<u1").tobytes())
        fh.write(ds.labels.astype("<u2").tobytes())
        if ds.attributes is not None:
            fh.write(ds.attributes.astype("<u2").tobytes())


def load_ssd1(path) -> ImageDataset:
    """Read an SSD1 file; a truncated or overlong file, a has-attributes
    flag other than 0 or 1, a class count below 2 or a label at or above it
    is a UsageError. Attributes are group ids with no bound in the format."""
    import struct

    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise UsageError(f"{path}: not an SSD1 dataset")
    pos = len(_MAGIC)

    def take(size, what):
        nonlocal pos
        if len(raw) - pos < size:
            raise UsageError(f"{path}: truncated {what}")
        pos += size
        return raw[pos - size : pos]

    n, c, h, w, class_count = struct.unpack("<5I", take(20, "header"))
    if class_count < 2:
        raise UsageError(f"{path}: class count {class_count} is below 2")
    has_attr = take(1, "header")[0]
    if has_attr not in (0, 1):
        raise UsageError(f"{path}: has-attributes flag {has_attr} is not 0 or 1")
    count = n * c * h * w
    pixels = np.frombuffer(take(count, "pixel payload"), dtype="<u1")
    pixels = (pixels.astype(np.float32) / 255.0).reshape(n, c, h, w)
    labels = np.frombuffer(take(2 * n, "labels"), dtype="<u2").astype(np.int64)
    if (labels >= class_count).any():
        raise UsageError(f"{path}: label {labels.max()} is not below the class "
                         f"count {class_count}")
    attributes = None
    if has_attr:
        attributes = np.frombuffer(take(2 * n, "attributes"), dtype="<u2").astype(
            np.int64
        )
    if pos != len(raw):
        raise UsageError(f"{path}: {len(raw) - pos} trailing bytes after the data")
    return ImageDataset(pixels, labels, class_count, attributes)
