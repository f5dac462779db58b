"""Clean / fully-skewed / frequency-mixed dataset construction.

The central object is a PairedDataset: a clean view and a fully skewed view
that are index-aligned (same labels at every index), plus a Bernoulli mask
that selects which indices the mixed "skewed" view serves from the fully
skewed side. Because the two views are aligned, the skew transform applied
to a batch of indices is a pure lookup.

What a trial holds: two training image arrays (the clean and the fully
skewed images) and the two test views. The mixed view is never stored;
`paired_batches` gathers a batch's fully skewed rows and copies the batch's
unmasked clean rows over them. A clean view keeps its pre-watermark base,
which the fully skewed watermark view blends over; without a watermark it
is its own base (`base_pixels is pixels`). A fully skewed view keeps no
base, and a sampling-skewed view gathers its images through one source
index.

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
features stay learnable. The rendering constants are fixed: background
noise up to 0.9, feature contrast 0.45, bars one pixel wide, an attribute
tint of up to 0.3, and the glyph family drawn from seed 1717.

Every spec value checks itself once, when it is built.
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
    "STRONG",
    "WEAK",
    "COMMON",
    "RARE",
]

STRONG = 0.75
WEAK = 0.25

# the fixed rendering constants (see the module docstring)
_NOISE = 0.9
_FEATURE_CONTRAST = 0.45
_BAR_WIDTH = 1
_ATTRIBUTE_TINT = 0.3
_GLYPH_SEED = 1717


@dataclass
class ImageDataset:
    """Column-oriented image dataset; immutable by convention after build."""

    pixels: np.ndarray  # (n, c, h, w) float32
    labels: np.ndarray  # (n,) int64
    class_count: int
    attributes: np.ndarray | None = None
    base_pixels: np.ndarray | None = None  # a clean view's pre-watermark pixels

    def __len__(self):
        return len(self.labels)


# --------------------------------------------------------------------------
# skew specs

@dataclass(frozen=True)
class WatermarkSkewSpec:
    patch_size: int = 10
    blend_strength: float = STRONG

    def __post_init__(self):
        if not 0 < self.blend_strength <= 1:
            raise UsageError("blend_strength must be in (0, 1]")
        if self.patch_size < 1:
            raise UsageError(f"patch_size must be >= 1, got {self.patch_size}")

    def glyphs(self, class_count: int) -> np.ndarray:
        return _glyph_set(class_count, self.patch_size)


def _check_patch_fits(patch_size, image_hw):
    if patch_size > min(image_hw):
        raise UsageError(f"patch {patch_size} exceeds image dims {image_hw}")


@lru_cache(maxsize=32)
def _glyph_set(class_count, patch_size):
    """One deterministic binary glyph per class."""
    rng = stream(_GLYPH_SEED, "glyphs")
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
    watermark: WatermarkSkewSpec | None = None
    attribute_groups: int = 0

    def __post_init__(self):
        if self.kind not in ("bars", "blobs"):
            raise UsageError(f"unknown task kind {self.kind!r}")
        if self.size not in (16, 32):
            raise UsageError("size must be 16 or 32")
        if not 1 <= self.channels <= 3:
            raise UsageError("channels must be 1..3")
        if self.watermark is None:
            return
        p = self.watermark.patch_size
        _check_patch_fits(p, (self.size, self.size))
        # the blobs run along the strips right of and below the window
        if self.kind == "blobs" and p >= self.size - 4:
            raise UsageError(
                f"patch_size {p} leaves no room for blobs outside the watermark "
                f"window: a blobs task of size {self.size} needs patch_size "
                f"below {self.size - 4}")


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
    lo, hi = 2.0, s - 3.0
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


# background noise is drawn this many float64 values (about) at a time
_NOISE_CHUNK = 1 << 16


def _render_base(task, labels, rng):
    n = len(labels)
    s = task.size
    # The noise is drawn a few images at a time, straight into the float32
    # images: successive draws continue one stream, so this gives the bytes
    # of one draw of the whole set without holding its float64 copy.
    img = np.empty((n, task.channels, s, s), dtype=np.float32)
    step = max(1, _NOISE_CHUNK // img[0].size)
    for lo in range(0, n, step):
        chunk = img[lo : lo + step]
        chunk[...] = rng.random(chunk.shape) * _NOISE
    jitter = rng.integers(-1, 2, size=n)
    amp = np.float32(_FEATURE_CONTRAST)
    if task.kind == "bars":
        # class k < len(verts) draws the vertical bar verts[k], any other
        # class the horizontal bar horiz[k - len(verts)]: one band of
        # _BAR_WIDTH rows or columns per image, each pixel in it raised once
        verts, horiz = _bar_positions(task)
        w = _BAR_WIDTH
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
    if n <= 0:
        raise UsageError("n must be positive")
    labels = stream(seed, "labels").integers(0, task.class_count, size=n)
    base = _render_base(task, labels, stream(seed, "render"))
    attributes = None
    if task.attribute_groups:
        attributes = stream(seed, "attrs").integers(0, task.attribute_groups, size=n)
        # attribute tints the background so the group is visually readable
        tint = (attributes / max(task.attribute_groups - 1, 1)) * _ATTRIBUTE_TINT
        base += tint[:, None, None, None].astype(np.float32)
        np.clip(base, 0, 1, out=base)
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
    _check_patch_fits(skew.patch_size, clean.pixels.shape[2:])
    base = clean.base_pixels if clean.base_pixels is not None else clean.pixels
    glyphs = skew.glyphs(clean.class_count)
    pixels = _blend_batch(base, glyphs[clean.labels], skew.blend_strength)
    return ImageDataset(
        pixels=pixels,
        labels=clean.labels.copy(),
        class_count=clean.class_count,
        attributes=None if clean.attributes is None else clean.attributes.copy(),
    )


def _fully_skewed_sampling(clean, skew):
    """Each cross-group item replaced by a same-label aligned-group donor,
    round-robin over the donors in index order. Whole images are gathered
    through one source index, so the view holds one new pixel array."""
    if clean.attributes is None:
        raise DataError("sampling skew needs a dataset with group attributes")
    labels = clean.labels
    attrs = clean.attributes
    source = np.arange(len(labels))
    for y in np.unique(labels):
        donors = np.nonzero((labels == y) & (attrs == skew.aligned_group(y)))[0]
        cross = np.nonzero((labels == y) & (attrs != skew.aligned_group(y)))[0]
        if len(cross) and not len(donors):
            raise DataError(f"no aligned-group items for label {int(y)}")
        source[cross] = donors[np.arange(len(cross)) % len(donors)]
    new_attrs = attrs[source]
    assert (new_attrs == skew.aligned_group(labels)).all()
    return ImageDataset(
        pixels=clean.pixels[source],
        labels=labels.copy(),
        class_count=clean.class_count,
        attributes=new_attrs,
    )


# --------------------------------------------------------------------------
# paired dataset

@dataclass
class PairedDataset:
    """The clean and fully skewed views of one training set, index-aligned,
    and the skew mask. The frequency-mixed "skewed" view is never stored:
    `paired_batches` builds each batch of it from the two views."""

    clean: ImageDataset
    fully_skewed: ImageDataset
    skew_mask: np.ndarray  # (n,) bool

    def __post_init__(self):
        if not (
            len(self.clean) == len(self.fully_skewed) == len(self.skew_mask)
        ):
            raise UsageError("clean/fully_skewed/mask lengths differ")
        if not (self.clean.labels == self.fully_skewed.labels).all():
            raise UsageError("labels differ between views at some index")

    def __len__(self):
        return len(self.clean)


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
    """One epoch of aligned (clean, skewed) batches partitioning the index set.

    A batch's skewed images are the frequency-mixed view's rows: its fully
    skewed rows are gathered, then its unmasked rows are overwritten with
    the batch's clean images.
    """
    n = len(pd)
    if batch_size > n:
        raise UsageError(f"batch_size {batch_size} exceeds dataset size {n}")
    order = stream(epoch_seed, "epoch-shuffle").permutation(n)
    unmasked = ~pd.skew_mask
    for lo in range(0, n, batch_size):
        idx = order[lo : lo + batch_size]
        clean_x = pd.clean.pixels[idx]
        skew_x = pd.fully_skewed.pixels[idx]
        keep = np.flatnonzero(unmasked[idx])
        skew_x[keep] = clean_x[keep]
        yield PairedBatch(
            indices=idx,
            clean_x=clean_x,
            skew_x=skew_x,
            labels=pd.clean.labels[idx],
        )


# --------------------------------------------------------------------------
# SSD1 raw binary format: magic, u32 (n, channels, h, w, class_count),
# u8 has_attributes, u8 pixels (round(p*255)), u16 labels, u16 attributes.
# `sscope gen-data` writes it; tests/ssd1.py holds the reference reader.

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
