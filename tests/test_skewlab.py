import itertools
import tempfile
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sscope import skewlab as sl
from sscope.errors import DataError, UsageError
from sscope.expcli.presets import TASK_PRESETS, task_spec
from sscope.rng import stream
from ssd1 import load_ssd1


def watermark_task(**kw):
    defaults = dict(
        class_count=8,
        channels=1,
        size=16,
        kind="bars",
        watermark=sl.WatermarkSkewSpec(patch_size=10, blend_strength=sl.STRONG),
    )
    defaults.update(kw)
    return sl.SyntheticTaskSpec(**defaults)


def patch_classifier_accuracy(ds, skew):
    """Nearest-glyph classifier restricted to the watermark window."""
    p = skew.patch_size
    glyphs = skew.glyphs(ds.class_count)
    window = ds.pixels[:, :, :p, :p].mean(axis=1)  # collapse channels
    dists = ((window[:, None] - glyphs[None]) ** 2).sum(axis=(2, 3))
    return float((dists.argmin(axis=1) == ds.labels).mean())


def same_images(a, b):
    """Whether two datasets hold the same pixel, label and attribute bytes."""
    if (a.attributes is None) != (b.attributes is None):
        return False
    return (a.pixels.tobytes() == b.pixels.tobytes()
            and a.labels.tobytes() == b.labels.tobytes()
            and (a.attributes is None
                 or a.attributes.tobytes() == b.attributes.tobytes()))


def test_clean_generation_deterministic():
    for task in (watermark_task(), sl.SyntheticTaskSpec(**TASK_PRESETS["tint2"])):
        a = sl.gen_clean_synthetic(task, 64, seed=5)
        b = sl.gen_clean_synthetic(task, 64, seed=5)
        assert same_images(a, b)
        c = sl.gen_clean_synthetic(task, 64, seed=6)
        assert not same_images(a, c)


def test_clean_class_counts_within_binomial_bounds():
    ds = sl.gen_clean_synthetic(watermark_task(class_count=10), 1024, seed=9)
    counts = np.bincount(ds.labels, minlength=10)
    # Binomial(1024, 0.1): mean 102.4, 5 sigma ~ 48
    assert counts.min() >= 60 and counts.max() <= 145


def glyph_ids(task, n, seed):
    """The glyph class `gen_clean_synthetic` blends into each clean image."""
    return stream(seed, "match").integers(0, task.class_count, size=n)


def test_clean_glyph_label_uncorrelated():
    task = watermark_task(class_count=4)
    ds = sl.gen_clean_synthetic(task, 10_000, seed=2)
    glyphs = task.watermark.glyphs(task.class_count)
    want = sl._blend_batch(ds.base_pixels, glyphs[glyph_ids(task, 10_000, 2)],
                           task.watermark.blend_strength)
    assert ds.pixels.tobytes() == want.tobytes()
    corr = np.corrcoef(glyph_ids(task, 10_000, 2), ds.labels)[0, 1]
    assert abs(corr) < 0.05


def test_zero_n_rejected():
    with pytest.raises(UsageError):
        sl.gen_clean_synthetic(watermark_task(), 0, seed=1)


# SHA-256 prefixes of the (pixels, labels, attributes) bytes of each task
# preset's clean and fully skewed views at seed 0 and n = 64, under the
# preset's skew: the default watermark, or for tint2 the sampling skew
GOLDEN_VIEWS = {
    "bars16": (("e42586cdc1ec24e9", "e34b7e58e45c4a4a", None),
               ("d2b0e945a1248e89", "e34b7e58e45c4a4a", None)),
    "bars32": (("366ec190f5967f1b", "e34b7e58e45c4a4a", None),
               ("874dbb2125fa7580", "e34b7e58e45c4a4a", None)),
    "blobs16": (("142fdc685116346e", "e34b7e58e45c4a4a", None),
                ("71131f831f522a8c", "e34b7e58e45c4a4a", None)),
    "tint2": (("99083fe9d1a98c1a", "ac9f90c9b0afcf57", "8e39438838b79cc4"),
              ("63daf9f9c06546fd", "ac9f90c9b0afcf57", "ac9f90c9b0afcf57")),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VIEWS))
def test_preset_views_are_golden(name):
    """Every rendering constant, the glyph family and both skews keep each
    byte of the data a trial trains and tests on."""
    if TASK_PRESETS[name].get("attribute_groups"):
        task, skew = task_spec(name, None), sl.SamplingSkewSpec(num_groups=2)
    else:
        skew = sl.WatermarkSkewSpec()
        task = task_spec(name, skew)
    clean = sl.gen_clean_synthetic(task, 64, seed=0)
    fully = sl.make_fully_skewed(clean, skew)

    def digest(a):
        return None if a is None else sha256(a.tobytes()).hexdigest()[:16]

    got = tuple((digest(v.pixels), digest(v.labels), digest(v.attributes))
                for v in (clean, fully))
    assert got == GOLDEN_VIEWS[name]


def render_base_loop(task, labels, rng, w=1):
    """`_render_base` drawing one image at a time, with background noise up
    to 0.9, feature contrast 0.45 and bars w pixels wide: the byte reference
    for its batched bar drawing."""
    n = len(labels)
    s = task.size
    img = (rng.random((n, task.channels, s, s)) * 0.9).astype(np.float32)
    jitter = rng.integers(-1, 2, size=n)
    amp = np.float32(0.45)
    if task.kind == "bars":
        verts, horiz = sl._bar_positions(task)
        n_vert = len(verts)
        for i in range(n):
            k = labels[i]
            if k < n_vert:
                c = int(np.clip(verts[k] + jitter[i], 0, s - w))
                img[i, :, :, c : c + w] += amp
            else:
                r = int(np.clip(horiz[k - n_vert] + jitter[i], 0, s - w))
                img[i, :, r : r + w, :] += amp
    else:
        centers = sl._blob_centers(task)
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


# name -> (task, bar width): the tasks render one-pixel bars, and the wider
# ones check the batched band drawing by patching the width constant
RENDER_TASKS = {
    **{name: (sl.SyntheticTaskSpec(**kw), 1) for name, kw in TASK_PRESETS.items()},
    "bars16-width2": (sl.SyntheticTaskSpec(), 2),
    "bars32-width3-rgb": (sl.SyntheticTaskSpec(size=32, channels=3), 3),
    "bars16-one-class": (sl.SyntheticTaskSpec(class_count=1), 1),  # no horizontal bar
    "bars16-three-classes": (sl.SyntheticTaskSpec(class_count=3, channels=2), 1),
}


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", sorted(RENDER_TASKS))
def test_render_base_matches_per_image_loop(name, seed, monkeypatch):
    task, width = RENDER_TASKS[name]
    monkeypatch.setattr(sl, "_BAR_WIDTH", width)
    labels = stream(seed, "labels").integers(0, task.class_count, size=300)
    got = sl._render_base(task, labels, stream(seed, "render"))
    want = render_base_loop(task, labels, stream(seed, "render"), width)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("groups, watermark", [(2, None), (3, None),
                                               (2, sl.WatermarkSkewSpec())],
                         ids=["2-groups", "3-groups", "2-groups-watermark"])
def test_attribute_tint_matches_out_of_place_formula(groups, watermark, seed):
    """The tint is added in place; the bytes are those of the out-of-place
    sum, clipped, over a base drawn in one go."""
    task = sl.SyntheticTaskSpec(**dict(TASK_PRESETS["tint2"], attribute_groups=groups,
                                       watermark=watermark))
    got = sl.gen_clean_synthetic(task, 300, seed=seed)
    labels = stream(seed, "labels").integers(0, task.class_count, size=300)
    base = render_base_loop(task, labels, stream(seed, "render"))
    attributes = stream(seed, "attrs").integers(0, groups, size=300)
    tint = (attributes / max(groups - 1, 1)) * 0.3
    want = np.clip(base + tint[:, None, None, None].astype(np.float32), 0, 1)
    assert got.base_pixels.dtype == want.dtype
    assert got.base_pixels.tobytes() == want.tobytes()
    if watermark is None:
        assert got.pixels is got.base_pixels


def test_blend_identity_and_full_replacement():
    pixels = np.full((2, 1, 16, 16), 0.2, dtype=np.float32)
    glyphs = np.ones((2, 10, 10), dtype=np.float32)
    out0 = sl._blend_batch(pixels, glyphs, 0.0)
    assert out0.tobytes() == pixels.tobytes()
    out1 = sl._blend_batch(pixels, glyphs, 1.0)
    assert (out1[:, :, :10, :10] == 1.0).all()
    assert (out1[:, :, 10:, :] == np.float32(0.2)).all()
    assert (out1[:, :, :10, 10:] == np.float32(0.2)).all()


def test_blend_formula_value():
    pixels = np.full((1, 1, 16, 16), 0.2, dtype=np.float32)
    out = sl._blend_batch(pixels, np.ones((1, 10, 10), dtype=np.float32), 0.75)
    assert out.dtype == np.float32
    assert out[0, 0, 0, 0] == pytest.approx(0.8, abs=1e-7)
    # the fully skewed view blends each label's glyph over the pre-blend base
    task = watermark_task()
    clean = sl.gen_clean_synthetic(task, 64, seed=3)
    skewed = sl.make_fully_skewed(clean, task.watermark)
    glyphs = task.watermark.glyphs(task.class_count)[clean.labels][:, None]
    want = 0.25 * clean.base_pixels[:, :, :10, :10] + 0.75 * glyphs
    np.testing.assert_allclose(skewed.pixels[:, :, :10, :10], want, atol=1e-6)


def test_blend_oversized_patch_rejected():
    clean = sl.gen_clean_synthetic(watermark_task(), 4, seed=1)
    with pytest.raises(UsageError, match="exceeds image dims"):
        sl.make_fully_skewed(clean, sl.WatermarkSkewSpec(patch_size=17))
    with pytest.raises(UsageError, match="exceeds image dims"):
        watermark_task(watermark=sl.WatermarkSkewSpec(patch_size=17))


@pytest.mark.parametrize("size", [16, 32])
def test_blobs_need_room_outside_the_watermark(size):
    # the widest window that leaves the blob strips is size - 5
    fits = sl.WatermarkSkewSpec(patch_size=size - 5)
    sl.gen_clean_synthetic(watermark_task(kind="blobs", size=size, watermark=fits),
                           8, seed=1)
    for p in range(size - 4, size + 1):
        with pytest.raises(UsageError, match=f"patch_size {p} leaves no room"):
            watermark_task(kind="blobs", size=size,
                           watermark=sl.WatermarkSkewSpec(patch_size=p))


def test_fully_skewed_watermark_is_perfectly_predictive():
    task = watermark_task()
    clean = sl.gen_clean_synthetic(task, 256, seed=3)
    skewed = sl.make_fully_skewed(clean, task.watermark)
    assert patch_classifier_accuracy(skewed, task.watermark) == 1.0
    # on the clean set the same oracle is at chance level (+-5 points)
    acc = patch_classifier_accuracy(clean, task.watermark)
    assert abs(acc - 1 / task.class_count) < 0.05


def test_matching_glyph_means_unchanged_image():
    task = watermark_task()
    clean = sl.gen_clean_synthetic(task, 256, seed=3)
    skewed = sl.make_fully_skewed(clean, task.watermark)
    match = glyph_ids(task, 256, 3) == clean.labels
    assert match.any()
    np.testing.assert_array_equal(
        skewed.pixels[match], clean.pixels[match]
    )
    assert (skewed.labels == clean.labels).all()


def test_watermark_locality():
    task = watermark_task()
    clean = sl.gen_clean_synthetic(task, 128, seed=4)
    skewed = sl.make_fully_skewed(clean, task.watermark)
    p = task.watermark.patch_size
    np.testing.assert_array_equal(
        skewed.pixels[:, :, p:, :], clean.pixels[:, :, p:, :]
    )
    np.testing.assert_array_equal(
        skewed.pixels[:, :, :p, p:], clean.pixels[:, :, :p, p:]
    )


def test_sampling_skew_aligns_groups():
    task = sl.SyntheticTaskSpec(class_count=2, kind="bars", attribute_groups=2)
    clean = sl.gen_clean_synthetic(task, 400, seed=8)
    skewed = sl.make_fully_skewed(clean, sl.SamplingSkewSpec(num_groups=2))
    corr = np.corrcoef(skewed.attributes, skewed.labels)[0, 1]
    assert corr == pytest.approx(1.0)
    assert (skewed.labels == clean.labels).all()


def fully_skewed_sampling_loop(clean, skew):
    """`_fully_skewed_sampling` replacing one cross-group item at a time:
    the byte reference for its per-label fancy-index copy."""
    labels, attrs = clean.labels, clean.attributes
    pixels, new_attrs = clean.pixels.copy(), attrs.copy()
    for y in np.unique(labels):
        donors = np.nonzero((labels == y) & (attrs == skew.aligned_group(y)))[0]
        cross = np.nonzero((labels == y) & (attrs != skew.aligned_group(y)))[0]
        for j, i in enumerate(cross):
            d = donors[j % len(donors)]
            pixels[i] = clean.pixels[d]
            new_attrs[i] = attrs[d]
    return pixels, new_attrs


@pytest.mark.parametrize("seed", [0, 5, 13])
@pytest.mark.parametrize("n", [3, 64, 501])
@pytest.mark.parametrize("label_0_aligned", [False, True],
                         ids=["mixed", "label-0-no-cross"])
def test_sampling_skew_matches_per_item_loop(seed, n, label_0_aligned):
    task = sl.SyntheticTaskSpec(**TASK_PRESETS["tint2"])
    clean = sl.gen_clean_synthetic(task, n, seed=seed)
    clean.labels[:2] = [0, 1]  # every label has an aligned donor
    clean.attributes[:2] = [0, 1]
    if label_0_aligned:
        clean.attributes[clean.labels == 0] = 0
    skew = sl.SamplingSkewSpec(num_groups=2)
    got = sl.make_fully_skewed(clean, skew)
    pixels, attrs = fully_skewed_sampling_loop(clean, skew)
    assert got.pixels.tobytes() == pixels.tobytes()
    assert got.attributes.tobytes() == attrs.tobytes()
    assert got.labels.tobytes() == clean.labels.tobytes()


def test_sampling_skew_empty_pool_is_data_error():
    task = sl.SyntheticTaskSpec(class_count=2, kind="bars", attribute_groups=2)
    clean = sl.gen_clean_synthetic(task, 64, seed=8)
    # force label 0 to have no aligned (group 0) members
    mask = clean.labels == 0
    clean.attributes[mask] = 1
    with pytest.raises(DataError):
        sl.make_fully_skewed(clean, sl.SamplingSkewSpec(num_groups=2))


SKEW_KINDS = ["watermark", "sampling"]
# at 1/2 a batch mixes masked and unmasked rows; a COMMON mask of 100 or 128
# items happens to have no unmasked row at the seeds used here
MIXED_FREQS = {"common": sl.COMMON, "half": sl.SkewFrequency(1, 2)}


def paired(kind, n, data_seed, freq, mask_seed):
    """A PairedDataset of a watermark task, or of the tint2 task under the
    sampling skew."""
    if kind == "watermark":
        task = watermark_task()
        skew = task.watermark
    else:
        task = sl.SyntheticTaskSpec(**TASK_PRESETS["tint2"])
        skew = sl.SamplingSkewSpec(num_groups=2)
    clean = sl.gen_clean_synthetic(task, n, seed=data_seed)
    fully = sl.make_fully_skewed(clean, skew)
    return sl.apply_frequency(clean, fully, freq, seed=mask_seed)


def mixed_pixels(pd):
    """The frequency-mixed view, materialised: fully skewed where masked,
    clean elsewhere. The reference for every batch's skew_x."""
    m = pd.skew_mask[:, None, None, None]
    return np.where(m, pd.fully_skewed.pixels, pd.clean.pixels)


@pytest.mark.parametrize("num,den,same_as", [(0, 1, "clean"), (1, 1, "fully")])
def test_frequency_extremes(num, den, same_as):
    for kind in SKEW_KINDS:
        pd = paired(kind, 64, data_seed=3, freq=sl.SkewFrequency(num, den), mask_seed=1)
        target = pd.clean if same_as == "clean" else pd.fully_skewed
        mixed = mixed_pixels(pd)
        assert mixed.tobytes() == target.pixels.tobytes(), kind
        for batch in sl.paired_batches(pd, 16, epoch_seed=4):
            got = batch.skew_x.tobytes()
            assert got == mixed[batch.indices].tobytes(), kind
            assert got == target.pixels[batch.indices].tobytes(), kind


def test_frequency_mask_popcount():
    task = watermark_task()
    clean = sl.gen_clean_synthetic(task, 16_000, seed=3)
    fully = sl.make_fully_skewed(clean, task.watermark)
    pd = sl.apply_frequency(clean, fully, sl.RARE, seed=10)
    pop = int(pd.skew_mask.sum())
    assert 14_850 <= pop <= 15_150  # Binomial(16000, 15/16), 5 sigma


def test_label_preservation_invariant():
    for kind, freq in itertools.product(SKEW_KINDS, MIXED_FREQS.values()):
        pd = paired(kind, 128, data_seed=6, freq=freq, mask_seed=2)
        assert (pd.clean.labels == pd.fully_skewed.labels).all()
        mixed = mixed_pixels(pd)
        # unmasked indices are pixel-identical between views
        un = ~pd.skew_mask
        np.testing.assert_array_equal(mixed[un], pd.clean.pixels[un])
        for batch in sl.paired_batches(pd, 32, epoch_seed=9):
            np.testing.assert_array_equal(batch.labels, pd.clean.labels[batch.indices])
            np.testing.assert_array_equal(batch.skew_x, mixed[batch.indices])
            keep = un[batch.indices]
            np.testing.assert_array_equal(batch.skew_x[keep], batch.clean_x[keep])


def test_paired_batches_alignment_and_partition():
    for kind, freq in itertools.product(SKEW_KINDS, MIXED_FREQS.values()):
        pd = paired(kind, 100, data_seed=6, freq=freq, mask_seed=2)
        mixed = mixed_pixels(pd)
        seen = []
        for batch in sl.paired_batches(pd, 32, epoch_seed=77):
            seen.extend(batch.indices.tolist())
            np.testing.assert_array_equal(batch.clean_x, pd.clean.pixels[batch.indices])
            np.testing.assert_array_equal(batch.skew_x, mixed[batch.indices])
        assert sorted(seen) == list(range(100))


def test_paired_batches_deterministic_in_epoch_seed():
    task = watermark_task()
    clean = sl.gen_clean_synthetic(task, 64, seed=6)
    fully = sl.make_fully_skewed(clean, task.watermark)
    pd = sl.apply_frequency(clean, fully, sl.COMMON, seed=2)
    a = [b.indices.tolist() for b in sl.paired_batches(pd, 16, epoch_seed=5)]
    b = [b.indices.tolist() for b in sl.paired_batches(pd, 16, epoch_seed=5)]
    c = [b.indices.tolist() for b in sl.paired_batches(pd, 16, epoch_seed=6)]
    assert a == b
    assert a != c


def test_batch_size_larger_than_dataset_rejected():
    task = watermark_task()
    clean = sl.gen_clean_synthetic(task, 16, seed=6)
    fully = sl.make_fully_skewed(clean, task.watermark)
    pd = sl.apply_frequency(clean, fully, sl.COMMON, seed=2)
    with pytest.raises(UsageError):
        next(sl.paired_batches(pd, 17, epoch_seed=5))


def test_ssd1_rejects_truncation_trailing_bytes_and_bad_flag(tmp_path):
    ds = sl.ImageDataset(
        np.linspace(0, 1, 8, dtype=np.float32).reshape(2, 1, 2, 2),
        np.array([1, 3]), 4, np.array([0, 1]),
    )
    path = tmp_path / "tiny.ssd1"
    sl.save_ssd1(ds, path)
    data = path.read_bytes()
    assert len(data) == 4 + 20 + 1 + 8 + 2 * 2 + 2 * 2
    bad = tmp_path / "bad.ssd1"
    for cut in range(len(data)):
        bad.write_bytes(data[:cut])
        with pytest.raises(UsageError):
            load_ssd1(bad)
    bad.write_bytes(data + b"\0")
    with pytest.raises(UsageError, match="trailing"):
        load_ssd1(bad)
    bad.write_bytes(data[:24] + b"\2" + data[25:])
    with pytest.raises(UsageError, match="flag"):
        load_ssd1(bad)
    bad.write_bytes(data[:34] + bytes([data[34] | 0x80]) + data[35:])  # label 32769
    with pytest.raises(UsageError, match="label 32769"):
        load_ssd1(bad)
    for count in (0, 1):
        bad.write_bytes(data[:20] + bytes([count]) + data[21:])
        with pytest.raises(UsageError, match="class count"):
            load_ssd1(bad)
    loaded = load_ssd1(path)
    assert (loaded.labels == ds.labels).all()
    assert (loaded.attributes == ds.attributes).all()


def test_ssd1_roundtrip(tmp_path):
    task = sl.SyntheticTaskSpec(class_count=4, attribute_groups=2)
    ds = sl.gen_clean_synthetic(task, 32, seed=11)
    path = tmp_path / "data.ssd1"
    sl.save_ssd1(ds, path)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"SSD1"
    loaded = load_ssd1(path)
    assert loaded.class_count == 4
    assert (loaded.labels == ds.labels).all()
    assert (loaded.attributes == ds.attributes).all()
    # u8 quantization: within half a step of the float pixels
    assert np.abs(loaded.pixels - ds.pixels).max() <= 0.5 / 255 + 1e-6


@st.composite
def small_datasets(draw):
    """Datasets whose pixels are exact u8 levels, so SSD1 stores them exactly."""
    n, c, h, w = (draw(st.integers(1, hi)) for hi in (4, 2, 3, 3))
    classes = draw(st.integers(2, 300))
    levels = draw(st.lists(st.integers(0, 255), min_size=n * c * h * w,
                           max_size=n * c * h * w))
    labels = draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n))
    attrs = draw(st.none() | st.lists(st.integers(0, 2**16 - 1), min_size=n,
                                      max_size=n))
    return sl.ImageDataset(
        (np.array(levels, dtype=np.float32) / 255).reshape(n, c, h, w),
        np.array(labels, dtype=np.int64), classes,
        None if attrs is None else np.array(attrs, dtype=np.int64),
    )


def ssd1_bytes(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.ssd1"
        sl.save_ssd1(ds, path)
        return path.read_bytes()


def load_each(blobs):
    """load_ssd1 on each byte string: the dataset, or the UsageError raised."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.ssd1"
        for blob in blobs:
            path.write_bytes(blob)
            try:
                yield load_ssd1(path)
            except UsageError as exc:
                yield exc


@settings(max_examples=40, deadline=None)
@given(ds=small_datasets())
def test_ssd1_roundtrip_of_any_small_dataset(ds):
    (loaded,) = load_each([ssd1_bytes(ds)])
    assert loaded.pixels.tobytes() == ds.pixels.tobytes()
    assert loaded.labels.tolist() == ds.labels.tolist()
    assert loaded.class_count == ds.class_count
    if ds.attributes is None:
        assert loaded.attributes is None
    else:
        assert loaded.attributes.tolist() == ds.attributes.tolist()


@settings(max_examples=20, deadline=None)
@given(ds=small_datasets())
def test_every_ssd1_truncation_is_usage_error(ds):
    raw = ssd1_bytes(ds)
    for got in load_each(raw[:cut] for cut in range(len(raw))):
        assert isinstance(got, UsageError)


@settings(max_examples=10, deadline=None)
@given(ds=small_datasets())
def test_every_ssd1_bit_flip_loads_in_range_or_is_usage_error(ds):
    raw = ssd1_bytes(ds)
    flips = (raw[:i] + bytes([raw[i] ^ (1 << bit)]) + raw[i + 1:]
             for i in range(len(raw)) for bit in range(8))
    for got in load_each(flips):  # any other exception fails the test
        if not isinstance(got, UsageError):
            assert got.class_count >= 2
            assert ((0 <= got.labels) & (got.labels < got.class_count)).all()
            assert got.pixels.shape[0] == len(got.labels)
