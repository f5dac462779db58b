"""The reference reader of the SSD1 dataset format that `sscope gen-data`
writes (see `sscope.skewlab.save_ssd1`): magic "SSD1", u32 (n, channels,
h, w, class_count), u8 has_attributes, u8 pixels (round(p*255)), u16
labels, u16 attributes when the flag is 1, all little-endian."""

import struct

import numpy as np

from sscope.errors import UsageError
from sscope.skewlab import ImageDataset

MAGIC = b"SSD1"


def load_ssd1(path) -> ImageDataset:
    """Read an SSD1 file; a truncated or overlong file, a has-attributes
    flag other than 0 or 1, a class count below 2 or a label at or above it
    is a UsageError. Attributes are group ids with no bound in the format."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise UsageError(f"{path}: not an SSD1 dataset")
    pos = len(MAGIC)

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
