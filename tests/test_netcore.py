import struct
import tempfile
import tracemalloc
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import evaluate_logits
from sscope import netcore as nc
from sscope.errors import NumericError, UsageError
from sscope.expcli.presets import net_spec, task_spec
from sscope.rng import stream


def small_spec(class_count=4):
    return nc.NetSpec(
        [
            [nc.Conv2d(1, 4, 3, pad=1), nc.ReLU(), nc.MaxPool(2)],
            [nc.Conv2d(4, 6, 3, pad=1), nc.ReLU()],
            [nc.GlobalAvgPool(), nc.Dense(6, class_count)],
        ],
        class_count,
        (1, 8, 8),
    )


def net_bytes(net):
    return b"".join(net.block_bytes(i) for i in range(net.m))


def test_build_is_deterministic():
    spec = small_spec()
    a = nc.build_net(spec, seed=7)
    b = nc.build_net(spec, seed=7)
    assert net_bytes(a) == net_bytes(b)


def test_different_seeds_differ():
    spec = small_spec()
    a = nc.build_net(spec, seed=7)
    b = nc.build_net(spec, seed=8)
    assert net_bytes(a) != net_bytes(b)


def test_shape_mismatch_names_layer_pair():
    with pytest.raises(UsageError, match="b1.l0"):
        nc.NetSpec([[nc.Dense(4, 3)], [nc.Dense(5, 2)]], 2, (4,))


def test_first_block_must_start_parameterized():
    with pytest.raises(UsageError, match="first block"):
        nc.NetSpec([[nc.ReLU(), nc.Dense(4, 3)], [nc.Dense(3, 2)]], 2, (4,))


def test_last_block_must_end_dense_to_classes():
    with pytest.raises(UsageError, match="last block"):
        nc.NetSpec([[nc.Dense(4, 3)], [nc.Dense(3, 2), nc.ReLU()]], 2, (4,))


def test_constant_predictor_error_rate():
    # zero final layer with a bias favouring class 0 predicts class 0 always
    spec = nc.NetSpec([[nc.Dense(3, 4), nc.ReLU()], [nc.Dense(4, 5)]], 5, (3,))
    net = nc.build_net(spec, seed=1)
    net.params["b1.l0.w"][:] = 0.0
    net.params["b1.l0.b"][:] = 0.0
    net.params["b1.l0.b"][0] = 1.0
    x = stream(2, "const").random((10, 3)).astype(np.float32)
    labels = np.array([0, 0, 0, 1, 2, 3, 4, 1, 2, 3])
    report = nc.evaluate(net, x, labels)
    assert report.error_fraction == Fraction(7, 10)
    assert report.n_examples == 10


def test_argmax_tie_breaks_low():
    spec = nc.NetSpec([[nc.Dense(2, 3)], [nc.Dense(3, 3)]], 3, (2,))
    net = nc.build_net(spec, seed=1)
    for k in list(net.params):
        net.params[k][:] = 0.0  # all logits identical -> predict class 0
    x = np.ones((4, 2), dtype=np.float32)
    labels = np.array([0, 1, 2, 0])
    assert nc.evaluate(net, x, labels).mispredictions == 2


def test_evaluate_deterministic_and_empty_rejected():
    spec = small_spec()
    net = nc.build_net(spec, seed=3)
    x = stream(9, "eval").random((20, 1, 8, 8)).astype(np.float32)
    labels = stream(9, "labels").integers(0, 4, size=20)
    assert evaluate_logits(net, x, labels) == evaluate_logits(net, x, labels)
    with pytest.raises(UsageError):
        nc.evaluate(net, x[:0], labels[:0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("net_name", ["minicnn6", "mlp4"])
def test_evaluate_from_any_start_block(net_name, dtype):
    spec = net_spec(net_name, task_spec("bars16", None))
    net = nc.build_net(spec, seed=6, dtype=dtype)
    x = stream(10, "start").random((300, *spec.input_shape)).astype(np.float32)
    labels = stream(10, "start-labels").integers(0, spec.class_count, size=300)
    plain = evaluate_logits(net, x, labels)
    for s in range(1, spec.m):
        assert evaluate_logits(net, net.forward(x, 0, s), labels, start=s) == plain, s
    for s in (-1, spec.m):
        with pytest.raises(UsageError, match="start block"):
            nc.evaluate(net, x, labels, start=s)


def test_cross_precision_same_misprediction_set():
    spec = small_spec()
    net32 = nc.build_net(spec, seed=5, dtype=np.float32)
    net64 = nc.BlockNet(spec, net32.params, np.float64)
    x = stream(12, "prec").random((100, 1, 8, 8)).astype(np.float32)
    logits = net64.forward(x)
    top2 = np.sort(logits, axis=1)[:, -2:]
    assert (top2[:, 1] - top2[:, 0]).min() > 1e-3  # fixture has real margins
    assert (net32.forward(x).argmax(1) == logits.argmax(1)).all()


def test_full_copy_matches_evaluation():
    spec = small_spec()
    a = nc.build_net(spec, seed=5)
    b = nc.build_net(spec, seed=9)
    nc.sync_blocks(b, a, range(a.m))
    assert net_bytes(b) == net_bytes(a)
    x = stream(7, "copy").random((30, 1, 8, 8)).astype(np.float32)
    labels = stream(7, "copy-labels").integers(0, 4, size=30)
    assert evaluate_logits(a, x, labels) == evaluate_logits(b, x, labels)


def test_block_partition_is_sound():
    spec = small_spec()
    net = nc.build_net(spec, seed=2)
    seen = []
    for i in range(net.m):
        seen.extend(net.block_keys(i))
    assert sorted(seen) == sorted(net.params)
    assert len(seen) == len(set(seen))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nonfinite_activation_names_block():
    spec = small_spec()
    net = nc.build_net(spec, seed=4)
    net.params["b1.l0.w"][:] = np.inf
    x = np.ones((2, 1, 8, 8), dtype=np.float32)
    with pytest.raises(NumericError) as exc:
        net.forward(x)
    assert exc.value.block_index == 1


def test_checkpoint_roundtrip(tmp_path):
    spec = small_spec()
    net = nc.build_net(spec, seed=13)
    path = tmp_path / "net.ssc1"
    nc.save_checkpoint(net, path)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"SSC1"
    loaded = nc.load_checkpoint(path)
    assert loaded.spec == net.spec
    assert net_bytes(loaded) == net_bytes(net)


# --------------------------------------------------------------------------
# SSC1 properties

@st.composite
def small_specs(draw):
    """A small MLP (Dense+ReLU blocks) or CNN (conv stage, then GAP+Dense)."""
    classes = draw(st.integers(2, 4))
    if draw(st.booleans()):
        dims = [draw(st.integers(1, 5))] + draw(st.lists(st.integers(1, 6),
                                                          min_size=1, max_size=3))
        blocks = [[nc.Dense(a, b), nc.ReLU()] for a, b in zip(dims, dims[1:])]
        return nc.NetSpec(blocks + [[nc.Dense(dims[-1], classes)]], classes, (dims[0],))
    ch, mid = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    k, size = draw(st.sampled_from([1, 3])), draw(st.sampled_from([4, 6, 8]))
    return nc.NetSpec(
        [[nc.Conv2d(ch, mid, k, pad=k // 2), nc.ReLU(), nc.MaxPool(2)],
         [nc.GlobalAvgPool(), nc.Dense(mid, classes)]],
        classes, (ch, size, size))


def checkpoint_bytes(spec, seed):
    """A net of `spec` with random parameters, and its SSC1 file's bytes."""
    net = nc.build_net(spec, seed=seed)
    net.flat[:] = stream(seed, "ssc1").standard_normal(net.flat.size)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.ssc1"
        nc.save_checkpoint(net, path)
        return net, path.read_bytes()


def load_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.ssc1"
        path.write_bytes(data)
        return nc.load_checkpoint(path)


@settings(max_examples=40, deadline=None)
@given(spec=small_specs(), seed=st.integers(0, 2**32 - 1))
def test_checkpoint_roundtrip_is_byte_exact(spec, seed):
    net, data = checkpoint_bytes(spec, seed)
    loaded = load_bytes(data)
    assert loaded.spec == net.spec
    assert loaded.flat.tobytes() == net.flat.tobytes()
    for k, v in net.params.items():
        assert loaded.params[k].tobytes() == v.tobytes(), k


@settings(max_examples=40, deadline=None)
@given(spec=small_specs(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_truncated_or_extended_checkpoint_is_usage_error(spec, seed, data):
    _, raw = checkpoint_bytes(spec, seed)
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    with pytest.raises(UsageError):
        load_bytes(raw[:cut])
    extra = data.draw(st.binary(min_size=1, max_size=8), label="extra")
    with pytest.raises(UsageError):
        load_bytes(raw + extra)


_MLP = nc.NetSpec([[nc.Dense(3, 4), nc.ReLU()], [nc.Dense(4, 2)]], 2, (3,))
_CNN = nc.NetSpec([[nc.Conv2d(1, 4, 3, pad=1), nc.ReLU(), nc.MaxPool(2)],
                   [nc.GlobalAvgPool(), nc.Dense(4, 2)]], 2, (1, 4, 4))


@pytest.mark.parametrize("old, new, spec", [
    ('"class_count":2', '"class_count":"2"', _MLP),
    ("4", "-4", _MLP),
    ('"relu"', '"gelu"', _MLP),
    ('"blocks":', '"blockz":', _MLP),
    ('["relu"]', '["relu",99]', _MLP),
    ('["maxpool",2]', '["maxpool",2.0]', _CNN),
    ('["conv2d",1,4,3,1,1]', '["conv2d",1,4,3,true,1]', _CNN),
    ('"class_count":2', '"class_count":2,"extra":0', _MLP),
    ('"class_count":2', '"class_count": 2', _MLP),
], ids=["string-class-count", "negative-width", "unknown-layer", "missing-key",
        "extra-layer-argument", "float-argument", "bool-argument",
        "extra-top-level-key", "space-after-separator"])
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_malformed_architecture_text_is_usage_error(old, new, spec):
    _, raw = checkpoint_bytes(spec, seed=3)
    (length,) = struct.unpack_from("<I", raw, 4)
    text = raw[8 : 8 + length].decode()
    assert old in text
    bad = text.replace(old, new).encode()
    with pytest.raises(UsageError, match="malformed architecture"):
        load_bytes(raw[:4] + struct.pack("<I", len(bad)) + bad + raw[8 + length :])


@pytest.mark.parametrize("net, text_sha, file_sha", [
    ("mlp4", "63124de0ff919593", "d6ef5431ea3cc601"),
    ("minicnn6", "da7932cda3ac0ac9", "260b73b4a21ae7a3"),
])
def test_ssc1_bytes_are_golden(tmp_path, net, text_sha, file_sha):
    """Checkpoints written earlier must keep loading, so the canonical text
    and the file bytes of a fresh net stay as they are."""
    spec = net_spec(net, task_spec("bars16", None))
    path = tmp_path / "net.ssc1"
    nc.save_checkpoint(nc.build_net(spec, seed=0), path)
    assert sha256(spec.canonical_text().encode()).hexdigest()[:16] == text_sha
    assert sha256(path.read_bytes()).hexdigest()[:16] == file_sha


@settings(max_examples=100, deadline=None)
@given(spec=small_specs(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_any_checkpoint_bit_flip_loads_or_is_usage_error(spec, seed, data):
    _, raw = checkpoint_bytes(spec, seed)
    (length,) = struct.unpack_from("<I", raw, 4)
    # half the flips land in the header and architecture text
    at = data.draw(st.integers(0, 8 + length - 1) | st.integers(0, len(raw) - 1),
                   label="byte")
    bit = data.draw(st.integers(0, 7), label="bit")
    try:
        net = load_bytes(raw[:at] + bytes([raw[at] ^ 1 << bit]) + raw[at + 1:])
    except UsageError:
        return
    assert isinstance(net, nc.BlockNet)


@pytest.mark.parametrize("old, new", [
    ('["conv2d",1,2,3,1,1]', '["conv2d",1,2,3,0,1]'),
    ('["maxpool",2]', '["maxpool",0]'),
], ids=["zero-stride", "zero-pool"])
def test_zero_conv_stride_or_pool_is_usage_error(old, new):
    # one bit flip away from the saved text; the shape arithmetic divides by it
    spec = nc.NetSpec([[nc.Conv2d(1, 2, 3, pad=1), nc.ReLU(), nc.MaxPool(2)],
                       [nc.GlobalAvgPool(), nc.Dense(2, 3)]], 3, (1, 4, 4))
    _, raw = checkpoint_bytes(spec, seed=3)
    assert old.encode() in raw
    with pytest.raises(UsageError, match=">= 1"):
        load_bytes(raw.replace(old.encode(), new.encode()))


def test_every_truncation_of_a_checkpoint_is_usage_error():
    _, raw = checkpoint_bytes(small_spec(), seed=3)
    for cut in range(len(raw)):
        with pytest.raises(UsageError):
            load_bytes(raw[:cut])


def test_checkpoint_size_is_checked_before_allocating(tmp_path):
    """A header that declares 12 million parameters and holds none is
    refused without allocating them."""
    spec = nc.NetSpec([[nc.Dense(3, 2_000_000), nc.ReLU()], [nc.Dense(2_000_000, 2)]],
                      2, (3,))
    text = spec.canonical_text().encode()
    path = tmp_path / "huge.ssc1"
    path.write_bytes(b"SSC1" + struct.pack("<I", len(text)) + text)
    assert path.stat().st_size == 107
    tracemalloc.start()
    try:
        with pytest.raises(UsageError,
                           match="truncated checkpoint: 0 of 48000008 parameter bytes"):
            nc.load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
