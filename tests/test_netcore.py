import numpy as np
import pytest

from sscope import netcore as nc
from sscope.errors import NumericError, UsageError
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
    ).validate()


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
    spec = nc.NetSpec(
        [[nc.Dense(4, 3)], [nc.Dense(5, 2)]], 2, (4,)
    )
    with pytest.raises(UsageError, match="b1.l0"):
        spec.validate()


def test_first_block_must_start_parameterized():
    spec = nc.NetSpec([[nc.ReLU(), nc.Dense(4, 3)], [nc.Dense(3, 2)]], 2, (4,))
    with pytest.raises(UsageError, match="first block"):
        spec.validate()


def test_last_block_must_end_dense_to_classes():
    spec = nc.NetSpec([[nc.Dense(4, 3)], [nc.Dense(3, 2), nc.ReLU()]], 2, (4,))
    with pytest.raises(UsageError, match="last block"):
        spec.validate()


def test_constant_predictor_error_rate():
    # zero final layer with a bias favouring class 0 predicts class 0 always
    spec = nc.NetSpec([[nc.Dense(3, 4), nc.ReLU()], [nc.Dense(4, 5)]], 5, (3,))
    net = nc.build_net(spec.validate(), seed=1)
    net.params["b1.l0.w"][:] = 0.0
    net.params["b1.l0.b"][:] = 0.0
    net.params["b1.l0.b"][0] = 1.0
    x = stream(2, "const").random((10, 3)).astype(np.float32)
    labels = np.array([0, 0, 0, 1, 2, 3, 4, 1, 2, 3])
    report = nc.evaluate(net, x, labels)
    assert report.error_rate == pytest.approx(0.7)
    assert report.n_examples == 10


def test_argmax_tie_breaks_low():
    spec = nc.NetSpec([[nc.Dense(2, 3)], [nc.Dense(3, 3)]], 3, (2,))
    net = nc.build_net(spec.validate(), seed=1)
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
    r1 = nc.evaluate(net, x, labels)
    r2 = nc.evaluate(net, x, labels)
    assert (r1.mispredictions, r1.loss_mean) == (r2.mispredictions, r2.loss_mean)
    with pytest.raises(UsageError):
        nc.evaluate(net, x[:0], labels[:0])


def test_cross_precision_same_misprediction_set():
    spec = small_spec()
    net32 = nc.build_net(spec, seed=5, dtype=np.float32)
    net64 = net32.astype(np.float64)
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
    ra = nc.evaluate(a, x, labels)
    rb = nc.evaluate(b, x, labels)
    assert (ra.mispredictions, ra.loss_mean) == (rb.mispredictions, rb.loss_mean)


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
