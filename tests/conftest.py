import os

# One BLAS thread per process, as CI runs the suite: the acceptance grid's
# two worker processes then share two cores, where two OpenBLAS threads
# each oversubscribed them and doubled the grid's time. numpy reads this
# when it loads, so it is set before the first import of numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from sscope import netcore as nc
from sscope import skewlab as sl
from sscope.optim import ADAMW, OptimizerConfig, ScheduleConfig
from sscope.counterfact import Retraining, TrainPlan


def mlp4_spec(class_count=8, size=16, channels=1):
    d = channels * size * size
    return nc.NetSpec(
        [
            [nc.Flatten(), nc.Dense(d, 32), nc.ReLU()],
            [nc.Dense(32, 32), nc.ReLU()],
            [nc.Dense(32, 32), nc.ReLU()],
            [nc.Dense(32, class_count)],
        ],
        class_count,
        (channels, size, size),
    )


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


def make_paired(task, n, seed, freq=sl.COMMON):
    clean = sl.gen_clean_synthetic(task, n, seed=seed)
    fully = sl.make_fully_skewed(clean, task.watermark)
    return sl.apply_frequency(clean, fully, freq, seed=seed + 1)


def quick_plan(steps=60, batch_size=16, master_seed=0, peak_lr=3e-3):
    return TrainPlan(
        batch_size=batch_size,
        master_seed=master_seed,
        optimizer=OptimizerConfig(ADAMW, peak_lr=peak_lr, weight_decay=0.01),
        schedule=ScheduleConfig(
            total_steps=steps, warmup_share=0.05, min_lr=peak_lr / 100
        ),
    )


def freeze_phases(m, keep_block, t1, t2):
    """The freezing protocol's phase schedule with phase lengths t1 and t2
    of the engine's choosing: the last block, then every block, then the
    kept block."""
    return Retraining(phases=((0, (m - 1,)), (t1, tuple(range(m))),
                              (t1 + t2, (keep_block,))))


@pytest.fixture
def small_paired():
    return make_paired(watermark_task(), n=128, seed=21)


def plan_layers(net, lo=0, hi=None):
    """(block index, layer index, layer, its live parameters by name) for
    every layer of blocks lo..hi-1, read through the net's plan of
    parameter names."""
    for bi in range(lo, net.m if hi is None else hi):
        for li, (layer, w, b, _) in enumerate(net._plan[bi]):
            yield bi, li, layer, ({"w": net.params[w], "b": net.params[b]} if w else {})


def net_bytes(net):
    return b"".join(net.block_bytes(i) for i in range(net.m))


def evaluate_logits(net, x, labels, **kw):
    """`nc.evaluate`'s report, and the bytes of each logits chunk it
    computed, in order."""
    chunks = []
    forward = net.forward

    def logged(*args, **kw):
        logits = forward(*args, **kw)
        chunks.append(logits.tobytes())
        return logits

    net.forward = logged
    try:
        return nc.evaluate(net, x, labels, **kw), chunks
    finally:
        net.forward = forward
