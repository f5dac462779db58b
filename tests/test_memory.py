"""Memory regression tests.

Each bound is worked out from the shapes of the arrays a phase has to hold,
and checked against the tracemalloc peak, which numpy's allocations report
to and which is deterministic for one numpy version. Each phase runs once on
a small input first, so imports and cached gather indices are not counted.
"""

import dataclasses
import tracemalloc

import numpy as np

from sscope import counterfact as cf
from sscope import netcore as nc
from sscope import skewlab as sl
from sscope.expcli import runner
from sscope.expcli.config import ExperimentConfig
from sscope.expcli.presets import net_spec, task_spec

F32 = np.dtype(np.float32).itemsize


def traced_peak(fn):
    """Bytes allocated at the peak of fn(), above what was live before it."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def build_and_one_epoch(config):
    pd, _, _ = runner.build_trial_data(config, seed=0)
    for _ in sl.paired_batches(pd, config.batch_size, epoch_seed=1):
        pass


def test_sampling_trial_data_holds_two_training_arrays():
    """A trial's training set is its clean and its fully skewed images; each
    batch composes its skewed images from them, so no third copy is made."""
    config = ExperimentConfig.from_dict(dict(
        task="tint2", skew={"kind": "sampling", "frequency": "rare"}, net="mlp4",
        family="single", train_n=4096, test_n=1024, batch_size=32, seeds=[0]))
    build_and_one_epoch(dataclasses.replace(config, train_n=64, test_n=64))
    task = config.task_spec()
    image = task.channels * task.size * task.size * F32
    bound = 2.5 * config.train_n * image + 2 * config.test_n * image
    assert traced_peak(lambda: build_and_one_epoch(config)) < bound


def block1_conv(net, task, n):
    """Bytes of MiniCNN-6's block-1 conv on n images: its input, one piece's
    padded input and column matrix, and its output. n splits into whole
    pieces of _PIECE_ROWS GEMM rows."""
    conv = net.spec.blocks[1][0]
    c, h, w = conv.in_ch, task.size, task.size  # pad=1 keeps the size
    images = nc._PIECE_ROWS // (h * w)
    padded = images * (h + 2) * (w + 2) * c * F32
    columns = nc._PIECE_ROWS * c * conv.kernel**2 * F32
    return n * c * h * w * F32, padded + columns, n * conv.out_ch * h * w * F32


def check_evaluation_holds_one_layer_cache(task_name):
    task = task_spec(task_name, None)
    net = nc.build_net(net_spec("minicnn6", task), seed=0)
    n = 256
    ds = sl.gen_clean_synthetic(task, n, seed=3)
    nc.evaluate(net, ds.pixels[:8], ds.labels[:8])
    conv_input, piece, conv_output = block1_conv(net, task, n)
    small = 256 * 1024  # bias tiles, logits, argmax and the like
    bound = max(conv_input + piece, conv_output) + conv_output + small
    assert traced_peak(lambda: nc.evaluate(net, ds.pixels, ds.labels)) < bound


def test_minicnn6_evaluation_holds_one_layer_cache():
    """At its peak an evaluation chunk holds block 1's conv input, one
    piece's padded input and columns, and the conv's output; or that output
    next to its ReLU's, once the input is freed. The column matrix is built
    a piece at a time, never for the whole chunk."""
    check_evaluation_holds_one_layer_cache("bars16")


def test_minicnn6_bars32_evaluation_holds_one_layer_cache():
    """As above on 32x32 images, where the ReLU's moment is the peak."""
    check_evaluation_holds_one_layer_cache("bars32")


def minicnn6_family(task, images):
    """A MiniCNN-6 suffix family whose nets all hold one init, and its clean
    and skewed test views of `images` images."""
    net = nc.build_net(net_spec("minicnn6", task), seed=0)
    sets = [cf.InterventionSet.suffix(net.m, i) for i in range(net.m + 1)]
    nets = {role: net.copy() for role in cf.ROLES}
    nets.update(((role, A.canonical()), net.copy())
                for role in cf.ROLES for A in sets if not A.is_empty)
    fam = cf.FamilyOutcome(nets=nets, plan=cf.trial_plan(net.m, sets))
    clean = sl.gen_clean_synthetic(task, images, seed=3)
    mark = sl.WatermarkSkewSpec(patch_size=10, blend_strength=sl.STRONG)
    return net, fam, (clean, sl.make_fully_skewed(clean, mark))


def check_family_evaluation_holds_one_chunk(task_name, images):
    task = task_spec(task_name, None)
    net, fam, views = minicnn6_family(task, images)
    clean = views[0]
    cf.evaluate_family(fam, [sl.gen_clean_synthetic(task, 8, seed=3)])
    n = 512  # evaluate's chunk
    conv_input, piece, conv_output = block1_conv(net, task, n)
    # the prefix's outputs of blocks 1..m-2, from one image's
    held = sum(n * net.forward(clean.pixels[:1], 0, b).size * F32
               for b in range(2, net.m))
    small = 256 * 1024  # bias tiles, logits, argmax and the like
    bound = conv_input + max(piece, conv_output) + conv_output + held + small
    assert traced_peak(lambda: cf.evaluate_family(fam, views)) < bound


def test_minicnn6_family_evaluation_holds_one_chunk():
    """evaluate_family walks each view in evaluate's 512-image chunks and
    keeps one anchor's activations of one chunk at a time, so at 4096 images
    it peaks at a single chunk's block-1 convolution, as in the tests above,
    next to the activations the prefix holds (the conv's input among
    them)."""
    check_family_evaluation_holds_one_chunk("bars16", 4096)


def test_minicnn6_bars32_family_evaluation_holds_one_chunk():
    """As above on 32x32 images, over two chunks."""
    check_family_evaluation_holds_one_chunk("bars32", 1024)


def test_minicnn6_family_evaluation_allocates_its_workspace_and_results(monkeypatch):
    """After a warm call, an evaluate_family call allocates its workspace,
    the activations one chunk's prefix holds, and each pass's result, and
    beyond them only what numpy takes for itself: every pass takes its
    layers' buffers from the workspace, which is block 1's convolution of
    one chunk (its input, one piece's padded input and columns, its
    output)."""
    task = task_spec("bars16", None)
    net, fam, views = minicnn6_family(task, 600)  # chunks of 512 and 88 images
    cf.evaluate_family(fam, views)
    n = 512
    work = nc.Workspace(net.spec, net.dtype, [600], n)
    conv_input, piece, conv_output = block1_conv(net, task, n)
    assert work.nbytes < conv_input + piece + conv_output + 4096  # cache lines, bias tile
    # the prefix's outputs of blocks 0..m-2, from one image's
    held = sum(n * net.forward(views[0].pixels[:1], 0, b).size * F32
               for b in range(1, net.m))
    # what numpy takes for itself: a copy of the read-only gather index on
    # each take, and a ufunc's iterator buffer for the broadcast bias add
    numpy_own = gather_index_bytes(net.spec) + 48 * 1024
    results = 32 * 1024  # a chunk's logits, argmax and the like
    assert (traced_peak(lambda: cf.evaluate_family(fam, views))
            < work.nbytes + held + numpy_own + results)

    grown = []  # (bytes a pass allocated at its peak, bytes of its result)
    forward = nc.BlockNet.forward

    def traced(self, x, lo=0, hi=None, **kw):
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        y = forward(self, x, lo, hi, **kw)
        grown.append((tracemalloc.get_traced_memory()[1] - before, y.nbytes))
        return y

    monkeypatch.setattr(nc.BlockNet, "forward", traced)
    traced_peak(lambda: cf.evaluate_family(fam, views))
    # per view, chunk and anchor: the prefix's m - 1 blocks, then the anchor
    # and its m - 1 partners (the full-set partner is not scored)
    assert len(grown) == len(views) * 2 * len(cf.ROLES) * (net.m - 1 + net.m)
    assert all(peak < result + numpy_own for peak, result in grown)


def gather_index_bytes(spec):
    """Bytes of the largest of a spec's conv gather indices (one image's,
    see netcore._col_index)."""
    shape, most = spec.input_shape, 0
    for layer in (layer for block in spec.blocks for layer in block):
        if isinstance(layer, nc.Conv2d):
            _, oh, ow = layer.out_shape(shape)
            most = max(most, oh * ow * shape[0] * layer.kernel**2 * np.intp(0).itemsize)
        shape = layer.out_shape(shape)
    return most
