import math

import numpy as np
import pytest

from sscope.errors import NumericError, UsageError
from sscope.netcore import Dense, Flatten, NetSpec, ReLU, build_net
from sscope.optim import ADAMW, SGD_NESTEROV, Optimizer, OptimizerConfig, ScheduleConfig, lr_at


def flat_schedule(peak, T=100):
    # warmup_share=0 and min_lr=peak collapses the schedule to a constant
    return ScheduleConfig(total_steps=T, warmup_share=0.0, min_lr=peak)


def test_lr_warmup_endpoint_is_peak():
    sch = ScheduleConfig(total_steps=1000, warmup_share=0.02, min_lr=1e-4)
    assert lr_at(sch.warmup_steps, sch, 0.1) == pytest.approx(0.1, abs=0.0)
    assert lr_at(0, sch, 0.1) == 0.0


def test_lr_final_step_is_min():
    sch = ScheduleConfig(total_steps=1000, warmup_share=0.02, min_lr=1e-4)
    assert lr_at(999, sch, 0.1) == pytest.approx(1e-4, abs=1e-9)


def test_lr_cosine_midpoint():
    sch = ScheduleConfig(total_steps=1001, warmup_share=0.0, min_lr=0.01)
    # cosine phase spans [0, 1000]; its midpoint sits at t=500
    assert lr_at(500, sch, 0.1) == pytest.approx((0.1 + 0.01) / 2, abs=1e-9)


def test_lr_out_of_range():
    sch = ScheduleConfig(total_steps=10, warmup_share=0.0, min_lr=0.01)
    with pytest.raises(UsageError):
        lr_at(10, sch, 0.1)


class PerKeyOptimizer:
    """The optimizer as it stepped one parameter array at a time, with its
    state keyed by parameter name and created the first time a key is
    stepped. The reference the flat Optimizer must match byte for byte."""

    def __init__(self, config, schedule, lr_block_scale=None, wd_block_scale=None):
        self.config = config.validate()
        self.schedule = schedule.validate()
        self.lr_block_scale = dict(lr_block_scale or {})
        self.wd_block_scale = dict(wd_block_scale or {})
        self.state = {}

    def step(self, params, grads, t):
        """Apply one update, in place, to exactly the keys present in params."""
        base_lr = lr_at(t, self.schedule, self.config.peak_lr)
        for key in params:
            g = grads[key]
            block = int(key.split(".", 1)[0][1:])
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient at {key}", block)
            p = params[key]
            lr = base_lr * self.lr_block_scale.get(block, 1.0)
            wd = self.config.weight_decay * self.wd_block_scale.get(block, 1.0)
            if key not in self.state:
                if self.config.kind == SGD_NESTEROV:
                    self.state[key] = {"v": np.zeros_like(p)}
                else:
                    self.state[key] = {"m": np.zeros_like(p), "v": np.zeros_like(p),
                                       "t": 0}
            st = self.state[key]
            if self.config.kind == SGD_NESTEROV:
                if wd:
                    g = g + (wd * p).astype(g.dtype)
                mu = self.config.momentum
                v = st["v"]
                v *= mu
                v += g
                p -= (lr * (g + mu * v)).astype(p.dtype)
            else:
                if wd:
                    p *= 1.0 - lr * wd
                b1, b2 = self.config.betas
                st["t"] += 1
                m, v = st["m"], st["v"]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * np.square(g)
                mhat = m / (1.0 - b1 ** st["t"])
                vhat = v / (1.0 - b2 ** st["t"])
                p -= (lr * mhat / (np.sqrt(vhat) + self.config.epsilon)).astype(
                    p.dtype
                )


def dense_net(widths=(1, 2, 2), dtype=np.float64, value=None):
    """A net of one Dense layer per block, widths[0] inputs; every parameter
    set to `value` when one is given."""
    spec = NetSpec([[Dense(a, b)] for a, b in zip(widths, widths[1:])],
                   widths[-1], (widths[0],)).validate()
    net = build_net(spec, seed=0, dtype=dtype)
    if value is not None:
        net.flat[:] = value
    return net


def grads_of(net, blocks, value):
    return {k: np.full_like(net.params[k], value) for b in blocks
            for k in net.block_keys(b)}


def test_vanilla_sgd_rule():
    cfg = OptimizerConfig(SGD_NESTEROV, peak_lr=1.0, weight_decay=0.0, momentum=0.0)
    opt = Optimizer(cfg, flat_schedule(cfg.peak_lr))
    net = dense_net(dtype=np.float32, value=0.0)
    net.params["b0.l0.w"][:] = [[2.0, -1.0]]
    g = grads_of(net, [0], 0.0)
    g["b0.l0.w"][:] = [[0.5, 0.25]]
    opt.step(net, g, [0], t=0)
    np.testing.assert_allclose(net.params["b0.l0.w"], [[1.5, -1.25]], rtol=0, atol=0)


def test_adamw_zero_grad_is_pure_decay():
    cfg = OptimizerConfig(ADAMW, peak_lr=0.1, weight_decay=0.5)
    opt = Optimizer(cfg, flat_schedule(cfg.peak_lr))
    net = dense_net(value=2.0)
    opt.step(net, grads_of(net, [0], 0.0), [0], t=0)
    assert net.params["b0.l0.w"][0, 0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), rel=1e-15)


def test_nesterov_matches_reference_recurrence():
    # hand-rolled recurrence for the 1-D quadratic loss L(x) = 0.5*x^2
    lr, mu = 0.1, 0.9
    cfg = OptimizerConfig(SGD_NESTEROV, peak_lr=lr, weight_decay=0.0, momentum=mu)
    opt = Optimizer(cfg, flat_schedule(cfg.peak_lr))
    net = dense_net(value=1.0)
    x, v = 1.0, 0.0
    for t in range(3):
        opt.step(net, grads_of(net, [0], net.params["b0.l0.w"][0, 0]), [0], t=t)
        gref = x
        v = mu * v + gref
        x = x - lr * (gref + mu * v)
    assert net.params["b0.l0.w"][0, 0] == pytest.approx(x, abs=1e-12)


def test_sgd_coupled_decay_enters_gradient():
    lr, wd = 0.5, 0.1
    cfg = OptimizerConfig(SGD_NESTEROV, peak_lr=lr, weight_decay=wd, momentum=0.0)
    opt = Optimizer(cfg, flat_schedule(cfg.peak_lr))
    net = dense_net(value=2.0)
    opt.step(net, grads_of(net, [0], 0.0), [0], t=0)
    assert net.params["b0.l0.w"][0, 0] == pytest.approx(2.0 - lr * wd * 2.0, rel=1e-15)


def test_subset_closure():
    cfg = OptimizerConfig(ADAMW, peak_lr=0.1, weight_decay=0.01)
    opt = Optimizer(cfg, flat_schedule(cfg.peak_lr))
    net = dense_net(dtype=np.float32, value=1.0)
    before = net.block_bytes(1)
    opt.step(net, grads_of(net, [0], 1.0), [0], t=0)
    assert net.block_bytes(0) != dense_net(dtype=np.float32, value=1.0).block_bytes(0)
    assert net.block_bytes(1) == before
    assert opt.block_steps == [1, 0]


def test_per_block_lr_scaling():
    cfg = OptimizerConfig(SGD_NESTEROV, peak_lr=1.0, weight_decay=0.0, momentum=0.0)
    opt = Optimizer(cfg, flat_schedule(cfg.peak_lr), lr_block_scale={1: 3.0})
    net = dense_net(value=1.0)
    opt.step(net, grads_of(net, [0, 1], 0.1), [0, 1], t=0)
    assert net.params["b0.l0.w"][0, 0] == pytest.approx(0.9)
    assert net.params["b1.l0.w"][0, 0] == pytest.approx(0.7)


def test_nonfinite_gradient_names_block_and_updates_nothing():
    cfg = OptimizerConfig(ADAMW, peak_lr=0.1, weight_decay=0.01)
    opt = Optimizer(cfg, flat_schedule(cfg.peak_lr))
    net = dense_net(widths=(1, 2, 2, 2), value=1.0)
    before = net.flat.tobytes()
    g = grads_of(net, [0, 1, 2], 0.5)
    g["b1.l0.b"][1] = np.nan
    with pytest.raises(NumericError) as exc:
        opt.step(net, g, [0, 1, 2], t=0)
    assert exc.value.block_index == 1
    assert net.flat.tobytes() == before


def test_deterministic_trajectories():
    def run():
        cfg = OptimizerConfig(ADAMW, peak_lr=0.05, weight_decay=0.01)
        sch = ScheduleConfig(total_steps=50, warmup_share=0.1, min_lr=1e-4)
        opt = Optimizer(cfg, sch)
        net = dense_net(widths=(3, 4, 2), dtype=np.float32)
        for t in range(50):
            g = {k: np.sin(v + t).astype(np.float32) for k, v in net.params.items()}
            opt.step(net, g, [0, 1], t=t)
        return net.flat.tobytes()

    assert run() == run()


# --------------------------------------------------------------------------
# the flat optimizer against the per-key reference

STEPS = 50


def _freeze_style(m):
    # last block, then every block, then one kept block: per-block step counts
    # drift apart, so runs split where the counts differ
    return lambda t: [m - 1] if t < 5 else list(range(m)) if t < 10 else [1]


def _random_sets(m):
    rng = np.random.default_rng(99)
    sets = [sorted(rng.choice(m, size=rng.integers(1, m + 1), replace=False).tolist())
            for _ in range(STEPS)]
    return lambda t: sets[t]


UPDATE_CASES = {
    # name: (update set at step t, lr block scales, wd block scales)
    "all": (lambda m: lambda t: list(range(m)), {}, {}),
    "block-scales": (lambda m: lambda t: list(range(m)), {1: 3.0, 2: 3.0}, {3: 10.0}),
    "freeze-phases": (_freeze_style, {}, {}),
    "minus-one": (lambda m: lambda t: [0, 1, 3], {}, {}),  # -{2}: two runs
    "random-sets": (_random_sets, {0: 1.0 / 3.0}, {0: 0.1, 1: 0.1}),
}


@pytest.mark.parametrize("case", sorted(UPDATE_CASES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", [ADAMW, SGD_NESTEROV])
def test_flat_step_matches_per_key_reference(kind, dtype, case):
    sets, lr_scale, wd_scale = UPDATE_CASES[case]
    spec = NetSpec(
        [[Flatten(), Dense(48, 24), ReLU()], [Dense(24, 16), ReLU()],
         [Dense(16, 16), ReLU()], [Dense(16, 4)]], 4, (3, 4, 4)).validate()
    sets = sets(spec.m)
    cfg = OptimizerConfig(kind, peak_lr=0.01, weight_decay=0.05)
    sch = ScheduleConfig(total_steps=STEPS, warmup_share=0.1, min_lr=1e-4)
    net = build_net(spec, seed=1, dtype=dtype)
    ref = {k: v.copy() for k, v in net.params.items()}
    opt = Optimizer(cfg, sch, lr_block_scale=lr_scale, wd_block_scale=wd_scale)
    ref_opt = PerKeyOptimizer(cfg, sch, lr_scale, wd_scale)
    rng = np.random.default_rng(5)
    for t in range(STEPS):
        blocks = sets(t)
        grads = {k: (rng.standard_normal(v.shape) * 10.0 ** rng.integers(-3, 2))
                 .astype(dtype) for k, v in ref.items()}
        opt.step(net, grads, blocks, t)
        keys = [k for b in blocks for k in net.block_keys(b)]
        ref_opt.step({k: ref[k] for k in keys}, grads, t)
    for b in range(spec.m):
        counts = set()
        for k in net.block_keys(b):
            lo, hi, _ = net._slots[k]
            assert net.params[k].tobytes() == ref[k].tobytes(), k
            st = ref_opt.state.get(k)
            moments = {"v": opt.v} if kind == SGD_NESTEROV else {"m": opt.m, "v": opt.v}
            for name, flat in moments.items():
                want = st[name] if st else np.zeros_like(ref[k])
                assert flat[lo:hi].tobytes() == want.tobytes(), (k, name)
            if kind == ADAMW:
                counts.add(st["t"] if st else 0)
        if kind == ADAMW:
            assert counts == {opt.block_steps[b]}, b


def test_config_validation():
    with pytest.raises(UsageError):
        OptimizerConfig("adagrad", peak_lr=0.1).validate()
    with pytest.raises(UsageError):
        OptimizerConfig(ADAMW, peak_lr=-1.0).validate()
    with pytest.raises(UsageError):
        ScheduleConfig(total_steps=0).validate()
    with pytest.raises(UsageError):
        ScheduleConfig(total_steps=10, min_lr=0.5).validate(peak_lr=0.1)
    assert math.isclose(
        ScheduleConfig(total_steps=100, warmup_share=0.05).warmup_steps, 5
    )
