"""Grid execution: dataset construction, training, evaluation, persistence.

A trial is one (config cell, seed label), and every grid kind runs it
through one `run_trial`: it builds its own train/test data from a
trial-split seed, trains the nets of one `counterfact.TrialPlan` (both
anchors, plus a counterfactual family's partners or the mitigation
retrainings) in one `train_family` call, scores them on the clean and
fully-skewed test views with one `evaluate_family` call, flags divergence,
and emits one RunRecord per plan node, in plan order; a partner of A = {}
stands in for its anchor and has no record of its own. Whether a trial is
done is read off the run id of its plan's last recorded node. Trials are
independent, so they can run in a process pool; records are appended by
the parent only, each trial's as soon as it returns, so a crash keeps
every trial finished before it. Pool workers start from a fresh
interpreter (`spawn`) with one BLAS thread each, unless the user set the
thread count; the pool's modules are imported only when a grid uses it.

The store's analysis derives one list of `contribution_rows`; the
increase-rate profiles are built from that list, so a caller that holds it
does not derive it again.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from ..counterfact import (
    InterventionSet,
    TrainPlan,
    evaluate_family,
    train_family,
    trial_plan,
)
from ..errors import ConfigError, UsageError
from ..interventions import (
    FREEZE,
    LR_DOWN,
    LR_UP,
    WD_DOWN,
    WD_UP,
    TargetBlocks,
    freeze_protocol,
    mitigation_extent,
    retrain_with_intervention,
)
from ..metrics import contributions, detect_divergence, increase_rates
from ..netcore import load_checkpoint, save_checkpoint
from ..rng import subseed
from ..skewlab import SamplingSkewSpec, apply_frequency, gen_clean_synthetic, make_fully_skewed
from . import presets
from .config import ExperimentConfig, run_id, trial_id, trial_seed
from .store import ResultsStore, RunRecord

__all__ = [
    "intervention_sets",
    "build_trial_data",
    "run_trial",
    "run_grid",
    "contribution_rows",
    "localization_profiles",
]

MITIGATION_KINDS = (LR_UP, LR_DOWN, WD_UP, WD_DOWN, FREEZE)


def intervention_sets(config: ExperimentConfig, m: int):
    if config.family == "single":
        return [InterventionSet.single_complement(m, i) for i in range(m)]
    if config.family == "suffix":
        return [InterventionSet.suffix(m, i) for i in range(m + 1)]
    return [InterventionSet.parse(s, m) for s in config.explicit_sets]


def build_trial_data(config: ExperimentConfig, seed: int):
    """Train PairedDataset plus the clean/fully-skewed test views, each
    composed once into a plain dataset. The test views come first, so their
    base is freed before the training base is rendered."""
    tseed = trial_seed(config, seed)
    task = config.task_spec()
    if config.skew_kind == "watermark":
        skew = config.watermark()
    else:
        skew = SamplingSkewSpec(num_groups=task.attribute_groups)
    test_clean, test_full = _test_views(task, skew, config.test_n,
                                        subseed(tseed, "data-test"))
    train_clean = gen_clean_synthetic(task, config.train_n, subseed(tseed, "data-train"))
    train_full = make_fully_skewed(train_clean, skew)
    pd = apply_frequency(
        train_clean, train_full, config.frequency(), subseed(tseed, "mask-train")
    )
    return pd, test_clean, test_full


def _test_views(task, skew, n, seed):
    clean = gen_clean_synthetic(task, n, seed)
    return clean.plain(), make_fully_skewed(clean, skew).plain()


def _plan(config: ExperimentConfig, seed: int):
    opt = presets.optimizer_config(config.optimizer, config.optimizer_overrides)
    return TrainPlan(
        batch_size=config.batch_size,
        master_seed=trial_seed(config, seed),
        optimizer=opt,
        schedule=presets.schedule_config(config.steps, config.mode, opt.peak_lr),
    )


def _dtype(config):
    return np.float64 if config.precision == 64 else np.float32


def _warmstart_net(config):
    if config.mode != "warmstart":
        return None
    net = load_checkpoint(config.warmstart_checkpoint, dtype=_dtype(config))
    if net.spec != config.net_spec():
        raise ConfigError(
            "warmstart checkpoint architecture differs from the configured net"
        )
    return net


# the RunRecord columns that copy the config field of the same name
_CONFIG_COLUMNS = tuple(f.name for f in fields(RunRecord)
                        if f.name in ExperimentConfig.__dataclass_fields__)


def _record(config, seed, role, set_repr, err_clean, err_skew, **extra):
    columns = {name: getattr(config, name) for name in _CONFIG_COLUMNS}
    f = config.frequency()
    columns["skew_frequency"] = f"{f.numerator}/{f.denominator}"  # not its name
    return RunRecord(
        **columns,
        run_id=run_id(config, seed, role, set_repr),
        trial_id=trial_id(config, seed),
        role=role,
        set=set_repr,
        seed=seed,
        err_clean_num=err_clean.mispredictions,
        err_clean_den=err_clean.n_examples,
        err_skewfull_num=err_skew.mispredictions,
        err_skewfull_den=err_skew.n_examples,
        **extra,
    )


def mitigation_targets(m: int):
    singles = [TargetBlocks((i,)) for i in range(m)]
    doubles = [TargetBlocks((i, i + 1)) for i in range(m - 1)]
    return singles + doubles


def _mitigation_runs(m: int):
    """Set string -> (kind, target) of every retraining of a mitigation
    trial, in the order it runs them. Freezing keeps a single block, so it
    skips the double targets."""
    return {
        f"{kind.label()}@{target.label()}": (kind, target)
        for kind in MITIGATION_KINDS
        for target in mitigation_targets(m)
        if not (kind.variant == "freeze" and target.is_double)
    }


def _trainees(config: ExperimentConfig, kind: str, m: int):
    """(intervention sets, retrainings by name) of a trial of this grid kind."""
    runs = _mitigation_runs(m) if kind == "mitigation" else {}
    return (intervention_sets(config, m) if kind == "family" else [], {
        set_repr: freeze_protocol(m, config.steps, target.blocks[0])
        if iv.variant == "freeze"
        else retrain_with_intervention(iv, target, m)
        for set_repr, (iv, target) in runs.items()
    })


def _record_names(node):
    """(role, set) of the record a plan node becomes; None for a partner of
    A = {}, which its anchor's record covers."""
    if node.kind == "anchor":
        return f"{node.key}_anchor", ""
    if node.kind == "retrained":
        return "mitigation", node.key[1]
    if node.blocks:
        return f"intervened_{node.anchor[0]}", node.key[1]  # _c or _s
    return None


def run_trial(config: ExperimentConfig, seed: int, kind: str):
    """One trial of a grid of this kind: both anchors, plus the family's
    partners ("family") or one retraining per (intervention kind, target)
    ("mitigation"), trained in one lockstep run and scored by one
    `evaluate_family`. Returns (records, anchor nets by run id): a record
    per node of the trial's plan, in plan order, each carrying the trial's
    wall time up to the end of training."""
    started = time.monotonic()
    spec = config.net_spec()
    pd, test_clean, test_full = build_trial_data(config, seed)
    sets, retrainings = _trainees(config, kind, spec.m)
    fam = train_family(
        spec, pd, _plan(config, seed), sets,
        dtype=_dtype(config),
        debug_sync=config.debug_sync,
        init_from=_warmstart_net(config),
        retrainings=retrainings,
    )
    wall = time.monotonic() - started
    evals = evaluate_family(fam, (test_clean, test_full))
    err_c = evals["clean"][0].error_fraction
    err_s = evals["skewed"][0].error_fraction
    err_skewfull_of_clean = evals["clean"][1].error_fraction
    runs = _mitigation_runs(spec.m)
    records = []
    nets = {}
    for node in fam.plan.nodes:
        names = _record_names(node)
        if names is None:
            continue
        ec, es = evals[node.key]
        extra = {}
        if node.kind == "intervened":
            extra["diverged"] = detect_divergence(
                ec.error_fraction, es.error_fraction, err_s, err_skewfull_of_clean)
        elif node.kind == "retrained":
            iv, target = runs[names[1]]
            extent = mitigation_extent(ec.error_fraction, err_c, err_s)
            extra.update(
                interv_kind=iv.label(),
                interv_factor="" if iv.variant == "freeze" else repr(iv.factor),
                interv_targets=target.label(),
                extent="" if extent is None else repr(extent),
            )
        records.append(_record(config, seed, *names, ec, es, wall_time=wall, **extra))
        if node.kind == "anchor":
            nets[records[-1].run_id] = fam.nets[node.key]
    return records, nets


def _last_record(config: ExperimentConfig, kind: str):
    """(role, set) of the last record each trial of this grid writes: that
    of the last node of its plan that becomes a record."""
    m = config.net_spec().m
    names = map(_record_names, trial_plan(m, *_trainees(config, kind, m)).nodes)
    return [n for n in names if n][-1]


def _trial_worker(args):
    kind, config, seed = args
    return run_trial(config, seed, kind)


def run_grid(config: ExperimentConfig, store: ResultsStore, kind="family",
             log=print) -> int:
    """Run every seed of the grid, skipping trials already in the store."""
    if kind not in ("family", "anchors", "mitigation"):
        raise UsageError(f"unknown grid kind {kind!r}")
    _warmstart_net(config)  # a bad checkpoint fails before any trial starts
    last = _last_record(config, kind)  # so does a too-short intervene grid
    if kind == "mitigation" and config.mode == "warmstart":
        _check_retrain_init(config, store)
    existing = store.existing_run_ids()
    pending = []
    for seed in config.seeds:
        if run_id(config, seed, *last) in existing:  # the trial is done
            log(f"seed {seed}: already in store (idempotent skip)")
        else:
            pending.append(seed)
    if not pending:
        return 0
    args = [(kind, config, seed) for seed in pending]  # pickled whole to a pool
    if config.workers > 1:
        # imported here: multiprocessing costs a single-worker grid's start
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            with _one_blas_thread():  # the pool starts its workers in submit
                futures = [pool.submit(_trial_worker, a) for a in args]
            try:
                return _persist(config, store, existing, pending,
                                _in_seed_order(pool, futures), log)
            finally:
                pool.shutdown(cancel_futures=True)
    return _persist(config, store, existing, pending, map(_trial_worker, args), log)


def _check_retrain_init(config, store):
    """ConfigError if the store holds a retraining of this warm-start grid
    whose manifest lacks the `retrain_init` marker: it was written when
    retrainings started from a fresh init, not the checkpoint."""
    trials = {trial_id(config, seed) for seed in config.seeds}
    for rec in store.load():
        path = Path(store.manifest_dir, f"{rec.run_id}.json")
        if rec.role == "mitigation" and rec.trial_id in trials and not (
                path.is_file() and '"retrain_init"' in path.read_text()):
            raise ConfigError(f"{store.out_dir}: retraining {rec.run_id} has no "
                              "retrain_init marker, so it may predate retraining "
                              "from the warm-start checkpoint; rerun the grid "
                              "into a fresh out directory")


# numpy's BLAS reads these once, when a worker imports numpy
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _one_blas_thread():
    """Processes started inside get one BLAS thread for each thread-count
    variable the user left unset, so that a pool's workers do not
    oversubscribe the cores; the variables are unset again on exit."""
    unset = [var for var in _BLAS_THREAD_VARS if var not in os.environ]
    try:
        for var in unset:
            os.environ[var] = "1"
        yield
    finally:
        for var in unset:
            os.environ.pop(var, None)


def _in_seed_order(pool, futures):
    """Each trial's result in submission order, as soon as it is done. The
    first trial to fail, whatever its place, cancels every trial not yet
    started; the finished trials before it are still yielded, then its
    error is raised."""
    from concurrent.futures import FIRST_COMPLETED, wait

    waiting = set(futures)
    for fut in futures:
        while not fut.done():
            done, waiting = wait(waiting, return_when=FIRST_COMPLETED)
            if any(not f.cancelled() and f.exception() for f in done):
                pool.shutdown(cancel_futures=True)  # waits for running trials
        if fut.cancelled():
            raise next(f.exception() for f in futures
                       if not f.cancelled() and f.exception())
        yield fut.result()


def _persist(config, store, existing, pending, outs, log) -> int:
    """Write each trial's records and anchor checkpoints as soon as `outs`
    yields it, so a failing trial leaves every earlier one in the store."""
    written = 0
    for seed, (records, nets) in zip(pending, outs):
        for rec in records:
            if rec.run_id in existing:
                continue
            if rec.run_id in nets:
                save_checkpoint(nets[rec.run_id], store.checkpoint_path(rec.run_id))
            store.append(rec, manifest=_manifest(config, rec))
            existing.add(rec.run_id)
            written += 1
        log(f"seed {seed}: {len(records)} records")
    return written


def _manifest(config: ExperimentConfig, rec: RunRecord) -> dict:
    return {
        "run_id": rec.run_id,
        "trial_id": rec.trial_id,
        "role": rec.role,
        "set": rec.set,
        "seed": rec.seed,
        "config": config.cell_dict(),
        "status": rec.status,
        "diverged": rec.diverged,
        # retrainings start from the anchors' init; see _check_retrain_init
        **({"retrain_init": "shared"} if rec.role == "mitigation" else {}),
    }


# --------------------------------------------------------------------------
# pure transformations of the store

def _err(rec: RunRecord, view: str) -> Fraction:
    if view == "clean":
        return Fraction(rec.err_clean_num, rec.err_clean_den)
    return Fraction(rec.err_skewfull_num, rec.err_skewfull_den)


def _m_of(rec: RunRecord) -> int:
    try:
        return presets.net_spec(rec.net, presets.task_spec(rec.task, None)).m
    except ConfigError:
        raise ConfigError(f"cannot resolve presets for record {rec.run_id}") from None


def contribution_rows(records):
    """(trial, anchor record, ContributionRecord, diverged) per stored set."""
    by_trial = {}
    for rec in records:
        by_trial.setdefault(rec.trial_id, []).append(rec)
    out = []
    for tid, recs in sorted(by_trial.items()):
        anchors = {r.role: r for r in recs if r.role.endswith("_anchor")}
        if len(anchors) != 2:
            continue
        err_c = _err(anchors["clean_anchor"], "clean")
        err_s = _err(anchors["skewed_anchor"], "clean")
        m = _m_of(anchors["clean_anchor"])
        sets = sorted({r.set for r in recs if r.role.startswith("intervened")})
        for key in sets:
            pair = {
                r.role: r
                for r in recs
                if r.set == key and r.role.startswith("intervened")
            }
            if set(pair) != {"intervened_c", "intervened_s"}:
                continue
            record = contributions(
                err_c, err_s,
                _err(pair["intervened_c"], "clean"),
                _err(pair["intervened_s"], "clean"),
                InterventionSet.parse(key, m),
            )
            diverged = pair["intervened_c"].diverged or pair["intervened_s"].diverged
            out.append((tid, anchors["clean_anchor"], record, diverged))
    return out


def localization_profiles(records):
    """Per-trial LocalizationProfiles for complete suffix-family runs."""
    return _profiles(contribution_rows(records))


def _profiles(rows):
    """localization_profiles of the records whose contribution_rows these
    are, for callers that already hold the rows."""
    by_trial = {}
    meta = {}
    for tid, anchor_rec, record, diverged in rows:
        if diverged:
            continue
        by_trial.setdefault(tid, []).append(record)
        meta[tid] = anchor_rec
    profiles = {}
    for tid, contribs in sorted(by_trial.items()):
        m = contribs[0].A.m
        full_list = list(contribs)
        if not any(c.A.is_empty for c in full_list):
            # the anchors stand in for the empty set's degenerate record
            c0 = contribs[0]
            full_list.append(
                contributions(c0.err_c, c0.err_s, c0.err_c, c0.err_s,
                              InterventionSet.empty(m))
            )
        try:
            profiles[tid] = (meta[tid], increase_rates(full_list))
        except UsageError:
            continue  # incomplete suffix family or gap below the floor
    return profiles

