"""Grid execution: dataset construction, training, evaluation, persistence.

A trial is one (config cell, seed label), and every grid kind runs it
through one `run_trial`: it builds its own train/test data from a
trial-split seed, trains both anchors plus whatever the subcommand adds (a
counterfactual family's partners, or the mitigation retrainings) in one
`train_family` call, scores every model on the clean and fully-skewed test
views with one `counterfact.evaluate_family` call, flags divergence, and
emits RunRecords. There, per (anchor, test view) the anchor's blocks run
once, each partner is scored from the activation entering block min(A),
which it shares with its anchor, and each retraining is scored from block
0. Trials are independent, so they can run in a process pool; records are
appended by the parent only, each trial's as soon as it returns, so a crash
keeps every trial finished before it.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from fractions import Fraction
from pathlib import Path

import numpy as np

from ..counterfact import InterventionSet, TrainPlan, evaluate_family, train_family
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
    """Train PairedDataset plus the clean/fully-skewed test views."""
    tseed = trial_seed(config, seed)
    task = config.task_spec()
    if config.skew_kind == "watermark":
        skew = config.watermark()
    else:
        skew = SamplingSkewSpec(num_groups=task.attribute_groups)
    train_clean = gen_clean_synthetic(task, config.train_n, subseed(tseed, "data-train"))
    train_full = make_fully_skewed(train_clean, skew)
    pd = apply_frequency(
        train_clean, train_full, config.frequency(), subseed(tseed, "mask-train")
    )
    test_clean = gen_clean_synthetic(task, config.test_n, subseed(tseed, "data-test"))
    test_full = make_fully_skewed(test_clean, skew)
    return pd, test_clean, test_full


def _plan(config: ExperimentConfig, seed: int):
    opt = presets.optimizer_config(config.optimizer, config.optimizer_overrides)
    return TrainPlan(
        batch_size=config.batch_size,
        master_seed=trial_seed(config, seed),
        optimizer=opt,
        schedule=presets.schedule_config(config.steps, config.mode, opt.peak_lr),
    ).validate()


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


def _base_record_fields(config: ExperimentConfig, seed: int):
    f = config.frequency()
    return dict(
        trial_id=trial_id(config, seed),
        seed=seed,
        task=config.task,
        skew_kind=config.skew_kind,
        skew_strength=config.skew_strength,
        skew_frequency=f"{f.numerator}/{f.denominator}",
        net=config.net,
        optimizer=config.optimizer,
        mode=config.mode,
        family=config.family,
        steps=config.steps,
        batch_size=config.batch_size,
        train_n=config.train_n,
        test_n=config.test_n,
        master_seed=config.master_seed,
    )


def _record(config, seed, role, set_repr, err_clean, err_skew, diverged=False,
            status="ok", wall_time=0.0, **extra):
    return RunRecord(
        run_id=run_id(config, seed, role, set_repr),
        role=role,
        set=set_repr,
        err_clean_num=err_clean.mispredictions,
        err_clean_den=err_clean.n_examples,
        err_skewfull_num=err_skew.mispredictions,
        err_skewfull_den=err_skew.n_examples,
        diverged=diverged,
        status=status,
        wall_time=wall_time,
        **_base_record_fields(config, seed),
        **extra,
    )


def mitigation_targets(m: int):
    singles = [TargetBlocks((i,)) for i in range(m)]
    doubles = [TargetBlocks((i, i + 1)) for i in range(m - 1)]
    return singles + doubles


def _mitigation_runs(m: int):
    """(kind, target, set string) of every retraining of a mitigation trial,
    in the order it runs them. Freezing keeps a single block, so it skips
    the double targets."""
    return [
        (kind, target, f"{kind.label()}@{target.label()}")
        for kind in MITIGATION_KINDS
        for target in mitigation_targets(m)
        if not (kind.variant == "freeze" and target.is_double)
    ]


def run_trial(config: ExperimentConfig, seed: int, kind: str):
    """One trial of a grid of this kind: both anchors, plus the family's
    partners ("family") or one retraining per (intervention kind, target)
    ("mitigation"), trained in one lockstep run and scored by one
    `evaluate_family`. Returns (records, anchor nets by run id). Every record
    carries the trial's wall time up to the end of training."""
    started = time.monotonic()
    spec = config.net_spec()
    pd, test_clean, test_full = build_trial_data(config, seed)
    sets = intervention_sets(config, spec.m) if kind == "family" else []
    runs = _mitigation_runs(spec.m) if kind == "mitigation" else []
    fam = train_family(
        spec, pd, _plan(config, seed), sets,
        dtype=_dtype(config),
        debug_sync=config.debug_sync,
        init_from=_warmstart_net(config),
        retrainings={
            set_repr: freeze_protocol(spec.m, config.steps, target.blocks[0])
            if iv.variant == "freeze"
            else retrain_with_intervention(iv, target, spec.m)
            for iv, target, set_repr in runs
        },
    )
    wall = time.monotonic() - started
    evals = evaluate_family(fam, (test_clean, test_full))
    records = []
    nets = {}
    for role_name, role in (("clean_anchor", "clean"), ("skewed_anchor", "skewed")):
        rec = _record(config, seed, role_name, "", *evals[role], wall_time=wall)
        records.append(rec)
        nets[rec.run_id] = fam.nets[role]
    err_c = evals["clean"][0].error_fraction
    err_s = evals["skewed"][0].error_fraction
    err_skewfull_of_clean = evals["clean"][1].error_fraction
    for A in sets:
        if A.is_empty:
            continue  # the anchor record already covers the degenerate set
        key = A.canonical()
        for direction, role_name in (
            ("clean", "intervened_c"), ("skewed", "intervened_s")
        ):
            ec, es = evals[(direction, key)]
            flag = detect_divergence(
                ec.error_fraction, es.error_fraction, err_s, err_skewfull_of_clean
            )
            records.append(_record(
                config, seed, role_name, key, ec, es, diverged=flag.diverged,
                wall_time=wall,
            ))
    for iv, target, set_repr in runs:
        ec, es = evals[("retrained", set_repr)]
        extent = mitigation_extent(ec.error_fraction, err_c, err_s)
        records.append(_record(
            config, seed, "mitigation", set_repr, ec, es, wall_time=wall,
            interv_kind=iv.label(),
            interv_factor="" if iv.variant == "freeze" else repr(iv.factor),
            interv_targets=target.label(),
            extent="" if extent is None else repr(extent),
        ))
    return records, nets


def _probe_run_id(config: ExperimentConfig, seed: int, kind: str) -> str:
    """Run id of the last record a trial of this kind writes (idempotence probe)."""
    if kind == "mitigation":
        _, _, last = _mitigation_runs(config.net_spec().m)[-1]
        return run_id(config, seed, "mitigation", last)
    if kind == "family":
        sets = [A for A in intervention_sets(config, config.net_spec().m)
                if not A.is_empty]
        if sets:
            return run_id(config, seed, "intervened_s", sets[-1].canonical())
    return run_id(config, seed, "skewed_anchor", "")


def _trial_worker(args):
    kind, config_dict, seed = args
    return run_trial(ExperimentConfig.from_dict(config_dict), seed, kind)


def run_grid(config: ExperimentConfig, store: ResultsStore, kind="family",
             log=print) -> int:
    """Run every seed of the grid, skipping trials already in the store."""
    if kind not in ("family", "anchors", "mitigation"):
        raise UsageError(f"unknown grid kind {kind!r}")
    _warmstart_net(config)  # a bad checkpoint fails before any trial starts
    if kind == "mitigation":
        # a too-short run fails before any training
        freeze_protocol(config.net_spec().m, config.steps, 0)
        if config.mode == "warmstart":
            _check_retrain_init(config, store)
    existing = store.existing_run_ids()
    cfg_dict = config.to_dict()
    pending = []
    for seed in config.seeds:
        if _probe_run_id(config, seed, kind) in existing:
            log(f"seed {seed}: already in store (idempotent skip)")
        else:
            pending.append(seed)
    if not pending:
        return 0
    args = [(kind, cfg_dict, seed) for seed in pending]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
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


def _in_seed_order(pool, futures):
    """Each trial's result in submission order, as soon as it is done. The
    first trial to fail, whatever its place, cancels every trial not yet
    started; the finished trials before it are still yielded, then its
    error is raised."""
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
    t = presets.TASK_PRESETS.get(rec.task)
    if t is None or rec.net not in presets.NET_PRESETS:
        raise ConfigError(f"cannot resolve presets for record {rec.run_id}")
    spec = presets.NET_PRESETS[rec.net](t["channels"], t["size"], t["class_count"])
    return spec.m


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
    rows = contribution_rows(records)
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

