import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sscope import counterfact as cf
from sscope.errors import ConfigError, StoreError, UsageError
from sscope.expcli import cli, report, runner
from sscope.expcli.cli import main
from sscope.expcli.config import ExperimentConfig, run_id, trial_id, trial_seed
from sscope.expcli.presets import net_spec, optimizer_config, task_spec
from sscope.expcli.report import error_table, write_report
from sscope.expcli.runner import contribution_rows, localization_profiles, run_grid
from sscope.expcli.store import ResultsStore, RunRecord
from sscope.interventions import mitigation_extent
from sscope.netcore import build_net, save_checkpoint
from ssd1 import load_ssd1


def tiny_config(out, **kw):
    base = dict(
        task="bars16",
        net="mlp4",
        optimizer="adamw",
        family="suffix",
        seeds=[0, 1],
        steps=30,
        batch_size=16,
        train_n=256,
        test_n=128,
        out=str(out),
    )
    base.update(kw)
    return ExperimentConfig.from_dict(base)


@pytest.fixture(scope="module")
def family_store(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    config = tiny_config(out)
    store = ResultsStore(config.out)
    written = run_grid(config, store, kind="family", log=lambda *_: None)
    return config, store, written


# --------------------------------------------------------------------------
# config

def test_config_roundtrip_and_validation(tmp_path):
    cfg = tiny_config(tmp_path)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ConfigError, match="unknown config fields"):
        ExperimentConfig.from_dict({"tas": "bars16"})
    with pytest.raises(ConfigError, match="task preset"):
        ExperimentConfig.from_dict({"task": "imagenet"})
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig.from_dict({"seeds": []})
    with pytest.raises(ConfigError, match="warmstart"):
        ExperimentConfig.from_dict({"mode": "warmstart"})


def test_config_skew_block_parsing():
    cfg = ExperimentConfig.from_dict(
        {"skew": {"strength": "weak", "frequency": "rare", "patch_size": 8}}
    )
    assert cfg.skew_strength == 0.25
    assert cfg.skew_frequency == (15, 16)
    assert cfg.patch_size == 8
    cfg2 = ExperimentConfig.from_dict({"skew": {"frequency": "3/4"}})
    assert cfg2.skew_frequency == (3, 4)
    # a block sets only the keys it names, and a key it names wins
    cfg3 = ExperimentConfig.from_dict(
        {"task": "tint2", "skew_kind": "sampling", "skew_strength": 0.5,
         "skew": {"frequency": "rare", "strength": "weak"}})
    assert (cfg3.skew_kind, cfg3.skew_strength) == ("sampling", 0.25)


def test_run_id_stable_under_field_order(tmp_path):
    a = tiny_config(tmp_path)
    scrambled = dict(reversed(list(a.to_dict().items())))
    b = ExperimentConfig.from_dict(scrambled)
    assert run_id(a, 0, "clean_anchor", "") == run_id(b, 0, "clean_anchor", "")


# every field set away from its default, so that each one reaches the hash
_EVERY_FIELD_MOVED = dict(
    task="tint2", skew_kind="sampling", skew_strength=0.25, skew_frequency=[15, 16],
    patch_size=8, net="mlp4", optimizer="sgd", optimizer_overrides={"peak_lr": 0.01},
    mode="warmstart", warmstart_checkpoint="anchor.ssc1", family="explicit",
    explicit_sets=["{}", "2:4", "{0,2}"], seeds=[3, 7], steps=50, batch_size=16,
    train_n=512, test_n=256, master_seed=9, precision=64, out="elsewhere",
    workers=3, debug_sync=True,
)


@pytest.mark.parametrize("raw, seed, role, set_repr, rid, tid, tseed, cell", [
    ({}, 0, "clean_anchor", "", "34e6fd45b4c3bbb8", "580aecc240724a99",
     10605408158661201384,
     {"task": "bars16", "skew_kind": "watermark", "skew_strength": 0.75,
      "skew_frequency": [127, 128], "patch_size": 10, "net": "minicnn6",
      "optimizer": "adamw", "optimizer_overrides": {}, "mode": "scratch",
      "warmstart_checkpoint": None, "family": "suffix", "explicit_sets": [],
      "steps": 1200, "batch_size": 32, "train_n": 4096, "test_n": 1024,
      "master_seed": 0, "precision": 32}),
    (_EVERY_FIELD_MOVED, 7, "intervened_s", "2:4", "2647bfae925cf8a6",
     "df0e0aaf00b5523f", 17850033340914226207,
     {"task": "tint2", "skew_kind": "sampling", "skew_strength": 0.25,
      "skew_frequency": [15, 16], "patch_size": 8, "net": "mlp4",
      "optimizer": "sgd", "optimizer_overrides": {"peak_lr": 0.01},
      "mode": "warmstart", "warmstart_checkpoint": "anchor.ssc1",
      "family": "explicit", "explicit_sets": ["{}", "2:4", "{0,2}"],
      "steps": 50, "batch_size": 16, "train_n": 512, "test_n": 256,
      "master_seed": 9, "precision": 64}),
], ids=["default", "every-field-moved"])
def test_run_ids_are_golden(raw, seed, role, set_repr, rid, tid, tseed, cell):
    """Stored results are found by these hashes, so a change to the config's
    schema must leave them as they are."""
    config = ExperimentConfig.from_dict(raw)
    assert run_id(config, seed, role, set_repr) == rid
    assert trial_id(config, seed) == tid
    assert trial_seed(config, seed) == tseed
    assert config.cell_dict() == cell
    assert list(config.cell_dict()) == list(cell)


def test_every_field_moved_config_moves_every_field():
    moved = ExperimentConfig.from_dict(_EVERY_FIELD_MOVED)
    default = ExperimentConfig()
    assert [f.name for f in dataclasses.fields(ExperimentConfig)
            if getattr(moved, f.name) == getattr(default, f.name)] == []


def test_trial_seed_independent_of_other_cells(tmp_path):
    a = tiny_config(tmp_path)
    b = tiny_config(tmp_path, seeds=[0, 1, 2, 3])  # larger grid, same cells
    assert trial_seed(a, 0) == trial_seed(b, 0)
    c = tiny_config(tmp_path, steps=31)
    assert trial_seed(a, 0) != trial_seed(c, 0)


def test_presets_resolve():
    task = task_spec("bars16", None)
    spec = net_spec("minicnn6", task)
    assert spec.m == 6
    assert net_spec("mlp4", task).m == 4
    assert optimizer_config("sgd").momentum == 0.9
    with pytest.raises(ConfigError):
        optimizer_config("adamw", {"betas": (0.5, 0.5)})


# --------------------------------------------------------------------------
# grid execution and store

def test_family_grid_record_count(family_store):
    config, store, written = family_store
    # per seed: 2 anchors + 2 directions x 4 non-empty suffix sets (m=4)
    assert written == 2 * (2 + 2 * 4)
    records = store.load()
    assert len(records) == written
    roles = {r.role for r in records}
    assert roles == {"clean_anchor", "skewed_anchor", "intervened_c", "intervened_s"}


_HEADER = (
    "sscsv1,trial_id,role,set,seed,task,skew_kind,skew_strength,skew_frequency,"
    "net,optimizer,mode,family,steps,batch_size,train_n,test_n,master_seed,"
    "err_clean_num,err_clean_den,err_skewfull_num,err_skewfull_den,diverged,"
    "status,interv_kind,interv_factor,interv_targets,extent,wall_time")


def test_store_schema_header(family_store):
    _, store, _ = family_store
    with open(store.csv_path, "rb") as fh:
        header = fh.readline()
    assert header == _HEADER.encode() + b"\r\n"


def test_store_rejects_foreign_schema(tmp_path):
    store = ResultsStore(tmp_path)
    with open(store.csv_path, "w") as fh:
        fh.write("id,role\n1,x\n")
    with pytest.raises(StoreError, match="schema"):
        store.load()


def test_mitigation_trial_is_one_lockstep_run(tmp_path, monkeypatch):
    lockstep = cf._lockstep
    runs = []

    def counted(pd, plan, trial, init):
        runs.append([node.key for node in trial.trained])
        return lockstep(pd, plan, trial, init)

    monkeypatch.setattr(cf, "_lockstep", counted)
    config = tiny_config(tmp_path, seeds=[0])  # mlp4: m = 4
    records, _ = runner.run_trial(config, 0, "mitigation")
    sets = list(runner._mitigation_runs(4))
    assert len(sets) == 4 * (4 + 3) + 4  # LR/WD kinds on single and double targets
    assert runs == [["clean", "skewed"] + [("retrained", s) for s in sets]]
    assert [r.set for r in records] == ["", ""] + sets
    assert len({r.wall_time for r in records}) == 1  # the trial's wall time
    # every extent is the record's own clean-test error against the anchors'
    err_c, err_s = (Fraction(r.err_clean_num, r.err_clean_den) for r in records[:2])
    assert [r.role for r in records[:2]] == ["clean_anchor", "skewed_anchor"]
    extents = []
    for rec, (kind, target) in zip(records[2:], runner._mitigation_runs(4).values()):
        extent = mitigation_extent(
            Fraction(rec.err_clean_num, rec.err_clean_den), err_c, err_s)
        assert rec.extent == ("" if extent is None else repr(extent))
        assert (rec.interv_kind, rec.interv_factor, rec.interv_targets) == (
            kind.label(), "" if kind.variant == "freeze" else repr(kind.factor),
            target.label())
        extents.append(extent)
    assert len(set(extents) - {None}) > 1  # the trial's gap is above the floor


def test_warmstart_mitigation_refuses_unmarked_retrainings(tmp_path):
    ckpt = tmp_path / "init.ssc1"
    save_checkpoint(build_net(net_spec("mlp4", task_spec("bars16", None)), seed=5),
                    ckpt)
    config = tiny_config(tmp_path / "run", seeds=[0], mode="warmstart",
                         warmstart_checkpoint=str(ckpt))
    store = ResultsStore(config.out)
    assert run_grid(config, store, kind="mitigation", log=lambda *_: None) > 0
    two_seeds = tiny_config(tmp_path / "run", seeds=[0, 1], mode="warmstart",
                            warmstart_checkpoint=str(ckpt))
    before = store.load()
    # a record written when warm-start retrainings started from a fresh init
    path = Path(store.manifest_dir) / f"{before[-1].run_id}.json"
    manifest = json.loads(path.read_text())
    assert manifest.pop("retrain_init") == "shared"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="fresh out directory"):
        run_grid(two_seeds, store, kind="mitigation", log=lambda *_: None)
    assert store.load() == before
    path.unlink()  # a missing manifest proves nothing either
    with pytest.raises(ConfigError, match="fresh out directory"):
        run_grid(two_seeds, store, kind="mitigation", log=lambda *_: None)


@pytest.mark.parametrize("which", ["missing", "directory", "malformed"])
def test_unreadable_warmstart_checkpoint_exits_1(tmp_path, capsys, which):
    ckpt = tmp_path / "nonexistent" if which == "missing" else tmp_path
    if which == "malformed":  # an extra layer argument
        ckpt = tmp_path / "bad.ssc1"
        save_checkpoint(build_net(net_spec("mlp4", task_spec("bars16", None)), seed=5),
                        ckpt)
        raw = ckpt.read_bytes()
        text = raw[8 : 8 + int.from_bytes(raw[4:8], "little")]
        bad = text.replace(b'["relu"]', b'["relu",99]', 1)
        ckpt.write_bytes(raw[:4] + len(bad).to_bytes(4, "little") + bad
                         + raw[8 + len(text):])
    cfg = tiny_config(tmp_path / "run", mode="warmstart",
                      warmstart_checkpoint=str(ckpt))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert main(["counterfactual", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run" / "results.csv").exists()


@pytest.mark.parametrize("kind", ["anchors", "family", "mitigation"])
def test_rerun_is_idempotent(tmp_path, monkeypatch, kind):
    config = tiny_config(tmp_path, seeds=[0])  # 30 steps: freezing needs t1, t2 >= 1
    store = ResultsStore(config.out)
    assert run_grid(config, store, kind=kind, log=lambda *_: None) > 0
    before = store.load()

    def retrain(args):
        raise AssertionError(f"seed {args[2]} retrained")

    monkeypatch.setattr(runner, "_trial_worker", retrain)
    log = []
    assert run_grid(config, store, kind=kind, log=log.append) == 0
    assert log == ["seed 0: already in store (idempotent skip)"]
    assert store.load() == before


FAMILY_SHAPES = {
    "suffix": dict(family="suffix"),
    "single": dict(family="single"),
    "explicit-empty": dict(family="explicit", explicit_sets=["{}"]),
    "explicit-2:4-empty": dict(family="explicit", explicit_sets=["2:4", "{}"]),
}


@pytest.mark.parametrize("shape", sorted(FAMILY_SHAPES))
@pytest.mark.parametrize("kind", ["anchors", "family", "mitigation"])
def test_resume_probe_names_the_last_record(tmp_path, kind, shape):
    config = tiny_config(tmp_path, seeds=[0], **FAMILY_SHAPES[shape])
    records, _ = runner.run_trial(config, 0, kind)
    assert run_id(config, 0, *runner._last_record(config, kind)) == records[-1].run_id


def test_crash_keeps_finished_trials_and_resumes(tmp_path, monkeypatch):
    config = tiny_config(tmp_path, steps=10)
    store = ResultsStore(config.out)
    worker = runner._trial_worker

    def crash_on_second_seed(args):
        if args[2] == config.seeds[1]:
            raise RuntimeError("worker crashed")
        return worker(args)

    monkeypatch.setattr(runner, "_trial_worker", crash_on_second_seed)
    with pytest.raises(RuntimeError, match="worker crashed"):
        run_grid(config, store, kind="family", log=lambda *_: None)
    kept = store.load()
    assert {r.seed for r in kept} == {config.seeds[0]}
    assert len(kept) == 2 + 2 * 4
    for rec in kept:
        if rec.role.endswith("_anchor"):
            assert os.path.exists(store.checkpoint_path(rec.run_id))
    monkeypatch.setattr(runner, "_trial_worker", worker)
    log = []
    assert run_grid(config, store, kind="family", log=log.append) == 2 + 2 * 4
    assert log[0] == f"seed {config.seeds[0]}: already in store (idempotent skip)"
    assert [r.run_id for r in store.load()[: len(kept)]] == [r.run_id for r in kept]


_TRIAL_WORKER = runner._trial_worker


def _fail_seed_1(args):
    """Trial worker of the pool test, at module level so that the pool can
    send it. It marks every trial it starts and fails seed 1 at once; the
    other trials wait half a second first, so the failure arrives while
    seed 0 still runs."""
    _, config, seed = args
    open(os.path.join(config.out, f"started-{seed}"), "w").close()
    if seed == 1:
        raise RuntimeError("trial 1 failed")
    time.sleep(0.5)
    return _TRIAL_WORKER(args)


def test_pool_failure_cancels_trials_not_started(tmp_path, monkeypatch):
    config = tiny_config(tmp_path, seeds=list(range(10)), steps=10, workers=2)
    store = ResultsStore(config.out)
    monkeypatch.setattr(runner, "_trial_worker", _fail_seed_1)
    with pytest.raises(RuntimeError, match="trial 1 failed"):
        run_grid(config, store, kind="anchors", log=lambda *_: None)
    assert {r.seed for r in store.load()} == {0}  # finished before the failure
    started = {int(p.name.split("-")[1]) for p in tmp_path.glob("started-*")}
    # Only trials a worker had taken (2) or the pool had queued for its
    # workers (3, plus 1 refilled as the failure came in) may have run.
    assert {0, 1} <= started <= set(range(6))


def _report_blas_env(args):
    """Trial worker, at module level so that the pool can send it: it
    writes the BLAS thread-count variables it sees to the out directory and
    trains nothing."""
    _, config, seed = args
    seen = {var: os.environ.get(var) for var in runner._BLAS_THREAD_VARS}
    with open(os.path.join(config.out, f"env-{seed}.json"), "w") as fh:
        json.dump(seen, fh)
    return [], {}


@pytest.mark.parametrize("user", [{}, {"OPENBLAS_NUM_THREADS": "2"}],
                         ids=["unset", "user-set"])
def test_pool_workers_get_one_blas_thread_unless_user_set(tmp_path, monkeypatch,
                                                         user):
    for var in runner._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in user.items():
        monkeypatch.setenv(var, value)
    before = dict(os.environ)
    config = tiny_config(tmp_path, seeds=[0, 1], workers=2)
    monkeypatch.setattr(runner, "_trial_worker", _report_blas_env)
    assert run_grid(config, ResultsStore(config.out), kind="family",
                    log=lambda *_: None) == 0
    assert dict(os.environ) == before
    want = {var: user.get(var, "1") for var in runner._BLAS_THREAD_VARS}
    for seed in config.seeds:
        assert json.loads((tmp_path / f"env-{seed}.json").read_text()) == want


def test_short_intervene_config_fails_before_training(tmp_path, capsys, monkeypatch):
    # 10 steps give freezing phases of round(0.5) = 0 steps each
    def no_work(*args, **kwargs):
        raise AssertionError("the grid built data or trained")

    monkeypatch.setattr(runner, "build_trial_data", no_work)
    monkeypatch.setattr(runner, "train_family", no_work)
    config = tiny_config(tmp_path / "run", seeds=[0], steps=10)
    with pytest.raises(ConfigError, match="freeze phases"):
        run_grid(config, ResultsStore(config.out), kind="mitigation")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    assert main(["intervene", "--config", str(cfg_path)]) == 1
    assert "freeze phases" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run" / "results.csv")


@pytest.fixture(scope="module")
def anchors_cli_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("anchors-cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(root / "run", steps=20).to_dict()))
    assert main(["train", "--config", str(cfg_path)]) == 0
    return cfg_path, root / "run"


def _store_copy(anchors_cli_store, tmp_path):
    cfg_path, out = anchors_cli_store
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return ["--config", str(cfg_path), "--out", str(copy)], copy / "results.csv"


@pytest.mark.parametrize("keep", [lambda n: 1, lambda n: n // 2, lambda n: n - 2,
                                  lambda n: n - 1],
                         ids=["one-byte", "half", "no-newline", "no-lf"])
def test_torn_last_row_is_ignored_and_rewritten(anchors_cli_store, tmp_path, keep):
    flags, csv_path = _store_copy(anchors_cli_store, tmp_path)
    data = csv_path.read_bytes()
    original = [r.run_id for r in ResultsStore(csv_path.parent).load()]
    last = data.rstrip(b"\r\n").rfind(b"\n") + 1  # where the last row starts
    csv_path.write_bytes(data[: last + keep(len(data) - last)])
    assert [r.run_id for r in ResultsStore(csv_path.parent).load()] == original[:-1]
    assert main(["report", *flags]) == 0
    assert main(["train", *flags]) == 0  # resumes the torn trial
    assert [r.run_id for r in ResultsStore(csv_path.parent).load()] == original
    resumed = csv_path.read_bytes()
    assert resumed[:last] == data[:last]
    assert resumed.endswith(b"\r\n") and resumed.count(b"\n") == data.count(b"\n")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_results_cut_at_any_offset_load_whole_rows_and_append_whole(
        anchors_cli_store, data):
    raw = (anchors_cli_store[1] / "results.csv").read_bytes()
    cut = data.draw(st.integers(0, len(raw)), label="cut")
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultsStore(tmp)
        Path(store.csv_path).write_bytes(raw)
        records = store.load()
        Path(store.csv_path).write_bytes(raw[:cut])
        try:
            kept = store.load()
        except StoreError:
            return
        # the header and each row end in "\r\n"; a row is whole once its "\n" is in
        whole = max(raw[:cut].count(b"\n") - 1, 0)
        assert kept == records[:whole]
        store.append(records[-1])
        torn_free = Path(store.csv_path).read_bytes()
        assert torn_free.endswith(b"\r\n")
        assert torn_free.count(b"\n") == whole + 2
        assert store.load() == records[:whole] + [records[-1]]


@pytest.mark.parametrize("corrupt", ["short", "bad-int", "cut"])
def test_malformed_earlier_row_is_store_error(anchors_cli_store, tmp_path, capsys,
                                              corrupt):
    flags, csv_path = _store_copy(anchors_cli_store, tmp_path)
    lines = csv_path.read_bytes().split(b"\r\n")
    if corrupt == "short":
        lines[1] = b",".join(lines[1].split(b",")[:10])
    elif corrupt == "bad-int":
        fields = lines[1].split(b",")
        fields[4] = b"x"  # the seed column
        lines[1] = b",".join(fields)
    else:
        lines[1] = lines[1][: len(lines[1]) // 2]
    csv_path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(StoreError, match="line 2"):
        ResultsStore(csv_path.parent).load()
    assert main(["report", *flags]) == 1
    assert main(["train", *flags]) == 1
    assert "line 2" in capsys.readouterr().err


def test_manifests_and_checkpoints_written(family_store):
    config, store, _ = family_store
    records = store.load()
    for rec in records:
        assert os.path.exists(
            os.path.join(store.manifest_dir, f"{rec.run_id}.json")
        )
    anchors = [r for r in records if r.role.endswith("_anchor")]
    for rec in anchors:
        assert os.path.exists(store.checkpoint_path(rec.run_id))


def test_contribution_rows_and_profiles(family_store):
    config, store, _ = family_store
    records = store.load()
    rows = contribution_rows(records)
    # 4 non-empty suffix sets per trial, 2 trials
    assert len(rows) == 8
    for _, _, rec, _ in rows:
        assert rec.enc_complement + rec.uut == rec.gap
        assert rec.amp + rec.fgt_complement == rec.gap
    profiles = localization_profiles(records)
    assert len(profiles) <= 2  # tiny-gap trials may fall below the floor
    for _, (_, prof) in profiles.items():
        assert sum(prof.enc_rates) == 1
        assert sum(prof.fgt_rates) == 1


@pytest.mark.parametrize("field, value", [("task", "bars17"), ("net", "mlp5")])
def test_contribution_rows_name_a_record_of_unknown_presets(family_store, field,
                                                            value):
    _, store, _ = family_store
    records = store.load()
    anchor = next(r for r in records if r.role == "clean_anchor")
    bad = dataclasses.replace(anchor, **{field: value})
    with pytest.raises(ConfigError,
                       match=f"cannot resolve presets for record {anchor.run_id}"):
        contribution_rows([bad if r is anchor else r for r in records])


# --------------------------------------------------------------------------
# report

def test_report_anchors_only_skips_localization(tmp_path, capsys):
    config = tiny_config(tmp_path / "anchors", seeds=[0, 1])
    store = ResultsStore(config.out)
    run_grid(config, store, kind="anchors", log=lambda *_: None)
    text = write_report(store.load(), config.out, log=lambda *_: None)
    assert "Clean-test error rates" in text
    assert "localization tables skipped" in text
    assert os.path.exists(os.path.join(config.out, "report_manifest.json"))


def test_report_full_store_has_tables(family_store):
    config, store, _ = family_store
    text = write_report(store.load(), config.out, log=lambda *_: None)
    assert "Clean-test error rates" in text
    manifest = json.load(open(os.path.join(config.out, "report_manifest.json")))
    all_ids = {r.run_id for r in store.load()}
    assert any(manifest.values())
    for ids in manifest.values():
        assert set(ids) <= all_ids


_STRONG = dict(task="bars16", skew_kind="watermark", skew_strength=0.75,
               skew_frequency="127/128", net="mlp4", optimizer="adamw",
               mode="scratch", steps=30, batch_size=16, train_n=256, test_n=128,
               master_seed=0)
_WEAK = dict(_STRONG, skew_strength=0.25, skew_frequency="15/16", optimizer="sgd")
# (trial, seed, family, cell, anchors' clean-test errors (of 200), pairs),
# a pair being (set, intervened_c error, intervened_s error, diverged)
# (a single family's set for block 0 is the suffix 1:4, as the runner writes it)
_GOLDEN_TRIALS = [
    ("suf0", 0, "suffix", _STRONG, (20, 60), [
        ("0:4", 60, 20, False), ("1:4", 50, 28, False), ("2:4", 40, 35, False),
        ("3:4", 30, 45, False)]),
    ("suf1", 1, "suffix", _STRONG, (22, 58), [
        ("0:4", 58, 22, False), ("1:4", 49, 30, False), ("2:4", 37, 39, False),
        ("3:4", 29, 47, False)]),
    ("sgl2", 2, "single", _STRONG, (18, 62), [
        ("1:4", 27, 55, False), ("-{1}", 41, 40, False), ("-{2}", 70, 12, True),
        ("-{3}", 52, 24, False)]),
    # a zero gap: every set is below the gap floor
    ("sgl3", 3, "single", _STRONG, (40, 40), [
        ("1:4", 41, 39, False), ("-{1}", 40, 42, False), ("-{2}", 38, 40, False),
        ("-{3}", 40, 40, False)]),
    ("mit4", 4, "suffix", _STRONG, (21, 59), []),
    # the only seed of its setting
    ("sgl5", 0, "single", _WEAK, (30, 45), [("-{2}", 38, 36, False)]),
]
# mit4's retrainings: (set, clean-test error, kind, factor, targets, extent)
_GOLDEN_MITIGATIONS = [
    ("lr_up@0", 30, "lr_up", "2.0", "0", repr(29 / 38)),
    ("freeze@1", 59, "freeze", "", "1", "0.0"),
]


def _golden_records():
    """A store built by hand, with no training, so that its report reads the
    same on every platform."""
    records = []

    def add(trial, seed, family, cell, role, set_repr, err_clean, **kw):
        records.append(RunRecord(
            run_id=f"{trial}-{len(records):02d}", trial_id=trial, role=role,
            set=set_repr, seed=seed, family=family, err_clean_num=err_clean,
            err_clean_den=200, err_skewfull_num=100, err_skewfull_den=200,
            **cell, **kw))

    for trial, seed, family, cell, (err_c, err_s), pairs in _GOLDEN_TRIALS:
        head = (trial, seed, family, cell)
        add(*head, "clean_anchor", "", err_c)
        add(*head, "skewed_anchor", "", err_s)
        for set_repr, err_cA, err_sA, diverged in pairs:
            add(*head, "intervened_c", set_repr, err_cA)
            add(*head, "intervened_s", set_repr, err_sA, diverged=diverged)
    for set_repr, err, kind, factor, targets, extent in _GOLDEN_MITIGATIONS:
        add("mit4", 4, "suffix", _STRONG, "mitigation", set_repr, err,
            interv_kind=kind, interv_factor=factor, interv_targets=targets,
            extent=extent)
    return records


# one row per role, as results.csv holds it (csv's \r\n line ends)
_GOLDEN_ROWS = [
    b"suf0-00,suf0,clean_anchor,,0,bars16,watermark,0.75,127/128,mlp4,adamw,"
    b"scratch,suffix,30,16,256,128,0,20,200,100,200,0,ok,,,,,0.0\r\n",
    b"suf0-02,suf0,intervened_c,0:4,0,bars16,watermark,0.75,127/128,mlp4,adamw,"
    b"scratch,suffix,30,16,256,128,0,60,200,100,200,0,ok,,,,,0.0\r\n",
    b"mit4-46,mit4,mitigation,lr_up@0,4,bars16,watermark,0.75,127/128,mlp4,adamw,"
    b"scratch,suffix,30,16,256,128,0,30,200,100,200,0,ok,lr_up,2.0,0,"
    b"0.7631578947368421,0.0\r\n",
    b'quoted,sgl5,intervened_s,"{0,2}",0,bars16,watermark,0.25,15/16,mlp4,sgd,'
    b"scratch,single,30,16,256,128,0,36,200,100,200,1,ok,,,,,12.375\r\n",
]


def test_store_round_trips_records_byte_for_byte(tmp_path):
    records = _golden_records()
    # a diverged run whose set CSV must quote, with a wall time that is not 0
    records.append(dataclasses.replace(
        records[-3], run_id="quoted", set="{0,2}", diverged=True, wall_time=12.375))
    store = ResultsStore(tmp_path)
    for rec in records:
        store.append(rec)
    assert store.load() == records
    with open(store.csv_path, "rb") as fh:
        lines = fh.readlines()
    assert lines[0] == _HEADER.encode() + b"\r\n"
    assert len(lines) == 1 + len(records)
    for row in _GOLDEN_ROWS:
        assert row in lines


# report.txt pads every cell to its column width, trailing spaces included
_GOLDEN_TXT = "\n".join([
    'Clean-test error rates of clean and skewed anchors, mean (SE)',
    '',
    'setting                                     clean               skewed            ',
    '------------------------------------------  ------------------  ------------------',
    'bars16 a=0.25 f=15/16 mlp4 sgd scratch      insufficient (n=1)  insufficient (n=1)',
    'bars16 a=0.75 f=127/128 mlp4 adamw scratch  12.1% (2.0%)        27.9% (2.0%)      ',
    '',
    'Relative single-block contributions to encoding, mean (SE)',
    '',
    'setting                                     bl.0           bl.1                bl.2                bl.3              ',
    '------------------------------------------  -------------  ------------------  ------------------  ------------------',
    'bars16 a=0.25 f=15/16 mlp4 sgd scratch      -              -                   insufficient (n=1)  -                 ',
    'bars16 a=0.75 f=127/128 mlp4 adamw scratch  43.2% (18.2%)  insufficient (n=1)  -                   insufficient (n=1)',
    '[diverged runs excluded: 1; records below the gap floor: 4]',
    '',
    'Relative single-block contributions to forgetting, mean (SE)',
    '',
    'setting                                     bl.0           bl.1                bl.2                bl.3              ',
    '------------------------------------------  -------------  ------------------  ------------------  ------------------',
    'bars16 a=0.25 f=15/16 mlp4 sgd scratch      -              -                   insufficient (n=1)  -                 ',
    'bars16 a=0.75 f=127/128 mlp4 adamw scratch  42.1% (21.0%)  insufficient (n=1)  -                   insufficient (n=1)',
    '[diverged runs excluded: 1; records below the gap floor: 4]',
    '',
    'Increase rate of relative encoding by initial blocks, mean (SE)',
    '',
    'setting                                     bl.0          bl.1          bl.2          bl.3        ',
    '------------------------------------------  ------------  ------------  ------------  ------------',
    'bars16 a=0.75 f=127/128 mlp4 adamw scratch  25.0% (0.0%)  29.2% (4.2%)  23.6% (1.4%)  22.2% (2.8%)',
    '',
    'Increase rate of relative forgetting by initial blocks, mean (SE)',
    '',
    'setting                                     bl.0          bl.1          bl.2          bl.3        ',
    '------------------------------------------  ------------  ------------  ------------  ------------',
    'bars16 a=0.75 f=127/128 mlp4 adamw scratch  21.1% (1.1%)  21.2% (3.8%)  23.6% (1.4%)  34.0% (3.5%)',
]) + "\n"

_GOLDEN_MD = """\
### Clean-test error rates of clean and skewed anchors, mean (SE)

| setting | clean | skewed |
| --- | --- | --- |
| bars16 a=0.25 f=15/16 mlp4 sgd scratch | insufficient (n=1) | insufficient (n=1) |
| bars16 a=0.75 f=127/128 mlp4 adamw scratch | 12.1% (2.0%) | 27.9% (2.0%) |

### Relative single-block contributions to encoding, mean (SE)

| setting | bl.0 | bl.1 | bl.2 | bl.3 |
| --- | --- | --- | --- | --- |
| bars16 a=0.25 f=15/16 mlp4 sgd scratch | - | - | insufficient (n=1) | - |
| bars16 a=0.75 f=127/128 mlp4 adamw scratch | 43.2% (18.2%) | insufficient (n=1) | - | insufficient (n=1) |

_diverged runs excluded: 1; records below the gap floor: 4_

### Relative single-block contributions to forgetting, mean (SE)

| setting | bl.0 | bl.1 | bl.2 | bl.3 |
| --- | --- | --- | --- | --- |
| bars16 a=0.25 f=15/16 mlp4 sgd scratch | - | - | insufficient (n=1) | - |
| bars16 a=0.75 f=127/128 mlp4 adamw scratch | 42.1% (21.0%) | insufficient (n=1) | - | insufficient (n=1) |

_diverged runs excluded: 1; records below the gap floor: 4_

### Increase rate of relative encoding by initial blocks, mean (SE)

| setting | bl.0 | bl.1 | bl.2 | bl.3 |
| --- | --- | --- | --- | --- |
| bars16 a=0.75 f=127/128 mlp4 adamw scratch | 25.0% (0.0%) | 29.2% (4.2%) | 23.6% (1.4%) | 22.2% (2.8%) |

### Increase rate of relative forgetting by initial blocks, mean (SE)

| setting | bl.0 | bl.1 | bl.2 | bl.3 |
| --- | --- | --- | --- | --- |
| bars16 a=0.75 f=127/128 mlp4 adamw scratch | 21.1% (1.1%) | 21.2% (3.8%) | 23.6% (1.4%) | 34.0% (3.5%) |
"""


def _ids(trial, lo, hi):
    return [f"{trial}-{i:02d}" for i in range(lo, hi)]


_SINGLE_IDS = _ids("sgl2", 20, 30) + _ids("sgl5", 42, 46) + _ids("suf0", 0, 10) \
    + _ids("suf1", 10, 20)
_GOLDEN_MANIFEST = {
    "Clean-test error rates of clean and skewed anchors, mean (SE)":
        _ids("mit4", 40, 42) + _ids("sgl2", 20, 22) + _ids("sgl3", 30, 32)
        + _ids("sgl5", 42, 44) + _ids("suf0", 0, 2) + _ids("suf1", 10, 12),
    "Increase rate of relative encoding by initial blocks, mean (SE)":
        _ids("suf0", 0, 10) + _ids("suf1", 10, 20),
    "Increase rate of relative forgetting by initial blocks, mean (SE)":
        _ids("suf0", 0, 10) + _ids("suf1", 10, 20),
    "Relative single-block contributions to encoding, mean (SE)": _SINGLE_IDS,
    "Relative single-block contributions to forgetting, mean (SE)": _SINGLE_IDS,
}


def test_report_of_hand_built_store_is_golden(tmp_path):
    log = []
    text = write_report(_golden_records(), tmp_path, log=log.append)
    assert text == _GOLDEN_TXT
    assert (tmp_path / "report.txt").read_text() == _GOLDEN_TXT
    assert (tmp_path / "report.md").read_text() == _GOLDEN_MD
    assert (tmp_path / "report_manifest.json").read_text() == json.dumps(
        _GOLDEN_MANIFEST, sort_keys=True, indent=2)
    assert log == []


def test_report_mixes_nets_of_different_depth(tmp_path):
    # suffix families of a 6-block net next to the 4-block ones: the mlp4
    # rows have no bl.4 and bl.5 cells
    records = _golden_records()
    for trial in ("suf0", "suf1"):
        anchors = [dataclasses.replace(r, net="minicnn6", trial_id=f"{trial}c",
                                       run_id=f"{r.run_id}c")
                   for r in records if r.trial_id == trial and r.set == ""]
        err_c, err_s = (r.err_clean_num for r in anchors)
        records += anchors + [
            dataclasses.replace(anchors[0], role=role, set=f"{i}:6",
                                run_id=f"{trial}c-{role}-{i}", err_clean_num=err)
            for i in range(6)
            for role, err in (("intervened_c", err_s - 5 * i),
                              ("intervened_s", err_c + 5 * i))
        ]
    text = write_report(records, tmp_path, log=lambda *_: None)
    table = text.split("Increase rate of relative encoding")[1].split("\n\n")[1]
    header, _, cnn_row, mlp_row = table.splitlines()
    assert header.split()[-2:] == ["bl.4", "bl.5"]
    assert "minicnn6" in cnn_row and "-" not in cnn_row.split()
    assert "mlp4" in mlp_row and mlp_row.split()[-2:] == ["-", "-"]


def test_report_says_why_no_intervened_run_is_tabulated(tmp_path):
    # sgl3 alone: intervened runs, all below the gap floor
    records = [r for r in _golden_records() if r.trial_id == "sgl3"]
    text = write_report(records, tmp_path, log=lambda *_: None)
    assert "no intervened runs in store" not in text
    assert "note: no intervened run could be tabulated" in text


def test_metrics_setting_column_separates_skew_strengths(tmp_path):
    suf0 = [r for r in _golden_records() if r.trial_id == "suf0"]
    weak = [dataclasses.replace(r, run_id=f"{r.run_id}w", trial_id="suf0w",
                                skew_strength=0.25) for r in suf0]
    store = ResultsStore(tmp_path)
    for rec in suf0 + weak:
        store.append(rec)
    assert main(["metrics", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "metrics.csv", newline="") as fh:
        settings_seen = {row["setting"] for row in csv.DictReader(fh)}
    assert settings_seen == {"bars16 a=0.75 f=127/128 mlp4 adamw scratch",
                             "bars16 a=0.25 f=127/128 mlp4 adamw scratch"}


# metrics.csv and rates.csv of the hand-built store, one row a line (csv's
# \r\n line ends)
_GOLDEN_METRICS_CSV = "\r\n".join([
    'trial_id,setting,seed,set,gap,enc,uut,fgt,amp,enc_rel_pct,fgt_rel_pct,diverged',
    'sgl2,bars16 a=0.75 f=127/128 mlp4 adamw scratch,2,-{1},0.22,0.105,0.115,0.11,0.11,47.727273,50.000000,0',
    'sgl2,bars16 a=0.75 f=127/128 mlp4 adamw scratch,2,-{2},0.22,-0.04,0.26,-0.03,0.25,-18.181818,-13.636364,1',
    'sgl2,bars16 a=0.75 f=127/128 mlp4 adamw scratch,2,-{3},0.22,0.05,0.17,0.03,0.19,22.727273,13.636364,0',
    'sgl2,bars16 a=0.75 f=127/128 mlp4 adamw scratch,2,1:4,0.22,0.175,0.045,0.185,0.035,79.545455,84.090909,0',
    'sgl3,bars16 a=0.75 f=127/128 mlp4 adamw scratch,3,-{1},0.0,0.0,0.0,0.01,-0.01,,,0',
    'sgl3,bars16 a=0.75 f=127/128 mlp4 adamw scratch,3,-{2},0.0,0.01,-0.01,0.0,0.0,,,0',
    'sgl3,bars16 a=0.75 f=127/128 mlp4 adamw scratch,3,-{3},0.0,0.0,0.0,0.0,0.0,,,0',
    'sgl3,bars16 a=0.75 f=127/128 mlp4 adamw scratch,3,1:4,0.0,-0.005,0.005,-0.005,0.005,,,0',
    'sgl5,bars16 a=0.25 f=15/16 mlp4 sgd scratch,0,-{2},0.075,0.035,0.04,0.03,0.045,46.666667,40.000000,0',
    'suf0,bars16 a=0.75 f=127/128 mlp4 adamw scratch,0,0:4,0.2,0.0,0.2,0.0,0.2,0.000000,0.000000,0',
    'suf0,bars16 a=0.75 f=127/128 mlp4 adamw scratch,0,1:4,0.2,0.05,0.15,0.04,0.16,25.000000,20.000000,0',
    'suf0,bars16 a=0.75 f=127/128 mlp4 adamw scratch,0,2:4,0.2,0.1,0.1,0.075,0.125,50.000000,37.500000,0',
    'suf0,bars16 a=0.75 f=127/128 mlp4 adamw scratch,0,3:4,0.2,0.15,0.05,0.125,0.075,75.000000,62.500000,0',
    'suf1,bars16 a=0.75 f=127/128 mlp4 adamw scratch,1,0:4,0.18,0.0,0.18,0.0,0.18,0.000000,0.000000,0',
    'suf1,bars16 a=0.75 f=127/128 mlp4 adamw scratch,1,1:4,0.18,0.045,0.135,0.04,0.14,25.000000,22.222222,0',
    'suf1,bars16 a=0.75 f=127/128 mlp4 adamw scratch,1,2:4,0.18,0.105,0.075,0.085,0.095,58.333333,47.222222,0',
    'suf1,bars16 a=0.75 f=127/128 mlp4 adamw scratch,1,3:4,0.18,0.145,0.035,0.125,0.055,80.555556,69.444444,0',
]) + "\r\n"
_GOLDEN_RATES_CSV = "\r\n".join([
    'trial_id,task,skew_frequency,net,optimizer,seed,block,enc_rate,fgt_rate',
    'suf0,bars16,127/128,mlp4,adamw,0,0,0.25,0.2',
    'suf0,bars16,127/128,mlp4,adamw,0,1,0.25,0.175',
    'suf0,bars16,127/128,mlp4,adamw,0,2,0.25,0.25',
    'suf0,bars16,127/128,mlp4,adamw,0,3,0.25,0.375',
    'suf1,bars16,127/128,mlp4,adamw,1,0,0.25,0.2222222222222222',
    'suf1,bars16,127/128,mlp4,adamw,1,1,0.3333333333333333,0.25',
    'suf1,bars16,127/128,mlp4,adamw,1,2,0.2222222222222222,0.2222222222222222',
    'suf1,bars16,127/128,mlp4,adamw,1,3,0.19444444444444445,0.3055555555555556',
]) + "\r\n"
# the hand-built store's two suffix families share one setting, so every
# factor has one level
_GOLDEN_STATS_TXT = "\n".join([
    'variance explained in the increase rates (one-way eta squared)',
    '',
    'metric           dataset   skew_freq       model   optimizer',
    'encoding             n/a         n/a         n/a         n/a',
    'forgetting           n/a         n/a         n/a         n/a',
]) + "\n"


def _golden_store(out):
    store = ResultsStore(out)
    for rec in _golden_records():
        store.append(rec)
    return store


def test_metrics_and_stats_of_hand_built_store_are_golden(tmp_path, capsys):
    _golden_store(tmp_path)
    assert main(["metrics", "--out", str(tmp_path)]) == 0
    assert main(["stats", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "metrics.csv").read_bytes() == _GOLDEN_METRICS_CSV.encode()
    assert (tmp_path / "rates.csv").read_bytes() == _GOLDEN_RATES_CSV.encode()
    assert (tmp_path / "stats.txt").read_text() == _GOLDEN_STATS_TXT
    out = capsys.readouterr().out
    assert out == (f"wrote {tmp_path / 'metrics.csv'} (17 rows)\n"
                   f"wrote {tmp_path / 'rates.csv'} (2 profiles)\n"
                   + _GOLDEN_STATS_TXT + f"wrote {tmp_path / 'stats.txt'}\n")


@pytest.mark.parametrize("command", ["metrics", "stats", "report"])
def test_analysis_command_derives_contribution_rows_once(tmp_path, monkeypatch,
                                                         capsys, command):
    _golden_store(tmp_path)
    calls = []

    def counted(records):
        calls.append(len(records))
        return contribution_rows(records)

    for module in (runner, cli, report):
        monkeypatch.setattr(module, "contribution_rows", counted)
    assert main([command, "--out", str(tmp_path)]) == 0
    assert calls == [len(_golden_records())]


def test_parser_is_built_once_and_keeps_no_state():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    assert parser.parse_args(["counterfactual", "--debug-sync"]).debug_sync is True
    assert parser.parse_args(["counterfactual"]).debug_sync is None
    assert parser.parse_args(["metrics", "--out", "a"]).out == "a"
    assert parser.parse_args(["metrics"]).out is None


def test_profile_refuses_a_gap_below_the_floor():
    # anchors at 100/256 and 101/256: a gap of 1/256, under the 1/200 floor;
    # without it the Enc rates would read -200, 400, -500 and 400 %
    def rec(role, set_repr, err):
        return RunRecord(run_id=f"t-{role}-{set_repr}", trial_id="t", role=role,
                         set=set_repr, seed=0, family="suffix", err_clean_num=err,
                         err_clean_den=256, err_skewfull_num=128,
                         err_skewfull_den=256, **_STRONG)

    records = [rec("clean_anchor", "", 100), rec("skewed_anchor", "", 101)]
    for i, err_cA in enumerate((101, 103, 99, 104)):
        records += [rec("intervened_c", f"{i}:4", err_cA),
                    rec("intervened_s", f"{i}:4", 100)]
    assert len(contribution_rows(records)) == 4
    assert localization_profiles(records) == {}


def test_sampling_setting_label_names_the_skew_kind():
    # one task, one strength: only the skew kind tells the settings apart
    def anchors(skew_kind):
        return [RunRecord(run_id=f"{skew_kind}-{role}", trial_id=skew_kind,
                          role=role, set="", seed=0, family="suffix",
                          err_clean_num=err, err_clean_den=200,
                          err_skewfull_num=100, err_skewfull_den=200,
                          **dict(_STRONG, task="tint2", skew_kind=skew_kind))
                for role, err in (("clean_anchor", 20), ("skewed_anchor", 40))]

    watermark, sampling = anchors("watermark"), anchors("sampling")
    assert report.setting_label(watermark[0]) == (
        "tint2 a=0.75 f=127/128 mlp4 adamw scratch")
    assert report.setting_label(sampling[0]) == (
        "tint2 sampling f=127/128 mlp4 adamw scratch")
    rows = error_table(watermark + sampling).rows
    assert [row[0] for row in rows] == [report.setting_label(watermark[0]),
                                        report.setting_label(sampling[0])]


def test_error_table_requires_anchors():
    with pytest.raises(UsageError):
        error_table([])


# --------------------------------------------------------------------------
# CLI surface

def test_cli_gen_data(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "data").to_dict()))
    assert main(["gen-data", "--config", str(cfg_path), "--n", "0"]) == 1
    assert "train_n" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "data")
    rc = main(["gen-data", "--config", str(cfg_path), "--n", "64"])
    assert rc == 0
    ds = load_ssd1(tmp_path / "data" / "dataset_clean.ssd1")
    assert len(ds) == 64


@pytest.mark.parametrize("make", [Path.mkdir, lambda p: p.write_bytes(b"\xff\xfe{}")],
                         ids=["directory", "not-utf8"])
def test_unreadable_config_exits_1(tmp_path, capsys, make):
    path = tmp_path / "cfg.json"
    make(path)
    with pytest.raises(ConfigError, match="cannot read config"):
        ExperimentConfig.from_file(path)
    assert main(["report", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read config {path}")


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"task": "nope"}))
    assert main(["train", "--config", str(bad)]) == 1
    empty_out = tmp_path / "empty"
    assert main(["report", "--out", str(empty_out)]) == 1


@pytest.mark.parametrize("argv", [
    ["train", "--precision", "7"],
    ["report", "--bogus"],
    [],
    ["metrics", "--seed", "3"],
    ["gen-data", "--workers", "2"],
], ids=["bad-choice", "unknown-flag", "no-command", "metrics-seed", "gen-data-workers"])
def test_bad_argument_exits_1(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


# one trial's records (wall time aside) and anchor bytes, as JSON
_TRIAL_SCRIPT = """
import dataclasses, json, sys
from sscope.expcli.config import ExperimentConfig
from sscope.expcli.runner import run_trial

records, nets = run_trial(ExperimentConfig.from_dict(json.loads(sys.argv[1])), 0,
                          "family")
print(json.dumps({
    "records": [dict(dataclasses.asdict(r), wall_time=None) for r in records],
    "anchors": {key: net.flat.tobytes().hex() for key, net in nets.items()},
}))
"""


def test_blas_thread_count_leaves_trial_bytes_unchanged(tmp_path):
    # test_n above evaluate's 512-image chunk, so the largest GEMMs run too
    config = tiny_config(tmp_path / "run", net="minicnn6", seeds=[0], steps=20,
                         batch_size=32, test_n=600)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [
        json.loads(subprocess.run(
            [sys.executable, "-c", _TRIAL_SCRIPT, json.dumps(config.to_dict())],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
            capture_output=True, text=True, check=True,
        ).stdout)
        for threads in ("1", "2")
    ]
    assert len(outs[0]["records"]) == 14 and len(outs[0]["anchors"]) == 2
    assert outs[0] == outs[1]


@pytest.mark.parametrize("text", ["{ }", "{0,,1}", "-{x}", "a:6", "1:2:6"])
def test_bad_explicit_set_fails_before_training(tmp_path, capsys, text):
    raw = tiny_config(tmp_path / "run").to_dict()
    raw.update(family="explicit", explicit_sets=["1:4", text])
    with pytest.raises(ConfigError, match="explicit_sets"):
        ExperimentConfig.from_dict(raw)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["counterfactual", "--config", str(cfg_path)]) == 1
    assert "explicit_sets" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run" / "results.csv")


@pytest.mark.parametrize("family", ["suffix", "single"])
def test_explicit_sets_outside_the_explicit_family_fail(tmp_path, capsys, family):
    # never read, yet they would change the run ids and the trial seeds
    raw = tiny_config(tmp_path / "run", family=family).to_dict()
    raw["explicit_sets"] = ["{}"]
    with pytest.raises(ConfigError, match="explicit_sets"):
        ExperimentConfig.from_dict(raw)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["counterfactual", "--config", str(cfg_path)]) == 1
    assert "explicit_sets" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run" / "results.csv")


@pytest.mark.parametrize("optimizer, unread, read", [
    ("adamw", "momentum", "epsilon"), ("sgd", "epsilon", "momentum")])
def test_optimizer_override_the_optimizer_never_reads_fails(tmp_path, capsys,
                                                            optimizer, unread, read):
    assert getattr(optimizer_config(optimizer, {read: 0.5}), read) == 0.5
    with pytest.raises(ConfigError, match=unread):
        optimizer_config(optimizer, {unread: 0.5})
    raw = tiny_config(tmp_path / "run", optimizer=optimizer).to_dict()
    raw["optimizer_overrides"] = {unread: 0.5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert unread in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run" / "results.csv")


@pytest.mark.parametrize("frequency", ["a/b", "1/2/3", "1/0", "3/2", [1], [1, 0], 5,
                                       [0.5, 1], [True, 2], ["3", "4"], " 3/4"])
def test_bad_frequency_fails_before_training(tmp_path, capsys, frequency):
    raw = tiny_config(tmp_path / "run").to_dict()
    del raw["skew_frequency"]
    raw["skew"] = {"kind": "watermark", "frequency": frequency}
    with pytest.raises(ConfigError, match="frequency"):
        ExperimentConfig.from_dict(raw)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "frequency" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run" / "results.csv")


@pytest.mark.parametrize("bad", [
    {"seeds": 5},
    {"seeds": [0, "1"]},
    {"steps": "10"},
    {"task": ["bars16"]},
    {"debug_sync": 1},
    {"skew": ["x"]},
    {"skew": {"strength": [1]}},
    {"skew": {"patch_size": "abc"}},
    {"skew": {"frequncy": "rare"}},
    {"optimizer_overrides": {"peak_lr": "x"}},
    {"skew_frequency": [1.5, 2]},
    {"skew_frequency": [1, 2.0]},
    {"skew_frequency": [True, 2]},
    {"train_n": 0},
    {"test_n": 0},
    {"seeds": [3, 3]},
    {"family": "explicit", "explicit_sets": ["2:4", "{2,3}"]},
    {"batch_size": 512},
    {"optimizer_overrides": {"epsilon": -0.001}},
    {"optimizer_overrides": {"epsilon": -1.0}},
    {"optimizer_overrides": {"epsilon": 0}},
    {"optimizer_overrides": {"epsilon": float("inf")}},
    {"optimizer_overrides": {"weight_decay": float("nan")}},
    {"optimizer_overrides": {"peak_lr": float("inf")}},
    {"warmstart_checkpoint": "never_read.ssc1"},  # scratch mode: would enter the run id
], ids=["seeds-int", "seeds-str-item", "steps-str", "task-list", "debug-sync-int",
        "skew-list", "strength-list", "patch-size-str", "skew-unknown-key",
        "override-str", "frequency-float", "frequency-float-den", "frequency-bool",
        "train-n-zero", "test-n-zero", "seeds-repeated", "explicit-sets-repeated",
        "batch-size-over-train-n", "epsilon-negative", "epsilon-minus-one",
        "epsilon-zero", "epsilon-inf", "weight-decay-nan", "peak-lr-inf",
        "scratch-with-checkpoint"])
def test_malformed_config_fails_before_training(tmp_path, capsys, bad):
    raw = tiny_config(tmp_path / "run").to_dict()
    raw.update(bad)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(tmp_path / "run" / "results.csv")


@pytest.mark.parametrize("patch_size", [12, 16])
def test_blobs_window_without_room_fails_at_load(tmp_path, capsys, patch_size):
    # a blobs16 window of 12 to 16 pixels fits the image but leaves the
    # blobs no room; the config names patch_size before any data is built
    raw = tiny_config(tmp_path / "run").to_dict()
    raw.update(task="blobs16", patch_size=patch_size)
    with pytest.raises(UsageError, match=f"patch_size {patch_size} leaves no room"):
        ExperimentConfig.from_dict(raw)
    assert ExperimentConfig.from_dict(dict(raw, patch_size=11)).patch_size == 11
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "patch_size" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run" / "results.csv")


def test_sampling_skew_needs_attribute_groups(tmp_path, capsys):
    raw = tiny_config(tmp_path / "run").to_dict()
    raw["skew"] = {"kind": "sampling", "frequency": "rare"}
    with pytest.raises(ConfigError, match="attribute groups"):
        ExperimentConfig.from_dict(raw)
    assert ExperimentConfig.from_dict(dict(raw, task="tint2")).skew_kind == "sampling"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "attribute groups" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run" / "results.csv")


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_is_config_error(tmp_path, capsys, workers):
    with pytest.raises(ConfigError, match="workers"):
        tiny_config(tmp_path / "run", workers=workers)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "run").to_dict()))
    rc = main(["train", "--config", str(cfg_path), "--workers", str(workers)])
    assert rc == 1
    assert "workers" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run" / "results.csv")


def test_bad_skew_frequency_field_is_config_error():
    with pytest.raises(ConfigError, match="skew_frequency"):
        ExperimentConfig.from_dict({"skew_frequency": [1, 0]})


def test_cli_train_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg = tiny_config(tmp_path / "run", seeds=[0, 1], steps=20)
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["report", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "Clean-test error rates" in out


def test_cli_env_out_override(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg = tiny_config(tmp_path / "ignored", seeds=[0, 1], steps=20)
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("SSCOPE_OUT", str(env_dir))
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert os.path.exists(env_dir / "results.csv")
    assert not os.path.exists(tmp_path / "ignored" / "results.csv")


def test_cli_metrics_and_stats(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg = tiny_config(tmp_path / "fam", seeds=[0, 1], steps=30)
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert main(["counterfactual", "--config", str(cfg_path)]) == 0
    assert main(["metrics", "--config", str(cfg_path)]) == 0
    assert os.path.exists(tmp_path / "fam" / "metrics.csv")
    rc = main(["stats", "--config", str(cfg_path)])
    # stats needs complete suffix families above the gap floor; tolerate
    # usage refusal on this tiny fixture but not a crash
    assert rc in (0, 1)
