"""Self-tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

import csv
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import grid  # first: puts src/ on the path and pins the BLAS threads

import checks
import run
from pace import Pace
from sscope.expcli import runner
from sscope.expcli.config import ExperimentConfig
from sscope.expcli.store import ResultsStore

SPEC = run.load_spec()


def _names(key):
    return {m["name"] for m in SPEC[key]}


def _tiny(name="cnn-suffix-family"):
    w = grid.WORKLOADS[name]
    return replace(w, config=dict(w.config, steps=2, train_n=64, test_n=32))


def test_tiny_config_emits_every_named_metric(tmp_path):
    reference = checks.Reference(checks.machine_facts(), path=None)
    pace = Pace(iterations=10)
    reps, e2e = run.end_to_end(grid, _tiny(), 3, 0, tmp_path / "e2e", reference, pace)
    assert set(e2e) == _names("end_to_end")
    assert all(v > 0 for v in e2e.values())
    reps, layers = run.per_layer(grid, _tiny(), 3, 0, tmp_path / "traced", reference,
                                 pace, run.units(SPEC))
    assert set(layers) == _names("per_layer")
    assert layers["netcore.loss_and_grad.calls"] == 2 * 14  # steps x trainees
    assert layers["counterfact.grads_per_step"] == 14
    assert layers["netcore.evaluate.calls"] == 2 * 14
    assert (tmp_path / "traced" / "spans.jsonl").stat().st_size > 0


@pytest.fixture
def tiny_store(tmp_path):
    workload = _tiny()
    path = grid.write_config(workload, 5, 0, tmp_path)
    config = ExperimentConfig.from_file(path)
    runner.run_grid(config, ResultsStore(config.out), kind=workload.kind,
                    log=lambda *a: None)
    return workload, config


def _rewrite(config, edit):
    csv_path = Path(config.out) / "results.csv"
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    rows = [rows[0]] + edit(header, rows[1:])
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _set(column, value):
    def edit(header, rows):
        rows[3][header.index(column)] = value
        return rows
    return edit


@pytest.mark.parametrize("corrupt", [
    _set("status", "error"),
    _set("err_clean_num", "999"),
    _set("err_clean_den", "31"),
    lambda header, rows: rows[:-1],  # a record is missing
    lambda header, rows: rows + rows[:1],  # a record is duplicated
], ids=["status", "count", "denominator", "missing", "duplicate"])
def test_corrupted_record_counts_as_failed(tiny_store, corrupt, tmp_path):
    workload, config = tiny_store
    clean = checks.Tally()
    records = checks.check_store(workload.kind, config, clean)
    assert clean.failed == 0 and clean.attempted > 0
    facts = checks.machine_facts()
    ref_path = tmp_path / "reference.json"
    ref_path.write_text(json.dumps({
        "machine": facts,
        "digests": {workload.name: {"5:0": checks.results_digest(records)}},
    }))
    reference = checks.Reference(facts, ref_path)

    _rewrite(config, corrupt)
    tally = checks.Tally()
    records = checks.check_store(workload.kind, config, tally)
    reference.check(workload.name, 5, 0, checks.results_digest(records), tally)
    assert tally.failed >= 1
    assert run._ratio(tally.failed, tally.attempted) > 0


def test_digest_is_unchecked_on_another_machine(tmp_path):
    facts = dict(checks.machine_facts(), cpu_model="another cpu")
    ref_path = tmp_path / "reference.json"
    ref_path.write_text(json.dumps({"machine": checks.machine_facts(),
                                    "digests": {"w": {"0:0": "abc"}}}))
    tally = checks.Tally()
    assert checks.Reference(facts, ref_path).check("w", 0, 0, "xyz", tally) == "unchecked"
    assert tally.attempted == 0


def test_command_prints_result_last():
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "mlp-single-family",
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _names("end_to_end")
    assert "failed_ratio = 0" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in Path(run.__file__).parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mlp-single-family",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
