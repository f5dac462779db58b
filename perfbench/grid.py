"""Workloads of the sscope benchmark, and one repetition of a workload.

A repetition writes a JSON config derived from the workload seed, opens a
fresh results store, runs the grid through the public ``sscope.expcli``
entry points, runs the analysis subcommands that apply to that store, and
checks every output. The program sees nothing of the benchmark but the
config file.
"""

from __future__ import annotations

import os
import sys

# OpenBLAS reads its thread count once, when numpy loads it, so the pin has
# to precede the first numpy import. One thread: on a 2-core box two threads
# were no faster on a family grid and spread more from run to run.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402

from sscope.expcli import cli, runner  # noqa: E402
from sscope.expcli.config import ExperimentConfig, trial_id  # noqa: E402
from sscope.expcli.store import ResultsStore  # noqa: E402

import checks  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # run_grid kind: "family" (sscope counterfactual) or "mitigation"
    analysis: tuple  # sscope subcommands that apply to the finished store
    config: dict  # config fields besides seeds, master_seed and out

    def computing_trainees(self, config: ExperimentConfig) -> int:
        """Networks that run a forward/backward pass on every step."""
        m = config.net_spec().m
        if self.kind == "mitigation":
            return 2 + checks.mitigation_count(m)
        sets = [A for A in runner.intervention_sets(config, m) if not A.is_empty]
        return 2 + 2 * len(sets)


_WATERMARK = {"kind": "watermark", "strength": "strong", "frequency": "common"}
_COMMON = {"optimizer": "adamw", "batch_size": 32, "precision": 32,
           "mode": "scratch", "workers": 1}

# Sizes keep one grid at a few seconds on a 2-core box while the time split
# across modules stays that of the full-size grids (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cnn-suffix-family", "family", ("metrics", "stats", "report"),
            dict(_COMMON, task="bars16", skew=_WATERMARK, net="minicnn6",
                 family="suffix", steps=20, train_n=1024, test_n=256),
        ),
        Workload(
            "mlp-single-family", "family", ("metrics", "report"),
            dict(_COMMON, task="tint2",
                 skew={"kind": "sampling", "frequency": "rare"},
                 net="mlp4", family="single", steps=400, train_n=4096,
                 test_n=1024),
        ),
        Workload(
            "cnn-mitigation", "mitigation", ("report",),
            dict(_COMMON, task="bars16", skew=_WATERMARK, net="minicnn6",
                 family="suffix", steps=20, train_n=1024, test_n=256),
        ),
    )
}


def make_config(workload: Workload, seed: int, rep: int, out) -> dict:
    """The config of repetition ``rep``: every repetition draws its own data."""
    return dict(workload.config, master_seed=seed, seeds=[rep], out=str(out))


def write_config(workload: Workload, seed: int, rep: int, rep_dir: Path) -> Path:
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    path = rep_dir / "config.json"
    path.write_text(json.dumps(make_config(workload, seed, rep, rep_dir / "store")))
    return path


def _quiet(*_args, **_kw):
    pass


def run_analysis(workload: Workload, config_path: Path) -> dict:
    """Exit code of each analysis subcommand; what they print is dropped."""
    codes = {}
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for command in workload.analysis:
            codes[command] = cli.main([command, "--config", str(config_path)])
    return codes


@dataclass
class Repetition:
    rep: int
    trial: str
    grid_s: float
    passes: int
    digest: str
    digest_status: str  # match | mismatch | unchecked
    families: int  # complete suffix families the analysis found
    grid_pace: float  # factors to the reference pace, see pace.py
    analysis_pace: float
    analysis_s: list
    tally: checks.Tally


def run_repetition(workload: Workload, seed: int, rep: int, work: Path,
                   analysis_seconds: float, reference: checks.Reference, pace,
                   tracer=None) -> Repetition:
    """One grid in a fresh store, its analysis passes, and its output checks.

    Analysis passes repeat until ``analysis_seconds`` have passed; there is
    always one. ``pace`` is marked after the grid and after the analysis
    passes; the caller marks it before the repetition.
    """
    rep_dir = work / f"rep{rep}"
    config_path = write_config(workload, seed, rep, rep_dir)
    config = ExperimentConfig.from_file(config_path)
    tally = checks.Tally()
    tid = trial_id(config, rep)
    if tracer is not None:
        tracer.trial = tid
    t0 = time.perf_counter()
    try:
        runner.run_grid(config, ResultsStore(config.out), kind=workload.kind,
                        log=_quiet)
        grid_ok = True
    except Exception:  # a failed trial is counted; the run goes on
        traceback.print_exc(file=sys.stderr)
        grid_ok = False
    grid_s = time.perf_counter() - t0
    grid_pace = pace.mark()
    tally.add("trial", grid_ok)

    analysis_s = []
    passes = []
    t_end = time.perf_counter() + analysis_seconds
    while not passes or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        passes.append(run_analysis(workload, config_path))
        analysis_s.append(time.perf_counter() - t0)
    analysis_pace = pace.mark()

    if tracer is not None:
        tracer.trial = None  # the checks' own calls into sscope are not the trial's
    records = checks.check_store(workload.kind, config, tally)
    families = checks.check_analysis(workload.analysis, passes, config, records, tally)
    digest = checks.results_digest(records)
    status = reference.check(workload.name, seed, rep, digest, tally)
    if not tally.failures:  # a failing repetition's files stay for inspection
        shutil.rmtree(rep_dir, ignore_errors=True)
    return Repetition(
        rep=rep, trial=tid, grid_s=grid_s,
        passes=config.steps * workload.computing_trainees(config),
        digest=digest, digest_status=status, families=families,
        grid_pace=grid_pace, analysis_pace=analysis_pace,
        analysis_s=analysis_s, tally=tally,
    )


def warm_up(workload: Workload, work: Path):
    """Load every code path once on a tiny grid, so no repetition pays for it."""
    tiny = replace(
        workload, kind="family",
        config=dict(workload.config, steps=2, train_n=64, test_n=64),
    )
    config_path = write_config(tiny, 0, 0, work / "warmup")
    config = ExperimentConfig.from_file(config_path)
    runner.run_grid(config, ResultsStore(config.out), kind=tiny.kind, log=_quiet)
    run_analysis(tiny, config_path)
