"""Benchmark of sscope's experiment grids.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One run repeats the workload's grid in fresh stores for about S seconds,
each repetition with its own data drawn from the seed, and checks every
output. With --trace 0 it times the end-to-end metrics; with --trace 1 it
times each module from outside instead (see spans.py) and runs the per-layer
microbenchmark. It prints every metric with its unit, then, as its last
line, one JSON object: correct, attempted, failed, metrics. ``all`` runs
every workload in turn, each in its own process.

Run files go to .perfbench_runs/<workload>-seed<N>-trace<T>/: machine facts,
per-repetition digests and, when traced, spans.jsonl.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SETUP_SAMPLES = 7
MIN_REPS = 2  # a median needs company; a traced run needs a plain/traced pair
# Analysis takes milliseconds, and the host's speed swings within a second,
# so each repetition times analysis passes over a longer stretch.
ANALYSIS_SECONDS = 0.4
TIME_UNITS = {"s", "ms", "us"}
RATE_UNITS = {"1/s", "GFLOP/s-computed"}

_SETUP_PROBE = r"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from sscope.expcli import cli, runner
from sscope.expcli.config import ExperimentConfig
from sscope.expcli.store import ResultsStore
config = ExperimentConfig.from_file(sys.argv[2])
ResultsStore(config.out).existing_run_ids()
print(time.perf_counter() - t0)
"""


def load_spec():
    """BENCHMARK.json: the workload names and every metric's unit."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None


def units(spec) -> dict:
    return {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
            for m in spec[key]}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def setup_seconds(grid, workload, seed: int, work: Path) -> float:
    """Import sscope, validate the config, open the store: in a new process,
    so the import is paid again."""
    config_path = grid.write_config(workload, seed, 0, work / "setup")
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(grid.SRC), str(config_path)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.split()[-1])


def repeat_for(seconds: float, step):
    """Call step(i) until the next call would overrun ``seconds``."""
    walls = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step(len(walls))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_REPS and elapsed + statistics.median(walls) > seconds:
            return


def at_pace(value: float, unit: str, factor: float) -> float:
    """A measured value scaled to the reference pace (see pace.py)."""
    if unit in TIME_UNITS:
        return value * factor
    if unit in RATE_UNITS:
        return value / factor
    return value


def end_to_end(grid, workload, seed, seconds, work, reference, pace):
    setup = []
    pace.mark()
    for _ in range(SETUP_SAMPLES):
        raw = setup_seconds(grid, workload, seed, work)
        setup.append(raw * pace.mark())
    grid.warm_up(workload, work)
    reps = []
    pace.mark()
    repeat_for(seconds, lambda i: reps.append(grid.run_repetition(
        workload, seed, i, work, ANALYSIS_SECONDS, reference, pace)))
    grid_s = statistics.median(r.grid_s * r.grid_pace for r in reps)
    metrics = {
        "setup_s": statistics.median(setup),
        "grid_s": grid_s,
        "trainee_steps_per_s": reps[0].passes / grid_s,
        "analysis_s": statistics.median(
            t * r.analysis_pace for r in reps for t in r.analysis_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return reps, metrics


def span_metrics(rows: dict, config, flops_per_pass: int) -> dict:
    """Per-layer metrics of one traced repetition from its span totals."""
    def get(name):
        return rows.get(name, (0, 0.0, 0.0))  # (calls, total_s, self_s)

    lg, ev = get("netcore.loss_and_grad"), get("netcore.evaluate")
    sync, opt = get("netcore.sync_blocks"), get("optim.step")
    train, retrain = get("counterfact.train"), get("interventions.retrain")
    append = get("expcli.store.append")
    steps = train[0] * config.steps  # every train_* call runs config.steps steps
    return {
        "netcore.loss_and_grad.calls": lg[0],
        "netcore.loss_and_grad.self_s": lg[2],
        "netcore.loss_and_grad.us_per_call": _ratio(lg[2], lg[0]) * 1e6,
        "netcore.loss_and_grad.gflop_per_s": _ratio(lg[0] * flops_per_pass, lg[2]) / 1e9,
        "netcore.evaluate.calls": ev[0],
        "netcore.evaluate.self_s": ev[2],
        "netcore.evaluate.images_per_s": _ratio(ev[0] * config.test_n, ev[2]),
        "netcore.sync_blocks.calls": sync[0],
        "netcore.sync_blocks.self_s": sync[2],
        "netcore.save_checkpoint.self_s": get("netcore.save_checkpoint")[2],
        "optim.step.calls": opt[0],
        "optim.step.self_s": opt[2],
        "optim.step.us_per_call": _ratio(opt[2], opt[0]) * 1e6,
        "skewlab.data_build.self_s": get("skewlab.data_build")[2],
        "skewlab.paired_batches.self_s": get("skewlab.paired_batches")[2],
        "counterfact.train.self_s": train[2],
        "counterfact.step_ms": _ratio(train[1], steps) * 1e3,
        "counterfact.steps_per_s": _ratio(steps, train[1]),
        "counterfact.grads_per_step": _ratio(lg[0], steps),
        "interventions.retrain.calls": retrain[0],
        "interventions.retrain.self_s": retrain[2],
        "metrics.self_s": get("metrics")[2],
        "stats.self_s": get("stats")[2],
        "expcli.store.append.calls": append[0],
        "expcli.store.append.self_s": append[2],
        "expcli.store.load.self_s": get("expcli.store.load")[2],
        "expcli.report.self_s": get("expcli.report")[2],
        "expcli.runner.self_s": get("expcli.runner")[2],
    }


def per_layer(grid, workload, seed, seconds, work, reference, pace, unit):
    import layerbench
    import spans
    from sscope.expcli.config import ExperimentConfig

    pace.mark()
    layers = layerbench.layer_times(seed)
    factor = pace.mark()
    metrics = {name: at_pace(v, unit[name], factor) for name, v in layers.items()}
    grid.warm_up(workload, work)
    tracer = spans.Tracer()
    plain, traced = [], []

    def pair(i):
        # one analysis pass each, so span totals are those of one pass
        plain.append(grid.run_repetition(workload, seed, 2 * i, work, 0, reference,
                                         pace))
        with tracer:
            traced.append(grid.run_repetition(
                workload, seed, 2 * i + 1, work, 0, reference, pace, tracer=tracer))

    pace.mark()
    repeat_for(seconds, pair)
    config = ExperimentConfig.from_dict(grid.make_config(workload, seed, 0, work))
    # train_n is a multiple of the batch, so every loss_and_grad call is a full batch
    flops = layerbench.pass_flops(config.net_spec(), config.batch_size)
    per_rep = [span_metrics(tracer.by_name(r.trial), config, flops) for r in traced]
    for name in per_rep[0]:
        metrics[name] = statistics.median(
            at_pace(m[name], unit[name], r.grid_pace) for m, r in zip(per_rep, traced))
    metrics["trace.overhead_s"] = (
        statistics.median(r.grid_s * r.grid_pace for r in traced)
        - statistics.median(r.grid_s * r.grid_pace for r in plain))
    tracer.dump(work / "spans.jsonl")
    return plain + traced, metrics


def run_one(args, spec) -> int:
    import grid  # pins the BLAS thread count before numpy loads
    import checks
    from pace import Pace

    workload = grid.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    facts = checks.machine_facts()
    reference = checks.Reference(facts)
    unit = units(spec)
    if args.trace:
        reps, values = per_layer(grid, workload, args.seed, args.seconds, work,
                                 reference, Pace(), unit)
    else:
        reps, values = end_to_end(grid, workload, args.seed, args.seconds, work,
                                  reference, Pace())

    tally = checks.Tally()
    for r in reps:
        tally.merge(r.tally)
    statuses = [r.digest_status for r in reps]
    (work / "facts.json").write_text(json.dumps({
        "machine": facts,
        "reference_machine_matches": reference.matches,
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "repetitions": [
            {"rep": r.rep, "digest": r.digest, "digest_status": r.digest_status,
             "grid_s_raw": r.grid_s, "grid_pace": r.grid_pace,
             "analysis_pace": r.analysis_pace} for r in reps],
        "failures": tally.failures,
    }, indent=1))

    print(f"machine: {json.dumps(facts)}")
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions, results digest "
          f"{statuses.count('match')} matched, {statuses.count('mismatch')} mismatched, "
          f"{statuses.count('unchecked')} unchecked; "
          f"{sum(r.families > 0 for r in reps)} held a complete suffix family")
    for what in tally.failures:
        print(f"FAILED: {what}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {unit[name]}")
    print(f"failed_ratio = {_ratio(tally.failed, tally.attempted):g} "
          f"({tally.failed}/{tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in values.items()},
    }))
    return 0


def run_all(args, spec) -> int:
    """Every workload in its own process; one summary of all of them."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w['name']}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for name, m in result["metrics"].items():
            metrics[f"{w['name']}/{name}"] = m
            print(f"{w['name']:<18} {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"{'all':<18} {'failed_ratio':<40} {_ratio(failed, attempted):>14g} "
          f"({failed}/{attempted} operations)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    if spec is None or not (ROOT / "src" / "sscope" / "__init__.py").is_file():
        print("error: run from a checkout of sscope: BENCHMARK.json and "
              "src/sscope/ must sit next to perfbench/", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
