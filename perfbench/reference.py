"""Regenerate reference.json: the results digests of the benchmark's grids.

    python3 perfbench/reference.py --seeds 0-31 --reps 2

Runs repetitions 0..reps-1 of every workload for each seed, untimed, and
records each repetition's results digest together with this machine's facts.
Digests already stored are kept when the machine matches; on another
machine the file starts afresh. Regenerate it only when a change is meant
to alter the float bytes of training.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import grid  # pins the BLAS thread count before numpy loads
import checks
from pace import Pace


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="a seed or a range such as 0-31")
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(grid.WORKLOADS))
    args = parser.parse_args(argv)

    facts = checks.machine_facts()
    old = checks.Reference(facts)
    digests = old.digests if old.matches else {}
    unchecked = checks.Reference(facts, path=None)
    pace = Pace(iterations=1)  # untimed: the repetitions only need a pace to mark
    work = grid.ROOT / ".perfbench_runs" / "reference"
    names = [args.workload] if args.workload else list(grid.WORKLOADS)
    failed = 0
    for name in names:
        workload = grid.WORKLOADS[name]
        for seed in _seeds(args.seeds):
            for rep in range(args.reps):
                r = grid.run_repetition(workload, seed, rep, work, 0, unchecked, pace)
                if r.tally.failures:  # a failing grid is no reference
                    failed += 1
                    print(f"{name} {seed}:{rep} FAILED {r.tally.failures}",
                          file=sys.stderr)
                    continue
                digests.setdefault(name, {})[f"{seed}:{rep}"] = r.digest
                print(f"{name} {seed}:{rep} {r.digest}", flush=True)
    checks.REFERENCE_PATH.write_text(json.dumps(
        {"machine": {k: facts[k] for k in checks.MATCH_KEYS}, "digests": digests},
        indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
