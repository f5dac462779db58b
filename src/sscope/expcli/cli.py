"""Command-line entry point.

Subcommands: gen-data, train, counterfactual, metrics, stats, intervene,
report. Exit codes: 0 ok, 1 usage/config error (a bad command-line argument
included) or corrupt results store, 2 runtime failure. The SSCOPE_OUT
environment variable overrides the output directory from both the config
file and the --out flag.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from ..errors import SscopeError, StoreError, UsageError
from ..metrics import GAP_FLOOR, relative
from ..skewlab import save_ssd1
from ..stats import FactorTable, variance_explained
from .config import ExperimentConfig
from .report import setting_label, write_report
from .runner import build_trial_data, contribution_rows, localization_profiles, run_grid
from .store import ResultsStore

__all__ = ["main"]


# the grid kind each training command runs
_GRIDS = {"train": "anchors", "counterfactual": "family", "intervene": "mitigation"}
_COMMANDS = {
    "gen-data": "write clean/fully-skewed SSD1 files",
    "train": "train clean and skewed anchors over the seed grid",
    "counterfactual": "train the intervention-set family over the grid",
    "intervene": "run layer-wise mitigation retrainings",
    "metrics": "compute contribution metrics and increase rates",
    "stats": "variance-explained decomposition of the increase rates",
    "report": "render mean (SE) tables from the store",
}
# config field -> the flag that overrides it, for the flags a command has
_OVERRIDES = {"master_seed": "seed", "workers": "workers", "out": "out",
              "precision": "precision", "family": "family",
              "debug_sync": "debug_sync"}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose bad argument is a UsageError (exit 1), not
    argparse's exit 2; subparsers are of this class too."""

    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _load_config(args) -> ExperimentConfig:
    base = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    overrides = {name: getattr(args, flag) for name, flag in _OVERRIDES.items()
                 if getattr(args, flag, None) is not None}
    env_out = os.environ.get("SSCOPE_OUT")
    if env_out:
        overrides["out"] = env_out
    if overrides:
        base = ExperimentConfig.from_dict({**base.to_dict(), **overrides})
    return base


def build_parser():
    """Every command takes --config and --out; gen-data and the grid
    commands take --seed, and only the grid commands take the rest."""
    parser = _Parser(
        prog="sscope",
        description="Desk-scale laboratory for layer-wise shortcut localization",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="JSON experiment config")
        sub.add_argument("--out", help="output directory")
        if name == "gen-data" or name in _GRIDS:
            sub.add_argument("--seed", type=int, help="override master_seed")
        if name in _GRIDS:
            sub.add_argument("--workers", type=int, help="parallel trial workers")
            sub.add_argument("--precision", type=int, choices=(32, 64))
            sub.add_argument("--family", choices=("single", "suffix"))
            sub.add_argument("--debug-sync", action="store_true", default=None,
                             help="check one partner's shared-prefix gradients "
                                  "against a full pass at every step")
    gen = subs.choices["gen-data"]
    gen.add_argument("--n", type=int, help="override train_n for the export")
    gen.add_argument("--prefix", default="dataset", help="output file prefix")
    return parser


def cmd_gen_data(args) -> int:
    config = _load_config(args)
    if args.n is not None:
        config = ExperimentConfig.from_dict({**config.to_dict(), "train_n": args.n})
    pd, test_clean, test_full = build_trial_data(config, config.seeds[0])
    os.makedirs(config.out, exist_ok=True)
    paths = {
        f"{args.prefix}_clean.ssd1": pd.clean,
        f"{args.prefix}_fully_skewed.ssd1": pd.fully_skewed,
        f"{args.prefix}_test_clean.ssd1": test_clean,
        f"{args.prefix}_test_fully_skewed.ssd1": test_full,
    }
    for name, ds in paths.items():
        path = os.path.join(config.out, name)
        save_ssd1(ds, path)
        print(f"wrote {path} ({len(ds)} examples)")
    return 0


def cmd_grid(args) -> int:
    config = _load_config(args)
    store = ResultsStore(config.out)
    written = run_grid(config, store, kind=_GRIDS[args.command])
    print(f"{written} new records in {store.csv_path}")
    return 0


def cmd_metrics(args) -> int:
    config = _load_config(args)
    store = ResultsStore(config.out)
    records = store.load()
    rows = contribution_rows(records)
    if not rows:
        raise UsageError("store holds no complete (anchor, intervened) trials")
    metrics_path = os.path.join(config.out, "metrics.csv")
    with open(metrics_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["trial_id", "setting", "seed", "set", "gap", "enc", "uut", "fgt",
             "amp", "enc_rel_pct", "fgt_rel_pct", "diverged"]
        )
        for tid, anchor, rec, diverged in rows:
            try:
                rel = relative(rec)
                enc_rel, fgt_rel = f"{rel.enc_pct:.6f}", f"{rel.fgt_pct:.6f}"
            except UsageError:
                enc_rel = fgt_rel = ""
            writer.writerow(
                [tid, setting_label(anchor), anchor.seed, rec.A.canonical(),
                 float(rec.gap), float(rec.enc_complement), float(rec.uut),
                 float(rec.fgt_complement), float(rec.amp),
                 enc_rel, fgt_rel, int(diverged)]
            )
    print(f"wrote {metrics_path} ({len(rows)} rows)")
    profiles = localization_profiles(records)
    if profiles:
        rates_path = os.path.join(config.out, "rates.csv")
        with open(rates_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["trial_id", "task", "skew_frequency", "net", "optimizer",
                 "seed", "block", "enc_rate", "fgt_rate"]
            )
            for tid, (anchor, prof) in sorted(profiles.items()):
                for b in range(prof.m):
                    writer.writerow(
                        [tid, anchor.task, anchor.skew_frequency, anchor.net,
                         anchor.optimizer, anchor.seed, b,
                         float(prof.enc_rates[b]), float(prof.fgt_rates[b])]
                    )
        print(f"wrote {rates_path} ({len(profiles)} profiles)")
    else:
        print("no complete suffix families above the gap floor: rates.csv skipped")
    return 0


_FACTORS = {"dataset": "task", "skew_freq": "skew_frequency", "model": "net",
            "optimizer": "optimizer"}


def cmd_stats(args) -> int:
    config = _load_config(args)
    store = ResultsStore(config.out)
    profiles = localization_profiles(store.load())
    if not profiles:
        raise UsageError("store holds no complete suffix family with no diverged "
                         f"partner and a gap of at least {GAP_FLOOR}")
    factors = {name: [] for name in _FACTORS}
    enc, fgt = [], []
    for tid, (anchor, prof) in sorted(profiles.items()):
        for b in range(prof.m):
            for name, attr in _FACTORS.items():
                factors[name].append(getattr(anchor, attr))
            enc.append(float(prof.enc_rates[b]))
            fgt.append(float(prof.fgt_rates[b]))
    lines = ["variance explained in the increase rates (one-way eta squared)", ""]
    header = f"{'metric':<12}" + "".join(f"{n:>12}" for n in _FACTORS)
    lines.append(header)
    for label, resp in (("encoding", enc), ("forgetting", fgt)):
        table = FactorTable(factors=factors, response=resp)
        row = f"{label:<12}"
        for name in _FACTORS:
            try:
                row += f"{variance_explained(table, name) * 100:>11.1f}%"
            except UsageError:
                row += f"{'n/a':>12}"
        lines.append(row)
    text = "\n".join(lines) + "\n"
    path = os.path.join(config.out, "stats.txt")
    with open(path, "w") as fh:
        fh.write(text)
    print(text, end="")
    print(f"wrote {path}")
    return 0


def cmd_report(args) -> int:
    config = _load_config(args)
    store = ResultsStore(config.out)
    records = store.load()
    if not records:
        raise UsageError(f"no results store at {store.csv_path}")
    text = write_report(records, config.out)
    print(text, end="")
    return 0


def main(argv=None) -> int:
    handlers = {
        "gen-data": cmd_gen_data,
        **dict.fromkeys(_GRIDS, cmd_grid),
        "metrics": cmd_metrics,
        "stats": cmd_stats,
        "report": cmd_report,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (UsageError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SscopeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # keep tracebacks out of normal operation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
