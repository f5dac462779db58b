"""Report generation: mean (SE) tables in plain text and Markdown.

Every table is one row per setting (task, skew strength a, frequency f, net,
optimizer, mode; `setting_label`, also the `setting` column of metrics.csv)
and one column per anchor or block. A cell is the mean (SE) over the trials
of its setting of one value per trial: an anchor's clean-test error, a
block's relative single-block contribution, or a block's increase rate. A
cell with fewer than two values prints "insufficient (n=...)", and a setting
with no value for a column prints "-". The single-block tables leave out
diverged pairs and records below the gap floor and count both in their
footer; the increase-rate tables use only complete suffix families with no
diverged partner and a gap at or above the same floor.

Every table carries the run ids behind its numbers; write_report emits a
sidecar manifest mapping tables to those ids. Reading the store never
mutates it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from ..errors import UsageError
from ..metrics import relative
from ..stats import mean_se
from .runner import contribution_rows, localization_profiles

__all__ = ["Table", "setting_label", "error_table", "localization_tables",
           "single_block_tables", "render_text", "render_markdown", "write_report"]


@dataclass
class Table:
    title: str
    header: list
    rows: list  # list of list of str
    footer: str = ""
    run_ids: list = field(default_factory=list)


def setting_label(rec) -> str:
    return (
        f"{rec.task} a={rec.skew_strength} f={rec.skew_frequency} "
        f"{rec.net} {rec.optimizer} {rec.mode}"
    )


def _table(title, entries, columns, run_ids, scale=1, footer="") -> Table:
    """Mean (SE) of the values of (setting, column key, value) entries per
    cell, each printed times scale as a percentage: one row per setting, in
    sorted order, and one column per (key, header) of columns, with "-"
    where a setting has no values for a key."""
    cells = {}
    for setting, key, value in entries:
        cells.setdefault((setting, key), []).append(value)

    def fmt(values):
        if len(values) < 2:
            return f"insufficient (n={len(values)})"
        mean, se = mean_se(values)
        return f"{mean * scale:.1f}% ({se * scale:.1f}%)"

    rows = [
        [setting] + [fmt(cells[(setting, key)]) if (setting, key) in cells else "-"
                     for key, _ in columns]
        for setting in sorted({setting for setting, _ in cells})
    ]
    return Table(title=title, header=["setting"] + [h for _, h in columns],
                 rows=rows, footer=footer, run_ids=sorted(set(run_ids)))


def error_table(records) -> Table:
    """Clean vs skewed anchor error rates on the clean test set."""
    anchors = [rec for rec in records
               if rec.role in ("clean_anchor", "skewed_anchor")]
    if not anchors:
        raise UsageError("store holds no anchor records")
    entries = [(setting_label(rec), rec.role.split("_")[0],
                rec.err_clean_num / rec.err_clean_den) for rec in anchors]
    return _table("Clean-test error rates of clean and skewed anchors, mean (SE)",
                  entries, [("clean", "clean"), ("skewed", "skewed")],
                  [rec.run_id for rec in anchors], scale=100)


def _block_tables(title, rows, records, footer=""):
    """The encoding and the forgetting table, title formatted with each, of
    (trial id, anchor record, block, enc %, fgt %) rows; each table carries
    the run ids of every trial with a row. No rows, no tables."""
    if not rows:
        return []
    trials = {tid for tid, *_ in rows}
    ids = [rec.run_id for rec in records if rec.trial_id in trials]
    columns = [(b, f"bl.{b}") for b in sorted({block for _, _, block, *_ in rows})]
    return [
        _table(title.format(name),
               [(setting_label(anchor), block, pcts[k])
                for _, anchor, block, *pcts in rows],
               columns, ids, footer=footer)
        for k, name in enumerate(("encoding", "forgetting"))
    ]


def single_block_tables(records):
    """Relative single-block contributions (family = single), mean (SE)."""
    rows = []
    diverged = below_floor = 0
    for tid, anchor, rec, div in contribution_rows(records):
        if len(rec.A.complement.members) != 1:
            continue
        if div:
            diverged += 1
            continue
        try:
            rel = relative(rec)
        except UsageError:
            below_floor += 1
            continue
        rows.append((tid, anchor, rec.A.complement.sorted()[0],
                     rel.enc_pct, rel.fgt_pct))
    footer = f"diverged runs excluded: {diverged}"
    if below_floor:
        footer += f"; records below the gap floor: {below_floor}"
    return _block_tables("Relative single-block contributions to {}, mean (SE)",
                         rows, records, footer)


def localization_tables(records):
    """Per-block increase rates of relative contributions (suffix family)."""
    rows = [
        (tid, anchor, b, float(enc) * 100, float(fgt) * 100)
        for tid, (anchor, prof) in localization_profiles(records).items()
        for b, (enc, fgt) in enumerate(zip(prof.enc_rates, prof.fgt_rates))
    ]
    return _block_tables("Increase rate of relative {} by initial blocks, mean (SE)",
                         rows, records)


def render_text(tables) -> str:
    chunks = []
    for t in tables:
        widths = [
            max(len(str(r[i])) for r in [t.header] + t.rows)
            for i in range(len(t.header))
        ]
        lines = [t.title, ""]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(t.header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in t.rows:
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
        if t.footer:
            lines.append(f"[{t.footer}]")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def render_markdown(tables) -> str:
    chunks = []
    for t in tables:
        lines = [f"### {t.title}", ""]
        lines.append("| " + " | ".join(map(str, t.header)) + " |")
        lines.append("|" + "|".join(" --- " for _ in t.header) + "|")
        for row in t.rows:
            lines.append("| " + " | ".join(map(str, row)) + " |")
        if t.footer:
            lines.append("")
            lines.append(f"_{t.footer}_")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def write_report(records, out_dir, log=print) -> str:
    tables = ([error_table(records)] + single_block_tables(records)
              + localization_tables(records))
    note = ""
    if len(tables) == 1:
        note = "no intervened runs in store: localization tables skipped"
        if any(rec.role.startswith("intervened") for rec in records):
            note = ("no intervened run could be tabulated (each is diverged, "
                    "below the gap floor, or in no single-block set or complete "
                    "suffix family): localization tables skipped")
    text = render_text(tables) + (f"\nnote: {note}\n" if note else "")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(text)
    with open(os.path.join(out_dir, "report.md"), "w") as fh:
        fh.write(render_markdown(tables) + (f"\n_note: {note}_\n" if note else ""))
    with open(os.path.join(out_dir, "report_manifest.json"), "w") as fh:
        json.dump({t.title: t.run_ids for t in tables}, fh, sort_keys=True, indent=2)
    if note:
        log(f"note: {note}")
    return text
