"""Report generation: mean (SE) tables in plain text and Markdown.

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
from .runner import aggregate, contribution_rows, localization_profiles

__all__ = ["Table", "error_table", "localization_tables", "single_block_tables",
           "render_text", "render_markdown", "write_report"]


@dataclass
class Table:
    title: str
    header: list
    rows: list  # list of list of str
    footer: str = ""
    run_ids: list = field(default_factory=list)


def _cell_label(rec):
    return (
        f"{rec.task} a={rec.skew_strength} f={rec.skew_frequency} "
        f"{rec.net} {rec.optimizer} {rec.mode}"
    )


def _fmt(agg):
    if agg["insufficient"]:
        return f"insufficient (n={agg['n']})"
    return f"{agg['mean'] * 100:.1f}% ({agg['se'] * 100:.1f}%)"


def _table(title, cells, fmt, columns, run_ids, footer="") -> Table:
    """Mean (SE) of cells, (setting, column key) -> [(value, diverged)]:
    one row per setting, in sorted order, and one column per (key, header)
    of columns, with "-" where a setting has no values for a key."""
    agg = aggregate(cells)
    rows = [
        [setting] + [fmt(agg[(setting, key)]) if (setting, key) in agg else "-"
                     for key, _ in columns]
        for setting in sorted({setting for setting, _ in cells})
    ]
    return Table(title=title, header=["setting"] + [h for _, h in columns],
                 rows=rows, footer=footer, run_ids=sorted(set(run_ids)))


def _block_columns(cells):
    return [(b, f"bl.{b}") for b in sorted({b for _, b in cells})]


def error_table(records) -> Table:
    """Clean vs skewed anchor error rates on the clean test set."""
    cells = {}
    ids = []
    for rec in records:
        if rec.role not in ("clean_anchor", "skewed_anchor"):
            continue
        key = _cell_label(rec)
        col = "clean" if rec.role == "clean_anchor" else "skewed"
        cells.setdefault((key, col), []).append(
            (rec.err_clean_num / rec.err_clean_den, False)
        )
        ids.append(rec.run_id)
    if not cells:
        raise UsageError("store holds no anchor records")
    return _table("Clean-test error rates of clean and skewed anchors, mean (SE)",
                  cells, _fmt, [("clean", "clean"), ("skewed", "skewed")], ids)


def _trial_run_ids(records):
    ids = {}
    for rec in records:
        ids.setdefault(rec.trial_id, []).append(rec.run_id)
    return ids


_METRICS = (("enc", "encoding"), ("fgt", "forgetting"))


def single_block_tables(records):
    """Relative single-block contributions (family = single), mean (SE)."""
    rows_in = [
        (tid, anchor, rec, diverged)
        for tid, anchor, rec, diverged in contribution_rows(records)
        if len(rec.A.complement.members) == 1
    ]
    if not rows_in:
        return []
    trial_ids = _trial_run_ids(records)
    tables = []
    for metric, name in _METRICS:
        cells = {}
        ids = []
        excluded = 0
        below_floor = 0
        for tid, anchor, rec, diverged in rows_in:
            if diverged:
                excluded += 1
                continue
            try:
                rel = relative(rec)
            except UsageError:
                below_floor += 1
                continue
            block = rec.A.complement.sorted()[0]
            cells.setdefault((_cell_label(anchor), block), []).append(
                (getattr(rel, f"{metric}_pct"), False))
            ids.extend(trial_ids[tid])
        if not cells:
            continue
        footer = f"diverged runs excluded: {excluded}"
        if below_floor:
            footer += f"; records below the gap floor: {below_floor}"
        tables.append(_table(
            f"Relative single-block contributions to {name}, mean (SE)",
            cells, _fmt_pct, _block_columns(cells), ids, footer,
        ))
    return tables


def _fmt_pct(agg):
    if agg["insufficient"]:
        return f"insufficient (n={agg['n']})"
    return f"{agg['mean']:.1f}% ({agg['se']:.1f}%)"


def localization_tables(records):
    """Per-block increase rates of relative contributions (suffix family)."""
    profiles = localization_profiles(records)
    if not profiles:
        return []
    trial_ids = _trial_run_ids(records)
    tables = []
    for metric, name in _METRICS:
        cells = {}
        ids = []
        for tid, (anchor, prof) in profiles.items():
            for b, rate in enumerate(getattr(prof, f"{metric}_rates")):
                cells.setdefault((_cell_label(anchor), b), []).append(
                    (float(rate) * 100, False)
                )
            ids.extend(trial_ids[tid])
        tables.append(_table(
            f"Increase rate of relative {name} by initial blocks, mean (SE)",
            cells, _fmt_pct, _block_columns(cells), ids,
        ))
    return tables


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
    tables = [error_table(records)]
    notices = []
    single = single_block_tables(records)
    if single:
        tables.extend(single)
    loc = localization_tables(records)
    if loc:
        tables.extend(loc)
    if not single and not loc:
        notices.append(
            "no intervened runs in store: localization tables skipped"
        )
    text = render_text(tables)
    if notices:
        text += "\n" + "\n".join(f"note: {n}" for n in notices) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(text)
    with open(os.path.join(out_dir, "report.md"), "w") as fh:
        fh.write(render_markdown(tables))
        if notices:
            fh.write("\n" + "\n".join(f"_note: {n}_" for n in notices) + "\n")
    manifest = {
        t.title: t.run_ids for t in tables
    }
    with open(os.path.join(out_dir, "report_manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
    for n in notices:
        log(f"note: {n}")
    return text
