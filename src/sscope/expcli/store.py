"""Append-only results store: a versioned CSV plus JSONL run manifests.

The CSV header's first cell is the schema tag ("sscsv1"); that column holds
the run id. Error rates are stored as exact (mispredictions, n) integer
pairs so downstream metric arithmetic stays rational. Reports and metric
computations only ever read this store, never mutate it.

Each row is appended in one write. A file that does not end in a newline
has a torn last line (a write cut short): loading ignores it and the next
append truncates it. Any other short or malformed row is a StoreError.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import astuple, dataclass, fields

from ..errors import StoreError

__all__ = ["RunRecord", "ResultsStore", "SCHEMA_TAG"]

SCHEMA_TAG = "sscsv1"


@dataclass(frozen=True)
class RunRecord:
    """One results.csv row; its fields, in order, are the file's columns."""

    run_id: str  # the first column, titled with the schema tag
    trial_id: str
    role: str  # clean_anchor | skewed_anchor | intervened_c | intervened_s | mitigation
    set: str
    seed: int
    task: str
    skew_kind: str
    skew_strength: float
    skew_frequency: str
    net: str
    optimizer: str
    mode: str
    family: str
    steps: int
    batch_size: int
    train_n: int
    test_n: int
    master_seed: int
    err_clean_num: int
    err_clean_den: int
    err_skewfull_num: int
    err_skewfull_den: int
    diverged: bool = False
    status: str = "ok"
    interv_kind: str = ""
    interv_factor: str = ""
    interv_targets: str = ""
    extent: str = ""
    wall_time: float = 0.0

    def row(self):
        return [int(v) if isinstance(v, bool) else v for v in astuple(self)]


_COLUMNS = (SCHEMA_TAG,) + tuple(f.name for f in fields(RunRecord)[1:])

# one parser per column, from the field's declared type (a string under
# postponed annotations); a bool is stored as 0 or 1
_PARSE_BY_TYPE = {"str": str, "int": int, "float": float,
                  "bool": lambda s: bool(int(s))}
_PARSERS = tuple(_PARSE_BY_TYPE[f.type] for f in fields(RunRecord))


class ResultsStore:
    """Directory layout: results.csv, manifests/<run_id>.json, checkpoints/."""

    def __init__(self, out_dir):
        self.out_dir = str(out_dir)
        self.csv_path = os.path.join(self.out_dir, "results.csv")
        self.manifest_dir = os.path.join(self.out_dir, "manifests")
        self.checkpoint_dir = os.path.join(self.out_dir, "checkpoints")

    def _ensure_dirs(self):
        os.makedirs(self.manifest_dir, exist_ok=True)
        os.makedirs(self.checkpoint_dir, exist_ok=True)

    def append(self, record: RunRecord, manifest: dict | None = None):
        """Add one row in a single write, first cutting off a torn last line."""
        self._ensure_dirs()
        text = io.StringIO()
        writer = csv.writer(text)
        with open(self.csv_path, "a+b") as fh:
            size = _complete_length(fh)
            fh.truncate(size)
            if size == 0:
                writer.writerow(_COLUMNS)
            writer.writerow(record.row())
            fh.write(text.getvalue().encode("utf-8"))
        if manifest is not None:
            payload = dict(manifest)
            payload.setdefault("run_id", record.run_id)
            payload.setdefault("written_at", time.strftime("%Y-%m-%dT%H:%M:%S"))
            path = os.path.join(self.manifest_dir, f"{record.run_id}.json")
            with open(path, "w") as fh:
                json.dump(payload, fh, sort_keys=True, indent=None)
                fh.write("\n")

    def load(self) -> list:
        if not os.path.exists(self.csv_path):
            return []
        with open(self.csv_path, "rb") as fh:
            raw = fh.read()
        # a last line without its newline is an append cut short: ignore it
        raw = raw[: raw.rfind(b"\n") + 1]
        try:
            rows = list(csv.reader(io.StringIO(raw.decode("utf-8"), newline="")))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise StoreError(f"{self.csv_path}: unreadable: {exc}") from None
        if not rows:
            return []
        if tuple(rows[0]) != _COLUMNS:
            raise StoreError(
                f"{self.csv_path}: schema mismatch "
                f"(expected header tag {SCHEMA_TAG!r}, got {rows[0][:1]})"
            )
        return [self._parse(line, row) for line, row in enumerate(rows[1:], 2)]

    def _parse(self, line, row) -> RunRecord:
        if len(row) != len(_COLUMNS):
            raise StoreError(
                f"{self.csv_path}: line {line}: {len(row)} fields, "
                f"expected {len(_COLUMNS)}"
            )
        try:
            return RunRecord(*(parse(v) for parse, v in zip(_PARSERS, row)))
        except ValueError as exc:
            raise StoreError(f"{self.csv_path}: line {line}: {exc}") from None

    def existing_run_ids(self) -> set:
        return {r.run_id for r in self.load()}

    def checkpoint_path(self, run_id: str) -> str:
        self._ensure_dirs()
        return os.path.join(self.checkpoint_dir, f"{run_id}.ssc1")


def _complete_length(fh) -> int:
    """Length of a binary file up to the end of its last complete line; a
    file that does not end in a newline has a torn last line."""
    pos = fh.seek(0, os.SEEK_END)
    while pos > 0:
        step = min(pos, 4096)
        pos -= step
        fh.seek(pos)
        cut = fh.read(step).rfind(b"\n")
        if cut >= 0:
            return pos + cut + 1
    return 0
