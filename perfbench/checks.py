"""Output checks, results digests and machine facts of the sscope benchmark.

Every check is one operation: it passes or it fails, and the failures over
the operations attempted make the benchmark's failed ratio. A repetition's
results digest is compared with a stored reference only on a machine whose
facts match the reference's; elsewhere it is reported as unchecked, since
float bytes may legitimately differ across CPUs and BLAS builds.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import os
import platform
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from sscope.errors import SscopeError
from sscope.expcli.config import ExperimentConfig, run_id
from sscope.expcli.runner import (
    MITIGATION_KINDS,
    contribution_rows,
    intervention_sets,
    localization_profiles,
    mitigation_targets,
)
from sscope.expcli.store import ResultsStore

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Facts that decide the float bytes of a grid; the digest is checked only
# when all of them equal the reference machine's.
MATCH_KEYS = ("cpu_model", "cpu_flags_sha", "blas", "blas_version", "blas_core",
              "blas_threads", "numpy", "python")


@dataclass
class Tally:
    attempted: int = 0
    failures: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def add(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def merge(self, other: "Tally"):
        self.attempted += other.attempted
        self.failures.extend(other.failures)


# --------------------------------------------------------------------------
# expected records

def _mitigation_sets(m: int):
    for kind in MITIGATION_KINDS:
        for target in mitigation_targets(m):
            if kind.variant == "freeze" and target.is_double:
                continue  # freezing keeps a single block
            yield f"{kind.label()}@{target.label()}"


def mitigation_count(m: int) -> int:
    return sum(1 for _ in _mitigation_sets(m))


def expected_run_ids(kind: str, config: ExperimentConfig) -> dict:
    """run id -> (seed, role, set) of every record the grid must write."""
    m = config.net_spec().m
    keys = []
    for seed in config.seeds:
        keys += [(seed, "clean_anchor", ""), (seed, "skewed_anchor", "")]
        if kind == "mitigation":
            keys += [(seed, "mitigation", s) for s in _mitigation_sets(m)]
        else:
            for A in intervention_sets(config, m):
                if not A.is_empty:
                    keys += [(seed, role, A.canonical())
                             for role in ("intervened_c", "intervened_s")]
    return {run_id(config, *key): key for key in keys}


def _decompose(records):
    """(contribution rows, localization profiles); None when the records
    hold error rates the metrics refuse."""
    try:
        return contribution_rows(records), localization_profiles(records)
    except SscopeError:
        return None


def check_store(kind: str, config: ExperimentConfig, tally: Tally) -> list:
    """Every expected record present once with status ok and sane error pairs,
    and the decomposition identities exact on every contribution row."""
    try:
        records = ResultsStore(config.out).load()
    except (SscopeError, KeyError, ValueError, OSError):  # counted, not fatal
        records = []
        tally.add("results store loads", False)
    expected = expected_run_ids(kind, config)
    by_id = {}
    for rec in records:
        by_id.setdefault(rec.run_id, []).append(rec)
    for rid, key in expected.items():
        found = by_id.get(rid, [])
        ok = len(found) == 1
        if ok:
            rec = found[0]
            ok = (
                rec.status == "ok"
                and rec.err_clean_den == rec.err_skewfull_den == config.test_n
                and 0 <= rec.err_clean_num <= rec.err_clean_den
                and 0 <= rec.err_skewfull_num <= rec.err_skewfull_den
            )
        tally.add(f"record {key}", ok)
    tally.add("no unexpected records", set(by_id) <= set(expected))

    if kind == "family":
        decomposed = _decompose(records)
        tally.add("records decompose", decomposed is not None)
        rows = decomposed[0] if decomposed else []
        want = sum(1 for A in intervention_sets(config, config.net_spec().m)
                   if not A.is_empty)
        tally.add("one contribution row per set", len(rows) == want)
        for _tid, _anchor, rec, _diverged in rows:
            parts = (rec.enc_complement, rec.uut, rec.gap, rec.amp, rec.fgt_complement)
            tally.add(
                f"identities on {rec.A.canonical()}",
                all(isinstance(p, Fraction) for p in parts)
                and rec.enc_complement + rec.uut == rec.gap
                and rec.gap == rec.amp + rec.fgt_complement,
            )
    return records


def _table(path: Path, header_start: list, n_rows: int) -> bool:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (
        bool(rows)
        and rows[0][: len(header_start)] == header_start
        and len(rows) == 1 + n_rows
        and all(len(r) == len(rows[0]) for r in rows)
    )


def check_analysis(commands, passes, config: ExperimentConfig, records,
                   tally: Tally) -> int:
    """Each analysis subcommand ended as the store calls for, and the files it
    writes exist and parse. Returns the number of complete suffix families.

    ``stats`` and ``rates.csv`` need a complete suffix family with a nonzero
    anchor gap and no diverged partner. Short grids do not always train one,
    and then the right outcome is exit code 1 (usage error) and no file.
    """
    out = Path(config.out)
    rows, profiles = _decompose(records) or ([], {})  # a refusal counts in check_store
    expected = {"metrics": 0 if rows else 1, "stats": 0 if profiles else 1,
                "report": 0 if records else 1}
    for codes in passes:
        for command, code in codes.items():
            tally.add(f"sscope {command} exits {expected[command]}",
                      code == expected[command])

    def check(name, parse, written=True):
        try:
            ok = parse(out / name) if written else not (out / name).exists()
        except (OSError, ValueError, csv.Error):
            ok = False
        tally.add(f"{name} {'parses' if written else 'absent'}", ok)

    if "metrics" in commands and rows:
        check("metrics.csv", lambda p: _table(p, ["trial_id", "setting"], len(rows)))
        n_rates = config.net_spec().m * len(profiles)
        check("rates.csv", lambda p: _table(p, ["trial_id", "task"], n_rates),
              written=bool(profiles))
    if "stats" in commands:
        check("stats.txt", lambda p: all(
            word in p.read_text() for word in ("encoding", "forgetting")),
            written=bool(profiles))
    if "report" in commands and records:
        check("report.txt", lambda p: bool(p.read_text().strip()))
        check("report.md", lambda p: bool(p.read_text().strip()))
        check("report_manifest.json",
              lambda p: isinstance(json.loads(p.read_text()), dict))
    return len(profiles)


# --------------------------------------------------------------------------
# digests and machine facts

def results_digest(records) -> str:
    """sha256 over every (run id, clean error pair, skewed error pair)."""
    lines = sorted(
        f"{r.run_id} {r.err_clean_num}/{r.err_clean_den} "
        f"{r.err_skewfull_num}/{r.err_skewfull_den}"
        for r in records
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _cpuinfo(key: str) -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.split(":", 1)[0].strip() == key:
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _openblas():
    """(core name, thread count) from the OpenBLAS numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None, None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            try:
                core = getattr(lib, f"{prefix}_get_corename{suffix}")
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            core.restype, core.argtypes = ctypes.c_char_p, []
            threads.restype, threads.argtypes = ctypes.c_int, []
            return core().decode(), int(threads())
    return None, None


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    core, threads = _openblas()
    flags = " ".join(sorted(_cpuinfo("flags").split()))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpuinfo("model name"),
        "cpu_flags_sha": hashlib.sha256(flags.encode()).hexdigest()[:12],
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_core": core,
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


class Reference:
    """Reference digests keyed by workload and "seed:rep", with the facts of
    the machine that produced them."""

    def __init__(self, facts: dict, path: Path | None = REFERENCE_PATH):
        data = {"machine": {}, "digests": {}}
        if path is not None:
            try:
                data = json.loads(path.read_text())
            except (OSError, ValueError):
                pass  # no reference: every digest is unchecked
        self.machine = data["machine"]
        self.digests = data["digests"]
        self.matches = bool(self.machine) and all(
            self.machine.get(k) == facts.get(k) for k in MATCH_KEYS)

    def check(self, workload: str, seed: int, rep: int, digest: str,
              tally: Tally) -> str:
        want = self.digests.get(workload, {}).get(f"{seed}:{rep}")
        if not self.matches or want is None:
            return "unchecked"
        return "match" if tally.add("results digest", digest == want) else "mismatch"
