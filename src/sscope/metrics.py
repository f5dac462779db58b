"""Contribution metrics over counterfactual model families.

Error rates enter as exact rationals (mispredictions over n), so the two
decomposition identities

    enc_complement + uut == gap == amp + fgt_complement

hold with zero arithmetic error, and telescoping per-block increase rates
re-integrate exactly to the cumulative suffix contributions. Values convert
to float only at the reporting edge.

Negative contributions are valid data, not errors: a block can actively
filter the skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .counterfact import InterventionSet
from .errors import UsageError

__all__ = [
    "GAP_FLOOR",
    "ContributionRecord",
    "RelativeContributions",
    "LocalizationProfile",
    "contributions",
    "relative",
    "increase_rates",
    "detect_divergence",
]

# below half a percentage point of gap, relative contributions explode
GAP_FLOOR = Fraction(1, 200)


@dataclass(frozen=True)
class ContributionRecord:
    A: InterventionSet
    err_c: Fraction
    err_s: Fraction
    err_cA: Fraction
    err_sA: Fraction

    @property
    def gap(self) -> Fraction:
        return self.err_s - self.err_c

    @property
    def enc_complement(self) -> Fraction:
        return self.err_s - self.err_cA

    @property
    def uut(self) -> Fraction:
        return self.err_cA - self.err_c

    @property
    def fgt_complement(self) -> Fraction:
        return self.err_sA - self.err_c

    @property
    def amp(self) -> Fraction:
        return self.err_s - self.err_sA


def contributions(err_c, err_s, err_cA, err_sA, A: InterventionSet) -> ContributionRecord:
    """Build a record from the four clean-test error rates."""
    vals = [Fraction(v) for v in (err_c, err_s, err_cA, err_sA)]
    for v in vals:
        if not 0 <= v <= 1:
            raise UsageError(f"error rate {v} outside [0, 1]")
    return ContributionRecord(A, *vals)


@dataclass(frozen=True)
class RelativeContributions:
    A: InterventionSet
    enc_pct: float
    uut_pct: float
    fgt_pct: float
    amp_pct: float
    gap: Fraction


def relative(record: ContributionRecord) -> RelativeContributions:
    """Normalize by the clean/skewed gap and express in percent."""
    gap = record.gap
    if abs(gap) < GAP_FLOOR:
        raise UsageError(
            f"gap {float(gap):.5f} too small to normalize (floor {float(GAP_FLOOR)})"
        )
    return RelativeContributions(
        A=record.A,
        enc_pct=float(record.enc_complement / gap * 100),
        uut_pct=float(record.uut / gap * 100),
        fgt_pct=float(record.fgt_complement / gap * 100),
        amp_pct=float(record.amp / gap * 100),
        gap=gap,
    )


@dataclass(frozen=True)
class LocalizationProfile:
    """Per-block increase rates of cumulative suffix-set contributions."""

    enc_rates: tuple  # length m, Fractions (units of gap)
    fgt_rates: tuple
    gap: Fraction

    @property
    def m(self):
        return len(self.enc_rates)


def increase_rates(suffix_records) -> LocalizationProfile:
    """Finite-difference the cumulative contributions over A = i:m.

    Expects one record per suffix set, i = 0..m. The record for A = i:m
    carries the cumulative contributions of blocks 0:i (its complement);
    rates are consecutive differences normalized by the gap and telescope to
    the full-set relative contribution. A gap below GAP_FLOOR is refused, as
    `relative` refuses it.
    """
    records = list(suffix_records)
    if not records:
        raise UsageError("no records supplied")
    m = records[0].A.m
    by_start = {}
    for r in records:
        mem = r.A.sorted()
        if mem != list(range(m - len(mem), m)):
            raise UsageError(f"record for {r.A.canonical()} is not a suffix set")
        by_start[m - len(mem)] = r
    missing = [i for i in range(m + 1) if i not in by_start]
    if missing:
        raise UsageError(f"missing suffix records for i in {missing}")
    gap = by_start[0].gap
    for r in records:
        if r.gap != gap:
            raise UsageError("records disagree on the anchor gap")
    if abs(gap) < GAP_FLOOR:
        raise UsageError(
            f"gap {float(gap):.5f} below the floor {float(GAP_FLOOR)}: rates undefined"
        )
    enc_cum = [by_start[i].enc_complement for i in range(m + 1)]
    fgt_cum = [by_start[i].fgt_complement for i in range(m + 1)]
    enc_rates = tuple((enc_cum[i + 1] - enc_cum[i]) / gap for i in range(m))
    fgt_rates = tuple((fgt_cum[i + 1] - fgt_cum[i]) / gap for i in range(m))
    return LocalizationProfile(enc_rates, fgt_rates, gap)


def detect_divergence(model_err_clean, model_err_skewfull,
                      anchor_s_err_clean, anchor_c_err_skewfull) -> bool:
    """A model diverged when it is worse than the skewed anchor on clean data
    and worse than the clean anchor on fully skewed data; such models are
    excluded from aggregation."""
    return (Fraction(model_err_clean) > Fraction(anchor_s_err_clean)
            and Fraction(model_err_skewfull) > Fraction(anchor_c_err_skewfull))
