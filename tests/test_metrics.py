from fractions import Fraction

import numpy as np
import pytest

from sscope.counterfact import InterventionSet
from sscope.errors import UsageError
from sscope.metrics import (
    GAP_FLOOR,
    contributions,
    detect_divergence,
    increase_rates,
    relative,
)

F = Fraction


def rec(err_c, err_s, err_cA, err_sA, A=None, m=6):
    A = A if A is not None else InterventionSet.single_complement(m, 2)
    return contributions(err_c, err_s, err_cA, err_sA, A)


def test_worked_example():
    r = rec(F(10, 100), F(30, 100), F(25, 100), F(12, 100))
    assert r.enc_complement == F(5, 100)
    assert r.uut == F(15, 100)
    assert r.fgt_complement == F(2, 100)
    assert r.amp == F(18, 100)
    assert r.enc_complement + r.uut == F(20, 100) == r.gap
    assert r.amp + r.fgt_complement == r.gap


def test_degenerate_empty_set():
    A = InterventionSet.empty(6)
    r = rec(F(1, 10), F(3, 10), F(1, 10), F(3, 10), A=A)
    assert r.uut == 0 and r.amp == 0
    assert r.enc_complement == r.gap == r.fgt_complement


def test_degenerate_full_set():
    A = InterventionSet.full(6)
    r = rec(F(1, 10), F(3, 10), F(3, 10), F(1, 10), A=A)
    assert r.enc_complement == 0 and r.fgt_complement == 0
    assert r.uut == r.gap == r.amp


def test_identities_exact_for_awkward_rationals():
    # rationals that would not decompose exactly in binary floating point
    for k in range(1, 50):
        r = rec(F(k, 997), F(k + 31, 499), F(k + 5, 311), F(k + 2, 701))
        assert r.enc_complement + r.uut == r.gap
        assert r.amp + r.fgt_complement == r.gap


def test_negative_contributions_are_valid():
    r = rec(F(2, 10), F(3, 10), F(1, 10), F(1, 10))
    assert r.enc_complement == F(2, 10)
    assert r.uut == -F(1, 10)  # no error raised


def test_out_of_range_rejected():
    with pytest.raises(UsageError):
        rec(F(11, 10), F(1, 2), F(1, 2), F(1, 2))


def test_relative_percentages():
    r = rec(F(0), F(141, 1000), F(27, 1000), F(114, 1000))
    rel = relative(r)
    assert rel.fgt_pct == pytest.approx(114 / 141 * 100)  # the ~80.9% regime
    assert rel.enc_pct + rel.uut_pct == pytest.approx(100.0)


def test_relative_zero_record():
    r = rec(F(1, 10), F(2, 10), F(2, 10), F(1, 10), A=InterventionSet.full(6))
    rel = relative(r)
    assert rel.enc_pct == 0.0 and rel.fgt_pct == 0.0


def test_relative_refuses_tiny_gap():
    r = rec(F(1, 10), F(1, 10) + F(1, 10**6), F(1, 10), F(1, 10))
    with pytest.raises(UsageError, match="too small"):
        relative(r)
    assert GAP_FLOOR == Fraction(1, 200)


def suffix_records(m, enc_cum, fgt_cum, err_c=F(1, 10), gap=F(1, 5)):
    """Build records whose cumulative contributions match the given vectors."""
    err_s = err_c + gap
    recs = []
    for i in range(m + 1):
        A = InterventionSet.suffix(m, i)
        err_cA = err_s - enc_cum[i]  # enc_{0:i} = err_s - err_cA
        err_sA = err_c + fgt_cum[i]  # fgt_{0:i} = err_sA - err_c
        recs.append(contributions(err_c, err_s, err_cA, err_sA, A))
    return recs


def test_increase_rates_worked_example():
    # cumulative fgt/gap over i=0..6 is [0, .01, .03, .08, .19, 1.0, 1.0]:
    # six blocks, with the full-set cumulative equal to the gap
    m = 6
    gap = F(1, 5)
    cum = [F(0), F(1, 100), F(3, 100), F(8, 100), F(19, 100), F(1), F(1)]
    fgt_cum = [c * gap for c in cum]
    recs = suffix_records(m, fgt_cum, fgt_cum, gap=gap)
    prof = increase_rates(recs)
    assert list(prof.fgt_rates[:5]) == [
        F(1, 100), F(2, 100), F(5, 100), F(11, 100), F(81, 100),
    ]
    assert sum(prof.fgt_rates) == 1


def test_increase_rates_roundtrip_random():
    rng = np.random.default_rng(5)
    m = 6
    for _ in range(20):
        cum = [F(0)]
        for _ in range(m):
            cum.append(cum[-1] + F(int(rng.integers(-30, 120)), 997))
        gap = F(1, 7)
        recs = suffix_records(m, [c * gap for c in cum], [c * gap for c in cum], gap=gap)
        prof = increase_rates(recs)
        # re-integration is exact in rational arithmetic
        acc = F(0)
        for b in range(m):
            acc += prof.enc_rates[b]
            assert acc == cum[b + 1]


def test_increase_rates_missing_suffix():
    m = 4
    recs = suffix_records(m, [F(0)] * (m + 1), [F(0)] * (m + 1))
    with pytest.raises(UsageError, match="missing suffix"):
        increase_rates(recs[:-1])


def test_increase_rates_rejects_non_suffix():
    recs = suffix_records(4, [F(0)] * 5, [F(0)] * 5)
    bad = contributions(
        F(1, 10), F(3, 10), F(2, 10), F(2, 10),
        InterventionSet.single_complement(4, 1),
    )
    with pytest.raises(UsageError, match="not a suffix"):
        increase_rates(recs + [bad])


def test_divergence_anchors_never_flagged():
    # the clean anchor fails the first condition, the skewed anchor the second
    sc, cs = F(3, 10), F(4, 10)
    assert detect_divergence(F(1, 10), cs, sc, cs) is False
    assert detect_divergence(sc, F(1, 100), sc, cs) is False


def test_divergence_detected():
    assert detect_divergence(F(1, 2), F(1, 2), F(3, 10), F(4, 10)) is True
    # worse than an anchor on one test view only is not divergence
    assert detect_divergence(F(1, 2), F(1, 10), F(3, 10), F(4, 10)) is False
    assert detect_divergence(F(1, 10), F(1, 2), F(3, 10), F(4, 10)) is False
