import ast
import math
from functools import reduce
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadzeta import stats
from quadzeta.irregularity import IndexColumns, IndexRecord, high_valuation_survey, merge_surveys
from quadzeta.stats import (
    IndexTally,
    aggregate_across_discriminants,
    build_distribution,
    chi_squared_statistic,
    exact_index_distribution,
    limit_fraction,
    ratio_uniformity_report,
    residue_class_report,
    residue_histogram,
    significance,
)


def _record(d, p, index, delta=None):
    hits = tuple((2 * (i + 1), 1) for i in range(index))
    return IndexRecord(d, p, delta if delta is not None else p - 1, "chi", hits)


def test_limit_fraction_values():
    assert round(limit_fraction(0), 6) == 0.606531
    assert round(limit_fraction(4), 6) == 0.001580
    assert abs(sum(limit_fraction(r) for r in range(40)) - 1.0) < 1e-12


def test_limit_fraction_past_the_float_range_is_zero():
    import os, subprocess, sys

    assert limit_fraction(157) == limit_fraction(170) == limit_fraction(171) == 0.0
    # r! itself is never built: 10^8! would take hours and hundreds of MB
    src = str(Path(stats.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", "from quadzeta.stats import limit_fraction; "
                           "print(limit_fraction(10**8))"], capture_output=True, text=True,
                          timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0 and proc.stdout == "0.0\n", proc.stderr


def test_exact_index_distribution():
    assert exact_index_distribution(3) == [Fraction(2, 3), Fraction(1, 3)]
    assert exact_index_distribution(5) == [Fraction(16, 25), Fraction(8, 25), Fraction(1, 25)]


def test_exact_distribution_sums_to_one_exactly():
    for p in (3, 5, 13, 97):
        assert sum(exact_index_distribution(p)) == 1


def test_exact_distribution_approaches_limit():
    # same binomial model evaluated in log space: materializing the exact
    # rationals at p ~ 10^6 would mean million-digit powers
    p = 1_000_003
    trials = (p - 1) // 2
    log_q = -math.log(p)
    log_1mq = math.log1p(-1.0 / p)
    for r in range(5):
        log_p_r = (
            math.lgamma(trials + 1)
            - math.lgamma(r + 1)
            - math.lgamma(trials - r + 1)
            + r * log_q
            + (trials - r) * log_1mq
        )
        assert abs(math.exp(log_p_r) - limit_fraction(r)) < 1e-3


def test_exact_distribution_matches_float_binomial_midrange():
    # the exact rationals and the float binomial agree where both are cheap
    p = 997
    probs = exact_index_distribution(p)
    trials = (p - 1) // 2
    for r in range(4):
        direct = math.comb(trials, r) * (1 / p) ** r * (1 - 1 / p) ** (trials - r)
        assert abs(float(probs[r]) - direct) < 1e-12


def test_significance_fixtures():
    fixtures = [
        (0.29, 3, 0.962),
        (0.1, 3, 0.992),
        (1.0, 3, 0.801),
        (0.03, 3, 0.999),
        (1.02, 3, 0.796),
        (0.78, 3, 0.854),
        (0.081, 2, 0.960),
        (2.420, 3, 0.490),
        (0.107, 1, 0.744),
        (0.060, 1, 0.806),
    ]
    for stat, df, expected in fixtures:
        assert abs(significance(stat, df) - expected) <= 0.002, (stat, df)


def test_significance_closed_forms():
    for x in (0.05, 0.5, 1.0, 3.0, 10.0, 40.0):
        assert abs(significance(x, 2) - math.exp(-x / 2)) < 1e-6
        # df 1: 2 * (1 - Phi(sqrt(x)))
        phi = 0.5 * (1 + math.erf(math.sqrt(x / 2)))
        assert abs(significance(x, 1) - 2 * (1 - phi)) < 5e-4
        # df 3: 2(1 - Phi(sqrt(x))) + sqrt(2x/pi) exp(-x/2)
        df3 = 2 * (1 - phi) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
        assert abs(significance(x, 3) - df3) < 5e-4


def test_significance_monotone_and_edges():
    assert significance(0, 1) == 1.0
    assert significance(0, 7) == 1.0
    last = 1.1
    for x in (0.0, 0.2, 1.0, 2.5, 7.0, 30.0, 100.0):
        s = significance(x, 3)
        assert s < last or (x == 0.0 and s == 1.0)
        last = s


@pytest.mark.parametrize("statistic", [math.inf, math.nan, -math.inf, -0.5])
def test_significance_needs_a_finite_nonnegative_statistic(statistic):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        significance(statistic, 3)


def test_chi_squared_statistic_reference():
    observed = [422, 186, 51, 9]
    n = 668
    expected = [n * limit_fraction(r) for r in range(3)]
    expected.append(n * (1 - sum(limit_fraction(r) for r in range(3))))
    stat, df = chi_squared_statistic(observed, expected, tail_from=3)
    assert round(stat, 2) == 2.10
    assert df == 3


def test_chi_squared_statistic_basics():
    stat, df = chi_squared_statistic([10, 20], [10.0, 20.0], tail_from=None)
    assert stat == 0.0 and df == 1
    with pytest.raises(ValueError):
        chi_squared_statistic([1, 2], [1.0, 0.0], tail_from=None)


def test_build_distribution_limit_mode():
    records = [_record(5, p, 0) for p in (3, 7, 11)] + [_record(5, 13, 1)]
    table = build_distribution(IndexTally.of(IndexColumns.from_records(records)), "limit")
    assert table.population == "primes-fixed-D"
    assert table.size == 4
    assert table.observed[0] == 3 and table.observed[1] == 1
    assert abs(sum(table.grouped_expected) - 4) < 1e-9
    assert table.df == 3


def test_build_distribution_exact_mode():
    records = [_record(d, 3, 0, delta=2) for d in (5, 8, 12)] + [_record(13, 5, 1, delta=4)]
    table = build_distribution(IndexTally.of(IndexColumns.from_records(records)), "exact")
    # categories padded to the largest trial count (T = 2 at p = 5)
    assert len(table.expected) == 3
    assert abs(table.expected[0] - (3 * 2 / 3 + 16 / 25)) < 1e-12
    assert abs(sum(table.expected) - 4) < 1e-12


def test_exact_prediction_stops_at_table_2_primes():
    # the exact binomials' common denominator grows with every distinct prime
    below = [_record(5, p, 0) for p in (3, 97)]
    assert build_distribution(IndexTally.of(IndexColumns.from_records(below)), "exact").size == 2
    with pytest.raises(ValueError, match="largest prime here is 101"):
        build_distribution(
            IndexTally.of(IndexColumns.from_records(below + [_record(5, 101, 0)])), "exact")
    with pytest.raises(ValueError, match="largest prime here is 2003"):
        aggregate_across_discriminants(
            IndexTally.of(IndexColumns.from_records([_record(8, 2003, 1)])), "exact")
    assert build_distribution(
        IndexTally.of(IndexColumns.from_records([_record(5, 2003, 1)])), "limit").size == 1


def test_build_distribution_empty():
    table = build_distribution(IndexTally.of(IndexColumns.from_records([])), "limit")
    assert table.significance == 1.0
    assert table.size == 0


def test_aggregate_identities():
    records = [_record(5, p, i % 3) for i, p in enumerate((3, 5, 7, 11, 13, 17))]
    records += [_record(8, p, (i + 1) % 2) for i, p in enumerate((3, 5, 7, 11, 13, 17))]
    report = aggregate_across_discriminants(
        IndexTally.of(IndexColumns.from_records(records)), "limit")
    assert report.discriminants == 2
    for avg, tot in zip(report.averages.observed, report.totals.observed):
        assert avg * 2 == tot  # exact, Fraction arithmetic
    assert abs(report.averages.chi_squared - report.totals.chi_squared / 2) < 1e-12


def test_aggregate_single_discriminant():
    records = [_record(5, p, 0) for p in (3, 7, 11, 13)]
    report = aggregate_across_discriminants(
        IndexTally.of(IndexColumns.from_records(records)), "limit")
    assert report.discriminants == 1
    assert list(report.averages.observed) == list(report.totals.observed)
    assert report.averages.chi_squared == pytest.approx(report.totals.chi_squared, rel=1e-12)


def test_residue_class_report():
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    irregular = [7, 13, 19, 31, 37]
    table = residue_class_report(irregular, primes, 4)
    assert table.categories == ("1", "3")
    assert sum(table.observed) == len(irregular)
    assert abs(sum(table.expected) - len(irregular)) < 1e-9
    assert table.df == 1
    with pytest.raises(ValueError):
        residue_class_report([], primes, 4)
    with pytest.raises(ValueError):
        residue_class_report(irregular, primes, 2)


def test_residue_class_equal_split_is_zero():
    primes = [3, 5, 7, 11]  # mod 4: classes 3, 1, 3, 3 -> shares 1/4 and 3/4
    irregular = [5, 3, 7, 11]  # same split exactly
    table = residue_class_report(irregular, primes, 4)
    assert table.chi_squared == 0.0


def test_ratio_uniformity_report():
    pairs = IndexColumns.from_records([IndexRecord(5, 37, 36, "chi", ((32, 1),))])
    rep = ratio_uniformity_report(IndexTally.of(pairs), bins=2)
    u = 32 / 37
    assert abs(rep.ks_statistic - max(u, 1 - u)) < 1e-12
    with pytest.raises(ValueError):
        ratio_uniformity_report(IndexTally.of(IndexColumns.from_records([])), bins=2)
    with pytest.raises(ValueError):
        ratio_uniformity_report(IndexTally.of(pairs), bins=1)


def test_ratio_uniformity_bin_centers_zero_statistic():
    pairs = IndexColumns.from_records(
        [IndexRecord(5, 100, 99, "chi", tuple((n, 1) for n in (10, 30, 50, 70, 90)))])
    rep = ratio_uniformity_report(IndexTally.of(pairs), bins=5)
    assert rep.chi_squared == 0.0
    assert rep.histogram == (1, 1, 1, 1, 1)


def test_residue_histogram():
    table = residue_histogram([0, 1, 2, 3, 4, 5, 6], 7)
    assert table.chi_squared == 0.0
    single = residue_histogram([3], 7)
    assert single.chi_squared == pytest.approx(6.0)  # = p - 1, one cell holds all mass
    with pytest.raises(ValueError):
        residue_histogram([], 7)


def test_residue_histogram_from_l_values():
    from quadzeta.lvalues import l_chi_mod

    values = [l_chi_mod(5, m, 7) for m in (1, 2, 3)]
    table = residue_histogram(values, 7)
    assert table.size == 3
    assert sum(table.observed) == 3


@st.composite
def _record_lists(draw):
    keys = draw(st.lists(st.tuples(st.sampled_from((5, 8, 12, 13, 17, 24)),
                                   st.sampled_from((3, 5, 7, 11, 13))),
                         min_size=1, max_size=30, unique=True))
    # an index never exceeds the trial count (p - 1)/2, so exact categories stay positive
    return [_record(d, p, draw(st.integers(0, min(4, (p - 1) // 2)))) for d, p in sorted(keys)]


@settings(max_examples=80, deadline=None)
@given(_record_lists(), st.sampled_from(["limit", "exact"]))
def test_every_table_tests_its_grouped_rows(records, prediction):
    report = aggregate_across_discriminants(
        IndexTally.of(IndexColumns.from_records(records)), prediction)
    for table in (report.totals, report.averages):
        grouped = chi_squared_statistic(table.grouped_observed, table.grouped_expected,
                                        tail_from=None)
        assert table.chi_squared == grouped[0]
        assert table.df == len(table.grouped_observed) - 1 == grouped[1]
    assert report.averages.chi_squared == pytest.approx(
        report.totals.chi_squared / report.discriminants, rel=1e-12)


def test_empty_and_one_class_tables():
    empty = IndexColumns.from_records([])
    for table in (build_distribution(IndexTally.of(empty), "exact"),
                  aggregate_across_discriminants(IndexTally.of(empty), "limit").averages):
        assert (table.significance, table.df, table.chi_squared) == (1.0, 0, 0.0)
        assert table.grouped_labels == ()
    # 7 and 11 are both 3 mod 4: one class leaves no degree of freedom
    with pytest.raises(ValueError, match="df must be positive"):
        residue_class_report([7], [7, 11], 4)


def test_one_distribution_table_constructor():
    # every DistributionTable comes from stats._table, which owns the chi-squared test
    sites = []
    for path in sorted(Path(stats.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for func in ast.walk(tree):  # breadth first: inner functions overwrite outer ones
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee == "DistributionTable":
                    sites.append((path.name, owner.get(node)))
    assert sites == [("stats.py", "_table")]


@st.composite
def _sharded_columns(draw):
    """D-sorted columns and consecutive shards of them.  Few D, p and 2m, so
    one (2m, p), and so one ratio, recurs in several shards, and a cut may
    fall inside the rows of one D or leave a shard empty."""
    keys = draw(st.lists(st.tuples(st.sampled_from((5, 8, 12, 13, 17)),
                                   st.sampled_from((3, 5, 7, 11, 13))),
                         min_size=1, max_size=40, unique=True))
    records = []
    for d, p in sorted(keys):
        two_ms = draw(st.lists(st.sampled_from(range(2, p, 2)), unique=True,
                               max_size=min(4, (p - 1) // 2)))
        hits = tuple((two_m, draw(st.integers(1, 3))) for two_m in sorted(two_ms))
        records.append(IndexRecord(d, p, p - 1, "chi", hits))
    cols = IndexColumns.from_records(records)
    bounds = [0, *sorted(draw(st.lists(st.integers(0, len(cols)), max_size=6))), len(cols)]
    return cols, [cols.take(np.arange(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]


def _per_hit_uniformity(cols, bins):
    """The 2m/p report from one sorted float per hit, as the whole columns gave it."""
    values = np.sort(cols.two_m / cols.hit_rows(cols.prime))
    n = len(values)
    hist = np.bincount(np.minimum((values * bins).astype(np.int64), bins - 1), minlength=bins)
    stat = stats._chi_squared(hist.tolist(), [n / bins] * bins)
    d_plus = np.max(np.arange(1, n + 1) / n - values)
    d_minus = np.max(values - np.arange(n) / n)
    return stats.UniformityReport(n, bins, tuple(hist.tolist()), stat, bins - 1,
                                  significance(stat, bins - 1), float(max(d_plus, d_minus)))


@settings(max_examples=150, deadline=None)
@given(_sharded_columns(), st.integers(2, 12))
def test_a_fold_over_shards_reports_the_whole_columns(sharded, bins):
    cols, parts = sharded
    whole = IndexTally.of(cols)
    folded = sum(map(IndexTally.of, parts), IndexTally())
    assert folded == whole
    assert folded.discriminants == len(set(cols.discriminant.tolist()))
    for prediction in ("limit", "exact"):
        report = aggregate_across_discriminants(folded, prediction)
        assert report == aggregate_across_discriminants(whole, prediction)
        assert report.discriminants == folded.discriminants
        assert report.totals == build_distribution(folded, prediction)
        counts = np.bincount(cols.index, minlength=len(report.totals.observed))
        assert report.totals.observed == tuple(float(c) for c in counts)
    probs = [stats.exact_index_distribution(p) for p in cols.prime.tolist()]
    expected = [sum(q[r] for q in probs if r < len(q))  # the exact prediction's
                for r in range(len(report.totals.expected))]
    assert report.totals.expected == tuple(float(e) for e in expected)
    if len(cols.two_m):  # equal ratios in different shards: the KS distance's ties
        assert ratio_uniformity_report(folded, bins) == _per_hit_uniformity(cols, bins)
    for p in (3, 5, 7, 13):
        surveys = (high_valuation_survey(part, p) for part in parts)
        assert reduce(merge_surveys, surveys, (0, [])) == high_valuation_survey(cols, p)
    top = max((k for _, k in folded.records), default=0)
    assert (top, sum(n for (_, k), n in folded.records.items() if k == top)) == (
        cols.index.max(), np.count_nonzero(cols.index == cols.index.max()))


def test_tallies_add_in_discriminant_order():
    five, eight = (IndexTally.of(IndexColumns.from_records([_record(d, 3, 1)])) for d in (5, 8))
    assert (five + five).discriminants == 1  # the shards of one D
    assert (five + eight).discriminants == 2 and (five + eight).d_span == (5, 8)
    assert five + IndexTally() == IndexTally() + five == five
    with pytest.raises(ValueError, match="D order"):
        eight + five

