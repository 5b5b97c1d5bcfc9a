import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadzeta import stats
from quadzeta.irregularity import IndexRecord, IrregularPair
from quadzeta.stats import (
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
    table = build_distribution(records, "limit")
    assert table.population == "primes-fixed-D"
    assert table.size == 4
    assert table.observed[0] == 3 and table.observed[1] == 1
    assert abs(sum(table.grouped_expected) - 4) < 1e-9
    assert table.df == 3


def test_build_distribution_exact_mode():
    records = [_record(d, 3, 0, delta=2) for d in (5, 8, 12)] + [_record(13, 5, 1, delta=4)]
    table = build_distribution(records, "exact")
    # categories padded to the largest trial count (T = 2 at p = 5)
    assert len(table.expected) == 3
    assert abs(table.expected[0] - (3 * 2 / 3 + 16 / 25)) < 1e-12
    assert abs(sum(table.expected) - 4) < 1e-12


def test_build_distribution_empty():
    table = build_distribution([], "limit")
    assert table.significance == 1.0
    assert table.size == 0


def test_aggregate_identities():
    records = [_record(5, p, i % 3) for i, p in enumerate((3, 5, 7, 11, 13, 17))]
    records += [_record(8, p, (i + 1) % 2) for i, p in enumerate((3, 5, 7, 11, 13, 17))]
    report = aggregate_across_discriminants(records, "limit")
    assert report.discriminants == 2
    for avg, tot in zip(report.averages.observed, report.totals.observed):
        assert avg * 2 == tot  # exact, Fraction arithmetic
    assert abs(report.averages.chi_squared - report.totals.chi_squared / 2) < 1e-12


def test_aggregate_single_discriminant():
    records = [_record(5, p, 0) for p in (3, 7, 11, 13)]
    report = aggregate_across_discriminants(records, "limit")
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
    pairs = [IrregularPair(37, 32, 5, 1)]
    rep = ratio_uniformity_report(pairs, bins=2)
    u = 32 / 37
    assert abs(rep.ks_statistic - max(u, 1 - u)) < 1e-12
    with pytest.raises(ValueError):
        ratio_uniformity_report([], bins=2)
    with pytest.raises(ValueError):
        ratio_uniformity_report(pairs, bins=1)


def test_ratio_uniformity_bin_centers_zero_statistic():
    pairs = [IrregularPair(100, n, 5, 1) for n in (10, 30, 50, 70, 90)]
    rep = ratio_uniformity_report(pairs, bins=5)
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
    report = aggregate_across_discriminants(records, prediction)
    for table in (report.totals, report.averages):
        grouped = chi_squared_statistic(table.grouped_observed, table.grouped_expected,
                                        tail_from=None)
        assert table.chi_squared == grouped[0]
        assert table.df == len(table.grouped_observed) - 1 == grouped[1]
    assert report.averages.chi_squared == pytest.approx(
        report.totals.chi_squared / report.discriminants, rel=1e-12)


def test_empty_and_one_class_tables():
    for table in (build_distribution([], "exact"),
                  aggregate_across_discriminants([], "limit").averages):
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
