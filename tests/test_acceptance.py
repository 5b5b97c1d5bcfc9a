"""End-to-end reproduction of the reference tabulations.

One test per criterion; the terminal summary prints a PASS/FAIL line for
each.  Criteria 4 and 6 assert the published grid-scan numbers verbatim.
Two of their clauses fail by design: the published index totals for the
D < 5000, p < 100 grid are short seven hits relative to the values this
implementation computes, and each disputed hit has been confirmed three
independent ways (exact rational kernel, Bernoulli-polynomial expansion,
and the period-sum congruence).  test_grid_counts_cross_validated pins
the computed values.
"""

import collections
import time

import numpy as np

from quadzeta.bernoulli import bernoulli_exact
from quadzeta.irregularity import IndexColumns, high_valuation_survey, scan_fixed_discriminant
from quadzeta.lvalues import (
    l_chi_exact,
    l_chi_mod,
    l_from_siegel,
    siegel_batch,
    zeta_d_exact,
)
from quadzeta.numtheory import (
    character_values,
    enumerate_fundamental_discriminants,
    kronecker_symbol,
    odd_primes_up_to,
)
from quadzeta.stats import (
    aggregate_across_discriminants,
    build_distribution,
    ratio_uniformity_report,
    residue_class_report,
    residue_histogram,
    significance,
)
from quadzeta import p_adic_valuation

TABLE1_OBSERVED = (422, 186, 51, 7, 2)
TABLE1_PREDICTED = (405.16, 202.58, 50.65, 8.44, 1.06)
TABLE1_SERIES = {
    1000: (3.32, 0.344),
    2000: (5.03, 0.170),
    3000: (2.51, 0.473),
    4000: (1.73, 0.630),
    5000: (2.10, 0.552),
}
TABLE2_OBSERVED = (21864, 11596, 2529, 347, 41, 7)
TABLE2_PREDICTED = (22068.01, 11034.01, 2758.50, 459.75, 57.47, 5.75)
TABLE3_OBSERVED = (338966, 252832, 16116)
TABLE3_PREDICTED = (397170.48, 198585.24, 12158.28)


def _index_counts(records):
    counter = collections.Counter(r.index for r in records)
    return [counter.get(r, 0) for r in range(max(counter) + 1)]


def test_criterion_1_table1_counts_and_predictions(table1_records, scan_dirs, capsys):
    start = time.monotonic()
    assert len(table1_records) == 668
    assert tuple(_index_counts(table1_records)) == TABLE1_OBSERVED
    table = build_distribution(table1_records, "limit")
    for got, want in zip(table.expected, TABLE1_PREDICTED):
        assert abs(got - want) <= 0.01, (got, want)
    import quadzeta.cli as cli

    assert cli.main(["report", "--input", str(scan_dirs["table1"]), "--table", "1"]) == 0
    text = capsys.readouterr().out
    assert "0 & 422 & 405.16 & .606531" in text
    assert "1 & 186 & 202.58 & .303265" in text
    assert time.monotonic() - start < 1800


def test_criterion_2_table1_chi_squared_series(table1_records):
    for cutoff, (stat_ref, sig_ref) in TABLE1_SERIES.items():
        sub = table1_records.take(np.flatnonzero(table1_records.prime < cutoff))
        table = build_distribution(sub, "limit")
        assert abs(table.chi_squared - stat_ref) <= 0.01, cutoff
        assert abs(table.significance - sig_ref) <= 0.002, cutoff


def test_criterion_3_four_discriminant_fixture():
    per_d_reference = {5: 3.32, 8: 1.74, 12: 1.15, 13: 2.54}
    parts = []
    for d, stat_ref in per_d_reference.items():
        recs = scan_fixed_discriminant(d, 1000)
        table = build_distribution(recs, "limit")
        assert abs(table.chi_squared - stat_ref) <= 0.01, d
        parts.append(recs)
    report = aggregate_across_discriminants(IndexColumns.concatenate(parts), "limit")
    assert abs(report.totals.chi_squared - 3.53) <= 0.01
    assert abs(report.totals.significance - 0.316) <= 0.002
    assert abs(report.averages.chi_squared - 0.884) <= 0.01
    assert abs(report.averages.significance - 0.829) <= 0.002


def test_criterion_4_table2_reproduction(table2_records):
    start = time.monotonic()
    assert len({r.discriminant for r in table2_records}) == 1516
    assert len(table2_records) == 36384
    report = aggregate_across_discriminants(table2_records, "limit")
    for got, want in zip(report.totals.expected, TABLE2_PREDICTED):
        assert abs(got - want) <= 0.05, (got, want)
    assert abs(report.averages.chi_squared - 0.053) <= 0.005
    assert abs(report.averages.significance - 0.997) <= 0.002
    assert report.totals.significance < 0.001
    assert time.monotonic() - start < 1800
    # published observed totals (seven hits short of the computed values;
    # module docstring has the verification story)
    assert tuple(_index_counts(table2_records)) == TABLE2_OBSERVED
    assert abs(report.totals.chi_squared - 81.1) <= 0.3


def test_criterion_5_table3_reproduction(table3_records):
    start = time.monotonic()
    assert len({r.discriminant for r in table3_records}) == 303_957
    assert len(table3_records) == 607_914
    assert tuple(_index_counts(table3_records)) == TABLE3_OBSERVED
    report = aggregate_across_discriminants(table3_records, "exact")
    for got, want in zip(report.totals.expected, TABLE3_PREDICTED):
        assert abs(got - want) <= 0.01, (got, want)
    assert abs(report.totals.chi_squared - 24636) <= 1.0
    assert abs(report.averages.chi_squared - 0.081) <= 0.002
    assert abs(report.averages.significance - 0.960) <= 0.002
    assert time.monotonic() - start < 900


def test_criterion_6_extremes(table2_records):
    best, attain = high_valuation_survey(table2_records, 3)
    assert best == 7
    assert sorted({d for d, _ in attain}) == [3869, 3937]
    top = max(r.index for r in table2_records)
    count_at_top = sum(1 for r in table2_records if r.index == top)
    # published claim; the computed maximum is 6, at the cross-validated
    # (1685, 29) record
    assert top == 5
    assert count_at_top == 7


def test_criterion_7_oracle_equivalence_gate():
    start = time.monotonic()
    for m in (1, 2):
        for d, zd in siegel_batch(m, 2, 1000):
            assert zd == zeta_d_exact(d, m), (d, m)
            assert l_from_siegel(d, m, zd) == l_chi_exact(d, m), (d, m)
    for d in enumerate_fundamental_discriminants(2, 100):
        for p in odd_primes_up_to(100):
            if d % p == 0:
                continue
            for m in range(1, (p - 1) // 2 + 1):
                exact = l_chi_exact(d, m)
                reduced = exact.numerator * pow(exact.denominator, -1, p) % p
                assert l_chi_mod(d, m, p) == reduced, (d, m, p)
    assert time.monotonic() - start < 60


def test_criterion_8_significance_fixtures():
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


def test_grid_counts_cross_validated(table2_records):
    # the computed grid totals, pinned; every index >= 4 record, every small
    # p | D pair, and random samples agree with the exact-rational kernel,
    # and spot values were reconfirmed by Bernoulli-polynomial and
    # period-sum brute force
    assert tuple(_index_counts(table2_records)) == (21862, 11597, 2529, 347, 41, 7, 1)
    top = max(table2_records, key=lambda r: r.index)
    assert (top.discriminant, top.prime) == (1685, 29)
    assert top.hits == ((2, 1), (6, 1), (8, 1), (10, 1), (20, 1), (28, 1))


def test_criterion_9_property_suites(table1_records, scan_dirs):
    # character laws on every fundamental discriminant below 10^4
    import random

    rng = random.Random(99)
    discs = enumerate_fundamental_discriminants(2, 10_000)
    for d in discs:
        assert int(character_values(d)[1:].sum()) == 0, d
    for d in rng.sample(discs, 40):
        for _ in range(25):
            a, b = rng.randint(1, 10_000), rng.randint(1, 10_000)
            assert kronecker_symbol(d, a * b) == kronecker_symbol(d, a) * kronecker_symbol(d, b)
            assert kronecker_symbol(d, a + d) == kronecker_symbol(d, a)
    # Bernoulli vanishing and denominators
    for n in range(3, 61, 2):
        assert bernoulli_exact(n) == 0
    for n in range(2, 61, 2):
        den = bernoulli_exact(n).denominator
        for q in [2] + odd_primes_up_to(n + 2):
            assert (den % q == 0) == (n % (q - 1) == 0), (n, q)
    # scan determinism across worker counts, byte-identical shards
    import quadzeta.cli as cli

    base = scan_dirs["table1"]
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        redo = Path(tmp) / "redo"
        assert cli.main(
            ["scan", "--kind", "fixed-disc", "--disc", "5", "--pmax", "5000",
             "--out", str(redo), "--workers", "16"]
        ) == 0
        for shard in sorted(base.glob("*.csv")):
            assert (redo / shard.name).read_bytes() == shard.read_bytes()
    # conjecture reports run and are well-formed
    uniformity = ratio_uniformity_report(table1_records, bins=10)
    assert uniformity.count == sum(r.index for r in table1_records) >= 1
    assert 0.0 <= uniformity.significance <= 1.0
    assert 0.0 < uniformity.ks_statistic <= 1.0
    primes = sorted({r.prime for r in table1_records})
    irregular = sorted({r.prime for r in table1_records if r.index > 0})
    classes = residue_class_report(irregular, primes, 4)
    assert len(classes.categories) == 2
    assert 0.0 <= classes.significance <= 1.0
    hist = residue_histogram([l_chi_mod(5, m, 7) for m in (1, 2, 3)], 7)
    assert hist.size == 3 and hist.df == 6
    # interior values stay p-integral on the small grid
    for d in enumerate_fundamental_discriminants(2, 100):
        for p in (3, 5, 7, 11, 13):
            if d == p:
                continue
            for n in range(2, p - 2, 2):
                assert p_adic_valuation(l_chi_exact(d, n // 2), p) >= 0
