"""Index distributions, chi-squared goodness of fit, and conjecture reports.

This is the only module that computes in floating point.  Predictions come
in two flavours:

* limit mode: P(index = r) -> (1/2)^r e^{-1/2} / r!, the large-p limit
  under the heuristic that each tested value vanishes mod p with
  probability 1/p over (p-1)/2 independent trials;
* exact mode: the small-p binomial itself, with T = (p-1)/2 trials of
  success probability 1/p per record.

The chi-squared statistic defaults to the grouping {0}, {1}, {2}, {>=3}
(three degrees of freedom); small-p tables override it with explicit
singleton categories.  Significance is the upper-tail probability of the
chi-squared distribution, Q(df/2, x/2).

The index statistics and the 2m/p ratio report take an IndexTally: the
records of some IndexColumns counted by (p, index), their hits by
(2m, p), and their distinct discriminants.  Tallies add, so a report
folds a scan's shards one at a time (shards.iter_shards) and holds only
the tally, whatever the scan's length; every statistic comes out of the
counts as it would from the whole columns.  Expected counts stay exact
Fraction sums.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .irregularity import IndexColumns


def limit_fraction(r: int) -> float:
    """Limiting fraction of primes with irregularity index r."""
    if r < 0:
        raise ValueError("index must be nonnegative")
    if r > 170:  # below 2e-361, so 0.0, and r! is past the float range
        return 0.0
    return 0.5**r * math.exp(-0.5) / math.factorial(r)


def exact_index_distribution(p: int) -> list[Fraction]:
    """Exact index probabilities at a small prime: binomial over T = (p-1)/2 trials.

    The self-conductor case D = p uses the same T by convention.
    """
    trials = (p - 1) // 2
    q = Fraction(1, p)
    return [math.comb(trials, r) * q**r * (1 - q) ** (trials - r) for r in range(trials + 1)]


def significance(statistic: float, df: int) -> float:
    """Upper-tail chi-squared probability Q(df/2, statistic/2)."""
    if not (math.isfinite(statistic) and statistic >= 0):
        raise ValueError(f"statistic must be finite and nonnegative, not {statistic}")
    if df < 1:
        raise ValueError("df must be positive")
    return _regularized_gamma_q(df / 2.0, statistic / 2.0)


def _regularized_gamma_q(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a): series below a + 1, continued fraction above."""
    if x <= 0.0:
        return 1.0
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        term = 1.0 / a
        total = term
        k = a
        while True:
            k += 1.0
            term *= x / k
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        p = total * math.exp(log_prefactor)
        return min(max(1.0 - p, 0.0), 1.0)
    # Lentz's continued fraction for the upper function
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return min(max(math.exp(log_prefactor) * h, 0.0), 1.0)


def group_indices(counts: Sequence[float], tail_from: int | None) -> tuple[list[str], list[float]]:
    """Collapse per-index counts into the chi-squared categories.

    tail_from = t groups everything with index >= t into one class; None
    keeps the given singletons as-is.
    """
    if tail_from is None:
        return [str(r) for r in range(len(counts))], list(counts)
    labels = [str(r) for r in range(tail_from)] + [f">={tail_from}"]
    head = list(counts[:tail_from]) + [0.0] * (tail_from - min(tail_from, len(counts)))
    tail = sum(counts[tail_from:]) if len(counts) > tail_from else 0.0
    return labels, head + [tail]


def _chi_squared(observed: Sequence, expected: Sequence) -> float:
    """sum((o - e)^2 / e) in category order; exact on Fractions until the final float."""
    return float(sum((o - e) ** 2 / e for o, e in zip(observed, expected)))


def chi_squared_statistic(
    observed: Sequence[float], expected: Sequence[float], tail_from: int | None = 3
) -> tuple[float, int]:
    """Goodness-of-fit statistic and degrees of freedom after grouping.

    Inputs are per-index sequences over an exhaustive category set; every
    grouped expected count must be positive.
    """
    _, obs = group_indices(observed, tail_from)
    _, exp = group_indices(expected, tail_from)
    if len(obs) != len(exp):
        raise ValueError("observed and expected category counts differ")
    if any(e <= 0 for e in exp):
        raise ValueError("every grouped category needs a positive expected count")
    return _chi_squared(obs, exp), len(exp) - 1


@dataclass(frozen=True)
class DistributionTable:
    """Observed vs expected index counts plus the grouped chi-squared test.

    observed/expected/fractions are per-index rows for display; the grouped_*
    triple is what the statistic was computed on (df = len(grouped) - 1).
    """

    population: str
    size: float
    categories: tuple[str, ...]
    observed: tuple[float, ...]
    expected: tuple[float, ...]
    fractions: tuple[float, ...]
    chi_squared: float
    df: int
    significance: float
    grouped_labels: tuple[str, ...]
    grouped_observed: tuple[float, ...]
    grouped_expected: tuple[float, ...]


def _table(
    population: str, size: float, categories: Sequence[str], observed: Sequence,
    expected: Sequence, fractions: Sequence, grouped: tuple | None = None,
) -> DistributionTable:
    """The one DistributionTable constructor; it tests grouped (labels, observed,
    expected) rows, or the rows themselves when grouped is None.

    Significance is 1.0 only for a table without categories; a single
    category has df 0, which significance() rejects.
    """
    labels, g_obs, g_exp = grouped if grouped is not None else (categories, observed, expected)
    stat = _chi_squared(g_obs, g_exp)
    df = max(len(g_obs) - 1, 0)
    return DistributionTable(
        population=population, size=size, categories=tuple(categories),
        observed=tuple(observed), expected=tuple(expected), fractions=tuple(fractions),
        chi_squared=stat, df=df, significance=significance(stat, df) if labels else 1.0,
        grouped_labels=tuple(labels), grouped_observed=tuple(g_obs),
        grouped_expected=tuple(g_exp),
    )


@dataclass(frozen=True)
class IndexTally:
    """What the index statistics read of a set of records, as counts that add.

    records counts the records by (p, index) and hits the hits by (2m, p);
    discriminants is the number of distinct D, and d_span the least and
    the largest D (None without records).  a + b needs every D of a at
    most every D of b, as in consecutive shards of a D-keyed scan, or the
    shards of a fixed-disc scan's one D; then a D that ends a and starts b
    is one discriminant, and the sum's distinct count is exact without a
    set of D.  Adding out of D order raises ValueError.
    """

    records: Counter = field(default_factory=Counter)
    hits: Counter = field(default_factory=Counter)
    discriminants: int = 0
    d_span: tuple[int, int] | None = None

    @classmethod
    def of(cls, cols: IndexColumns) -> IndexTally:
        """The tally of the rows of cols."""
        if not len(cols):
            return cls()
        return cls(_pair_counts(cols.prime, cols.index),
                   _pair_counts(cols.two_m, cols.hit_rows(cols.prime)),
                   _distinct(cols.discriminant),
                   (int(cols.discriminant.min()), int(cols.discriminant.max())))

    def __add__(self, other: IndexTally) -> IndexTally:
        if other.d_span is None or self.d_span is None:
            return other if self.d_span is None else self
        (lo, last), (first, hi) = self.d_span, other.d_span
        if last > first:
            raise ValueError(f"tallies add in D order: D = {last} comes before D = {first}")
        return IndexTally(self.records + other.records, self.hits + other.hits,
                          self.discriminants + other.discriminants - (last == first), (lo, hi))

    def __len__(self) -> int:
        return sum(self.records.values())

    def by_prime(self) -> dict[int, int]:
        """Records per prime, in increasing order of p."""
        counts = Counter()
        for (p, _), n in self.records.items():
            counts[p] += n
        return dict(sorted(counts.items()))


def _pair_counts(a: np.ndarray, b: np.ndarray) -> Counter:
    """How many times each (a[i], b[i]) occurs: one np.unique on the int64
    key (a - min a) * width + (b - min b), where width is the span of b.
    Pairs whose key would pass int64 raise ValueError; no record set meets
    them, since 2m and the index stay below p."""
    if not len(a):
        return Counter()
    a0, b0 = int(a.min()), int(b.min())
    width = int(b.max()) - b0 + 1
    if (int(a.max()) - a0 + 1) * width > np.iinfo(np.int64).max:
        raise ValueError("the pairs span more keys than int64 holds")
    keys, counts = np.unique((a - a0) * width + (b - b0), return_counts=True)
    pairs = zip((keys // width + a0).tolist(), (keys % width + b0).tolist())
    return Counter(dict(zip(pairs, counts.tolist())))


def observed_counts(tally: IndexTally, r_max: int | None = None) -> list[int]:
    """Records per index value 0, 1, ..., at least up to r_max."""
    counts = Counter()
    for (_, k), n in tally.records.items():
        counts[k] += n
    return [counts[r] for r in range(max(max(counts, default=0), r_max or 0) + 1)]


def expected_counts_exact(tally: IndexTally, r_max: int) -> list[float]:
    """Sum of per-record binomial probabilities with T = (p-1)/2 trials.

    Uses the uniform trial count for every record, including D = p; that is
    the convention the reference tabulations follow.
    """
    totals = [Fraction(0)] * (r_max + 1)
    for p, count in tally.by_prime().items():
        probs = exact_index_distribution(p)
        for r in range(min(r_max + 1, len(probs))):
            totals[r] += count * probs[r]
    return [float(t) for t in totals]


# The "limit" prediction's categories: index 0, 1, 2 and the tail from 3 up.
LIMIT_TAIL = 3
# The "exact" prediction's largest prime (Table 2's range): its exact
# binomials grow with every distinct prime, and past it they take minutes.
EXACT_PRIME_BOUND = 100


def build_distribution(tally: IndexTally, prediction: str = "limit") -> DistributionTable:
    """Distribution table for a homogeneous record stream.

    prediction "limit" uses the limiting fractions over the categories
    {0}, {1}, {2}, {>=3}, the tail class folded so expected counts total
    the population; "exact" sums the per-record small-p binomials over
    singletons up to the largest trial count (p - 1)/2, and raises
    ValueError on a prime above EXACT_PRIME_BOUND.
    """
    size = len(tally)
    if not size:
        return _table("empty", 0, (), (), (), ())
    if prediction == "limit":
        counts = observed_counts(tally, LIMIT_TAIL)
        fractions = [limit_fraction(r) for r in range(len(counts))]
        expected = [size * f for f in fractions]
        labels, g_obs = group_indices(counts, LIMIT_TAIL)
        g_exp = expected[:LIMIT_TAIL] + [size * (1.0 - sum(fractions[:LIMIT_TAIL]))]
        grouped = (labels, [float(o) for o in g_obs], g_exp)
    elif prediction == "exact":
        p_max = max(tally.by_prime())
        if p_max > EXACT_PRIME_BOUND:
            raise ValueError(f"the exact prediction takes primes up to {EXACT_PRIME_BOUND}; "
                             f"the largest prime here is {p_max}")
        counts = observed_counts(tally, (p_max - 1) // 2)
        expected = expected_counts_exact(tally, len(counts) - 1)
        fractions = [e / size for e in expected]
        grouped = None  # the singleton rows themselves
    else:
        raise ValueError(f"unknown prediction mode {prediction!r}")
    return _table("primes-fixed-D" if tally.discriminants == 1 else "pairs-varying-D", size,
                  [str(r) for r in range(len(counts))], [float(c) for c in counts], expected,
                  fractions, grouped)


def _distinct(values: np.ndarray) -> int:
    """How many distinct values; by sorting, since np.unique hashes and
    is many times slower on 10^5 distinct values."""
    ordered = np.sort(values)
    return int(len(ordered) and 1 + np.count_nonzero(ordered[1:] != ordered[:-1]))


@dataclass(frozen=True)
class AggregateReport:
    """Totals plus per-discriminant averages, each with its own test."""

    totals: DistributionTable
    averages: DistributionTable
    discriminants: int


def aggregate_across_discriminants(tally: IndexTally, prediction: str = "limit") -> AggregateReport:
    """Apply the averaged-counts methodology next to the plain totals.

    The averages table divides every observed and expected count by the
    number of distinct discriminants and recomputes the statistic on those
    means.  The result is a heuristic: dividing by a constant just rescales
    the statistic, so treat its significance as descriptive only.
    """
    totals = build_distribution(tally, prediction)
    n_disc = tally.discriminants
    if n_disc == 0:
        return AggregateReport(totals=totals, averages=totals, discriminants=0)

    def mean(counts):
        return [Fraction(c) / n_disc for c in counts]

    averages = _table(totals.population, totals.size / n_disc, totals.categories,
                      mean(totals.observed), mean(totals.expected), totals.fractions,
                      (totals.grouped_labels, mean(totals.grouped_observed),
                       mean(totals.grouped_expected)))
    return AggregateReport(totals=totals, averages=averages, discriminants=n_disc)


def residue_class_report(
    irregular_primes: Iterable[int], all_odd_primes: Iterable[int], n: int
) -> DistributionTable:
    """Distribution of irregular primes over residue classes mod n.

    Expected count per class is (total irregular) * (share of all odd primes
    living in the class), i.e. the even-spread hypothesis.
    """
    if n < 3:
        raise ValueError("modulus must be at least 3")
    all_primes = sorted(set(all_odd_primes))
    irregular = sorted(set(irregular_primes))
    if not all_primes or not irregular:
        raise ValueError("both prime sets must be nonempty")
    if not set(irregular) <= set(all_primes):
        raise ValueError("irregular primes must be a subset of the reference primes")
    classes = sorted({p % n for p in all_primes})
    total_by_class = Counter(p % n for p in all_primes)
    irregular_by_class = Counter(p % n for p in irregular)
    shares = [total_by_class[c] / len(all_primes) for c in classes]
    observed = [float(irregular_by_class[c]) for c in classes]
    return _table(f"irregular-primes-mod-{n}", len(irregular), [str(c) for c in classes],
                  observed, [len(irregular) * s for s in shares], shares)


@dataclass(frozen=True)
class UniformityReport:
    """2m/p ratios against the uniform distribution on (0, 1)."""

    count: int
    bins: int
    histogram: tuple[int, ...]
    chi_squared: float
    df: int
    significance: float
    ks_statistic: float


# Most ratio bins: the histogram, its expected counts and the report hold
# one entry per bin, so a larger count would allocate before any output.
MAX_BINS = 1_000_000


def ratio_uniformity_report(tally: IndexTally, bins: int = 10) -> UniformityReport:
    """Equal-width-bin chi-squared and Kolmogorov-Smirnov distance for each hit's 2m/p.

    The hits come as counts per (2m, p), so equal ratios are one run of
    the sorted ratios: D+ = max(i/n - x_i) peaks at the last member of a
    run and D- = max(x_i - (i-1)/n) at the first, and each is evaluated
    there with the float expression of the per-hit form.
    """
    if not 2 <= bins <= MAX_BINS:
        raise ValueError(f"need from 2 to {MAX_BINS} bins, not {bins}")
    if not tally.hits:
        raise ValueError("no irregular pairs supplied")
    pairs = np.array(list(tally.hits), dtype=np.int64)
    values, run = np.unique(pairs[:, 0] / pairs[:, 1], return_inverse=True)
    counts = np.bincount(run, weights=list(tally.hits.values())).astype(np.int64)
    n = int(counts.sum())
    ends = np.cumsum(counts)  # the rank of each run's last member, from 1
    hist = np.bincount(np.minimum((values * bins).astype(np.int64), bins - 1), weights=counts,
                       minlength=bins).astype(np.int64).tolist()
    stat = _chi_squared(hist, [n / bins] * bins)
    d_plus = np.max(ends / n - values)
    d_minus = np.max(values - (ends - counts) / n)
    return UniformityReport(
        count=n,
        bins=bins,
        histogram=tuple(hist),
        chi_squared=stat,
        df=bins - 1,
        significance=significance(stat, bins - 1),
        ks_statistic=float(max(d_plus, d_minus)),
    )


def residue_histogram(values: Sequence[int], p: int) -> DistributionTable:
    """Counts of residues mod p against the uniform expectation N/p."""
    if not values:
        raise ValueError("no residues supplied")
    counts = np.bincount(np.asarray(values) % p, minlength=p)
    n = len(values)
    return _table(f"residues-mod-{p}", n, [str(r) for r in range(p)], [float(c) for c in counts],
                  [n / p] * p, [1.0 / p] * p)
