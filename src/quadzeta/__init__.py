"""quadzeta: special values of real quadratic zeta and L-functions.

Exact rational values, modular fast paths, irregularity-index scans, and
the goodness-of-fit statistics used to compare observed index counts with
the even-distribution heuristic.
"""

from .bernoulli import (
    bernoulli_exact,
    generalized_bernoulli_exact,
    generalized_bernoulli_mod,
)
from .irregularity import (
    IndexColumns,
    IndexRecord,
    chi_irregularity_index,
    classical_irregularity_index,
    d_irregularity_index,
    delta,
    high_valuation_survey,
    merge_surveys,
    scan_fixed_discriminant,
    scan_fixed_primes,
)
from .lvalues import (
    l_chi_exact,
    l_chi_mod,
    l_from_siegel,
    riemann_zeta_neg,
    siegel_batch,
    validate_siegel_gate,
    zeta_d_exact,
)
from .numtheory import (
    SigmaTable,
    divisor_sigma_sieve,
    enumerate_fundamental_discriminants,
    is_fundamental_discriminant,
    kronecker_symbol,
    odd_primes_up_to,
    p_adic_valuation,
)
from .stats import (
    AggregateReport,
    DistributionTable,
    IndexTally,
    UniformityReport,
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

__version__ = "0.1.0"

__all__ = [
    "AggregateReport",
    "DistributionTable",
    "IndexColumns",
    "IndexRecord",
    "IndexTally",
    "SigmaTable",
    "UniformityReport",
    "aggregate_across_discriminants",
    "bernoulli_exact",
    "build_distribution",
    "chi_irregularity_index",
    "chi_squared_statistic",
    "classical_irregularity_index",
    "d_irregularity_index",
    "delta",
    "divisor_sigma_sieve",
    "enumerate_fundamental_discriminants",
    "exact_index_distribution",
    "generalized_bernoulli_exact",
    "generalized_bernoulli_mod",
    "high_valuation_survey",
    "is_fundamental_discriminant",
    "kronecker_symbol",
    "l_chi_exact",
    "l_chi_mod",
    "l_from_siegel",
    "limit_fraction",
    "merge_surveys",
    "odd_primes_up_to",
    "p_adic_valuation",
    "ratio_uniformity_report",
    "residue_class_report",
    "residue_histogram",
    "riemann_zeta_neg",
    "scan_fixed_discriminant",
    "scan_fixed_primes",
    "siegel_batch",
    "significance",
    "validate_siegel_gate",
    "zeta_d_exact",
]
