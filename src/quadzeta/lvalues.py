"""Special values zeta(1-2m), L(1-2m, chi_D), zeta_D(1-2m).

Three exact-rational routes:

* Riemann factor:      zeta(1-2m) = -B_{2m} / (2m)
* character factor:    L(1-2m, chi) = -B(2m, chi) / (2m)
* field zeta:          zeta_D(1-2m) = zeta(1-2m) * L(1-2m, chi)

The character factor also has a modular route for p coprime to D and
2m <= p - 1: l_chi_mod (one m) and l_chi_residues (every m up to
(p - 1)/2) read the numerator kernel of bernoulli.py, which checks d, p
and 2m.  Beyond p - 1 only the exact route answers.  The field zeta has no
modular route, as the Riemann factor is not p-integral at the top exponent.

For m = 1, 2 there is also the batch route via Siegel's divisor-sum
formulas, which is subpolynomial per discriminant when D varies:

    zeta_D(-1) = (1/60)  * sum_b sigma_1((D - b^2) / 4)
    zeta_D(-3) = (1/120) * sum_b sigma_3((D - b^2) / 4)

summing over all integers b (positive, negative and zero) with b^2 < D and
b = D (mod 2).  One accumulator (_theta_sums) gives these sums for a window
of D: a single b-loop over a stack of sigma columns, adding one contiguous
slice per b into a contiguous buffer per residue class of D mod 4.  The
exact sums run the 32-bit halves of the sigma values as two columns; a
Table 3 block runs S_1 once, unreduced (exact in int64, and read for both
v_3 and v_5), beside S_3 mod 5^12.  The coefficients are quarantined behind
a gate against the twisted-Bernoulli route, over power sums of the period
table; call validate_siegel_gate() before trusting a large batch run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .bernoulli import (
    _bernoulli_from_sums,
    _check_modular,
    _numerator_residues,
    bernoulli_exact,
    generalized_bernoulli_exact,
    generalized_bernoulli_mod,
)
from .numtheory import (
    SigmaTable,
    character_values,
    divisor_sigma_sieve,
    enumerate_fundamental_discriminants,
    period_table,
)

# zeta_D(1-2m) = (sum of divisor sums) / SIEGEL_DENOMINATOR[m]
SIEGEL_DENOMINATOR = {1: 60, 2: 120}
# L(1-2m, chi) = RIEMANN_RECIPROCAL[m] * zeta_D(1-2m); reciprocal of zeta(-1), zeta(-3)
RIEMANN_RECIPROCAL = {1: -12, 2: 120}

_MASK32 = (1 << 32) - 1


def riemann_zeta_neg(m: int) -> Fraction:
    """zeta(1 - 2m) for m >= 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return -bernoulli_exact(2 * m) / (2 * m)


def l_chi_exact(d: int, m: int) -> Fraction:
    """L(1 - 2m, chi_d) for m >= 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return -generalized_bernoulli_exact(d, 2 * m) / (2 * m)


def _l_from_bernoulli(b: int, m: int, p: int) -> int:
    """L(1 - 2m, chi) = -B(2m, chi) / (2m), mod p."""
    return -b * pow(2 * m, -1, p) % p


def l_chi_mod(d: int, m: int, p: int) -> int:
    """L(1 - 2m, chi_d) mod p for an odd prime p coprime to d and 2m <= p - 1.

    generalized_bernoulli_mod checks d, p and 2m; l_chi_exact reaches 2m > p - 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _l_from_bernoulli(generalized_bernoulli_mod(d, 2 * m, p), m, p)


def l_chi_residues(d: int, p: int) -> list[int]:
    """L(1-2m, chi_d) mod p for m = 1, ..., (p - 1)/2, from one kernel call.

    B(2m, chi_d) = N(2m) / d; needs an odd prime p coprime to d.
    """
    _check_modular(d, p)
    nums = _numerator_residues(character_values(d)[None], [d], p, 1, range(2, p, 2))[0].tolist()
    d_inv = pow(d, -1, p)
    return [_l_from_bernoulli(n * d_inv, m, p) for m, n in enumerate(nums, 1)]


def zeta_d_exact(d: int, m: int) -> Fraction:
    """zeta_D(1 - 2m) = zeta(1 - 2m) * L(1 - 2m, chi_D)."""
    return riemann_zeta_neg(m) * l_chi_exact(d, m)


def _theta_sums(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """acc[D - lo] = sum_b values[(D - b^2)/4] for lo <= D < hi, over all
    integers b with b^2 < D and b = D (mod 2): the one divisor-sum b-loop.

    values has shape (n,) or (n, k); acc has one column per column of
    values, and is 0 at D = 2, 3 (mod 4).  The D = b^2 (mod 4) of the window
    form one residue class per parity of b, and as D steps by 4 there,
    (D - b^2)/4 runs over consecutive integers.  So each b adds one
    contiguous slice of values into a contiguous buffer of its class: b = 0
    into its own, every b > 0 into one that is doubled at the end (b and -b).
    """
    tail = values.shape[1:]
    # class r holds the D = first[r] + 4j, j < count[r], of [lo, hi) with D = r (mod 4)
    first = (lo + -lo % 4, lo + (1 - lo) % 4)
    count = tuple(max((hi - f + 3) // 4, 0) for f in first)
    acc = np.zeros((3, max(count)) + tail, dtype=np.int64)  # class 0, class 1, b = 0
    b = 0
    while b * b + 4 < hi:
        r = b & 1
        n0 = (first[r] - b * b) // 4  # (D - b^2)/4 at j = 0; the terms need it >= 1
        j = max(1 - n0, 0)
        acc[r if b else 2, j : count[r]] += values[n0 + j : n0 + count[r]]
        b += 1
    out = np.zeros((max(hi - lo, 0),) + tail, dtype=np.int64)
    out[first[0] - lo :: 4] = 2 * acc[0, : count[0]] + acc[2, : count[0]]
    out[first[1] - lo :: 4] = 2 * acc[1, : count[1]]
    return out


def _sigma_prefix(m: int, hi: int, sigma: SigmaTable) -> np.ndarray:
    """sigma_{2m-1}(n) for 0 <= n <= (hi - 1)/4: every entry a window below hi reads."""
    if m not in SIEGEL_DENOMINATOR:
        raise ValueError(f"no divisor-sum formula is pinned for m = {m}")
    if sigma.exponent != 2 * m - 1:
        raise ValueError(f"sigma table has exponent {sigma.exponent}, need {2 * m - 1} for m = {m}")
    need = (hi - 1) // 4
    if sigma.limit < need:
        raise ValueError(f"sigma table covers {sigma.limit} < required {need}")
    return sigma.values[: need + 1]


def _window_sums(columns: list[np.ndarray], lo: int, hi: int) -> tuple[list[int], np.ndarray]:
    """(fundamental D in [lo, hi), their theta sums): one row per D, one
    column per entry of columns.

    A sum has at most 2(isqrt(hi) + 1) terms, so the largest value times
    that bound must stay below 2^63 for every sum to be exact in int64.
    """
    values = np.stack(columns, axis=1)
    if int(values.max(initial=0)) * 2 * (math.isqrt(max(hi, 0)) + 1) >= 2**63:
        raise ValueError("divisor sums of these values would overflow int64")
    discs = enumerate_fundamental_discriminants(lo, hi)
    return discs, _theta_sums(values, lo, hi)[np.asarray(discs, dtype=np.int64) - lo]


def siegel_divisor_sums(m: int, lo: int, hi: int, sigma: SigmaTable) -> tuple[list[int], list[int]]:
    """(discriminants, divisor sums) for all fundamental D in [lo, hi).

    The sum for D is sum_b sigma_{2m-1}((D - b^2)/4) over b^2 < D with
    b = D (mod 2).  The two 32-bit halves of the int64 sigma values are
    accumulated as two columns of one pass, then reassembled into exact
    Python integers.
    """
    values = _sigma_prefix(m, hi, sigma)
    discs, sums = _window_sums([values & _MASK32, values >> 32], lo, hi)
    return discs, [(h << 32) + l for l, h in sums.tolist()]


def siegel_divisor_sums_mod(
    lo: int, hi: int, sums: Sequence[tuple[int, SigmaTable, int | None]]
) -> tuple[list[int], np.ndarray]:
    """(discriminants, divisor sums) for all fundamental D in [lo, hi), one
    column per (m, sigma, modulus) of sums, all from one pass of the b-loop.

    A column is reduced mod its modulus, or left exact where the modulus is
    None; either way it agrees with siegel_divisor_sums (tested).  The sigma
    values are reduced before they are summed, and the largest of them must
    keep every sum within int64, as it does for sigma_1 and for sigma_3 mod
    5^12 (Table 3's depth) below 10^6.
    """
    columns = []
    for m, sigma, modulus in sums:
        values = _sigma_prefix(m, hi, sigma)
        columns.append(values if modulus is None else values % modulus)
    discs, acc = _window_sums(columns, lo, hi)
    for i, (_, _, modulus) in enumerate(sums):
        if modulus is not None:
            acc[:, i] %= modulus
    return discs, acc


def siegel_batch(
    m: int, lo: int, hi: int, sigma: SigmaTable | None = None
) -> Iterator[tuple[int, Fraction]]:
    """Yield (D, zeta_D(1-2m)) exactly for every fundamental D in [lo, hi)."""
    if m not in SIEGEL_DENOMINATOR:
        raise ValueError(f"batch evaluation supports m in {{1, 2}}, not m = {m}")
    if sigma is None:
        sigma = divisor_sigma_sieve(2 * m - 1, max((hi - 1) // 4, 1))
    discs, sums = siegel_divisor_sums(m, lo, hi, sigma)
    denom = SIEGEL_DENOMINATOR[m]
    for d, s in zip(discs, sums):
        yield d, Fraction(s, denom)


def l_from_siegel(d: int, m: int, zd: Fraction) -> Fraction:
    """Recover L(1-2m, chi_d) from zeta_D(1-2m) by dividing out the Riemann factor."""
    if m not in RIEMANN_RECIPROCAL:
        raise ValueError(f"no pinned Riemann reciprocal for m = {m}")
    return RIEMANN_RECIPROCAL[m] * zd


def validate_siegel_gate(limit: int = 1000) -> None:
    """Exact gate over every fundamental D < limit and m = 1, 2: Siegel's zeta_D =
    S_m / SIEGEL_DENOMINATOR[m] must equal zeta(1-2m) L and give L back by l_from_siegel,
    where L = -B(2m, chi_D)/(2m) comes from the power sums sum_{a <= D} chi(a) a^j, j <= 4,
    of one int64 product of the period table.  A mismatch raises ArithmeticError naming D, m."""
    # every power sum is at most sum_{a < limit} a^4 < limit^5 / 5, exact in int64
    if limit < 6 or limit**5 >= 5 * 2**63:
        raise ValueError(f"gate limit {limit} leaves no discriminant or overflows int64")
    discs = enumerate_fundamental_discriminants(2, limit)
    powers = np.arange(discs[-1] + 1, dtype=np.int64)[:, None] ** np.arange(5)
    power_sums = (period_table(discs) @ powers).tolist()
    for m in (1, 2):
        sigma = divisor_sigma_sieve(2 * m - 1, (limit - 1) // 4)
        zeta = riemann_zeta_neg(m)
        for d, s, sums in zip(discs, siegel_divisor_sums(m, 2, limit, sigma)[1], power_sums):
            zd = Fraction(s, SIEGEL_DENOMINATOR[m])
            l_value = -_bernoulli_from_sums(d, 2 * m, sums) / (2 * m)
            if zd != zeta * l_value or l_from_siegel(d, m, zd) != l_value:
                raise ArithmeticError(
                    f"divisor-sum route disagrees at D={d}, m={m}: zeta_D = {zd}, L = {l_value}"
                )
