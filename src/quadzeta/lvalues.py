"""Special values zeta(1-2m), L(1-2m, chi_D), zeta_D(1-2m).

Three exact-rational routes:

* Riemann factor:      zeta(1-2m) = -B_{2m} / (2m)
* character factor:    L(1-2m, chi) = -B(2m, chi) / (2m)
* field zeta:          zeta_D(1-2m) = zeta(1-2m) * L(1-2m, chi)

The character factor also has a modular route for p coprime to D:
l_chi_mod (one m) and l_chi_residues (every m up to (p - 1)/2) read the
numerator kernel of bernoulli.py.  The field zeta has none, as the Riemann
factor is not p-integral at the top exponent.

For m = 1, 2 there is also the batch route via Siegel's divisor-sum
formulas, which is subpolynomial per discriminant when D varies:

    zeta_D(-1) = (1/60)  * sum_b sigma_1((D - b^2) / 4)
    zeta_D(-3) = (1/120) * sum_b sigma_3((D - b^2) / 4)

summing over all integers b (positive, negative and zero) with b^2 < D and
b = D (mod 2).  One accumulator (_theta_sums) gives these sums, exact (on
32-bit halves) or mod p^e, for a window of D, one contiguous sigma slice
per b.  The coefficients are quarantined behind an exact-equality gate
against the twisted-Bernoulli route; call validate_siegel_gate() before
trusting a large batch run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

import numpy as np

from .bernoulli import (
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
    validate_fundamental_discriminant,
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
    """L(1 - 2m, chi_d) mod p for an odd prime p coprime to d.

    The kernel route requires 2m <= p - 1; beyond that the value is still
    p-integral (the conductor is not p), so it is computed exactly and reduced.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_modular(d, p)
    if 2 * m > p - 1:
        value = l_chi_exact(d, m)
        if value.denominator % p == 0:
            raise ArithmeticError(f"L(1-{2 * m}, chi_{d}) is not {p}-integral")
        return value.numerator * pow(value.denominator, -1, p) % p
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

    As D steps by 4, (D - b^2)/4 runs over consecutive integers, so each
    b >= 0 adds one contiguous slice of values, twice for b > 0 (b and -b),
    into the stride-4 view of acc from its first D at or above lo.
    """
    acc = np.zeros(max(hi - lo, 0), dtype=np.int64)
    b = 0
    while b * b + 4 < hi:
        start = b * b + 4
        if start < lo:
            start += ((lo - start + 3) // 4) * 4
        view = acc[start - lo :: 4]
        n0 = (start - b * b) // 4
        view += (1 if b == 0 else 2) * values[n0 : n0 + len(view)]
        b += 1
    return acc


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


def siegel_divisor_sums(m: int, lo: int, hi: int, sigma: SigmaTable) -> tuple[list[int], list[int]]:
    """(discriminants, divisor sums) for all fundamental D in [lo, hi).

    The sum for D is sum_b sigma_{2m-1}((D - b^2)/4) over b^2 < D with
    b = D (mod 2).  The two 32-bit halves of the int64 sigma values are
    accumulated apart, then reassembled into exact Python integers.
    """
    values = _sigma_prefix(m, hi, sigma)
    discs = enumerate_fundamental_discriminants(lo, hi)
    idx = np.asarray(discs, dtype=np.int64) - lo
    low = _theta_sums(values & _MASK32, lo, hi)[idx].tolist()
    high = _theta_sums(values >> 32, lo, hi)[idx].tolist()
    return discs, [(h << 32) + l for h, l in zip(high, low)]


def siegel_divisor_sums_mod(
    m: int, lo: int, hi: int, sigma: SigmaTable, modulus: int
) -> tuple[list[int], np.ndarray]:
    """Divisor sums reduced mod modulus, for valuation-only scans.

    Avoids wide integers entirely; agrees with siegel_divisor_sums modulo
    modulus (tested).  modulus must be modest enough that 2 * sqrt(hi) *
    modulus fits in int64, which every p^k used by the scans satisfies.
    """
    values = _sigma_prefix(m, hi, sigma)
    if 2 * (math.isqrt(hi) + 1) * modulus >= 2**62:
        raise ValueError("modulus too large for the vectorized accumulator")
    discs = enumerate_fundamental_discriminants(lo, hi)
    acc = _theta_sums(values % modulus, lo, hi)
    return discs, acc[np.asarray(discs, dtype=np.int64) - lo] % modulus


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


_gate_validated: set[int] = set()


def validate_siegel_gate(limit: int = 1000) -> None:
    """Exact-equality gate: divisor-sum route vs twisted-Bernoulli route.

    Checks every fundamental D < limit for both m = 1 and m = 2; raises
    ArithmeticError on the first mismatch.  Must pass before any large
    batch run is trusted.
    """
    if limit in _gate_validated:
        return
    for m in (1, 2):
        for d, zd in siegel_batch(m, 2, limit):
            expected = zeta_d_exact(d, m)
            if zd != expected:
                raise ArithmeticError(
                    f"divisor-sum route disagrees at D={d}, m={m}: {zd} != {expected}"
                )
            if l_from_siegel(d, m, zd) != l_chi_exact(d, m):
                raise ArithmeticError(f"L-value recovery disagrees at D={d}, m={m}")
    _gate_validated.add(limit)
