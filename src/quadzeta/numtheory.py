"""Integer and quadratic-character primitives.

Conventions used throughout the package:

* A fundamental discriminant is a positive integer D > 1 with either
  D = 1 (mod 4) and D squarefree, or D = 4m with m = 2 or 3 (mod 4)
  and m squarefree.  Negative discriminants are out of scope.
* The quadratic character attached to D is the Kronecker symbol
  chi(a) = (D/a); it is completely multiplicative, has period D, and
  vanishes exactly when gcd(a, D) > 1.
* Ranges are half-open [lo, hi) everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# sigma_3(n) < zeta(3) n^3 must stay below 2^63 for the int64 sieve;
# sigma_1 is memory-bound long before it can overflow.
_SIGMA_LIMIT_BOUND = {1: 200_000_000, 3: 1_900_000}


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for every pair of integers.

    (a/2) is 0 for even a, +1 for a = +-1 (mod 8), -1 for a = +-3 (mod 8);
    (a/0) is 1 for a = +-1 and 0 otherwise.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        twos = (n & -n).bit_length() - 1
        n >>= twos
        if twos % 2 == 1 and a % 8 in (3, 5):
            result = -result
    # n is now odd and positive
    if a < 0:
        if n % 4 == 3:
            result = -result
        a = -a
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    q = 3
    while q * q <= n:
        if n % (q * q) == 0:
            return False
        q += 2
    return True


def is_fundamental_discriminant(d: int) -> bool:
    """True iff d is the discriminant of a real quadratic field (d > 1)."""
    if d <= 1:
        return False
    if d % 4 == 1:
        return _is_squarefree(d)
    if d % 16 in (8, 12):
        return _is_squarefree(d // 4)
    return False


def validate_fundamental_discriminant(d: int) -> int:
    if not is_fundamental_discriminant(d):
        raise ValueError(f"{d} is not a fundamental discriminant of a real quadratic field "
                         "(need d = 1 mod 4 squarefree, or 4m with m = 2, 3 mod 4 squarefree)")
    return d


def squarefree_flags(lo: int, hi: int) -> np.ndarray:
    """Boolean array f with f[n - lo] true iff n is squarefree, for 0 <= lo <= n < hi.

    Sieves the window alone: each prime q <= sqrt(hi - 1), and always 2 (so
    that 0 is struck), strikes the multiples of q^2 from the first at or above lo.
    """
    flags = np.ones(max(hi - lo, 0), dtype=bool)
    for q in [2, *odd_primes_up_to(math.isqrt(max(hi - 1, 0)) + 1)]:
        flags[-lo % (q * q) :: q * q] = False
    return flags


def enumerate_fundamental_discriminants(lo: int, hi: int) -> list[int]:
    """All fundamental discriminants d with lo <= d < hi, ascending.

    Sieves squarefree flags over the window [lo, hi) for d = 1 (mod 4),
    and over [lo // 4, (hi - 1) // 4] for d = 4m, so the cost follows the
    window, not hi.
    """
    lo = max(lo, 2)
    if hi <= lo:
        return []
    d = np.arange(lo, hi, dtype=np.int64)
    m_lo = lo // 4
    odd = (d % 4 == 1) & squarefree_flags(lo, hi)
    even = np.isin(d % 16, (8, 12)) & squarefree_flags(m_lo, (hi - 1) // 4 + 1)[(d >> 2) - m_lo]
    return d[odd | even].tolist()


def odd_primes_up_to(x: int) -> list[int]:
    """All odd primes p < x, ascending: the n >= 3 with smallest_prime_factors(x)[n] == n."""
    spf = smallest_prime_factors(x)
    n = np.arange(3, len(spf))
    return n[spf[3:] == n].tolist()


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    q = 3
    while q * q <= p:
        if p % q == 0:
            return False
        q += 2
    return True


def validate_odd_prime(p: int) -> int:
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return p


@dataclass(frozen=True)
class SigmaTable:
    """Sieved divisor sums sigma_k(n) for 1 <= n <= limit (k fixed at 1 or 3).

    Immutable after construction; safe to share across worker processes.
    """

    exponent: int
    limit: int
    values: np.ndarray  # int64, values[n] = sigma_k(n), values[0] = 0

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise IndexError(f"sigma_{self.exponent}({n}) outside table limit {self.limit}")
        return int(self.values[n])

    def __len__(self) -> int:
        return self.limit


def divisor_sigma_sieve(k: int, limit: int) -> SigmaTable:
    """Build a SigmaTable of sigma_k(n) for n <= limit in 2 sqrt(limit) vector additions."""
    if k not in (1, 3):
        raise ValueError(f"unsupported divisor-sum exponent {k}")
    if limit < 1:
        raise ValueError("sigma sieve limit must be >= 1")
    if limit > _SIGMA_LIMIT_BOUND[k]:
        raise ValueError(
            f"sigma_{k} sieve limit {limit} would overflow 64-bit entries "
            f"(maximum {_SIGMA_LIMIT_BOUND[k]})"
        )
    # each divisor pair d * j = n <= limit is counted once: the small divisor
    # d <= s directly, a large one d > s through its cofactor j = n / d <= s
    s = math.isqrt(limit)
    vals = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, s + 1):
        vals[d::d] += d**k
    for j in range(1, s + 1):
        vals[j * (s + 1) :: j] += np.arange(s + 1, limit // j + 1, dtype=np.int64) ** k
    vals.setflags(write=False)
    return SigmaTable(exponent=k, limit=limit, values=vals)


def p_adic_valuation(q, p: int) -> int | float:
    """Exponent of the prime p in the rational q; math.inf for q = 0.

    Negative when p divides the reduced denominator.
    """
    q = Fraction(q)
    if q == 0:
        return math.inf
    num = q.numerator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    if v:
        return v
    den = q.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def smallest_prime_factors(limit: int) -> np.ndarray:
    """spf[n] = smallest prime factor of n for 2 <= n < limit (spf[0:2] = 0)."""
    spf = np.arange(max(limit, 2), dtype=np.int64)
    spf[:2] = 0
    for q in range(2, math.isqrt(max(limit - 1, 0)) + 1):
        if spf[q] == q:
            multiples = spf[q * q :: q]
            multiples[multiples == np.arange(q * q, limit, q)] = q
    return spf


def _kronecker_at_primes(discs: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """(D/q) for every D in discs and prime q in primes, as an int8 matrix.

    Euler's criterion D^((q-1)/2) mod q for odd q, square-and-multiply with
    one exponent per column; the mod-8 rule for q = 2.
    """
    d = discs[:, None]
    odd = primes[primes > 2]
    base = d % odd
    power = np.ones_like(base)
    exponent = (odd - 1) // 2
    while exponent.any():
        power = np.where(exponent & 1, power * base % odd, power)
        base = base * base % odd
        exponent >>= 1
    out = np.empty((len(discs), len(primes)), dtype=np.int8)
    out[:, primes > 2] = np.where(power == odd - 1, -1, power)
    if primes[:1].tolist() == [2]:
        out[:, 0] = np.where(d[:, 0] % 2 == 0, 0, np.where(np.isin(d[:, 0] % 8, (1, 7)), 1, -1))
    return out


def character_table(discs, width: int, spf: np.ndarray | None = None) -> np.ndarray:
    """chi_D(a) for each D in discs and 0 <= a < width (width >= 2), as an int8 matrix.

    Columns at primes come from _kronecker_at_primes; every other column
    follows from complete multiplicativity, chi(a) = chi(spf(a)) chi(a / spf(a)),
    by pointer doubling along the chains a -> a / spf(a) -> ... -> 1, so the
    fill takes log2 of the largest prime-factor count in vector steps.
    spf is reused when it covers the width and rebuilt otherwise.
    """
    for d in discs:
        validate_fundamental_discriminant(int(d))
    if spf is None or len(spf) < width:
        spf = smallest_prime_factors(width)
    spf = spf[:width]
    cols = np.arange(width)
    is_prime = spf[2:] == cols[2:]
    primes, composite = cols[2:][is_prime], cols[2:][~is_prime]
    table = np.zeros((len(discs), width), dtype=np.int8)
    table[:, 1] = 1
    table[:, primes] = _kronecker_at_primes(np.asarray(discs, dtype=np.int64), primes)
    table[:, composite] = table[:, spf[composite]]
    # invariant: chi(a) = table[a] * chi(rest[a]); primes, 0 and 1 start finished
    rest = np.ones(width, dtype=np.int64)
    rest[composite] = composite // spf[composite]
    while (rest != 1).any():
        table *= table[:, rest]
        rest = rest[rest]
    return table


def period_table(discs: list[int]) -> np.ndarray:
    """chi_D(a) for 0 <= a <= max(discs), zeroed beyond a = D: one period per row."""
    width = discs[-1] + 1
    table = character_table(discs, width)
    table[np.arange(width) > np.asarray(discs)[:, None]] = 0
    return table


def character_values(d: int, spf: np.ndarray | None = None) -> np.ndarray:
    """chi_d(a) for 0 <= a <= d as a read-only int8 array: one row of character_table."""
    vals = character_table([d], d + 1, spf)[0]
    vals.setflags(write=False)
    return vals
