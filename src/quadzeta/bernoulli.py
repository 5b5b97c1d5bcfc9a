"""Exact and modular Bernoulli numbers and their character-twisted analogues.

Sign convention: B_1 = -1/2, fixed package-wide.  Everything here is exact:
Fractions on the exact paths, integer residues on the modular paths.  The
twisted Bernoulli number attached to the quadratic character chi mod D is

    B(n, chi) = (1/D) * sum_{j=0}^{n} C(n, j) * B_j * D^j * S_{n-j}

where S_k = sum_{a=1}^{D} chi(a) a^k.  The j = n term always vanishes
because S_0 = 0 for every nontrivial character, so B_{p-1} mod p is never
needed on the modular path.

The modular kernel (_numerator_residues) computes the numerators
N(n) = D * B(n, chi) mod p^e for every row of a character table at once:
the scans, the single-value routes and the residue histogram all read it.
Every int64 contraction here asserts its bound against _INT64_BUDGET, and
exact Python integers (object arrays) take over beyond it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .numtheory import character_values, validate_fundamental_discriminant, validate_odd_prime

# Largest dot-product magnitude we allow on the int64 modular paths.
_INT64_BUDGET = 2**62

_exact_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def bernoulli_exact(n: int) -> Fraction:
    """B_n as an exact rational (B_1 = -1/2)."""
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if n % 2 == 1 and n > 1:
        return Fraction(0)
    while len(_exact_cache) <= n:
        m = len(_exact_cache)
        if m % 2 == 1 and m > 1:
            _exact_cache.append(Fraction(0))
            continue
        total = Fraction(0)
        for j in range(m):
            bj = _exact_cache[j]
            if bj:
                total += math.comb(m + 1, j) * bj
        _exact_cache.append(-total / (m + 1))
    return _exact_cache[n]


def _np_safe(p: int, modulus: int) -> bool:
    """True when a sum of p + 1 products of residues mod modulus fits in int64.

    Every convolution and dot product below has at most p terms per output.
    """
    return (p + 1) * modulus * modulus < _INT64_BUDGET


def _residue_dtype(p: int, modulus: int):
    """int64 where _np_safe holds, else object (exact Python ints)."""
    return np.int64 if _np_safe(p, modulus) else object


def _pow_range(base, count: int, modulus: int, dtype) -> np.ndarray:
    """[base^0, ..., base^(count-1)] mod modulus along a new last axis.

    base is an int or an integer array; the filled prefix doubles each step.
    """
    base = np.asarray(np.asarray(base).astype(dtype) % modulus, dtype=dtype)
    out = np.ones(base.shape + (count,), dtype=dtype)
    n, step = 1, base[..., None]  # step = base^n
    while n < count:
        out[..., n : 2 * n] = out[..., : min(n, count - n)] * step % modulus
        n, step = 2 * n, step * step % modulus
    return out


def _prefix_products(x: np.ndarray, modulus: int) -> np.ndarray:
    """x[0] x[1] ... x[j] mod modulus for every j, in log2(len(x)) vector steps."""
    shift = 1
    while shift < len(x):
        x[shift:] = x[shift:] * x[:-shift] % modulus
        shift *= 2
    return x


@lru_cache(maxsize=128)
def _factorials(p: int, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """(j!, 1/j!) mod modulus for 0 <= j <= p - 1, where every j! is a unit."""
    dtype = _residue_dtype(p, modulus)
    ramp = np.arange(p).astype(dtype)
    ramp[0] = 1
    fact = _prefix_products(ramp, modulus)  # [0!, 1!, ..., (p-1)!]
    ramp = np.arange(p, 0, -1).astype(dtype)
    ramp[0] = 1
    tails = _prefix_products(ramp, modulus)[::-1]  # tails[j] = (p-1)! / j!
    inv_fact = tails * pow(int(fact[-1]), -1, modulus) % modulus
    fact.setflags(write=False)
    inv_fact.setflags(write=False)
    return fact, inv_fact


def _egf_product(a: np.ndarray, b: np.ndarray, modulus: int, n_terms: int) -> np.ndarray:
    """The first n_terms coefficients of the power series a * b, mod modulus.

    2-D inputs hold one series per row; the loop runs over the shorter axis,
    rows (one convolution each) or coefficients (one shifted product each).
    """
    a, b = a[..., :n_terms], b[..., :n_terms]
    if a.dtype == np.int64:
        # each coefficient sums at most min(len) products of residues below modulus
        assert min(a.shape[-1], b.shape[-1]) * modulus * modulus < _INT64_BUDGET
    if a.ndim == 1:
        return np.convolve(a, b)[:n_terms] % modulus
    if len(a) < n_terms:
        return np.stack([np.convolve(x, y)[:n_terms] for x, y in zip(a, b)]) % modulus
    out = np.zeros((len(a), n_terms), dtype=a.dtype)
    for i in range(a.shape[1]):
        width = min(n_terms - i, b.shape[1])
        out[:, i : i + width] += a[:, i : i + 1] * b[:, :width]
    return out % modulus


def _egf_inverse(f: np.ndarray, n_terms: int, modulus: int) -> np.ndarray:
    """1 / f mod (t^n_terms, modulus) by Newton iteration g <- g (2 - f g); f[0] = 1."""
    g = np.ones(1, dtype=f.dtype)
    n = 1
    while n < n_terms:
        n = min(2 * n, n_terms)
        e = -_egf_product(f, g, modulus, n) % modulus
        e[0] = (e[0] + 2) % modulus
        g = _egf_product(g, e, modulus, n)
    return g


@lru_cache(maxsize=256)
def bernoulli_residues_mod(p: int, modulus: int) -> np.ndarray:
    """B_j mod modulus for 0 <= j <= p - 2, where modulus is a power of p.

    Returns a read-only array, int64 or object as _residue_dtype decides.

    B_j / j! are the coefficients of t / (e^t - 1), the inverse of the series
    (e^t - 1) / t.  Apart from its B_1 t term that series is the even function
    (t/2) coth(t/2), so the inverse is taken in u = t^2 at half the length:
    with x = t/2, sum_k B_2k 4^k u^k / (2k)! = cosh(x) / (sinh(x) / x), whose
    coefficients 1/(2k)! and 1/(2k+1)! are units for 2k + 1 <= p - 2.
    B_{p-1} is excluded: p divides its denominator.
    """
    fact, inv_fact = _factorials(p, modulus)
    half = (p - 1) // 2
    sinhc_inv = _egf_inverse(inv_fact[1:p:2], half, modulus)
    even = _egf_product(inv_fact[0 : p - 1 : 2], sinhc_inv, modulus, half)
    quarter_powers = _pow_range(pow(4, -1, modulus), half, modulus, fact.dtype)
    out = np.zeros(p - 1, dtype=fact.dtype)
    out[0::2] = even * fact[0 : p - 1 : 2] % modulus * quarter_powers % modulus
    out[1] = -pow(2, -1, modulus) % modulus
    out.setflags(write=False)
    return out


def _egf_numerators(discs, p: int, modulus: int, sums, two_ms: Sequence[int]) -> np.ndarray:
    """N(n) = sum_{j<n} C(n,j) B_j D^j S_{n-j} mod modulus for the even n <= p - 1 given.

    One row per D in discs, with sums[i] holding S_0, S_1, ... for that D, and
    one column per n in two_ms.  N(n) = n! [t^n] (A * S) with A_j = B_j D^j / j!
    and S_k = sums[k] / k!, so one (row-batched) convolution gives every N(n).
    A_j vanishes at odd j > 1, so the even coefficients need only the even
    halves plus the A_1 S_{n-1} term.  The j = n term is absent because S_0 = 0.
    A single wanted n is one dot product per row.
    """
    n_max = max(two_ms)
    fact, inv_fact = _factorials(p, modulus)
    dtype = fact.dtype
    bern = bernoulli_residues_mod(p, modulus)[:n_max]
    a = bern * inv_fact[:n_max] % modulus * _pow_range(discs, n_max, modulus, dtype) % modulus
    s = np.asarray(sums, dtype=dtype)[:, : n_max + 1] * inv_fact[: n_max + 1] % modulus
    odd = a[:, 1:2] * s[:, 1::2] % modulus  # odd[:, h - 1] = A_1 S_{2h-1}
    hs = np.asarray(two_ms) // 2
    if len(hs) == 1:
        if dtype == np.int64:
            assert hs[0] * modulus * modulus < _INT64_BUDGET
        even = (a[:, 0::2][:, : hs[0]] * s[:, n_max:0:-2]).sum(axis=1, keepdims=True)
    else:
        even = _egf_product(a[:, 0::2], s[:, 0::2], modulus, n_max // 2 + 1)[:, hs]
    return (even + odd[:, hs - 1]) % modulus * fact[2 * hs] % modulus


# Largest block _twisted_sums builds at once in int64 or object dtype (a
# slice of the character table, or a slice of the powers r^k).
_CHUNK_ENTRIES = 1 << 18


def _twisted_sums(table: np.ndarray, p: int, e: int) -> np.ndarray:
    """T[i, k] = sum_a table[i, a] a^k mod p^e for 0 <= k <= p - 1.

    Writing a = r + p t, a^k = sum_{j<e} C(k, j) p^j t^j r^(k-j) (mod p^e), so
    with the class moments Mom_j[i, r] = sum_t table[i, r + p t] t^j,

        T_k / k! = sum_j (p^j / j!) G_j[i, k - j],  G_j[i, k] = sum_r Mom_j[i, r] r^k / k!.

    Only j < p matters (k < p), and only j = 0 when the table is narrower
    than p.  The moments are one contraction over t per chunk of rows; the
    powers r^k are shared by every row and built a chunk of columns at a time.
    """
    modulus = p**e
    fact, inv_fact = _factorials(p, modulus)
    dtype = fact.dtype
    rows, width = table.shape
    n_t = -(-width // p)
    n_r = min(p, width)
    n_j = min(e, p) if n_t > 1 else 1
    if dtype == np.int64:
        # moments sum n_t terms below modulus; the r contraction n_r products
        assert n_t * modulus < _INT64_BUDGET and n_r * modulus * modulus < _INT64_BUDGET
    if n_t * n_r > width:
        table = np.pad(table, ((0, 0), (0, n_t * n_r - width)))
    t_pow = np.ascontiguousarray(_pow_range(np.arange(n_t), n_j, modulus, dtype).T)
    step = max(1, _CHUNK_ENTRIES // (n_t * n_r))
    moments = np.concatenate([
        t_pow @ table[lo : lo + step].reshape(-1, n_t, n_r).astype(dtype) % modulus
        for lo in range(0, rows, step)
    ]).reshape(-1, n_r)  # row i * n_j + j holds Mom_j[i]
    g = np.empty((len(moments), p), dtype=dtype)
    r = np.arange(n_r).astype(dtype)
    k_step = max(1, _CHUNK_ENTRIES // n_r)
    r_pow = _pow_range(r, min(k_step, p), modulus, dtype)
    r_shift = np.ones(n_r, dtype=dtype)  # r^k0
    for k0 in range(0, p, k_step):
        g[:, k0 : k0 + k_step] = moments @ (r_pow[:, : p - k0] * r_shift[:, None] % modulus) % modulus
        r_shift = r_shift * r_pow[:, -1] % modulus * r % modulus
    g = g.reshape(rows, n_j, p) * inv_fact % modulus
    coef = _pow_range(p, n_j, modulus, dtype) * inv_fact[:n_j] % modulus
    s = np.zeros((rows, p), dtype=dtype)
    for j in range(n_j):
        s[:, j:] += coef[j] * g[:, j, : p - j] % modulus
    return s % modulus * fact % modulus


def _numerator_residues(
    table: np.ndarray, discs: Sequence[int], p: int, e: int, two_ms: Sequence[int]
) -> np.ndarray:
    """N(n) = D B(n, chi_D) mod p^e for each row and each even n <= p - 1 in two_ms.

    table holds one period of chi_D per row, zero beyond a = D: character_values(D)
    for a single D, or a block of them from irregularity._period_table.
    """
    sums = _twisted_sums(table, p, e)
    return _egf_numerators(discs, p, p**e, sums, two_ms)


# Exact power sums grow on demand per discriminant (kept with the character
# values they extend from) and are reused heavily by the cross-validation
# gates: an LRU over discriminants, sized above the 302 fundamental D < 1000
# of validate_siegel_gate so the gate never recomputes.
_EXACT_SUMS_CACHE_SIZE = 512
_exact_sums_cache: OrderedDict[int, tuple[np.ndarray, list[int]]] = OrderedDict()


def _exact_power_sums(d: int, k_max: int) -> list[int]:
    entry = _exact_sums_cache.pop(d, None) or (character_values(d), [])
    _exact_sums_cache[d] = entry
    if len(_exact_sums_cache) > _EXACT_SUMS_CACHE_SIZE:
        _exact_sums_cache.popitem(last=False)
    chi, sums = entry
    if len(sums) > k_max:
        return sums
    support = [(a, int(chi[a])) for a in range(1, d + 1) if chi[a]]
    powers = {a: a ** len(sums) for a, _ in support}
    while len(sums) <= k_max:
        sums.append(sum(c * powers[a] for a, c in support))
        for a, _ in support:
            powers[a] *= a
    return sums


@lru_cache(maxsize=65536)
def generalized_bernoulli_exact(d: int, n: int) -> Fraction:
    """B(n, chi_d) as an exact rational."""
    validate_fundamental_discriminant(d)
    if n < 1:
        raise ValueError("index must be >= 1")
    sums = _exact_power_sums(d, n)
    total = Fraction(0)
    # j = n contributes nothing (S_0 = 0); odd j > 1 have B_j = 0.
    for j in range(n):
        if j % 2 == 1 and j > 1:
            continue
        bj = bernoulli_exact(j)
        if bj:
            total += math.comb(n, j) * bj * d**j * sums[n - j]
    return total / d


def _check_modular(d: int, p: int) -> None:
    """The modular routes need an odd prime p coprime to the discriminant d."""
    validate_fundamental_discriminant(d)
    validate_odd_prime(p)
    if d % p == 0:
        raise ValueError(f"modular reduction needs p coprime to the discriminant ({p} | {d})")


def generalized_bernoulli_mod(d: int, n: int, p: int) -> int:
    """B(n, chi_d) mod p, from the numerator N(n) = d * B(n, chi_d) of the EGF kernel.

    Requires p coprime to d (use the exact path otherwise), n even, n <= p - 1.
    """
    _check_modular(d, p)
    if n % 2 != 0 or n < 2:
        raise ValueError("index must be a positive even integer")
    if n > p - 1:
        raise ValueError(f"index {n} exceeds p - 1 = {p - 1}")
    num = _numerator_residues(character_values(d)[None], [d], p, 1, [n])[0, 0]
    return int(num) * pow(d, -1, p) % p
