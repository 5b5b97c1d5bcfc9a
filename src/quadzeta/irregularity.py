"""Irregularity indices for real quadratic characters and field zetas.

For an odd prime p and fundamental discriminant D, the tested exponent
range is the even numbers 2m with 2 <= 2m <= delta(D, p), where
delta = p - 1 except in the self-conductor case D = p, where
delta = (p - 1) / 2.

chi-index: count the L(1-2m, chi_D) divisible by p.  Interior exponents
(2m <= delta - 2) and, for D != p, the top exponent as well, test plain
divisibility; for D = p the single top value is multiplied by p first,
absorbing the systematic negative valuation of the self-conductor case.

D-index: same ranges over zeta_D(1-2m), with the top value always
multiplied by p (the Riemann factor contributes valuation -1 there).

classical index: count of even n <= p - 3 with p dividing B_n.

The scan kernels work with the numerator N(n) = D * B(n, chi), computed
modulo prime powers: a hit is v_p(N) >= 1 + v_p(D), and valuations of the
rare hits are refined by recomputation at a deeper prime power.
"""

from __future__ import annotations

import math
import multiprocessing as mp
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .bernoulli import (
    _egf_numerators,
    _np_safe,
    _pow_range,
    _residue_dtype,
    bernoulli_mod_table,
    bernoulli_residues_mod,
)
from .lvalues import (
    l_chi_exact,
    siegel_divisor_sums_mod,
    validate_siegel_gate,
    zeta_d_exact,
)
from .numtheory import (
    SigmaTable,
    character_values,
    divisor_sigma_sieve,
    enumerate_fundamental_discriminants,
    is_odd_prime,
    odd_primes_up_to,
    p_adic_valuation,
    smallest_prime_factors,
    validate_fundamental_discriminant,
)

GRID_BLOCK = 1_000
MILLION_BLOCK = 10_000
PRIME_BLOCK = 1_000

# Valuation capture depth for the divisor-sum scan: enough headroom above
# the deepest divisibility ever observed, while keeping accumulators in int64.
_TABLE3_CAP = {3: 19, 5: 13}


@dataclass(frozen=True, slots=True)
class IndexRecord:
    """Irregularity result for one (D, p) pair (or one p, for kind 'classical').

    hits holds (2m, valuation) pairs sorted by 2m; the valuation is that of
    the tested quantity, so it is always >= 1 for a hit.
    """

    discriminant: int | None
    prime: int
    delta: int
    kind: str  # "chi" | "d" | "classical"
    hits: tuple[tuple[int, int], ...]

    @property
    def index(self) -> int:
        return len(self.hits)


@dataclass(frozen=True, slots=True)
class IrregularPair:
    prime: int
    two_m: int
    discriminant: int | None
    valuation: int


def irregular_pairs(records: Iterable[IndexRecord]) -> list[IrregularPair]:
    """Flatten hit lists into (p, 2m, D, valuation) tuples, record order."""
    out = []
    for rec in records:
        for two_m, v in rec.hits:
            out.append(IrregularPair(rec.prime, two_m, rec.discriminant, v))
    return out


def delta(d: int, p: int) -> int:
    """Upper end of the even test range: p - 1, or (p - 1)/2 when D = p."""
    validate_fundamental_discriminant(d)
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return (p - 1) // 2 if d == p else p - 1


# ---------------------------------------------------------------------------
# modular kernel


@lru_cache(maxsize=64)
def _power_matrix(modulus: int, k_max: int) -> np.ndarray:
    """mat[r, k] = r^k mod modulus for 0 <= r < modulus, 0 <= k <= k_max."""
    mat = np.empty((modulus, k_max + 1), dtype=np.int64)
    mat[:, 0] = 1
    res = np.arange(modulus, dtype=np.int64)
    for k in range(1, k_max + 1):
        mat[:, k] = mat[:, k - 1] * res % modulus
    mat.setflags(write=False)
    return mat


def _twisted_sums_mod(chi_vals: np.ndarray, modulus: int, k_max: int, dtype) -> np.ndarray:
    """T_k = sum_a chi(a) a^k mod modulus for 0 <= k <= k_max, as dtype.

    Three routes: collapse a to residue classes when the modulus is smaller
    than the period (a^k mod m depends on a mod m only); per-a geometric
    rows for tiny periods; otherwise an incremental power sweep.
    """
    d = len(chi_vals) - 1
    if modulus < d and dtype == np.int64:
        res = np.arange(1, d + 1, dtype=np.int64) % modulus
        c = np.bincount(res, weights=chi_vals[1:].astype(np.float64), minlength=modulus)
        c = np.rint(c).astype(np.int64) % modulus
        return c @ _power_matrix(modulus, k_max) % modulus
    chi64 = chi_vals.astype(np.int64)
    if d <= 64:
        total = np.zeros(k_max + 1, dtype=dtype)
        for a in range(1, d + 1):
            if chi64[a]:
                total += chi64[a] * _pow_range(a, k_max + 1, modulus, dtype)
        return total % modulus
    a_vec = (np.arange(1, d + 1, dtype=np.int64) % modulus).astype(dtype)
    pw = np.ones(d, dtype=dtype)
    out = np.empty(k_max + 1, dtype=dtype)
    weights = chi64[1:]
    for k in range(k_max + 1):
        out[k] = int(weights @ pw) % modulus
        if k < k_max:
            pw = pw * a_vec % modulus
    return out


def _numerators_np(
    d: int, p: int, modulus: int, chi_vals: np.ndarray, two_ms: Sequence[int]
) -> dict[int, int]:
    """N(n) = sum_{j<n} C(n,j) B_j d^j T_{n-j} mod modulus for the given even n <= p - 1.

    int64 where _np_safe(p, modulus) holds, exact Python ints otherwise.
    """
    T = _twisted_sums_mod(chi_vals, modulus, max(two_ms), _residue_dtype(p, modulus))
    return _egf_numerators(d, p, modulus, T, two_ms)


def _max_np_exponent(p: int) -> int:
    e = 1
    while _np_safe(p, p ** (e + 1)):
        e += 1
    return e


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _numerator_valuation(d: int, p: int, chi_vals, two_m: int) -> int:
    """Exact v_p of the numerator N(two_m), escalating the modulus as needed."""
    e = max(2, _max_np_exponent(p))
    while True:
        n_val = _numerators_np(d, p, p**e, chi_vals, [two_m])[two_m]
        if n_val:
            return _int_valuation(n_val, p)
        e *= 2


def _chi_hits_modular(d: int, p: int, chi_vals, strict: bool) -> list[tuple[int, int]]:
    """Hits for D != p: all even 2m <= p - 1, hit when v_p(L(1-2m, chi)) >= 1."""
    v_d = 1 if d % p == 0 else 0
    detect_mod = p ** (1 + v_d)
    two_ms = list(range(2, p, 2))
    nums = _numerators_np(d, p, detect_mod, chi_vals, two_ms)
    hits = []
    for n in two_ms:
        residue = nums[n]
        if residue == 0:
            v = _numerator_valuation(d, p, chi_vals, n) - v_d
        elif strict:
            v = _int_valuation(residue, p) - v_d
        else:
            continue
        if v >= 1 or (strict and v != 0):
            hits.append((n, v))
    return hits


def _chi_hits_exact(d: int, p: int, strict: bool) -> list[tuple[int, int]]:
    """Exact-rational kernel; handles D = p and doubles as a test oracle."""
    bound = delta(d, p)
    hits = []
    for two_m in range(2, bound - 1, 2):
        v = p_adic_valuation(l_chi_exact(d, two_m // 2), p)
        if v >= 1 or (strict and v != 0):
            hits.append((two_m, int(v)))
    v_top = p_adic_valuation(l_chi_exact(d, bound // 2), p)
    if d == p:
        v_top += 1  # tested quantity is p * L(1 - delta, chi)
    if v_top >= 1 or (strict and v_top != 0):
        hits.append((bound, int(v_top)))
    return hits


def chi_irregularity_index(d: int, p: int, strict: bool = False) -> IndexRecord:
    """Index of chi-irregularity of p for the character of discriminant D.

    strict=True additionally counts tested values with negative valuation
    (sensitivity analysis only; the standard definition ignores them).
    """
    validate_fundamental_discriminant(d)
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if d == p:
        hits = _chi_hits_exact(d, p, strict)
    else:
        hits = _chi_hits_modular(d, p, character_values(d), strict)
    return IndexRecord(d, p, delta(d, p), "chi", tuple(hits))


def d_irregularity_index(d: int, p: int, strict: bool = False) -> IndexRecord:
    """Index of D-irregularity of p, from the field zeta values.

    Exact-rational throughout; intended for moderate p, where the Bernoulli
    numbers B_{2m} with 2m < p stay cheap.
    """
    validate_fundamental_discriminant(d)
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    bound = delta(d, p)
    hits = []
    for two_m in range(2, bound - 1, 2):
        v = p_adic_valuation(zeta_d_exact(d, two_m // 2), p)
        if v >= 1 or (strict and v != 0):
            hits.append((two_m, int(v)))
    v_top = p_adic_valuation(zeta_d_exact(d, bound // 2), p) + 1  # p * zeta_D(1 - delta)
    if v_top >= 1 or (strict and v_top != 0):
        hits.append((bound, int(v_top)))
    return IndexRecord(d, p, bound, "d", tuple(hits))


def _bernoulli_valuation(p: int, n: int) -> int:
    e = max(2, _max_np_exponent(p))
    while True:
        modulus = p**e
        residue = bernoulli_residues_mod(p, modulus)[n]
        if residue:
            return _int_valuation(residue, p)
        e *= 2


def classical_irregularity_index(p: int) -> IndexRecord:
    """Classical index: even n <= p - 3 with p | B_n."""
    table = bernoulli_mod_table(p)
    hits = []
    for n in range(2, p - 2, 2):
        if table[n] == 0:
            hits.append((n, _bernoulli_valuation(p, n)))
    return IndexRecord(None, p, p - 1, "classical", tuple(hits))


# ---------------------------------------------------------------------------
# scan drivers


def _block_ranges(lo: int, hi: int, size: int) -> list[tuple[int, int]]:
    """Partition [lo, hi) at multiples of size, independent of worker count."""
    if hi <= lo:
        return []
    bounds = [lo]
    nxt = (lo // size + 1) * size
    while nxt < hi:
        bounds.append(nxt)
        nxt += size
    bounds.append(hi)
    return list(zip(bounds[:-1], bounds[1:]))


def compute_fixed_disc_block(d: int, p_lo: int, p_hi: int) -> list[IndexRecord]:
    """chi-index records for all odd primes in [p_lo, p_hi), fixed D."""
    chi_vals = character_values(d)
    records = []
    for p in odd_primes_up_to(p_hi):
        if p < p_lo:
            continue
        if d == p:
            hits = _chi_hits_exact(d, p, strict=False)
        else:
            hits = _chi_hits_modular(d, p, chi_vals, strict=False)
        records.append(IndexRecord(d, p, delta(d, p), "chi", tuple(hits)))
    return records


def compute_grid_block(d_lo: int, d_hi: int, primes: tuple[int, ...]) -> list[IndexRecord]:
    """chi-index records for every fundamental D in [d_lo, d_hi) x given primes."""
    spf = smallest_prime_factors(d_hi)
    records = []
    for d in enumerate_fundamental_discriminants(d_lo, d_hi):
        chi_vals = character_values(d, spf)
        for p in primes:
            if d == p:
                hits = _chi_hits_exact(d, p, strict=False)
            else:
                hits = _chi_hits_modular(d, p, chi_vals, strict=False)
            records.append(IndexRecord(d, p, delta(d, p), "chi", tuple(hits)))
    return records


def _exact_divisor_sum(d: int, k: int, sigma: SigmaTable) -> int:
    total = 0
    for b in range(d & 1, math.isqrt(d - 1) + 1, 2):
        total += (1 if b == 0 else 2) * sigma[(d - b * b) // 4]
    return total


def _valuations_with_fallback(
    discs: list[int], residues: np.ndarray, p: int, k: int, sigma: SigmaTable
) -> list[int]:
    """v_p per divisor sum; exact recomputation where the residue route saturates."""
    vals = []
    for d, r in zip(discs, residues):
        r = int(r)
        if r == 0:
            total = _exact_divisor_sum(d, k, sigma)
            vals.append(_int_valuation(total, p))
        else:
            vals.append(_int_valuation(r, p))
    return vals


def compute_table3_block(
    d_lo: int,
    d_hi: int,
    primes: tuple[int, ...],
    sigma1: SigmaTable | None = None,
    sigma3: SigmaTable | None = None,
) -> list[IndexRecord]:
    """Records for p in {3, 5} over [d_lo, d_hi) via the divisor-sum route.

    Needs only v_3 and v_5 of the two divisor sums: with S_k(D) denoting
    sum_b sigma_k((D-b^2)/4), the tested values are L(-1) = -S_1(D)/5 and,
    for p = 5, L(-3) = S_3(D).
    """
    if not set(primes) <= {3, 5}:
        raise ValueError("divisor-sum scan mode supports the primes 3 and 5 only")
    if sigma1 is None:
        sigma1 = _shared_sigma(1, (d_hi - 1) // 4)
    if sigma3 is None and 5 in primes:
        sigma3 = _shared_sigma(3, (d_hi - 1) // 4)
    discs, res1_3 = siegel_divisor_sums_mod(1, d_lo, d_hi, sigma1, 3**_TABLE3_CAP[3])
    v3_s1 = _valuations_with_fallback(discs, res1_3, 3, 1, sigma1) if 3 in primes else None
    if 5 in primes:
        _, res1_5 = siegel_divisor_sums_mod(1, d_lo, d_hi, sigma1, 5**_TABLE3_CAP[5])
        v5_s1 = _valuations_with_fallback(discs, res1_5, 5, 1, sigma1)
        _, res3_5 = siegel_divisor_sums_mod(2, d_lo, d_hi, sigma3, 5**_TABLE3_CAP[5])
        v5_s3 = _valuations_with_fallback(discs, res3_5, 5, 3, sigma3)
    records = []
    for i, d in enumerate(discs):
        for p in primes:
            hits = []
            if p == 3:
                v = v3_s1[i]  # v_3(L(-1)) = v_3(S_1)
                if v >= 1:
                    hits.append((2, v))
                records.append(IndexRecord(d, 3, 2, "chi", tuple(hits)))
            else:
                if d == 5:
                    # self-conductor case: single test of 5 * L(-1), and
                    # v_5(5 * L(-1)) = v_5(S_1)
                    v = v5_s1[i]
                    if v >= 1:
                        hits.append((2, v))
                    records.append(IndexRecord(d, 5, 2, "chi", tuple(hits)))
                else:
                    v_interior = v5_s1[i] - 1  # v_5(L(-1)) = v_5(S_1) - 1
                    if v_interior >= 1:
                        hits.append((2, v_interior))
                    v_top = v5_s3[i]  # v_5(L(-3)) = v_5(S_3)
                    if v_top >= 1:
                        hits.append((4, v_top))
                    records.append(IndexRecord(d, 5, 4, "chi", tuple(hits)))
    return records


# Sigma tables shared with pool workers (populated by the initializer, or on
# demand in-process; rebuilt lazily if a block needs a larger limit).
_sigma_store: dict[int, SigmaTable] = {}


def _shared_sigma(k: int, limit: int) -> SigmaTable:
    table = _sigma_store.get(k)
    if table is None or table.limit < limit:
        table = divisor_sigma_sieve(k, limit)
        _sigma_store[k] = table
    return table


def _pool_init(sigma_tables: dict[int, SigmaTable]) -> None:
    _sigma_store.update(sigma_tables)


def _run_blocks(
    task: Callable, blocks: Sequence, workers: int, sigma_tables: dict[int, SigmaTable] | None = None
) -> Iterator:
    """Run task over blocks, in order, optionally across processes.

    Results are yielded in block order regardless of worker count, so scan
    output is schedule-independent.
    """
    if workers <= 1 or len(blocks) <= 1:
        if sigma_tables:
            _pool_init(sigma_tables)
        for block in blocks:
            yield task(block)
        return
    ctx = mp.get_context("fork")
    init = partial(_pool_init, sigma_tables) if sigma_tables else None
    with ctx.Pool(processes=workers, initializer=init) as pool:
        yield from pool.imap(task, blocks)


def _fixed_disc_task(d: int, block: tuple[int, int]) -> list[IndexRecord]:
    return compute_fixed_disc_block(d, block[0], block[1])


def _grid_task(primes: tuple[int, ...], block: tuple[int, int]) -> list[IndexRecord]:
    return compute_grid_block(block[0], block[1], primes)


def _table3_task(primes: tuple[int, ...], block: tuple[int, int]) -> list[IndexRecord]:
    return compute_table3_block(block[0], block[1], primes)


def scan_fixed_discriminant(d: int, p_max: int, workers: int = 1) -> list[IndexRecord]:
    """chi-index records for all odd primes p < p_max, ascending."""
    validate_fundamental_discriminant(d)
    if p_max < 3:
        raise ValueError("p_max must be at least 3")
    blocks = _block_ranges(3, p_max, PRIME_BLOCK)
    records: list[IndexRecord] = []
    for chunk in _run_blocks(partial(_fixed_disc_task, d), blocks, workers):
        records.extend(chunk)
    return records


def scan_fixed_primes(
    d_lo: int,
    d_hi: int,
    primes: Iterable[int],
    mode: str = "full",
    workers: int = 1,
) -> list[IndexRecord]:
    """One chi-index record per (D, p), ordered by (D, p); deterministic.

    mode "full" tests every exponent up to delta via the Bernoulli kernels;
    mode "table3" requires primes within {3, 5} and uses the divisor-sum
    route for L(-1) and L(-3).
    """
    primes = tuple(sorted(set(int(p) for p in primes)))
    for p in primes:
        if not is_odd_prime(p):
            raise ValueError(f"{p} is not an odd prime")
    if mode == "full":
        blocks = _block_ranges(max(d_lo, 2), d_hi, GRID_BLOCK)
        task = partial(_grid_task, primes)
        sigma_tables = None
    elif mode == "table3":
        if not set(primes) <= {3, 5}:
            raise ValueError("table3 mode requires primes within {3, 5}")
        if d_hi - d_lo > 100_000:
            validate_siegel_gate()
        blocks = _block_ranges(max(d_lo, 2), d_hi, MILLION_BLOCK)
        task = partial(_table3_task, primes)
        limit = max((d_hi - 1) // 4, 1)
        sigma_tables = {1: _shared_sigma(1, limit)}
        if 5 in primes:
            sigma_tables[3] = _shared_sigma(3, limit)
    else:
        raise ValueError(f"unknown scan mode {mode!r}")
    records: list[IndexRecord] = []
    for chunk in _run_blocks(task, blocks, workers, sigma_tables):
        records.extend(chunk)
    return records


def high_valuation_survey(
    records: Iterable[IndexRecord], p: int
) -> tuple[int, list[tuple[int, int]]]:
    """Deepest hit valuation at the prime p, with every (D, 2m) attaining it."""
    best = 0
    attain: list[tuple[int, int]] = []
    for rec in records:
        if rec.prime != p:
            continue
        for two_m, v in rec.hits:
            if v > best:
                best = v
                attain = [(rec.discriminant, two_m)]
            elif v == best and best > 0:
                attain.append((rec.discriminant, two_m))
    return best, attain
