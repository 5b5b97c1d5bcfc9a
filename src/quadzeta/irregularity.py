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

The chi-index driver reads the numerators N(n) = D * B(n, chi) from the
kernel in bernoulli.py, modulo p^e for one prime and a whole block of
discriminants at once: a hit is v_p(N) >= 1 + v_p(D), read off the residues
together with its valuation; only a residue that is exactly 0 is recomputed
at a deeper prime power.
"""

from __future__ import annotations

import math
import multiprocessing as mp
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .bernoulli import _np_safe, _numerator_residues, bernoulli_residues_mod
from .lvalues import (
    l_chi_exact,
    siegel_divisor_sums_mod,
    validate_siegel_gate,
    zeta_d_exact,
)
from .numtheory import (
    SigmaTable,
    character_table,
    character_values,
    divisor_sigma_sieve,
    enumerate_fundamental_discriminants,
    is_odd_prime,
    odd_primes_up_to,
    p_adic_valuation,
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
# chi-index driver: one prime, a matrix of discriminants

# Largest int8 character table per row group of a grid block (rows x width).
_TABLE_ENTRIES = 1 << 21


def _max_np_exponent(p: int) -> int:
    e = 1
    while _np_safe(p, p ** (e + 1)):
        e += 1
    return e


def _kernel_exponent(p: int, p_divides_d: bool) -> int:
    """Residue depth e of the chi-index kernel: N is computed mod p^e.

    As deep as int64 allows, and at least 2 when p divides some D of the
    block, so that its hits (v_p(N) >= 2) are read directly.
    """
    return max(_max_np_exponent(p), 2 if p_divides_d else 1)


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _period_table(discs: Sequence[int]) -> np.ndarray:
    """chi_D(a) for 0 <= a <= max(discs), zeroed beyond a = D: one period per row."""
    width = discs[-1] + 1
    table = character_table(discs, width)
    table[np.arange(width) > np.asarray(discs)[:, None]] = 0
    return table


def _chi_hits_batch(
    table: np.ndarray, discs: Sequence[int], p: int, strict: bool = False
) -> list[tuple[tuple[int, int], ...]]:
    """Hit tuples of the chi-index, one per row of table (one period of chi_D each).

    For D != p a hit is v_p(L(1-n, chi_D)) = v_p(N(n)) - v_p(D) >= 1, read off
    the residues of N mod p^e.  A residue that is exactly 0 is recomputed at a
    doubled exponent until it is not.  D = p takes the exact route.
    """
    d_arr = np.asarray(discs)
    coprime = d_arr != p
    v_d = (d_arr % p == 0).astype(np.int64)
    e = _kernel_exponent(p, bool(v_d[coprime].any()))
    two_ms = range(2, p, 2)
    residues = _numerator_residues(table, discs, p, e, two_ms)
    valuation = np.zeros(residues.shape, dtype=np.int64)
    for power in (p**k for k in range(1, e)):
        valuation += residues % power == 0
    for i, h in zip(*np.nonzero((residues == 0) & coprime[:, None])):
        depth, value = e, 0
        while not value:
            depth *= 2
            value = int(_numerator_residues(table[i : i + 1], discs[i : i + 1], p, depth,
                                            [two_ms[h]])[0, 0])
        valuation[i, h] = _int_valuation(value, p)
    valuation -= v_d[:, None]
    found = (valuation >= 1) | (strict & (valuation != 0))
    found &= coprime[:, None]
    hits: list[list[tuple[int, int]]] = [[] for _ in discs]
    rows, cols = np.nonzero(found)
    for i, h, v in zip(rows.tolist(), cols.tolist(), valuation[found].tolist()):
        hits[i].append((two_ms[h], v))
    for i in np.flatnonzero(~coprime).tolist():
        hits[i] = _chi_hits_exact(p, p, strict)
    return [tuple(h) for h in hits]


def _exact_hits(
    value: Callable[[int], Fraction], p: int, bound: int, top_shift: int, strict: bool
) -> list[tuple[int, int]]:
    """Hits (2m, v_p(value(m))) over the even test range 2 <= 2m <= bound.

    The top valuation gains top_shift: 1 when the tested quantity there is
    p * value(bound/2).
    """
    hits = []
    for two_m in range(2, bound + 1, 2):
        v = p_adic_valuation(value(two_m // 2), p) + (top_shift if two_m == bound else 0)
        if v >= 1 or (strict and v != 0):
            hits.append((two_m, int(v)))
    return hits


def _chi_hits_exact(d: int, p: int, strict: bool) -> list[tuple[int, int]]:
    """Exact-rational kernel; handles D = p and doubles as a test oracle."""
    return _exact_hits(lambda n: l_chi_exact(d, n), p, delta(d, p), int(d == p), strict)


def chi_irregularity_index(d: int, p: int, strict: bool = False) -> IndexRecord:
    """Index of chi-irregularity of p for the character of discriminant D.

    strict=True additionally counts tested values with negative valuation
    (sensitivity analysis only; the standard definition ignores them).
    """
    bound = delta(d, p)
    hits = _chi_hits_batch(character_values(d)[None], [d], p, strict)[0]
    return IndexRecord(d, p, bound, "chi", hits)


def d_irregularity_index(d: int, p: int, strict: bool = False) -> IndexRecord:
    """Index of D-irregularity of p, from the field zeta values.

    Exact-rational throughout; intended for moderate p, where the Bernoulli
    numbers B_{2m} with 2m < p stay cheap.  The top value is p * zeta_D(1 - delta).
    """
    bound = delta(d, p)
    hits = _exact_hits(lambda n: zeta_d_exact(d, n), p, bound, 1, strict)
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
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    residues = bernoulli_residues_mod(p, p)
    hits = tuple((n, _bernoulli_valuation(p, n)) for n in range(2, p - 2, 2) if residues[n] == 0)
    return IndexRecord(None, p, p - 1, "classical", hits)


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
    table = character_values(d)[None]
    records = []
    for p in odd_primes_up_to(p_hi):
        if p < p_lo:
            continue
        hits = _chi_hits_batch(table, [d], p)[0]
        records.append(IndexRecord(d, p, delta(d, p), "chi", hits))
    return records


def compute_grid_block(d_lo: int, d_hi: int, primes: tuple[int, ...]) -> list[IndexRecord]:
    """chi-index records for every fundamental D in [d_lo, d_hi) x given primes."""
    discs = enumerate_fundamental_discriminants(d_lo, d_hi)
    records = []
    step = max(1, _TABLE_ENTRIES // d_hi)
    for lo in range(0, len(discs), step):
        group = discs[lo : lo + step]
        table = _period_table(group)
        by_prime = [_chi_hits_batch(table, group, p) for p in primes]
        for i, d in enumerate(group):
            for p, hits in zip(primes, by_prime):
                records.append(IndexRecord(d, p, delta(d, p), "chi", hits[i]))
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
    sigma1: SigmaTable,
    sigma3: SigmaTable | None = None,
) -> list[IndexRecord]:
    """Records over [d_lo, d_hi) via the divisor-sum route; primes lie within {3, 5}.

    Needs only v_3 and v_5 of the two divisor sums: with S_k(D) denoting
    sum_b sigma_k((D-b^2)/4), the tested values are L(-1) = -S_1(D)/5 and,
    for p = 5, L(-3) = S_3(D).  The sigma tables reach at least (d_hi - 1)/4;
    sigma3 is needed only for p = 5.
    """
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


@dataclass(frozen=True)
class ScanPlan:
    """One scan: its blocks, the function that computes a block, and the
    params that identify the scan in a manifest.

    The blocks partition the scan range at multiples of a fixed size, so
    they do not depend on the worker count; task(lo, hi) returns one
    block's records, ordered by (D, p).
    """

    kind: str
    params: dict[str, str]
    blocks: list[tuple[int, int]]
    task: Callable[[int, int], list[IndexRecord]]

    def run(
        self, workers: int = 1, blocks: Sequence[tuple[int, int]] | None = None
    ) -> Iterator[list[IndexRecord]]:
        """Records of each block (all of them by default), in block order
        whatever the worker count."""
        blocks = self.blocks if blocks is None else blocks
        if workers <= 1 or len(blocks) <= 1:
            for block in blocks:
                yield self.task(*block)
            return
        # the task, with the sigma tables it may hold, reaches each forked
        # worker once through the initializer instead of once per block
        ctx = mp.get_context("fork")
        with ctx.Pool(processes=workers, initializer=_pool_init, initargs=(self.task,)) as pool:
            yield from pool.imap(_run_block, blocks)


_worker_task: Callable[[int, int], list[IndexRecord]] | None = None  # set in pool workers


def _pool_init(task: Callable[[int, int], list[IndexRecord]]) -> None:
    global _worker_task
    _worker_task = task


def _run_block(block: tuple[int, int]) -> list[IndexRecord]:
    return _worker_task(*block)


def scan_plan(
    kind: str,
    *,
    disc: int | None = None,
    pmax: int | None = None,
    dmin: int | None = None,
    dmax: int | None = None,
    primes: Iterable[int] | None = None,
) -> ScanPlan:
    """Plan one of the three scans from its parameters.

    fixed-disc  disc, pmax: every odd prime p < pmax for the one D = disc.
    grid        dmax, and pmax (the odd primes below it) or primes: every
                fundamental D in [dmin, dmax) with each prime; dmin
                defaults to 2.
    million     dmax, primes within {3, 5}: the same range by the
                divisor-sum route.  Planning runs the Siegel gate and
                builds the sigma tables the blocks share.

    The plan's params are the given parameters as strings.
    """
    primes = None if primes is None else tuple(sorted({int(p) for p in primes}))
    given = {"disc": disc, "pmax": pmax, "dmin": dmin, "dmax": dmax, "primes": primes}
    params = {
        key: ",".join(map(str, value)) if key == "primes" else str(value)
        for key, value in given.items()
        if value is not None
    }
    d_lo = max(dmin or 2, 2)
    if kind == "fixed-disc":
        validate_fundamental_discriminant(disc)
        if pmax < 3:
            raise ValueError("pmax must be at least 3")
        blocks = _block_ranges(3, pmax, PRIME_BLOCK)
        task = partial(compute_fixed_disc_block, disc)
    elif kind == "grid":
        primes = tuple(odd_primes_up_to(pmax)) if primes is None else primes
        for p in primes:
            if not is_odd_prime(p):
                raise ValueError(f"{p} is not an odd prime")
        blocks = _block_ranges(d_lo, dmax, GRID_BLOCK)
        task = partial(compute_grid_block, primes=primes)
    elif kind == "million":
        if not set(primes) <= {3, 5}:
            raise ValueError("the million scan supports the primes 3 and 5 only")
        validate_siegel_gate()
        limit = max((dmax - 1) // 4, 1)
        sigma1 = divisor_sigma_sieve(1, limit)
        sigma3 = divisor_sigma_sieve(3, limit) if 5 in primes else None
        blocks = _block_ranges(d_lo, dmax, MILLION_BLOCK)
        task = partial(compute_table3_block, primes=primes, sigma1=sigma1, sigma3=sigma3)
    else:
        raise ValueError(f"unknown scan kind {kind!r}")
    return ScanPlan(kind, params, blocks, task)


def scan_fixed_discriminant(d: int, p_max: int, workers: int = 1) -> list[IndexRecord]:
    """chi-index records for all odd primes p < p_max, ascending."""
    plan = scan_plan("fixed-disc", disc=d, pmax=p_max)
    return [rec for block in plan.run(workers) for rec in block]


def scan_fixed_primes(
    d_lo: int, d_hi: int, primes: Iterable[int], workers: int = 1
) -> list[IndexRecord]:
    """One chi-index record per (D, p), ordered by (D, p); deterministic.

    Primes within {3, 5} take the divisor-sum route of the million scan,
    any other set the Bernoulli kernels of the grid scan; the two routes
    give the same records.
    """
    primes = tuple(primes)
    kind = "million" if set(primes) <= {3, 5} else "grid"
    plan = scan_plan(kind, dmin=d_lo, dmax=d_hi, primes=primes)
    return [rec for block in plan.run(workers) for rec in block]


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
