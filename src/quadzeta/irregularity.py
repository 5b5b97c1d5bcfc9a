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

All three read residues of the kernel in bernoulli.py, modulo p^e: the
numerators N(n) = D * B(n, chi_D) for one prime and a whole block of
discriminants at once, and the Bernoulli numbers B_n.  v_p(L(1-n, chi_D))
is v_p(N(n)) - v_p(D), v_p(zeta_D(1-n)) adds v_p(B_n), and one reader
(_valuations) takes every valuation off the residues; only a residue that
is exactly 0 is recomputed at a deeper prime power.  One threshold step
(_records) turns valuations into hits over the test range.  The
exact-rational loops (_exact_hits) remain as test oracles.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .bernoulli import _np_safe, _numerator_residues, bernoulli_residues_mod
from .lvalues import (
    l_chi_exact,
    siegel_divisor_sums,
    siegel_divisor_sums_mod,
    validate_siegel_gate,
)
from .numtheory import (
    SigmaTable,
    character_table,
    character_values,
    divisor_sigma_sieve,
    enumerate_fundamental_discriminants,
    odd_primes_up_to,
    p_adic_valuation,
    validate_fundamental_discriminant,
    validate_odd_prime,
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


def _delta(d, p: int):
    """p - 1, halved where D = p; d may be an array of discriminants."""
    return (p - 1) // (1 + (d == p))


def delta(d: int, p: int) -> int:
    """Upper end of the even test range: p - 1, or (p - 1)/2 when D = p."""
    validate_fundamental_discriminant(d)
    return _delta(d, validate_odd_prime(p))


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
    block (D = p included), so that its hits (v_p(N) >= 2) are read directly.
    """
    return max(_max_np_exponent(p), 2 if p_divides_d else 1)


def _valuations(residues: np.ndarray, p: int, e: int, deeper: Callable[..., int]) -> np.ndarray:
    """v_p of integers known mod p^e, one per entry of residues.

    A residue that is exactly 0 says only v_p >= e: that entry is
    recomputed as deeper(*index, depth), a value mod p^depth (or exactly),
    at doubled depths until it is not 0.
    """
    valuation = np.zeros(residues.shape, dtype=np.int64)
    for power in (p**k for k in range(1, e)):
        valuation += residues % power == 0
    for index in zip(*np.nonzero(residues == 0)):
        depth, value = e, 0
        while not value:
            depth *= 2
            value = int(deeper(*index, depth))
        valuation[index] = p_adic_valuation(value, p)
    return valuation


def _period_table(discs: Sequence[int]) -> np.ndarray:
    """chi_D(a) for 0 <= a <= max(discs), zeroed beyond a = D: one period per row."""
    width = discs[-1] + 1
    table = character_table(discs, width)
    table[np.arange(width) > np.asarray(discs)[:, None]] = 0
    return table


def _chi_valuations(table: np.ndarray, discs: Sequence[int], p: int) -> np.ndarray:
    """v_p(L(1 - n, chi_D)) = v_p(N(n)) - v_p(D) for each row of table (one
    period of chi_D each) and each even n = 2, 4, ..., p - 1."""
    v_d = (np.asarray(discs) % p == 0).astype(np.int64)
    e = _kernel_exponent(p, bool(v_d.any()))
    two_ms = range(2, p, 2)

    def deeper(i, h, depth):
        return _numerator_residues(table[i : i + 1], discs[i : i + 1], p, depth, [two_ms[h]])[0, 0]

    residues = _numerator_residues(table, discs, p, e, two_ms)
    return _valuations(residues, p, e, deeper) - v_d[:, None]


def _bernoulli_valuations(p: int) -> np.ndarray:
    """v_p(B_n) for the even n = 2, 4, ..., p - 3."""
    e = _max_np_exponent(p)
    residues = bernoulli_residues_mod(p, p**e)[2 : p - 2 : 2]
    return _valuations(residues, p, e, lambda h, depth: bernoulli_residues_mod(p, p**depth)[2 * h + 2])


def _records(
    kind: str, valuation: np.ndarray, discs: Sequence[int], p: int, strict: bool = False
) -> list[IndexRecord]:
    """One record per discriminant, from valuation[i, h] = v_p of its value at 2m = 2h + 2.

    The columns run up to 2m = p - 1; a row's test range ends at
    delta(D, p), and for D = p the value tested there is p times the value,
    so that column gains 1.  A hit has valuation >= 1, or under strict any
    valuation other than 0.
    """
    d_arr = np.asarray(discs, dtype=np.int64)
    bound = _delta(d_arr, p)[:, None]
    two_m = np.arange(2, p, 2)
    valuation = valuation + ((d_arr == p)[:, None] & (two_m == bound))
    found = (two_m <= bound) & ((valuation >= 1) | (strict & (valuation != 0)))
    hits: list[list[tuple[int, int]]] = [[] for _ in discs]
    rows, cols = np.nonzero(found)
    for i, h, v in zip(rows.tolist(), cols.tolist(), valuation[found].tolist()):
        hits[i].append((2 * h + 2, v))
    return [IndexRecord(d, p, b, kind, tuple(h)) for d, b, h in zip(discs, bound[:, 0].tolist(), hits)]


def _exact_hits(
    value: Callable[[int], Fraction], p: int, bound: int, top_shift: int, strict: bool
) -> list[tuple[int, int]]:
    """Hits (2m, v_p(value(m))) over the even test range 2 <= 2m <= bound.

    The top valuation gains top_shift: 1 when the tested quantity there is
    p * value(bound/2).  A test oracle for the kernel routes.
    """
    hits = []
    for two_m in range(2, bound + 1, 2):
        v = p_adic_valuation(value(two_m // 2), p) + (top_shift if two_m == bound else 0)
        if v >= 1 or (strict and v != 0):
            hits.append((two_m, int(v)))
    return hits


def _chi_hits_exact(d: int, p: int, strict: bool) -> list[tuple[int, int]]:
    """Exact-rational chi-index hits: the test oracle of the kernel."""
    return _exact_hits(lambda n: l_chi_exact(d, n), p, delta(d, p), int(d == p), strict)


def chi_irregularity_index(d: int, p: int, strict: bool = False) -> IndexRecord:
    """Index of chi-irregularity of p for the character of discriminant D.

    strict=True additionally counts tested values with negative valuation
    (sensitivity analysis only; the standard definition ignores them).
    """
    delta(d, p)  # validates D and p
    valuation = _chi_valuations(character_values(d)[None], [d], p)
    return _records("chi", valuation, [d], p, strict)[0]


def d_irregularity_index(d: int, p: int, strict: bool = False) -> IndexRecord:
    """Index of D-irregularity of p, from the field zeta values.

    v_p(zeta_D(1 - n)) = v_p(B_n) + v_p(L(1 - n, chi_D)), both read off the
    kernel residues.  The top value is p * zeta_D(1 - delta); at n = p - 1
    that factor p cancels v_p(B_{p-1}) = -1 (von Staudt-Clausen), so the
    Bernoulli column there is 0.
    """
    delta(d, p)  # validates D and p
    riemann = np.append(_bernoulli_valuations(p), 0)
    valuation = _chi_valuations(character_values(d)[None], [d], p) + riemann
    return _records("d", valuation, [d], p, strict)[0]


def classical_irregularity_index(p: int) -> IndexRecord:
    """Classical index: even n <= p - 3 with p | B_n."""
    validate_odd_prime(p)
    hits = tuple((2 * h + 2, v) for h, v in enumerate(_bernoulli_valuations(p).tolist()) if v)
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
    primes = [p for p in odd_primes_up_to(p_hi) if p >= p_lo]
    return [_records("chi", _chi_valuations(table, [d], p), [d], p)[0] for p in primes]


def compute_grid_block(d_lo: int, d_hi: int, primes: tuple[int, ...]) -> list[IndexRecord]:
    """chi-index records for every fundamental D in [d_lo, d_hi) x given primes."""
    discs = enumerate_fundamental_discriminants(d_lo, d_hi)
    records = []
    step = max(1, _TABLE_ENTRIES // d_hi)
    for lo in range(0, len(discs), step):
        group = discs[lo : lo + step]
        table = _period_table(group)
        by_prime = [_records("chi", _chi_valuations(table, group, p), group, p) for p in primes]
        records.extend(rec for row in zip(*by_prime) for rec in row)
    return records


def _exact_divisor_sum(d: int, sigma: SigmaTable) -> int:
    """The divisor sum of one D (sigma holds sigma_{2m-1}), from the window [d, d + 1)."""
    return siegel_divisor_sums((sigma.exponent + 1) // 2, d, d + 1, sigma)[1][0]


def _divisor_sum_valuations(
    m: int, d_lo: int, d_hi: int, sigma: SigmaTable, p: int
) -> tuple[list[int], np.ndarray]:
    """(discriminants, v_p of their divisor sums), from residues mod p^_TABLE3_CAP[p]."""
    e = _TABLE3_CAP[p]
    discs, residues = siegel_divisor_sums_mod(m, d_lo, d_hi, sigma, p**e)
    return discs, _valuations(residues, p, e, lambda i, depth: _exact_divisor_sum(discs[i], sigma))


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
    by_prime = []
    for p in primes:
        discs, v_s1 = _divisor_sum_valuations(1, d_lo, d_hi, sigma1, p)
        if p == 3:
            valuation = v_s1[:, None]  # v_3(L(-1)) = v_3(S_1)
        else:
            # v_5(L(-1)) = v_5(S_1) - 1 (at D = 5, the tested 5 * L(-1) has
            # v_5(S_1)), and v_5(L(-3)) = v_5(S_3)
            _, v_s3 = _divisor_sum_valuations(2, d_lo, d_hi, sigma3, 5)
            valuation = np.stack([v_s1 - 1, v_s3], axis=1)
        by_prime.append(_records("chi", valuation, discs, p))
    return [rec for row in zip(*by_prime) for rec in row]


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


# The parameters each scan kind takes: (required, optional).  A grid scan
# also takes exactly one of pmax and primes.
_SCAN_PARAMS = {
    "fixed-disc": (("disc", "pmax"), ()),
    "grid": (("dmax",), ("dmin", "pmax", "primes")),
    "million": (("dmax",), ("dmin", "primes")),
}


def scan_plan(kind: str, **given) -> ScanPlan:
    """Plan one of the three scans from its parameters.

    fixed-disc  disc, pmax: every odd prime p < pmax for the one D = disc.
    grid        dmax, and pmax (the odd primes below it) or primes: every
                fundamental D in [dmin, dmax) with each prime; dmin
                defaults to 2.
    million     dmax, and primes within {3, 5} (default 3, 5): the same
                range by the divisor-sum route.  Planning runs the Siegel
                gate and builds the sigma tables the blocks share.

    A parameter given as None counts as absent; a missing or foreign one
    raises ValueError.  The plan's params are the parameters as strings.
    """
    if kind not in _SCAN_PARAMS:
        raise ValueError(f"unknown scan kind {kind!r}")
    required, optional = _SCAN_PARAMS[kind]
    given = {key: value for key, value in given.items() if value is not None}
    if not set(required) <= given.keys():
        raise ValueError(f"{kind} scan needs " + " and ".join(required))
    foreign = sorted(given.keys() - set(required) - set(optional))
    if foreign:
        raise ValueError(f"{kind} scan takes no " + " or ".join(foreign))
    if kind == "grid" and ("pmax" in given) == ("primes" in given):
        raise ValueError("grid scan takes exactly one of pmax and primes")
    if kind == "million":
        given.setdefault("primes", (3, 5))
    if "primes" in given:
        given["primes"] = tuple(sorted({int(p) for p in given["primes"]}))
    params = {
        key: ",".join(map(str, value)) if key == "primes" else str(value)
        for key, value in given.items()
    }
    d_lo = max(given.get("dmin", 2), 2)
    if kind == "fixed-disc":
        disc, pmax = validate_fundamental_discriminant(given["disc"]), given["pmax"]
        if pmax < 3:
            raise ValueError("pmax must be at least 3")
        blocks = _block_ranges(3, pmax, PRIME_BLOCK)
        task = partial(compute_fixed_disc_block, disc)
    elif kind == "grid":
        primes = given["primes"] if "primes" in given else tuple(odd_primes_up_to(given["pmax"]))
        for p in primes:
            validate_odd_prime(p)
        blocks = _block_ranges(d_lo, given["dmax"], GRID_BLOCK)
        task = partial(compute_grid_block, primes=primes)
    else:
        primes, dmax = given["primes"], given["dmax"]
        if not set(primes) <= {3, 5}:
            raise ValueError("the million scan supports the primes 3 and 5 only")
        validate_siegel_gate()
        limit = max((dmax - 1) // 4, 1)
        sigma1 = divisor_sigma_sieve(1, limit)
        sigma3 = divisor_sigma_sieve(3, limit) if 5 in primes else None
        blocks = _block_ranges(d_lo, dmax, MILLION_BLOCK)
        task = partial(compute_table3_block, primes=primes, sigma1=sigma1, sigma3=sigma3)
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
    """Deepest hit valuation at the odd prime p, with every (D, 2m) attaining it."""
    validate_odd_prime(p)
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
