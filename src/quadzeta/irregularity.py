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
(_records) turns valuations into the hit columns of an IndexColumns, the
one form every scan returns and the survey, stats and shards take.  The
exact-rational loops (_exact_hits) remain as test oracles.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .bernoulli import _np_safe, _numerator_residues, bernoulli_residues_mod
from .lvalues import (
    RIEMANN_RECIPROCAL,
    SIEGEL_DENOMINATOR,
    l_chi_exact,
    siegel_divisor_sums,
    siegel_divisor_sums_mod,
    validate_siegel_gate,
)
from .numtheory import (
    SigmaTable,
    character_values,
    divisor_sigma_sieve,
    enumerate_fundamental_discriminants,
    odd_primes_up_to,
    p_adic_valuation,
    period_table,
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


@dataclass(frozen=True, eq=False)
class IndexColumns:
    """chi-index records as int64 columns, one row per (D, p).

    Row i's hits are (two_m[j], valuation[j]) for j in
    [hit_offsets[i], hit_offsets[i + 1]), the offsets following from the
    index column, each row's hit count.  Scans return this form, shards are
    written from it and read into it, and the reports read it; iterating
    gives the per-row IndexRecord view.
    """

    discriminant: np.ndarray
    prime: np.ndarray
    delta: np.ndarray
    index: np.ndarray
    two_m: np.ndarray
    valuation: np.ndarray

    @property
    def hit_offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.index)))

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self) -> Iterator[IndexRecord]:
        """The rows as chi-index IndexRecords, built on demand."""
        hits = iter(zip(self.two_m.tolist(), self.valuation.tolist()))
        for d, p, b, k in zip(self.discriminant.tolist(), self.prime.tolist(),
                              self.delta.tolist(), self.index.tolist()):
            yield IndexRecord(d, p, b, "chi", tuple(islice(hits, k)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexColumns):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS)

    @classmethod
    def from_records(cls, records: Sequence[IndexRecord]) -> IndexColumns:
        """The columns of records, in their order; each needs a discriminant."""
        if any(rec.discriminant is None for rec in records):
            raise ValueError("index columns need a discriminant on every record")
        hits = np.array([hit for rec in records for hit in rec.hits], dtype=np.int64)
        hits = hits.reshape(-1, 2)
        return cls(*(np.array([getattr(rec, name) for rec in records], dtype=np.int64)
                     for name in _COLUMNS[:4]),
                   hits[:, 0].copy(), hits[:, 1].copy())

    @classmethod
    def concatenate(cls, parts: Sequence[IndexColumns]) -> IndexColumns:
        """The rows of parts, in order."""
        if not parts:
            return cls.from_records([])
        return cls(*(np.concatenate([getattr(part, name) for part in parts])
                     for name in _COLUMNS))

    def take(self, rows: np.ndarray) -> IndexColumns:
        """The rows numbered in rows, in that order, each with its hits."""
        index = self.index[rows]
        # hit j of the result, in output row i, is hit j + shift[i] of self
        shift = self.hit_offsets[rows] - (np.cumsum(index) - index)
        hits = np.arange(index.sum()) + np.repeat(shift, index)
        return IndexColumns(self.discriminant[rows], self.prime[rows], self.delta[rows], index,
                            self.two_m[hits], self.valuation[hits])

    def hit_rows(self, column: np.ndarray) -> np.ndarray:
        """column repeated once per hit of its row: each hit's row value."""
        return np.repeat(column, self.index)


_COLUMNS = ("discriminant", "prime", "delta", "index", "two_m", "valuation")


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
    recomputed as deeper(*index, depth), a value mod p^depth (or exactly,
    and then never 0), at doubled depths until it is not 0.
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


def _records(valuation: np.ndarray, discs: Sequence[int], p: int,
             strict: bool = False) -> IndexColumns:
    """One row per discriminant, from valuation[i, h] = v_p of its value at 2m = 2h + 2.

    The columns run up to 2m = p - 1; a row's test range ends at
    delta(D, p), and for D = p the value tested there is p times the value,
    so that column gains 1.  A hit has valuation >= 1, or under strict any
    valuation other than 0.
    """
    d_arr = np.asarray(discs, dtype=np.int64)
    bound = _delta(d_arr, p)
    two_m = np.arange(2, p, 2)
    valuation = valuation + ((d_arr == p)[:, None] & (two_m == bound[:, None]))
    found = (two_m <= bound[:, None]) & ((valuation >= 1) | (strict & (valuation != 0)))
    return IndexColumns(d_arr, np.full(len(d_arr), p, dtype=np.int64), bound,
                        np.count_nonzero(found, axis=1), two_m[np.nonzero(found)[1]],
                        valuation[found])


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
    return next(iter(_records(valuation, [d], p, strict)))


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
    return replace(next(iter(_records(valuation, [d], p, strict))), kind="d")


def classical_irregularity_index(p: int) -> IndexRecord:
    """Classical index: even n <= p - 3 with p | B_n."""
    validate_odd_prime(p)
    hits = tuple((2 * h + 2, v) for h, v in enumerate(_bernoulli_valuations(p).tolist()) if v)
    return IndexRecord(None, p, p - 1, "classical", hits)


# ---------------------------------------------------------------------------
# scan drivers


def scan_range(kind: str, params: dict) -> tuple[str, int, int]:
    """(key, lo, hi): a scan covers p in [3, pmax) for fixed-disc, and D in
    [max(dmin, 2), dmax) otherwise; params hold the values or their strings."""
    key, end = ("p", "pmax") if kind == "fixed-disc" else ("D", "dmax")
    if end not in params:
        raise ValueError(f"{kind} scan params give no {end}, so the scan range has no end")
    lo = 3 if key == "p" else max(int(params.get("dmin", 2)), 2)
    return key, lo, int(params[end])


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


def compute_fixed_disc_block(d: int, p_lo: int, p_hi: int) -> IndexColumns:
    """chi-index rows for all odd primes in [p_lo, p_hi): the grid block of the one D."""
    primes = tuple(p for p in odd_primes_up_to(p_hi) if p >= p_lo)
    return compute_grid_block(validate_fundamental_discriminant(d), d + 1, primes)


def _by_pair(parts: Sequence[IndexColumns]) -> IndexColumns:
    """The rows of parts, ordered by (D, p)."""
    cols = IndexColumns.concatenate(parts)
    return cols.take(np.lexsort((cols.prime, cols.discriminant)))


def compute_grid_block(d_lo: int, d_hi: int, primes: tuple[int, ...]) -> IndexColumns:
    """chi-index rows for every fundamental D in [d_lo, d_hi) x given primes."""
    discs = enumerate_fundamental_discriminants(d_lo, d_hi)
    parts = []
    step = max(1, _TABLE_ENTRIES // d_hi)
    for lo in range(0, len(discs), step):
        group = discs[lo : lo + step]
        table = period_table(group)
        parts.extend(_records(_chi_valuations(table, group, p), group, p) for p in primes)
    return _by_pair(parts)


def _exact_divisor_sum(d: int, sigma: SigmaTable) -> int:
    """The divisor sum S_m of one D (sigma holds sigma_{2m-1}), from the window
    [d, d + 1).  It is never 0, as zeta_D(1-2m) is not: a 0 raises ArithmeticError."""
    m = (sigma.exponent + 1) // 2
    if not (total := siegel_divisor_sums(m, d, d + 1, sigma)[1][0]):
        raise ArithmeticError(f"divisor sum S_{m}({d}) is 0 (D = {d}, m = {m}), but zeta_D(1-2m) is not")
    return total


def _divisor_sum_valuations(sums: np.ndarray, discs: Sequence[int], sigma: SigmaTable,
                            p: int) -> np.ndarray:
    """v_p of the divisor sums of discs (sigma holds sigma_{2m-1}), from
    sums known mod p^_TABLE3_CAP[p] (or exactly)."""
    e = _TABLE3_CAP[p]
    return _valuations(sums % p**e, p, e, lambda i, depth: _exact_divisor_sum(discs[i], sigma))


def compute_table3_block(
    d_lo: int,
    d_hi: int,
    primes: tuple[int, ...],
    sigma1: SigmaTable,
    sigma3: SigmaTable | None = None,
) -> IndexColumns:
    """Rows over [d_lo, d_hi) via the divisor-sum route; primes lie within {3, 5}.

    Siegel's formula gives L(1-2m, chi_D) = S_m(D) * RIEMANN_RECIPROCAL[m] /
    SIEGEL_DENOMINATOR[m], with S_m(D) = sum_b sigma_{2m-1}((D-b^2)/4), so
    the column of each tested m (2m <= p - 1) is v_p(S_m) plus v_p of that
    constant ratio.  The sigma tables reach at least (d_hi - 1)/4; sigma3 is
    needed only for p = 5.  One pass gives S_1 exactly, for both primes, and
    S_3 mod 5^_TABLE3_CAP[5].
    """
    sigmas = {1: sigma1, 2: sigma3}
    wanted = [(1, sigma1, None)]
    if 5 in primes:
        wanted.append((2, sigma3, 5**_TABLE3_CAP[5]))
    discs, sums = siegel_divisor_sums_mod(d_lo, d_hi, wanted)
    by_prime = []
    for p in primes:
        valuation = np.stack([
            _divisor_sum_valuations(sums[:, m - 1], discs, sigmas[m], p)
            + p_adic_valuation(Fraction(RIEMANN_RECIPROCAL[m], SIEGEL_DENOMINATOR[m]), p)
            for m in range(1, (p + 1) // 2)], axis=1)
        by_prime.append(_records(valuation, discs, p))
    return _by_pair(by_prime)


@dataclass(frozen=True)
class ScanPlan:
    """One scan: its blocks, the function that computes a block, and the
    params that identify the scan in a manifest.

    The blocks partition the scan range at multiples of a fixed size, so
    they do not depend on the worker count; task(lo, hi) returns one
    block's rows, ordered by (D, p).
    """

    kind: str
    params: dict[str, str]
    blocks: list[tuple[int, int]]
    task: Callable[[int, int], IndexColumns]

    def run(self, workers: int = 1) -> Iterator[IndexColumns]:
        """The rows of each block, in block order whatever the worker count.
        A worker count below 1 raises ValueError here, not at the first block."""
        if workers < 1:
            raise ValueError(f"workers must be at least 1, not {workers}")
        return self._run(workers)

    def _run(self, workers: int) -> Iterator[IndexColumns]:
        if workers == 1 or len(self.blocks) <= 1:
            for block in self.blocks:
                yield self.task(*block)
            return
        # the task, with the sigma tables it may hold, reaches each forked
        # worker once through the initializer instead of once per block; a
        # worker beyond the block count would never get one.  A dead worker
        # raises BrokenProcessPool; on any error map cancels the blocks not
        # started, and the pool's exit waits for the running ones.  Imported
        # here, so that only a run with a pool loads it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(min(workers, len(self.blocks)), mp.get_context("fork"),
                                 initializer=_pool_init, initargs=(self.task,)) as pool:
            yield from pool.map(_run_block, self.blocks)


_worker_task: Callable[[int, int], IndexColumns] | None = None  # set in pool workers


def _pool_init(task: Callable[[int, int], IndexColumns]) -> None:
    global _worker_task
    _worker_task = task


def _run_block(block: tuple[int, int]) -> IndexColumns:
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
                gate (one int64 product) and builds the sigma tables the blocks share.

    A parameter given as None counts as absent; a missing or foreign one
    raises ValueError, as does a scan range with no block or an empty
    prime set.  The plan's params are the parameters as strings.
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
    key, lo, hi = scan_range(kind, given)
    if kind == "fixed-disc":
        disc = validate_fundamental_discriminant(given["disc"])
        size = PRIME_BLOCK
    else:
        primes = given["primes"] if "primes" in given else tuple(odd_primes_up_to(given["pmax"]))
        if kind == "grid":
            for p in primes:
                validate_odd_prime(p)
        elif not set(primes) <= {3, 5}:
            raise ValueError("the million scan supports the primes 3 and 5 only")
        size = GRID_BLOCK if kind == "grid" else MILLION_BLOCK
    blocks = _block_ranges(lo, hi, size)
    # both checks come before the million plan's gate and sieves
    if not blocks:
        raise ValueError(f"{kind} scan range is empty: no {key} at least {lo} and below {hi}")
    if kind != "fixed-disc" and not primes:
        raise ValueError(f"{kind} scan has no odd prime to test")
    if kind == "fixed-disc":
        task = partial(compute_fixed_disc_block, disc)
    elif kind == "grid":
        task = partial(compute_grid_block, primes=primes)
    else:
        validate_siegel_gate()
        limit = max((hi - 1) // 4, 1)
        sigma1 = divisor_sigma_sieve(1, limit)
        sigma3 = divisor_sigma_sieve(3, limit) if 5 in primes else None
        task = partial(compute_table3_block, primes=primes, sigma1=sigma1, sigma3=sigma3)
    return ScanPlan(kind, params, blocks, task)


def scan_fixed_discriminant(d: int, p_max: int, workers: int = 1) -> IndexColumns:
    """chi-index rows for all odd primes p < p_max, ascending."""
    return IndexColumns.concatenate(list(scan_plan("fixed-disc", disc=d, pmax=p_max).run(workers)))


def scan_fixed_primes(
    d_lo: int, d_hi: int, primes: Iterable[int], workers: int = 1
) -> IndexColumns:
    """One chi-index row per (D, p), ordered by (D, p); deterministic.

    Primes within {3, 5} take the divisor-sum route of the million scan,
    any other set the Bernoulli kernels of the grid scan; the two routes
    give the same records.
    """
    primes = tuple(primes)
    kind = "million" if set(primes) <= {3, 5} else "grid"
    plan = scan_plan(kind, dmin=d_lo, dmax=d_hi, primes=primes)
    return IndexColumns.concatenate(list(plan.run(workers)))


def high_valuation_survey(cols: IndexColumns, p: int) -> tuple[int, list[tuple[int, int]]]:
    """Deepest hit valuation at the odd prime p, with every (D, 2m) attaining it."""
    validate_odd_prime(p)
    at_p = cols.hit_rows(cols.prime == p)
    best = int(cols.valuation[at_p].max(initial=0))
    if best <= 0:
        return 0, []
    attain = at_p & (cols.valuation == best)
    return best, list(zip(cols.hit_rows(cols.discriminant)[attain].tolist(),
                          cols.two_m[attain].tolist()))
