import ast
import dataclasses
import signal
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadzeta
from quadzeta import irregularity
from quadzeta.bernoulli import bernoulli_exact
from quadzeta.irregularity import (
    IndexColumns,
    IndexRecord,
    _block_ranges,
    _chi_hits_exact,
    _exact_hits,
    chi_irregularity_index,
    classical_irregularity_index,
    compute_fixed_disc_block,
    compute_grid_block,
    compute_table3_block,
    d_irregularity_index,
    delta,
    high_valuation_survey,
    scan_fixed_discriminant,
    scan_fixed_primes,
    scan_plan,
)
from quadzeta.lvalues import l_chi_exact, siegel_divisor_sums_mod, zeta_d_exact
from quadzeta.numtheory import (
    SigmaTable,
    divisor_sigma_sieve,
    enumerate_fundamental_discriminants,
    odd_primes_up_to,
    p_adic_valuation,
)


def test_delta_rule():
    assert delta(5, 7) == 6
    assert delta(5, 5) == 2
    assert delta(13, 13) == 6
    with pytest.raises(ValueError):
        delta(9, 7)
    with pytest.raises(ValueError):
        delta(5, 9)


def test_delta_parity():
    for d in enumerate_fundamental_discriminants(2, 200):
        for p in odd_primes_up_to(100):
            assert delta(d, p) % 2 == 0, (d, p)


def test_chi_index_examples():
    assert chi_irregularity_index(5, 5).index == 0
    rec = chi_irregularity_index(24, 3)
    assert rec.index == 1 and rec.hits == ((2, 1),)
    assert chi_irregularity_index(13, 3).index == 0


def test_d_index_examples():
    assert d_irregularity_index(13, 3).index == 0
    rec = d_irregularity_index(24, 3)
    assert rec.index == 1 and rec.hits == ((2, 1),)
    assert d_irregularity_index(5, 5).index == 0


def test_classical_index_examples():
    assert classical_irregularity_index(3).index == 0
    rec = classical_irregularity_index(37)
    assert rec.index == 1 and rec.hits[0][0] == 32
    assert classical_irregularity_index(691).index >= 1
    assert any(two_m == 12 for two_m, _ in classical_irregularity_index(691).hits)


def test_modular_kernel_matches_exact_kernel():
    for d in enumerate_fundamental_discriminants(2, 80):
        for p in odd_primes_up_to(40):
            for strict in (False, True):
                rec = chi_irregularity_index(d, p, strict)
                assert rec.hits == tuple(_chi_hits_exact(d, p, strict)), (d, p, strict)


@pytest.mark.parametrize("strict", [False, True])
def test_d_index_matches_exact_oracle(strict):
    cases = set()
    for d in enumerate_fundamental_discriminants(2, 120):
        for p in odd_primes_up_to(40):
            exact = _exact_hits(lambda n: zeta_d_exact(d, n), p, delta(d, p), 1, strict)
            rec = d_irregularity_index(d, p, strict)
            assert (rec.delta, rec.hits) == (delta(d, p), tuple(exact)), (d, p)
            cases.add("D = p" if d == p else "p | D" if d % p == 0 else "coprime")
    assert cases == {"D = p", "p | D", "coprime"}


@pytest.mark.parametrize("depth", [None, 1], ids=["kernel-depth", "escalated"])
def test_classical_index_matches_exact_bernoulli(monkeypatch, depth):
    # at depth 1 every hit is a zero residue mod p, so each one is recomputed deeper
    if depth is not None:
        monkeypatch.setattr(irregularity, "_max_np_exponent", lambda p: depth)
    for p in odd_primes_up_to(400):
        exact = []
        for n in range(2, p - 2, 2):
            v = p_adic_valuation(bernoulli_exact(n), p)
            if v >= 1:
                exact.append((n, v))
        rec = classical_irregularity_index(p)
        assert (rec.delta, rec.hits) == (p - 1, tuple(exact)), p


def test_hits_hold_python_ints():
    sigma1, sigma3 = divisor_sigma_sieve(1, 499), divisor_sigma_sieve(3, 499)
    records = [
        *(f(d, p, strict) for f in (chi_irregularity_index, d_irregularity_index)
          for d, p in ((24, 3), (5, 5), (13, 13), (40, 5), (8, 37)) for strict in (False, True)),
        *(classical_irregularity_index(p) for p in (37, 59, 691)),
        *compute_fixed_disc_block(5, 3, 200),
        *compute_grid_block(2, 300, (3, 5, 13, 37)),
        *compute_table3_block(2, 2000, (3, 5), sigma1, sigma3),
    ]
    assert sum(rec.index for rec in records) > 100
    for rec in records:
        assert type(rec.delta) is int, rec
        assert all(type(two_m) is int and type(v) is int for two_m, v in rec.hits), rec


def test_interior_union_law():
    # for D != p a field-zeta hit at an interior exponent is exactly a hit of
    # one of the two factors
    for d in enumerate_fundamental_discriminants(2, 200):
        for p in (3, 5, 7, 11, 13):
            if d == p:
                continue
            classical = {n for n, _ in classical_irregularity_index(p).hits}
            chi_hits = {n for n, _ in chi_irregularity_index(d, p).hits if n <= p - 3}
            d_hits = {n for n, _ in d_irregularity_index(d, p).hits if n <= p - 3}
            assert d_hits == classical | chi_hits, (d, p)


def test_top_term_equivalence_chi_vs_d():
    for d in enumerate_fundamental_discriminants(2, 200):
        for p in (3, 5, 7, 11, 13):
            if d == p:
                continue
            chi_top = any(n == p - 1 for n, _ in chi_irregularity_index(d, p).hits)
            d_top = any(n == p - 1 for n, _ in d_irregularity_index(d, p).hits)
            assert chi_top == d_top, (d, p)


def test_interior_p_integrality():
    for d in enumerate_fundamental_discriminants(2, 200):
        for p in (3, 5, 7, 11, 13):
            if d == p:
                continue
            for n in range(2, p - 2, 2):
                assert p_adic_valuation(l_chi_exact(d, n // 2), p) >= 0, (d, p, n)


def test_riemann_factor_valuation_at_top():
    # v_p(zeta(2 - p)) = -1 always (von Staudt-Clausen), which is what makes
    # the top-exponent tests of the two indices agree
    for p in (3, 5, 7, 11, 13, 17):
        z = -bernoulli_exact(p - 1) / (p - 1)
        assert p_adic_valuation(z, p) == -1


def test_strict_mode_counts_negative_valuations():
    # (5, 5): the sole tested value is 5 * L(-1, chi_5) = -2 with v_5 = 0,
    # regular either way; interior of (5, 13) has only nonnegative valuations
    assert chi_irregularity_index(5, 5, strict=True).index == 0
    plain = chi_irregularity_index(5, 13).hits
    strict = chi_irregularity_index(5, 13, strict=True).hits
    assert set(plain) <= set(strict)


def test_scan_fixed_discriminant_structure():
    recs = scan_fixed_discriminant(5, 10)
    assert [r.prime for r in recs] == [3, 5, 7]
    assert all(r.discriminant == 5 and r.kind == "chi" for r in recs)
    recs = scan_fixed_discriminant(8, 1000)
    assert len(recs) == 167


@pytest.mark.parametrize("d", [5, 8, 12, 13, 24])
def test_fixed_disc_scan_matches_exact_oracle(d):
    # the fixed-disc block is the grid block of one D: p = D at D = 13, and
    # p | D at D = 12 and 24 (p = 3)
    expected = [IndexRecord(d, p, delta(d, p), "chi", tuple(_chi_hits_exact(d, p, False)))
                for p in odd_primes_up_to(120)]
    assert list(scan_fixed_discriminant(d, 120)) == expected


def test_fixed_disc_block_refuses_a_non_fundamental_discriminant():
    # enumerating [9, 10) alone would give an empty block
    with pytest.raises(ValueError, match="9 is not a fundamental discriminant"):
        compute_fixed_disc_block(9, 3, 100)


def test_index_columns_store_six_columns_and_derive_the_offsets():
    assert [f.name for f in dataclasses.fields(IndexColumns)] == [
        "discriminant", "prime", "delta", "index", "two_m", "valuation"]
    cols = IndexColumns.from_records([IndexRecord(5, 7, 6, "chi", ((2, 1), (4, 2))),
                                      IndexRecord(8, 3, 2, "chi", ()),
                                      IndexRecord(8, 7, 6, "chi", ((6, 3),))])
    assert cols.hit_offsets.tolist() == [0, 2, 2, 3]
    assert cols.hit_offsets.dtype == np.int64


def test_scan_fixed_primes_structure():
    recs = scan_fixed_primes(2, 30, [3])
    assert len(recs) == 9
    assert [r.discriminant for r in recs] == [5, 8, 12, 13, 17, 21, 24, 28, 29]


def test_table3_block_matches_exact_kernel():
    recs = compute_table3_block(2, 2000, (3, 5), divisor_sigma_sieve(1, 499),
                                divisor_sigma_sieve(3, 499))
    for rec in recs:
        exact = tuple(_chi_hits_exact(rec.discriminant, rec.prime, False))
        assert rec.hits == exact, (rec.discriminant, rec.prime)


def test_table3_zero_residues_take_the_exact_divisor_sum(monkeypatch):
    # mod p every hit is a zero residue, so each valuation comes from the exact sum;
    # the depth is patched for the Table 3 block only, not for its grid reference
    exact, exact_sum = [], irregularity._exact_divisor_sum

    def counted(d, sigma):
        exact.append(d)
        return exact_sum(d, sigma)

    with monkeypatch.context() as patch:
        patch.setattr(irregularity, "_max_np_exponent", lambda p: 1)
        patch.setattr(irregularity, "_exact_divisor_sum", counted)
        recs = compute_table3_block(2, 2000, (3, 5), divisor_sigma_sieve(1, 499),
                                    divisor_sigma_sieve(3, 499))
    assert len(exact) > 100
    assert recs == compute_grid_block(2, 2000, (3, 5))
    assert max(v for rec in recs for _, v in rec.hits) >= 3


def test_table3_block_is_one_divisor_sum_pass(monkeypatch):
    # S_1 (exact, for v_3 and v_5) and S_3 (mod 5^12, the kernel's depth) come from
    # one call per block
    calls = []

    def counted(*args):
        calls.append(args)
        return siegel_divisor_sums_mod(*args)

    plan = scan_plan("million", dmax=30_000)
    monkeypatch.setattr(irregularity, "siegel_divisor_sums_mod", counted)
    cols = IndexColumns.concatenate(list(plan.run()))
    assert len(calls) == len(plan.blocks) == 3
    assert cols == compute_grid_block(2, 30_000, (3, 5))


def test_table3_block_reads_the_constants_the_siegel_gate_checks(monkeypatch):
    # L(-1) = S_1 * RIEMANN_RECIPROCAL[1] / SIEGEL_DENOMINATOR[1]: a wrong constant
    # moves v_5(L(-1)) in the block, and the gate refuses the million plan
    from quadzeta import lvalues

    monkeypatch.setitem(lvalues.RIEMANN_RECIPROCAL, 1, -60)
    cols = compute_table3_block(2, 2000, (5,), divisor_sigma_sieve(1, 499),
                                divisor_sigma_sieve(3, 499))
    assert cols != compute_grid_block(2, 2000, (5,))
    with pytest.raises(ArithmeticError):
        scan_plan("million", dmax=20_000)


_BLOCK_SIGMA = (divisor_sigma_sieve(1, 4300), divisor_sigma_sieve(3, 4300))


@settings(max_examples=8, deadline=None)
@given(st.integers(3, 16_000), st.integers(1, 1200))
@example(10_001, 3002)
def test_table3_block_on_unaligned_windows(lo, width):
    # mid-range windows that need not start at 2 or at a multiple of 4
    hi = lo + width
    assert compute_table3_block(lo, hi, (3, 5), *_BLOCK_SIGMA) == compute_grid_block(lo, hi, (3, 5))


def test_grid_scan_matches_per_pair_api():
    primes = odd_primes_up_to(20)
    recs = scan_fixed_primes(2, 100, primes)
    assert len(recs) == len(enumerate_fundamental_discriminants(2, 100)) * len(primes)
    for rec in recs:
        single = chi_irregularity_index(rec.discriminant, rec.prime)
        assert rec.hits == single.hits


def test_scan_worker_counts_agree():
    primes = odd_primes_up_to(20)
    base = scan_fixed_primes(2, 3500, primes, workers=1)
    for workers in (4, 16):
        assert scan_fixed_primes(2, 3500, primes, workers=workers) == base
    t3_base = scan_fixed_primes(2, 60_000, [3, 5], workers=1)
    assert scan_fixed_primes(2, 60_000, [3, 5], workers=4) == t3_base


def test_block_ranges_partition():
    blocks = _block_ranges(2, 5000, 1000)
    assert blocks[0] == (2, 1000)
    assert blocks[-1] == (4000, 5000)
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    assert _block_ranges(7, 7, 10) == []


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**5), st.integers(1, 1000))
@example(1000, 1000, 1000)
@example(999, 2001, 1000)
def test_block_ranges_cover_the_range_at_multiples_of_size(lo, width, size):
    hi = lo + width
    blocks = _block_ranges(lo, hi, size)
    if not width:
        assert blocks == []
        return
    assert blocks[0][0] == lo and blocks[-1][1] == hi
    assert all(a < b for a, b in blocks)
    assert all(a[1] == b[0] and a[1] % size == 0 for a, b in zip(blocks, blocks[1:]))
    # no block has a multiple of size strictly inside it
    assert all((a // size + 1) * size >= b for a, b in blocks)


@pytest.mark.parametrize("kind, params", [
    ("fixed-disc", {"disc": 5, "pmax": 10**20}),
    ("grid", {"dmax": 10**20, "primes": (3,)}),
    ("million", {"dmax": 10**20}),
])
def test_a_plan_of_too_many_blocks_is_refused_before_any_is_built(kind, params):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"scan range \[\d+, {10**20}\) needs \d+ blocks"):
        scan_plan(kind, **params)
    assert time.perf_counter() - start < 1


def test_block_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(irregularity, "MAX_BLOCKS", 3)
    assert _block_ranges(5, 30, 10) == [(5, 10), (10, 20), (20, 30)]
    with pytest.raises(ValueError, match=r"scan range \[5, 31\) needs 4 blocks of 10"):
        _block_ranges(5, 31, 10)


def test_high_valuation_survey():
    recs = scan_fixed_primes(2, 1000, [3])
    best, attain = high_valuation_survey(recs, 3)
    assert best >= 1
    for d, two_m in attain:
        rec = next(r for r in recs if r.discriminant == d and r.prime == 3)
        assert (two_m, best) in rec.hits
    assert high_valuation_survey(IndexColumns.from_records([]), 3) == (0, [])


def test_irregular_pairs_flattening():
    cols = IndexColumns.from_records([chi_irregularity_index(24, 3), chi_irregularity_index(13, 3)])
    pairs = list(zip(cols.hit_rows(cols.prime).tolist(), cols.two_m.tolist(),
                     cols.hit_rows(cols.discriminant).tolist(), cols.valuation.tolist()))
    assert len(pairs) == 1
    assert pairs[0] == (3, 2, 24, 1)


def test_deep_valuation_refinement():
    # 3^7 divides L(-1, chi_3869); the scan kernel must report the full depth
    rec = chi_irregularity_index(3869, 3)
    assert rec.hits == ((2, 7),)
    check = p_adic_valuation(l_chi_exact(3869, 1), 3)
    assert check == 7


def test_no_production_path_calls_an_exact_oracle():
    # the exact-rational hit loops are test oracles only; every index reads the kernel
    oracles = {"_chi_hits_exact", "_exact_hits"}
    calls = []
    for path in sorted(Path(quadzeta.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call):
                        callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                        if callee in oracles:
                            calls.append((func.name, callee))
    assert calls == [("_chi_hits_exact", "_exact_hits")]


def test_only_the_row_view_and_single_pair_indices_build_records():
    # scans and blocks stay columnar: IndexRecord is built one row at a time
    # only when asked for, by iterating IndexColumns or by a single-pair index
    callers = []
    for path in sorted(Path(quadzeta.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for func in ast.walk(tree):  # breadth first: inner functions overwrite outer ones
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "IndexRecord":
                callers.append((path.name, owner.get(node)))
    assert sorted(callers) == [("irregularity.py", "__iter__"),
                                ("irregularity.py", "classical_irregularity_index")]


def test_stats_and_shards_take_columns_only():
    # IndexColumns is the one record form at the library boundary; IndexRecord
    # is the single-pair result and the row view, and nothing converts lists
    package = Path(quadzeta.__file__).parent
    for name in ("stats.py", "shards.py"):
        tree = ast.parse((package / name).read_text())
        names = {getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
        assert not names & {"IndexRecord", "as_columns"}, name
    tree = ast.parse((package / "irregularity.py").read_text())
    assert "as_columns" not in {node.name for node in ast.walk(tree)
                                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_take_gathers_rows_with_their_hits():
    records = [
        IndexRecord(5, 3, 2, "chi", ()),
        IndexRecord(5, 7, 6, "chi", ((2, 1), (4, 2))),
        IndexRecord(8, 3, 2, "chi", ((2, 1),)),
        IndexRecord(8, 7, 6, "chi", ((6, 3),)),
    ]
    cols = IndexColumns.from_records(records)
    assert list(cols.take(np.array([3, 1, 0, 2]))) == [records[i] for i in (3, 1, 0, 2)]
    assert list(cols.take(np.array([1, 1]))) == [records[1]] * 2
    empty = cols.take(np.array([], dtype=np.int64))
    assert empty == IndexColumns.from_records([]) and len(empty.hit_offsets) == 1


def test_columns_compare_equal_only_when_every_column_does():
    # the kernel comparisons across routes and worker counts rest on this
    records = [IndexRecord(5, 7, 6, "chi", ((2, 1), (4, 2))), IndexRecord(8, 3, 2, "chi", ())]
    cols = IndexColumns.from_records(records)
    assert cols == IndexColumns.from_records(list(cols)) and cols != records
    for changed in (IndexRecord(5, 7, 6, "chi", ((2, 1), (4, 3))),
                    IndexRecord(5, 7, 6, "chi", ((2, 1), (6, 2))),
                    IndexRecord(5, 7, 8, "chi", ((2, 1), (4, 2))),
                    IndexRecord(5, 11, 6, "chi", ((2, 1), (4, 2))),
                    IndexRecord(13, 7, 6, "chi", ((2, 1), (4, 2))),
                    IndexRecord(5, 7, 6, "chi", ((2, 1),))):
        assert cols != IndexColumns.from_records([changed, records[1]]), changed
    assert cols != cols.take(np.array([0]))


def test_grid_block_in_several_row_groups(monkeypatch):
    # a small table budget splits the block into row groups, each computed
    # for every prime; the rows come back in (D, p) order
    monkeypatch.setattr(irregularity, "_TABLE_ENTRIES", 20 * 400)
    primes = (3, 5, 13)
    block = compute_grid_block(100, 400, primes)
    discs = enumerate_fundamental_discriminants(100, 400)
    assert len(discs) > 20
    assert list(block) == [chi_irregularity_index(d, p) for d in discs for p in primes]


def test_table3_block_refuses_a_zero_divisor_sum():
    # zeta_D(1 - 2m) is never 0, so neither is an exact divisor sum; one that
    # reads 0 (here from an all-zero sigma table) used to double the
    # valuation depth forever, so the alarm fails the test instead
    def stalled(signum, frame):
        raise TimeoutError("compute_table3_block still running after 20 s")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(20)
    try:
        with pytest.raises(ArithmeticError, match=r"D = 5, m = 1\b"):
            compute_table3_block(2, 2000, (3,), SigmaTable(1, 499, np.zeros(500, np.int64)))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
