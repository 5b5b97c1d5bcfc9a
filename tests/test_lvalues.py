import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadzeta import lvalues
from quadzeta.bernoulli import _np_safe
from quadzeta.irregularity import _exact_divisor_sum
from quadzeta.lvalues import (
    l_chi_exact,
    l_chi_mod,
    l_chi_residues,
    l_from_siegel,
    riemann_zeta_neg,
    siegel_batch,
    siegel_divisor_sums,
    siegel_divisor_sums_mod,
    validate_siegel_gate,
    zeta_d_exact,
)
from quadzeta.numtheory import (
    divisor_sigma_sieve,
    enumerate_fundamental_discriminants,
    p_adic_valuation,
)


def test_riemann_zeta_negative_values():
    assert riemann_zeta_neg(1) == Fraction(-1, 12)
    assert riemann_zeta_neg(2) == Fraction(1, 120)
    assert riemann_zeta_neg(6) == Fraction(691, 32760)


def test_l_chi_exact_examples():
    assert l_chi_exact(5, 1) == Fraction(-2, 5)
    assert l_chi_exact(5, 2) == 2
    assert l_chi_exact(8, 2) == 11


def test_l_chi_mod_examples():
    assert l_chi_mod(5, 1, 7) == 1
    assert l_chi_mod(5, 2, 7) == 2
    with pytest.raises(ValueError, match="exceeds p - 1"):
        l_chi_mod(8, 2, 3)  # 2m > p - 1: only l_chi_exact answers


def test_l_chi_mod_rejects_shared_factor():
    with pytest.raises(ValueError):
        l_chi_mod(5, 1, 5)
    with pytest.raises(ValueError):
        l_chi_mod(12, 1, 3)
    # p is checked before 2m <= p - 1
    for d, m, p in ((5, 10, 9), (5, 1, 2), (8, 3, 1)):
        with pytest.raises(ValueError, match="not an odd prime"):
            l_chi_mod(d, m, p)


def test_l_chi_mod_beyond_int64_square():
    # at p = 6007 the kernel runs mod p only: p^2 residues overflow its int64 budget
    p = 6007
    assert not _np_safe(p, p * p)
    for d in (5, 8, 6009):
        residues = l_chi_residues(d, p)
        for m in (1, 2):
            exact = l_chi_exact(d, m)
            reduced = exact.numerator * pow(exact.denominator, -1, p) % p
            assert l_chi_mod(d, m, p) == reduced == residues[m - 1], (d, m)


def test_zeta_d_exact_examples():
    assert zeta_d_exact(5, 1) == Fraction(1, 30)
    assert zeta_d_exact(13, 1) == Fraction(1, 6)
    assert zeta_d_exact(8, 2) == Fraction(11, 120)


def test_factorization_invariant():
    for d in enumerate_fundamental_discriminants(2, 500):
        for m in range(1, 6):
            assert zeta_d_exact(d, m) == riemann_zeta_neg(m) * l_chi_exact(d, m)


def test_siegel_batch_examples():
    sig1 = divisor_sigma_sieve(1, 50)
    sig3 = divisor_sigma_sieve(3, 50)
    m1 = dict(siegel_batch(1, 2, 30, sig1))
    assert m1[5] == Fraction(1, 30)
    assert m1[13] == Fraction(1, 6)
    assert m1[24] == Fraction(1, 2)
    m2 = dict(siegel_batch(2, 2, 30, sig3))
    assert m2[8] == Fraction(11, 120)


def test_siegel_batch_rejects_unsupported():
    sig1 = divisor_sigma_sieve(1, 10)
    with pytest.raises(ValueError):
        list(siegel_batch(3, 2, 30))
    with pytest.raises(ValueError):
        list(siegel_batch(1, 2, 1000, sig1))  # table too small


def test_l_from_siegel_examples():
    assert l_from_siegel(5, 1, Fraction(1, 30)) == Fraction(-2, 5)
    assert l_from_siegel(8, 2, Fraction(11, 120)) == 11
    assert l_from_siegel(24, 1, Fraction(1, 2)) == -6


def test_three_path_agreement_gate():
    # exact equality for every fundamental D < 1000 and both m; raises on mismatch
    validate_siegel_gate(1000)


@pytest.mark.parametrize("limit", [5, 8566, 10**6])
def test_siegel_gate_refuses_a_limit_outside_its_int64_bound(limit, monkeypatch):
    # the power sums are exact in int64 while limit^5 < 5 * 2^63, that is up to
    # 8565; a limit below 6 has no discriminant to check.  Both are refused
    # before any table is built.
    assert 8565**5 < 5 * 2**63 <= 8566**5

    def unreachable(*args):
        raise AssertionError("the gate built a table for a refused limit")

    monkeypatch.setattr(lvalues, "enumerate_fundamental_discriminants", unreachable)
    with pytest.raises(ValueError, match=f"gate limit {limit}"):
        validate_siegel_gate(limit)


@pytest.mark.parametrize("m", [1, 2])
def test_siegel_gate_catches_a_wrong_denominator(m, monkeypatch):
    monkeypatch.setitem(lvalues.SIEGEL_DENOMINATOR, m, lvalues.SIEGEL_DENOMINATOR[m] + 1)
    with pytest.raises(ArithmeticError, match=f"at D=5, m={m}:"):
        validate_siegel_gate(1000)


def test_siegel_gate_catches_a_wrong_divisor_sum(monkeypatch):
    # the last D below the limit, 997, is checked: the period table keeps every
    # row and is wide enough for the largest D
    exact = lvalues.siegel_divisor_sums

    def off_by_one(m, lo, hi, sigma):
        discs, sums = exact(m, lo, hi, sigma)
        return discs, sums[:-1] + [sums[-1] + 1]

    monkeypatch.setattr(lvalues, "siegel_divisor_sums", off_by_one)
    assert enumerate_fundamental_discriminants(2, 1000)[-1] == 997
    with pytest.raises(ArithmeticError, match="at D=997, m=1:"):
        validate_siegel_gate(1000)


def test_siegel_gate_calls_no_exact_oracle():
    # the gate reads the power sums of one int64 product; the per-D Fraction
    # routes stay as its test oracles
    oracles = {"zeta_d_exact", "l_chi_exact", "generalized_bernoulli_exact", "siegel_batch"}
    tree = ast.parse(Path(lvalues.__file__).read_text())
    gate = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "validate_siegel_gate")
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(gate)}
    assert not names & oracles


def test_divisor_sums_modular_mode_agrees_with_exact():
    sig1 = divisor_sigma_sieve(1, 5000)
    sig3 = divisor_sigma_sieve(3, 5000)
    for m, sigma in ((1, sig1), (2, sig3)):
        discs, sums = siegel_divisor_sums(m, 2, 20_000, sigma)
        discs2, residues = siegel_divisor_sums_mod(2, 20_000, [(m, sigma, 3**19), (m, sigma, 5**13)])
        assert discs == discs2
        for modulus, column in zip((3**19, 5**13), residues.T):
            assert all(s % modulus == int(r) for s, r in zip(sums, column))


def test_divisor_sums_valuations_agree_between_modes():
    sig1 = divisor_sigma_sieve(1, 5000)
    discs, sums = siegel_divisor_sums(1, 2, 20_000, sig1)
    _, residues = siegel_divisor_sums_mod(2, 20_000, [(1, sig1, 3**19), (1, sig1, 5**13)])
    res3, res5 = residues.T
    for d, s, r3, r5 in zip(discs, sums, res3, res5):
        for p, r in ((3, int(r3)), (5, int(r5))):
            if r:
                assert p_adic_valuation(s, p) == p_adic_valuation(r, p), (d, p)


@pytest.mark.parametrize("m", [1, 2])
def test_divisor_sums_reassemble_both_halves(m):
    # sigma_3 up to 2000 passes 2^32, so its high half carries; sigma_1's high half is 0
    sigma = divisor_sigma_sieve(2 * m - 1, 2000)
    assert (int(sigma.values.max()) >= 2**32) == (m == 2)
    discs, sums = siegel_divisor_sums(m, 2, 8001, sigma)
    assert discs == enumerate_fundamental_discriminants(2, 8001)
    assert sums == [sum(sigma[(d - b * b) // 4] for b in range(-math.isqrt(d - 1), math.isqrt(d - 1) + 1)
                        if (d - b) % 2 == 0) for d in discs]


def _direct_divisor_sum(d, sigma):
    """sum_b sigma((d - b^2)/4) over b^2 < d with b = d (mod 2), one b at a time."""
    return sum((1 if b == 0 else 2) * sigma[(d - b * b) // 4]
               for b in range(d & 1, math.isqrt(d - 1) + 1, 2))


_WINDOW_SIGMA = {1: divisor_sigma_sieve(1, 4000), 2: divisor_sigma_sieve(3, 4000)}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 2)), st.integers(3, 15_700), st.integers(0, 300))
@example(1, 3, 40)  # the first window past 2
@example(2, 10_001, 299)  # neither end aligned to 4
@example(1, 4097, 0)  # empty
def test_divisor_sums_on_windows_past_the_start(m, lo, width):
    # from lo > 2, each b with b^2 + 4 < lo starts its stride-4 view at the
    # first D >= lo of its residue class mod 4
    hi = lo + width
    sigma = _WINDOW_SIGMA[m]
    discs, sums = siegel_divisor_sums(m, lo, hi, sigma)
    assert discs == enumerate_fundamental_discriminants(lo, hi)
    assert sums == [_direct_divisor_sum(d, sigma) for d in discs]
    assert sums == [_exact_divisor_sum(d, sigma) for d in discs]
    discs_mod, residues = siegel_divisor_sums_mod(
        lo, hi, [(m, sigma, 3**19), (m, sigma, 5**13), (m, sigma, None)])
    assert discs_mod == discs
    for modulus, column in zip((3**19, 5**13), residues.T):
        assert column.tolist() == [s % modulus for s in sums]
    assert residues[:, 2].tolist() == sums  # unreduced, and exact in int64 at this size


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 600), st.integers(-3, 60), st.integers(1, 3), st.integers(0, 2**32))
@example(0, 6, 2, 0)  # hi <= 6: the first terms, b = 0 and b = 1
@example(1, 5, 3, 1)
@example(2, 4, 1, 2)
@example(3, 3, 2, 3)
@example(4, 0, 2, 4)  # empty
@example(9, -3, 2, 5)  # hi < lo
@example(401, 38, 3, 6)  # windows starting in each class mod 4
@example(402, 38, 3, 7)
@example(403, 38, 3, 8)
@example(404, 38, 3, 9)
def test_stacked_theta_sums_are_one_column_sums(lo, width, k, seed):
    hi = lo + width
    values = np.random.default_rng(seed).integers(0, 2**40, size=(max((hi - 1) // 4 + 1, 0), k))
    stacked = lvalues._theta_sums(values, lo, hi)
    assert stacked.shape == (max(width, 0), k)
    for c in range(k):
        column = lvalues._theta_sums(values[:, c], lo, hi)
        assert column.tolist() == stacked[:, c].tolist()
        assert column.tolist() == [_direct_divisor_sum(d, values[:, c]) if d > 0 and d % 4 < 2
                                   else 0 for d in range(lo, hi)]


def test_one_divisor_sum_b_loop():
    # every divisor sum in the package, exact, modular or for one D, runs the
    # b-loop of lvalues._theta_sums: it is the only loop that squares b
    def squares_b(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and all(getattr(side, "id", None) == "b" for side in (node.left, node.right)))

    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    sites = []
    for path in sorted(Path(lvalues.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for func in ast.walk(tree):  # breadth first: inner functions overwrite outer ones
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, loops) and any(map(squares_b, ast.walk(node))):
                sites.append((path.name, owner.get(node)))
    assert sites == [("lvalues.py", "_theta_sums")]


def test_valuation_additivity_of_factors():
    for d in (5, 8, 12, 13, 24, 85):
        for m in (1, 2, 3):
            for p in (3, 5, 7):
                lhs = p_adic_valuation(zeta_d_exact(d, m), p)
                rhs = p_adic_valuation(riemann_zeta_neg(m), p) + p_adic_valuation(l_chi_exact(d, m), p)
                assert lhs == rhs


def test_values_are_exact_rationals():
    assert isinstance(riemann_zeta_neg(3), Fraction)
    assert isinstance(l_chi_exact(8, 1), Fraction)
    assert isinstance(zeta_d_exact(12, 2), Fraction)
    for _, z in siegel_batch(1, 2, 20):
        assert isinstance(z, Fraction)
