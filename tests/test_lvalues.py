import ast
import math
from fractions import Fraction
from pathlib import Path

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


def test_divisor_sums_modular_mode_agrees_with_exact():
    sig1 = divisor_sigma_sieve(1, 5000)
    sig3 = divisor_sigma_sieve(3, 5000)
    for m, sigma in ((1, sig1), (2, sig3)):
        discs, sums = siegel_divisor_sums(m, 2, 20_000, sigma)
        for modulus in (3**19, 5**13):
            discs2, residues = siegel_divisor_sums_mod(m, 2, 20_000, sigma, modulus)
            assert discs == discs2
            assert all(s % modulus == int(r) for s, r in zip(sums, residues))


def test_divisor_sums_valuations_agree_between_modes():
    sig1 = divisor_sigma_sieve(1, 5000)
    discs, sums = siegel_divisor_sums(1, 2, 20_000, sig1)
    _, res3 = siegel_divisor_sums_mod(1, 2, 20_000, sig1, 3**19)
    _, res5 = siegel_divisor_sums_mod(1, 2, 20_000, sig1, 5**13)
    for d, s, r3, r5 in zip(discs, sums, res3, res5):
        for p, r in ((3, int(r3)), (5, int(r5))):
            if r:
                assert p_adic_valuation(s, p) == p_adic_valuation(r, p), (d, p)


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
    for modulus in (3**19, 5**13):
        discs_mod, residues = siegel_divisor_sums_mod(m, lo, hi, sigma, modulus)
        assert discs_mod == discs
        assert residues.tolist() == [s % modulus for s in sums]


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
