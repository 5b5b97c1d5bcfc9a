from fractions import Fraction

import pytest

from quadzeta.bernoulli import _np_safe
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
    assert l_chi_mod(8, 2, 3) == 2  # beyond p-1: exact fallback reduces 11 mod 3


def test_l_chi_mod_rejects_shared_factor():
    with pytest.raises(ValueError):
        l_chi_mod(5, 1, 5)
    with pytest.raises(ValueError):
        l_chi_mod(12, 1, 3)
    # p is checked on the exact branch (2m > p - 1) as well
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
