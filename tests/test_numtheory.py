import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadzeta.numtheory import (
    character_table,
    character_values,
    divisor_sigma_sieve,
    enumerate_fundamental_discriminants,
    is_fundamental_discriminant,
    is_odd_prime,
    kronecker_symbol,
    odd_primes_up_to,
    p_adic_valuation,
    smallest_prime_factors,
)


def legendre_oracle(a, p):
    """Euler criterion; p an odd prime."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def fundamental_oracle(d):
    if d <= 1:
        return False
    def squarefree(n):
        return all(n % (k * k) for k in range(2, math.isqrt(n) + 1))
    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree(m)
    return False


def test_kronecker_examples():
    assert kronecker_symbol(5, 2) == -1
    assert kronecker_symbol(12, 6) == 0
    assert kronecker_symbol(8, 3) == -1
    assert kronecker_symbol(5, 0) == 0
    assert kronecker_symbol(1, 0) == 1


def test_kronecker_matches_legendre_oracle():
    for p in odd_primes_up_to(200):
        for a in range(1, 50):
            assert kronecker_symbol(a, p) == legendre_oracle(a, p), (a, p)


def test_kronecker_multiplicativity_and_periodicity():
    rng = random.Random(2024)
    discs = enumerate_fundamental_discriminants(2, 10_000)
    for d in rng.sample(discs, 60):
        for _ in range(40):
            a = rng.randint(1, 10_000)
            b = rng.randint(1, 10_000)
            assert kronecker_symbol(d, a * b) == kronecker_symbol(d, a) * kronecker_symbol(d, b)
            assert kronecker_symbol(d, a) == kronecker_symbol(d, a + d)


def test_character_sum_zero_all_discriminants_below_1e4():
    for d in enumerate_fundamental_discriminants(2, 10_000):
        vals = character_values(d)
        assert int(vals[1:].sum()) == 0, d


def test_character_values_match_kronecker():
    for d in (5, 8, 12, 13, 21, 24, 1685):
        vals = character_values(d)
        for a in range(d + 1):
            assert vals[a] == kronecker_symbol(d, a)


def test_character_table_matches_kronecker():
    # widths below, at and far beyond the period; a block with both parities of D
    discs = enumerate_fundamental_discriminants(2, 120) + [1685, 3869]
    for width in (2, 7, 121, 4000):
        table = character_table(discs, width)
        assert table.shape == (len(discs), width) and table.dtype.name == "int8"
        for d, row in zip(discs, table.tolist()):
            assert row == [kronecker_symbol(d, a) for a in range(width)], (d, width)
    with pytest.raises(ValueError):
        character_table([5, 9], 10)


def test_smallest_prime_factors_match_trial_division():
    spf = smallest_prime_factors(3000)
    assert spf[0] == spf[1] == 0
    for n in range(2, 3000):
        assert spf[n] == next(q for q in range(2, n + 1) if n % q == 0), n


def test_fundamental_discriminant_examples():
    assert is_fundamental_discriminant(5)
    assert not is_fundamental_discriminant(9)
    assert not is_fundamental_discriminant(20)
    assert not is_fundamental_discriminant(1)
    assert not is_fundamental_discriminant(-3)


def test_enumeration_small_range():
    assert enumerate_fundamental_discriminants(2, 30) == [5, 8, 12, 13, 17, 21, 24, 28, 29]
    assert enumerate_fundamental_discriminants(2, 2) == []


def test_enumeration_matches_membership_oracle():
    listed = set(enumerate_fundamental_discriminants(2, 800))
    for d in range(2, 800):
        assert (d in listed) == fundamental_oracle(d), d
        assert is_fundamental_discriminant(d) == fundamental_oracle(d), d


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8000), st.integers(-20, 700))
@example(0, 2)  # the windows from 0, 1 and 2, and hi <= 2
@example(1, 1)
@example(2, 0)
@example(0, 200)
@example(1, 200)
@example(2, 200)
@example(40, -3)  # hi < lo
@example(13, 45)  # neither end aligned to 4
@example(955, 12)  # straddles 31^2 = 961
@example(7680, 16)  # straddles 7688 = 8 * 31^2, whose m = 2 * 31^2 the 4m sieve strikes
@example(7689, 40)  # the 4m window starts past 0 and past 31^2
def test_enumeration_on_any_window(lo, width):
    hi = lo + width
    expected = [d for d in range(lo, hi) if is_fundamental_discriminant(d)]
    assert enumerate_fundamental_discriminants(lo, hi) == expected


def test_enumeration_reference_counts():
    assert len(enumerate_fundamental_discriminants(2, 5000)) == 1516
    assert len(enumerate_fundamental_discriminants(2, 1_000_000)) == 303_957


def test_odd_primes():
    assert odd_primes_up_to(10) == [3, 5, 7]
    assert len(odd_primes_up_to(5000)) == 668
    assert len(odd_primes_up_to(100)) == 24
    assert odd_primes_up_to(3) == []


def test_odd_primes_match_trial_division_below_3000():
    trial = [p for p in range(3000) if is_odd_prime(p)]
    for x in range(3000):
        assert odd_primes_up_to(x) == [p for p in trial if p < x], x


def test_sigma_sieve_examples():
    sig1 = divisor_sigma_sieve(1, 100)
    sig3 = divisor_sigma_sieve(3, 100)
    assert sig1[6] == 12
    assert sig1[1] == 1
    assert sig3[2] == 9


def test_sigma_sieve_matches_direct_enumeration():
    limit = 10_000
    for k in (1, 3):
        table = divisor_sigma_sieve(k, limit)
        for n in list(range(1, 200)) + [743, 6860, 9973, limit]:
            direct = sum(d**k for d in range(1, n + 1) if n % d == 0)
            assert table[n] == direct, (k, n)


def test_sigma_sieve_at_every_small_limit():
    # the sieve splits divisors at isqrt(limit); every split point up to 7 occurs
    for k in (1, 3):
        for limit in range(1, 61):
            table = divisor_sigma_sieve(k, limit)
            direct = [sum(d**k for d in range(1, n + 1) if n % d == 0) for n in range(limit + 1)]
            assert table.values.tolist() == direct, (k, limit)
            assert not table.values.flags.writeable


def test_sigma_sieve_multiplicative_on_coprime():
    table = divisor_sigma_sieve(3, 1000)
    assert table[35] == table[5] * table[7]
    assert table[12] == table[4] * table[3]
    assert table[900] == table[4] * table[225]


def test_sigma_sieve_rejects_bad_input():
    with pytest.raises(ValueError):
        divisor_sigma_sieve(2, 10)
    with pytest.raises(ValueError):
        divisor_sigma_sieve(3, 0)
    with pytest.raises(ValueError):
        divisor_sigma_sieve(3, 5_000_000)


def test_p_adic_valuation_examples():
    assert p_adic_valuation(Fraction(-2, 5), 5) == -1
    assert p_adic_valuation(-6, 3) == 1
    assert p_adic_valuation(Fraction(7, 4), 3) == 0
    assert p_adic_valuation(0, 7) == math.inf


def test_p_adic_valuation_additive():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([3, 5, 7, 11])
        x = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
        y = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
        assert p_adic_valuation(x * y, p) == p_adic_valuation(x, p) + p_adic_valuation(y, p)
