import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quadzeta import bernoulli
from quadzeta.bernoulli import (
    _exact_power_sums,
    _twisted_sums,
    bernoulli_exact,
    bernoulli_residues_mod,
    generalized_bernoulli_exact,
    generalized_bernoulli_mod,
)
from quadzeta.irregularity import classical_irregularity_index
from quadzeta.numtheory import (
    character_values,
    enumerate_fundamental_discriminants,
    odd_primes_up_to,
    p_adic_valuation,
)


def test_bernoulli_small_values():
    assert bernoulli_exact(0) == 1
    assert bernoulli_exact(1) == Fraction(-1, 2)
    assert bernoulli_exact(2) == Fraction(1, 6)
    assert bernoulli_exact(4) == Fraction(-1, 30)
    assert bernoulli_exact(12) == Fraction(-691, 2730)
    # consistency with zeta(-11) = 691/32760 = -B_12/12
    assert -bernoulli_exact(12) / 12 == Fraction(691, 32760)


def test_bernoulli_odd_vanishing():
    for n in range(3, 100, 2):
        assert bernoulli_exact(n) == 0


def test_von_staudt_clausen_denominators():
    for n in range(2, 62, 2):
        expected = 1
        for q in odd_primes_up_to(n + 2):
            if n % (q - 1) == 0:
                expected *= q
        expected *= 2  # q = 2 always divides (2 - 1 | n)
        assert bernoulli_exact(n).denominator == expected, n


def test_modular_table_examples():
    assert bernoulli_residues_mod(7, 7)[2] == pow(6, -1, 7) % 7  # 1/6 mod 7 = 6
    assert bernoulli_residues_mod(7, 7)[2] == 6
    assert bernoulli_residues_mod(5, 5)[2] == 1
    assert bernoulli_residues_mod(101, 101)[0] == 1


def test_modular_table_guards():
    assert len(bernoulli_residues_mod(13, 13)) == 12  # B_12 is absent: (p-1) | n
    with pytest.raises(ValueError):
        classical_irregularity_index(9)


def test_modular_matches_exact_below_100():
    for p in odd_primes_up_to(100):
        table = bernoulli_residues_mod(p, p)
        for n in range(0, p - 2, 2):
            b = bernoulli_exact(n)
            assert table[n] == b.numerator * pow(b.denominator, -1, p) % p, (p, n)


def test_bernoulli_residues_prime_power_consistency():
    # residues mod p^2 reduce to the mod-p table
    for p in (5, 13, 97):
        r1 = bernoulli_residues_mod(p, p)
        r2 = bernoulli_residues_mod(p, p * p)
        assert all(a % p == b for a, b in zip(r2, r1))


def test_character_power_sums_examples():
    sums = _exact_power_sums(5, 2)
    assert sums[0] == 0
    assert sums[2] == 4  # 1 - 4 - 9 + 16
    assert _exact_power_sums(8, 0)[0] == 0


def test_character_power_sums_modular_reduction():
    # the kernel's sums S_0 .. S_{p-1} mod p^e, for D below, near and above p^2
    for d, p, e in ((12, 7, 1), (12, 7, 2), (12, 3, 2), (1685, 7, 3), (13, 11, 1)):
        exact = _exact_power_sums(d, p - 1)[:p]
        mod = _twisted_sums(character_values(d)[None], p, e)[0].tolist()
        assert mod == [s % p**e for s in exact], (d, p, e)


def test_generalized_bernoulli_examples():
    assert generalized_bernoulli_exact(5, 2) == Fraction(4, 5)
    assert generalized_bernoulli_exact(5, 4) == -8
    assert generalized_bernoulli_exact(8, 2) == 2


def test_generalized_bernoulli_polynomial_oracle():
    # independent route: B(n, chi) = D^(n-1) * sum_a chi(a) B_n(a/D) with
    # B_n(x) expanded from the plain Bernoulli numbers
    import math
    from quadzeta.numtheory import kronecker_symbol

    def oracle(d, n):
        total = Fraction(0)
        for a in range(1, d + 1):
            chi = kronecker_symbol(d, a)
            if chi:
                x = Fraction(a, d)
                val = sum(
                    math.comb(n, j) * bernoulli_exact(j) * x ** (n - j) for j in range(n + 1)
                )
                total += chi * val
        return d ** (n - 1) * total

    for d in (5, 8, 12, 13, 21):
        for n in (2, 4, 6):
            assert generalized_bernoulli_exact(d, n) == oracle(d, n), (d, n)


def test_generalized_bernoulli_mod_examples():
    assert generalized_bernoulli_mod(5, 2, 7) == 5  # 4/5 mod 7
    assert generalized_bernoulli_mod(5, 4, 7) == 6  # -8 mod 7
    assert generalized_bernoulli_mod(8, 2, 3) == 2


def test_generalized_bernoulli_mod_guards():
    with pytest.raises(ValueError):
        generalized_bernoulli_mod(5, 2, 5)  # p | D
    with pytest.raises(ValueError):
        generalized_bernoulli_mod(5, 8, 7)  # n > p - 1
    with pytest.raises(ValueError):
        generalized_bernoulli_mod(5, 3, 7)  # odd n


def test_generalized_modular_matches_exact_grid():
    discs = enumerate_fundamental_discriminants(2, 100)
    for d in discs:
        for p in odd_primes_up_to(100):
            if d % p == 0:
                continue
            for n in range(2, p, 2):
                exact = generalized_bernoulli_exact(d, n)
                assert exact.denominator % p != 0
                reduced = exact.numerator * pow(exact.denominator, -1, p) % p
                assert generalized_bernoulli_mod(d, n, p) == reduced, (d, n, p)


def test_p_integrality_small_grid():
    for d in enumerate_fundamental_discriminants(2, 500):
        for p in (3, 5, 7):
            if d == p:
                continue
            for n in range(2, p, 2):
                assert p_adic_valuation(generalized_bernoulli_exact(d, n), p) >= 0, (d, n, p)


def test_self_conductor_exceptional_denominator():
    assert p_adic_valuation(generalized_bernoulli_exact(5, 2), 5) == -1


def test_exact_sums_cache_is_a_bounded_lru():
    state = bernoulli._exact_sums_state
    size = state.cache_info().maxsize
    assert size == 512

    def cached(d):  # a call that hits proves d was cached, and refreshes its entry
        hits = state.cache_info().hits
        state(d)
        return state.cache_info().hits > hits

    gate_discs = enumerate_fundamental_discriminants(2, 1000)
    assert len(gate_discs) < size  # criterion 7's m-outer loop never evicts its own entries
    discs = enumerate_fundamental_discriminants(2, 4000)[: size + 100]
    assert len(discs) == size + 100
    for d in discs:
        assert _exact_power_sums(d, 2)[0] == 0
        assert state.cache_info().currsize <= size
    assert state.cache_info().currsize == size
    # a hit moves its entry to the recent end, so the next miss evicts another
    oldest, second = discs[-size], discs[-size + 1]
    _exact_power_sums(oldest, 1)
    _exact_power_sums(4001, 1)
    assert not cached(second)
    assert cached(oldest)
    assert cached(discs[-1])
    assert not cached(discs[0])


def test_factorials_take_int64_while_products_fit():
    assert bernoulli._factorials(4019, 4019**2)[0].dtype == np.int64
    assert bernoulli._factorials(4019, 4019**4)[0].dtype == object
    fact, inv_fact = bernoulli._factorials(4019, 4019**4)
    assert inv_fact.dtype == object and int(fact[4018] * inv_fact[4018] % 4019**4) == 1


def test_int64_policy_lives_in_bernoulli():
    # the int64 budget and the kernel helpers that assert it have one owner
    owned = {"_INT64_BUDGET", "_factorials", "_pow_range", "_egf_numerators", "_twisted_sums"}
    used = []
    for path in sorted(Path(bernoulli.__file__).parent.glob("*.py")):
        if path.name == "bernoulli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                used += [(path.name, alias.name) for alias in node.names if alias.name in owned]
            elif isinstance(node, ast.Attribute) and node.attr in owned:
                used.append((path.name, node.attr))
    assert used == []
