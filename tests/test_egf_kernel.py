"""Property tests: the EGF-convolution kernel against the exact-rational oracles.

Moduli p^k run past _max_np_exponent(p), so both the int64 and the
object-dtype (exact Python int) routes are drawn, and discriminants
include multiples of p.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from quadzeta.bernoulli import (
    _np_safe,
    bernoulli_exact,
    bernoulli_residues_mod,
    generalized_bernoulli_exact,
)
from quadzeta.irregularity import _max_np_exponent, _numerators_np
from quadzeta.numtheory import (
    character_values,
    enumerate_fundamental_discriminants,
    odd_primes_up_to,
)

PRIMES = odd_primes_up_to(200)
DISCS = enumerate_fundamental_discriminants(2, 400)


def _reduce(q, modulus):
    return q.numerator * pow(q.denominator, -1, modulus) % modulus


@st.composite
def prime_power(draw):
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.integers(1, 2 * _max_np_exponent(p) + 1))
    return p, k


@settings(max_examples=60, deadline=None)
@given(prime_power())
def test_bernoulli_residues_match_exact(pk):
    p, k = pk
    modulus = p**k
    residues = bernoulli_residues_mod(p, modulus)
    assert len(residues) == p - 1
    for j, r in enumerate(residues):
        assert r == _reduce(bernoulli_exact(j), modulus), (p, k, j)


@settings(max_examples=60, deadline=None)
@given(prime_power(), st.data())
def test_numerators_match_exact(pk, data):
    p, k = pk
    modulus = p**k
    multiples = [d for d in DISCS if d % p == 0 and d != p]
    d = data.draw(st.sampled_from(multiples) if multiples and data.draw(st.booleans())
                  else st.sampled_from([d for d in DISCS if d != p]))
    evens = st.sampled_from(range(2, p, 2))
    two_ms = data.draw(st.lists(evens, min_size=1, max_size=4, unique=True))
    nums = _numerators_np(d, p, modulus, character_values(d), sorted(two_ms))
    assert sorted(nums) == sorted(two_ms)
    for n in two_ms:
        assert nums[n] == _reduce(d * generalized_bernoulli_exact(d, n), modulus), (d, p, k, n)


def test_prime_power_strategy_reaches_both_routes():
    p = 199
    assert _np_safe(p, p ** _max_np_exponent(p))
    assert not _np_safe(p, p ** (2 * _max_np_exponent(p) + 1))
