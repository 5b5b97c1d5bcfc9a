"""Property tests: the EGF-convolution kernel against the exact-rational oracles.

Moduli p^k run past _max_np_exponent(p), so both the int64 and the
object-dtype (exact Python int) routes are drawn, and discriminants
include multiples of p.  The batched chi-index kernel is checked block by
block against _chi_hits_exact.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadzeta import bernoulli, irregularity

from quadzeta.bernoulli import (
    _np_safe,
    _numerator_residues,
    bernoulli_exact,
    bernoulli_residues_mod,
    generalized_bernoulli_exact,
)
from quadzeta.irregularity import (
    _chi_hits_exact,
    _max_np_exponent,
    compute_grid_block,
)
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
    nums = _numerator_residues(character_values(d)[None], [d], p, k, sorted(two_ms))[0]
    assert len(nums) == len(two_ms)
    for n, residue in zip(sorted(two_ms), nums):
        assert residue == _reduce(d * generalized_bernoulli_exact(d, n), modulus), (d, p, k, n)


def test_prime_power_strategy_reaches_both_routes():
    p = 199
    assert _np_safe(p, p ** _max_np_exponent(p))
    assert not _np_safe(p, p ** (2 * _max_np_exponent(p) + 1))


def _oracle_records(lo, hi, p):
    return [(d, p, tuple(_chi_hits_exact(d, p, False)))
            for d in enumerate_fundamental_discriminants(lo, hi)]


@st.composite
def grid_block(draw):
    """(lo, hi, p): a block of width at most 48 near p, a multiple of p, or anywhere."""
    p = draw(st.sampled_from(odd_primes_up_to(60)))
    near = draw(st.one_of(st.just(p), st.integers(2, 699 // p).map(lambda k: k * p),
                          st.integers(2, 699)))
    lo = draw(st.integers(max(2, near - 24), near))
    hi = draw(st.integers(lo, min(lo + 48, 700)))
    return lo, hi, p


@settings(max_examples=40, deadline=None)
@given(grid_block())
@example((5, 14, 13))  # D = p
@example((36, 44, 5))  # p | D (D = 40)
@example((2, 30, 59))  # every D < p
@example((48, 53, 7))  # no fundamental discriminant in the block
@example((600, 660, 7))  # width above p^2
@example((600, 660, 53))  # width below p^2
def test_grid_block_matches_exact(block):
    lo, hi, p = block
    records = compute_grid_block(lo, hi, (p,))
    assert [(r.discriminant, r.prime, r.hits) for r in records] == _oracle_records(lo, hi, p)
    assert all(r.delta == ((p - 1) // 2 if r.discriminant == p else p - 1) for r in records)


def test_zero_residue_fallback_matches_exact(monkeypatch):
    # at depth 1 every hit is a zero residue, so each one takes the fallback
    depths = []
    kernel = irregularity._numerator_residues

    def counting(table, discs, p, e, two_ms):
        depths.append(e)
        return kernel(table, discs, p, e, two_ms)

    monkeypatch.setattr(irregularity, "_kernel_exponent", lambda p, p_divides_d: 1)
    monkeypatch.setattr(irregularity, "_numerator_residues", counting)
    for p in (3, 5, 7, 13):
        records = compute_grid_block(2, 200, (p,))
        assert [(r.discriminant, r.prime, r.hits) for r in records] == _oracle_records(2, 200, p)
    assert depths.count(2) > 100 and 8 in depths  # the fallback ran, and doubled more than once


def test_chunked_kernel_matches_exact(monkeypatch):
    # a tiny budget splits both the rows (moments) and the columns (powers r^k)
    monkeypatch.setattr(bernoulli, "_CHUNK_ENTRIES", 50)
    for p in (3, 7, 13, 59):
        records = compute_grid_block(100, 300, (p,))
        assert [(r.discriminant, r.prime, r.hits) for r in records] == _oracle_records(100, 300, p)
