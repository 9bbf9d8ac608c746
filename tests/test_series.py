import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmods import TruncatedSeries, from_group_basis
from fpmods.series import _ODD_PRIMES, MAX_LEVEL, check_level, check_prime, is_power_of

GRID = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2), (97, 12)]


def schoolbook_product(a, b, p):
    """Independent convolution oracle."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] = (out[i + j] + a[i] * b[j]) % p
    return tuple(out)


def random_series(p, n, rng):
    return TruncatedSeries(p, [int(c) for c in rng.integers(0, p, n)])


def all_series(p, n):
    for cs in itertools.product(range(p), repeat=n):
        yield TruncatedSeries(p, cs)


def test_validation():
    for bad in (2, 4, 9, 1, 101, -3):
        with pytest.raises(ValueError):
            check_prime(bad)
    assert check_prime(3) == 3 and check_prime(97) == 97
    for bad in (0, 13, -1):
        with pytest.raises(ValueError):
            check_level(bad)
    with pytest.raises(ValueError):
        TruncatedSeries(3, (1, 2, 1), level=2)
    with pytest.raises(ValueError):
        TruncatedSeries(3, (1,)) + TruncatedSeries(3, (1, 0))
    with pytest.raises(ValueError):
        TruncatedSeries(3, (1,)) + TruncatedSeries(5, (1,))


def test_coefficients_reduced_and_padded():
    s = TruncatedSeries(3, (4, -1), level=3)
    assert s.coeffs == (1, 2, 0)
    assert s.level == 3


def test_multiplication_matches_schoolbook_oracle():
    rng = np.random.default_rng(10)
    for p, n in GRID:
        for _ in range(200):
            a = random_series(p, n, rng)
            b = random_series(p, n, rng)
            assert (a * b).coeffs == schoolbook_product(a.coeffs, b.coeffs, p)


def test_ring_axioms_on_random_triples():
    rng = np.random.default_rng(11)
    for p, n in GRID:
        one = TruncatedSeries.one(p, n)
        zero = TruncatedSeries.zero(p, n)
        for _ in range(300):
            a, b, c = (random_series(p, n, rng) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * one == a and a + zero == a
            assert a + (-a) == zero
            assert a - b == a + (-b)


@st.composite
def series_tuple(draw, size=3, unit=False):
    """`size` series of one random (p, level); the first is a unit if asked."""
    p = draw(st.sampled_from(sorted(_ODD_PRIMES)))
    n = draw(st.integers(1, MAX_LEVEL))
    digits = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    out = [TruncatedSeries(p, draw(digits)) for _ in range(size)]
    if unit:
        out[0] = TruncatedSeries(p, (draw(st.integers(1, p - 1)), *out[0].coeffs[1:]))
    return out


@settings(max_examples=150, deadline=None)
@given(series_tuple())
def test_ring_axioms_property(abc):
    a, b, c = abc
    one = TruncatedSeries.one(a.p, a.level)
    zero = TruncatedSeries.zero(a.p, a.level)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * one == a and a + zero == a and a * zero == zero
    assert a + (-a) == zero and a - b == a + (-b)


@settings(max_examples=150, deadline=None)
@given(series_tuple(size=1, unit=True))
def test_unit_times_inverse_is_one_property(units):
    (u,) = units
    one = TruncatedSeries.one(u.p, u.level)
    assert u * u.inverse() == one and u.inverse() * u == one
    assert u.inverse().inverse() == u


@settings(max_examples=100, deadline=None)
@given(series_tuple(size=2))
def test_involution_is_an_order_two_ring_automorphism_property(ab):
    a, b = ab
    one = TruncatedSeries.one(a.p, a.level)
    assert (a + b).involution() == a.involution() + b.involution()
    assert (a * b).involution() == a.involution() * b.involution()
    assert one.involution() == one
    assert a.involution().involution() == a


def test_valuation_additivity_exhaustive_small():
    for p, n in [(3, 1), (3, 2), (5, 2)]:
        for a in all_series(p, n):
            for b in all_series(p, n):
                assert (a * b).valuation() == min(a.valuation() + b.valuation(), n)


def test_valuation_of_zero_is_level():
    assert TruncatedSeries.zero(5, 4).valuation() == 4
    assert TruncatedSeries.monomial(3, 3, 2).valuation() == 2


def test_unit_inverse_exhaustive_small():
    for p, n in [(3, 1), (3, 2), (3, 3), (5, 2)]:
        one = TruncatedSeries.one(p, n)
        for a in all_series(p, n):
            if a.is_unit():
                inv = a.inverse()
                assert a * inv == one
                assert inv.inverse() == a
            else:
                with pytest.raises(ValueError):
                    a.inverse()


def test_geometric_series_example():
    # (1+T)^{-1} = 1 + 2T + T^2 at p=3, n=3
    g = TruncatedSeries.group_generator(3, 3)
    assert g.inverse().coeffs == (1, 2, 1)


def test_involution_of_t_example():
    t = TruncatedSeries.monomial(3, 3, 1)
    assert t.involution().coeffs == (0, 2, 1)


def test_involution_is_ring_automorphism_exhaustive():
    p, n = 3, 3
    elems = list(all_series(p, n))
    for a in elems:
        assert a.involution().involution() == a
    rng = np.random.default_rng(12)
    for _ in range(400):
        a, b = elems[rng.integers(len(elems))], elems[rng.integers(len(elems))]
        assert (a + b).involution() == a.involution() + b.involution()
        assert (a * b).involution() == a.involution() * b.involution()


def test_involution_inverts_group_generator():
    for p, n in [(3, 3), (3, 9), (5, 5), (7, 7), (3, 4), (5, 3)]:
        g = TruncatedSeries.group_generator(p, n)
        assert g.involution() == g.inverse()


def test_involution_commutes_with_truncation():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = random_series(5, 5, rng)
        for m in (1, 2, 3, 4):
            assert a.involution().truncate(m) == a.truncate(m).involution()


def test_group_basis_example_and_binomial_oracle():
    # T^2 = (g - 1)^2 = g^2 - 2g + 1 -> coefficients (1, 1, 1) at p=3
    t2 = TruncatedSeries.monomial(3, 3, 2)
    assert t2.group_basis() == (1, 1, 1)
    # oracle: expand sum_j d_j (1+T)^j with exact binomials
    rng = np.random.default_rng(14)
    for p, n in [(3, 3), (3, 9), (5, 5), (7, 7), (3, 1)]:
        for _ in range(20):
            d = [int(c) for c in rng.integers(0, p, n)]
            expanded = [0] * n
            for j, dj in enumerate(d):
                for i in range(j + 1):
                    expanded[i] = (expanded[i] + dj * math.comb(j, i)) % p
            assert from_group_basis(p, d).coeffs == tuple(expanded)


def test_group_basis_round_trip():
    rng = np.random.default_rng(15)
    for p, n in [(3, 1), (3, 3), (3, 9), (5, 5), (7, 7)]:
        for _ in range(50):
            a = random_series(p, n, rng)
            assert from_group_basis(p, a.group_basis()) == a


def test_group_basis_multiplication_is_cyclic_convolution():
    p, n = 3, 3
    rng = np.random.default_rng(16)
    for _ in range(100):
        a = random_series(p, n, rng)
        b = random_series(p, n, rng)
        da, db = a.group_basis(), b.group_basis()
        conv = [0] * n
        for i in range(n):
            for j in range(n):
                conv[(i + j) % n] = (conv[(i + j) % n] + da[i] * db[j]) % p
        assert (a * b).group_basis() == tuple(conv)


def test_group_basis_rejects_non_power_levels():
    assert is_power_of(9, 3) and is_power_of(1, 5) and not is_power_of(6, 3)
    with pytest.raises(ValueError):
        TruncatedSeries.one(3, 4).group_basis()
    with pytest.raises(ValueError):
        from_group_basis(5, (1, 2, 0))


def test_power_and_scalar_ops():
    g = TruncatedSeries.group_generator(3, 3)
    assert g**0 == TruncatedSeries.one(3, 3)
    assert g**3 == TruncatedSeries.one(3, 3)  # order p at level p
    assert 2 * g == g + g
    assert (g**2).coeffs == (1, 2, 1)


def test_hash_and_equality():
    a = TruncatedSeries(3, (1, 2))
    assert a == TruncatedSeries(3, (1, 2)) and hash(a) == hash(TruncatedSeries(3, (1, 2)))
    assert a != TruncatedSeries(3, (1, 2, 0))
    assert a != TruncatedSeries(5, (1, 2))
