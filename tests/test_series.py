import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmods import TruncatedSeries
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
    # non-integral coefficients are rejected, not truncated; numpy integers
    # and bools (True is the residue 1) are accepted
    for bad in ([1.7, 2.2], [1, 2.0], ["1"]):
        with pytest.raises(ValueError):
            TruncatedSeries(3, bad)
    assert TruncatedSeries(3, [np.int64(4), True, np.uint8(5)]).coeffs == (1, 1, 2)
    # bools are not exponents or scalars
    t = TruncatedSeries.monomial(3, 3, 1)
    with pytest.raises(ValueError):
        t**True
    with pytest.raises(ValueError):
        TruncatedSeries.monomial(3, 3, True)
    with pytest.raises(ValueError):
        TruncatedSeries.monomial(3, 3, 1.0)
    with pytest.raises(TypeError):
        t * True
    with pytest.raises(TypeError):
        True * t
    assert t * 2 == 2 * t == t + t and t**1 == t


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
    # oracle: expand sum_j d_j (1+T)^j with exact binomials; group_basis
    # must read the digits d back
    rng = np.random.default_rng(14)
    for p, n in [(3, 3), (3, 9), (5, 5), (7, 7), (3, 1)]:
        for _ in range(20):
            d = [int(c) for c in rng.integers(0, p, n)]
            expanded = [0] * n
            for j, dj in enumerate(d):
                for i in range(j + 1):
                    expanded[i] = (expanded[i] + dj * math.comb(j, i)) % p
            assert TruncatedSeries(p, expanded).group_basis() == tuple(d)


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
    assert not is_power_of(0, 3) and not is_power_of(-9, 3)
    with pytest.raises(ValueError):
        TruncatedSeries.one(3, 4).group_basis()


@pytest.mark.parametrize(
    "n, base",
    [(9, 0), (9, -3), (True, 3), (9.0, 3), ("9", 3), (9, 3.0), (np.int64(9), 3)],
    ids=["base-0", "negative-base", "bool-n", "float-n", "str-n", "float-base", "numpy-n"],
)
def test_is_power_of_rejects_a_bad_argument(n, base):
    with pytest.raises(ValueError, match=r"^need an int n and an int base >= 2, got n="):
        is_power_of(n, base)


def test_is_power_of_base_one_is_an_error_not_a_hang():
    # base 1 (or True) never shrinks n; run in a subprocess with a timeout,
    # so that a regression fails instead of hanging the suite
    script = (
        "from fpmods import is_power_of\n"
        "for base in (1, True):\n"
        "    try:\n"
        "        is_power_of(9, base)\n"
        "    except ValueError as e:\n"
        "        print(e)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.stdout.splitlines() == [
        "need an int n and an int base >= 2, got n=9, base=1",
        "need an int n and an int base >= 2, got n=9, base=True",
    ], result.stderr


def test_power_and_scalar_ops():
    g = TruncatedSeries.group_generator(3, 3)
    assert g**0 == TruncatedSeries.one(3, 3)
    assert g**3 == TruncatedSeries.one(3, 3)  # order p at level p
    assert 2 * g == g + g
    assert (g**2).coeffs == (1, 2, 1)
    # T^power vanishes at and beyond the level
    assert TruncatedSeries.monomial(3, 3, 3) == TruncatedSeries.zero(3, 3)
    assert (g**2).truncate(2) == TruncatedSeries(3, (1, 2))
    with pytest.raises(ValueError, match="cannot truncate level 3 up to 4"):
        g.truncate(4)


def test_truthiness_and_str():
    assert not TruncatedSeries.zero(3, 2) and TruncatedSeries.monomial(3, 2, 1)
    assert str(TruncatedSeries(5, (0, 1, 3, 1))) == "T + 3*T^2 + T^3 (mod 5, T^4)"
    assert str(TruncatedSeries(5, (2, 0, 4))) == "2 + 4*T^2 (mod 5, T^3)"
    assert str(TruncatedSeries.zero(3, 2)) == "0 (mod 3, T^2)"


def test_hash_and_equality():
    a = TruncatedSeries(3, (1, 2))
    assert a == TruncatedSeries(3, (1, 2)) and hash(a) == hash(TruncatedSeries(3, (1, 2)))
    assert a != TruncatedSeries(3, (1, 2, 0))
    assert a != TruncatedSeries(5, (1, 2))
