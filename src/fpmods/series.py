"""Exact arithmetic in the truncated power-series rings F_p[T]/(T^n).

An element is a coefficient tuple (c_0, ..., c_{n-1}) for c_0 + c_1 T + ...
with entries in [0, p); the level n is the truncation order. On top of the
ring operations the module provides the T-adic valuation (with valuation n
for zero), inversion of units, the ring involution that inverts the
distinguished unit g = 1 + T, and the change of basis from powers of T to
powers of g. The g-power basis is defined when the level is a power of p,
which is exactly when g has multiplicative order equal to the level.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

MAX_PRIME = 97
MAX_LEVEL = 12

_ODD_PRIMES = frozenset(
    q for q in range(3, MAX_PRIME + 1, 2)
    if all(q % d for d in range(3, int(q**0.5) + 1, 2))
)


def is_int(x) -> bool:
    """Whether x is an int and not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_prime(p: int) -> int:
    # is_int inlined here and in check_level: both run for every TruncatedSeries
    # and every public CyclicSubmodule(...), though not for _trusted forms
    if not isinstance(p, int) or isinstance(p, bool) or p not in _ODD_PRIMES:
        raise ValueError(f"p must be an odd prime in [3, {MAX_PRIME}], got {p!r}")
    return p


def check_level(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_LEVEL:
        raise ValueError(f"level must be an integer in [1, {MAX_LEVEL}], got {n!r}")
    return n


def is_power_of(n: int, base: int) -> bool:
    while n > 1:
        if n % base:
            return False
        n //= base
    return n == 1


@lru_cache(maxsize=None)
def _binomials(size: int) -> tuple[tuple[int, ...], ...]:
    rows = [[1] + [0] * (size - 1)]
    for i in range(1, size):
        prev = rows[-1]
        rows.append([1] + [prev[j - 1] + prev[j] for j in range(1, size)])
    return tuple(tuple(r) for r in rows)


class TruncatedSeries:
    """An element of F_p[T]/(T^level), least-degree coefficient first."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int], level: int | None = None):
        check_prime(p)
        # from a list: tuple(generator) resizes its result, so every freed
        # result grows CPython's tuple free list and long runs creep in RSS
        cs = tuple([int(c) % p for c in coeffs])
        if level is None:
            level = len(cs)
        check_level(level)
        if len(cs) > level:
            raise ValueError(f"{len(cs)} coefficients exceed level {level}")
        if len(cs) < level:
            cs = cs + (0,) * (level - len(cs))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def level(self) -> int:
        return len(self.coeffs)

    @classmethod
    def zero(cls, p: int, level: int) -> "TruncatedSeries":
        return cls(p, (), level)

    @classmethod
    def one(cls, p: int, level: int) -> "TruncatedSeries":
        return cls(p, (1,), level)

    @classmethod
    def monomial(cls, p: int, level: int, power: int, c: int = 1) -> "TruncatedSeries":
        """c * T^power, which is zero when power >= level."""
        check_level(level)
        if power < 0:
            raise ValueError("power must be nonnegative")
        if power >= level:
            return cls.zero(p, level)
        return cls(p, (0,) * power + (c,), level)

    @classmethod
    def group_generator(cls, p: int, level: int) -> "TruncatedSeries":
        """The distinguished unit g = 1 + T."""
        return cls(p, (1, 1), level) if level > 1 else cls.one(p, level)

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.p != other.p or self.level != other.level:
            raise ValueError(
                f"incompatible operands: (p={self.p}, level={self.level}) vs "
                f"(p={other.p}, level={other.level})"
            )

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        p = self.p
        return TruncatedSeries(p, ((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        p = self.p
        return TruncatedSeries(p, ((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return TruncatedSeries(self.p, ((-a) % self.p for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries(self.p, (a * other % self.p for a in self.coeffs))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        n, p = self.level, self.p
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs[: n - i]):
                    out[i + j] = (out[i + j] + a * b) % p
        return TruncatedSeries(p, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = TruncatedSeries.one(self.p, self.level)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"TruncatedSeries(p={self.p}, coeffs={list(self.coeffs)})"

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                t = "T" if i == 1 else f"T^{i}"
                terms.append(t if c == 1 else f"{c}*{t}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} (mod {self.p}, T^{self.level})"

    def valuation(self) -> int:
        """T-adic valuation; the zero element has valuation equal to the level."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.level

    def is_unit(self) -> bool:
        return self.coeffs[0] != 0

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse of a unit, by coefficient recursion."""
        a = self.coeffs
        if a[0] == 0:
            raise ValueError("only units (nonzero constant term) are invertible")
        p, n = self.p, self.level
        inv0 = pow(a[0], p - 2, p)
        out = [inv0] + [0] * (n - 1)
        for k in range(1, n):
            acc = sum(a[i] * out[k - i] for i in range(1, k + 1)) % p
            out[k] = (-inv0 * acc) % p
        return TruncatedSeries(p, out)

    def truncate(self, m: int) -> "TruncatedSeries":
        check_level(m)
        if m > self.level:
            raise ValueError(f"cannot truncate level {self.level} up to {m}")
        return TruncatedSeries(self.p, self.coeffs[:m])

    def involution(self) -> "TruncatedSeries":
        """The ring involution sending the unit 1 + T to its inverse.

        Acts by the substitution T -> (1 + T)^(-1) - 1; applying it twice is
        the identity, and it commutes with truncation to lower levels.
        """
        g = TruncatedSeries.group_generator(self.p, self.level)
        s = g.inverse() - TruncatedSeries.one(self.p, self.level)
        result = TruncatedSeries.zero(self.p, self.level)
        for c in reversed(self.coeffs):
            result = result * s + TruncatedSeries(self.p, (c,), self.level)
        return result

    def group_basis(self) -> tuple[int, ...]:
        """Coefficients with respect to powers of g = 1 + T.

        Requires the level to be a power of p, so that the T-power and
        g-power bases are exchanged by the triangular binomial matrices and
        multiplication becomes cyclic convolution of g-coefficients.
        """
        n, p = self.level, self.p
        if not is_power_of(n, p):
            raise ValueError(f"group basis needs a level that is a power of {p}, got {n}")
        binom = _binomials(n)
        out = []
        for j in range(n):
            acc = 0
            for i in range(j, n):
                term = self.coeffs[i] * binom[i][j]
                acc += -term if (i - j) & 1 else term
            out.append(acc % p)
        return tuple(out)


def from_group_basis(p: int, coeffs: Iterable[int]) -> TruncatedSeries:
    """Inverse of TruncatedSeries.group_basis."""
    cs = tuple(int(c) % p for c in coeffs)
    n = check_level(len(cs))
    if not is_power_of(n, p):
        raise ValueError(f"group basis needs a level that is a power of {p}, got {n}")
    binom = _binomials(n)
    out = [sum(cs[j] * binom[j][i] for j in range(i, n)) % p for i in range(n)]
    return TruncatedSeries(p, out)
