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

from dataclasses import FrozenInstanceError
from math import comb
from operator import attrgetter, index
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


def read_ints(values: Iterable[int], what: str = "coefficients") -> list[int]:
    """The values as ints, by operator.index: ints, bools and numpy integers
    pass, and floats, strings and the like raise ValueError, not truncate."""
    try:
        return [index(c) for c in values]
    except TypeError as exc:
        raise ValueError(f"{what} must be integers: {exc}") from None


def check_prime(p: int) -> int:
    # is_int inlined here and in check_level: both run for every TruncatedSeries
    # and every public CyclicSubmodule(...), though not for unchecked forms
    if not isinstance(p, int) or isinstance(p, bool) or p not in _ODD_PRIMES:
        raise ValueError(f"p must be an odd prime in [3, {MAX_PRIME}], got {p!r}")
    return p


def check_level(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_LEVEL:
        raise ValueError(f"level must be an integer in [1, {MAX_LEVEL}], got {n!r}")
    return n


def is_power_of(n: int, base: int) -> bool:
    """Whether n is base^k for some k >= 0 (False for n < 1). ValueError
    unless n and base are ints, not bools, and base >= 2."""
    if not (is_int(n) and is_int(base)) or base < 2:
        raise ValueError(f"need an int n and an int base >= 2, got n={n!r}, base={base!r}")
    while n > 1:
        if n % base:
            return False
        n //= base
    return n == 1


class Frozen:
    """Base of the immutable value classes: assigning or deleting an attribute
    raises `FrozenInstanceError`, an `AttributeError`. Slotted subclasses fill
    their slots through `slot_setters`, the tuple subclass `CyclicSubmodule`
    is built whole by `tuple.__new__`. `copy`, `deepcopy` and `pickle` rebuild
    through the validating constructor from the fields named by `_ARGS`
    (default `__slots__`, two or more), so a pickle written elsewhere is
    checked again on load; equality and the hash are those of the same values."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._args = attrgetter(*cls.__dict__.get("_ARGS", cls.__slots__))

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._args(self)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        args = self._args
        return args(self) == args(other)

    def __hash__(self):
        return hash(self._args(self))


def slot_setters(cls) -> tuple:
    """The setters of cls's slot descriptors, bound once, in `__slots__`
    order: each writes its slot of a new instance past the `Frozen` guard."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class TruncatedSeries(Frozen):
    """An element of F_p[T]/(T^level), least-degree coefficient first."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int], level: int | None = None):
        check_prime(p)
        # from a list: tuple(generator) resizes its result, so every freed
        # result grows CPython's tuple free list and long runs creep in RSS
        cs = tuple([c % p for c in read_ints(coeffs)])
        if level is None:
            level = len(cs)
        check_level(level)
        if len(cs) > level:
            raise ValueError(f"{len(cs)} coefficients exceed level {level}")
        if len(cs) < level:
            cs = cs + (0,) * (level - len(cs))
        _set_p(self, p)
        _set_coeffs(self, cs)

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
    def monomial(cls, p: int, level: int, power: int) -> "TruncatedSeries":
        """T^power, which is zero when power >= level."""
        check_level(level)
        if not is_int(power) or power < 0:
            raise ValueError(f"power must be a nonnegative integer, got {power!r}")
        if power >= level:
            return cls.zero(p, level)
        return cls(p, (0,) * power + (1,), level)

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
        if not isinstance(other, TruncatedSeries):
            if is_int(other):
                return TruncatedSeries(self.p, (a * other % self.p for a in self.coeffs))
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
        if not is_int(k) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
        result = TruncatedSeries.one(self.p, self.level)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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
        out = []
        for j in range(n):
            acc = 0
            for i in range(j, n):
                term = self.coeffs[i] * comb(i, j)
                acc += -term if (i - j) & 1 else term
            out.append(acc % p)
        return tuple(out)


_set_p, _set_coeffs = slot_setters(TruncatedSeries)
