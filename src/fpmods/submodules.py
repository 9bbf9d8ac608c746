"""Maximal cyclic submodules of the rank-two module (F_p[T]/(T^n))^2.

A vector generates a maximal cyclic submodule exactly when one of its two
coordinates is a unit, and every such submodule has a unique canonical
generator of one of two kinds:

    kind 'A':  (1, g)        g any level-n series            p^n choices
    kind 'B':  (T*h, 1)      h any level-(n-1) coefficient   p^(n-1) choices
                             tuple (empty at n = 1)

for a total census of p^(n-1) * (p + 1). Intersections of two maximal
submodules are again cyclic, of size p^v where the exponent v has a closed
form in the canonical parameters (0 for mixed-kind pairs); the rank-based
`intersection_exponent_linalg` is kept as a test oracle. Sums and quotients
are handled by linear algebra on the flattened 2n-dimensional coordinate
space. Projections to lower levels truncate the canonical parameter and
lifting enumerates the p^(m-n) parameter extensions.

Validation happens at the public boundary, once per call: the
`CyclicSubmodule(...)` constructor checks every field, and
`enumerate_maximal`, `CyclicSubmodule.from_index`, `project` and `lifts`
check their arguments, then build each result with the unchecked
`CyclicSubmodule._trusted`, since a form made from validated parameters
(a digit tuple, a slice of a valid param, a valid param plus digits) is
valid by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import linalg
from .errors import ResourceBoundError
from .series import TruncatedSeries, check_level, check_prime, is_int

MAX_ENUM_SUBMODULES = 10_000
MAX_ENUM_VECTORS = 1_000_000


@dataclass(frozen=True)
class ModuleVector:
    """An element of (F_p[T]/(T^n))^2."""

    first: TruncatedSeries
    second: TruncatedSeries

    def __post_init__(self):
        if self.first.p != self.second.p or self.first.level != self.second.level:
            raise ValueError("coordinates must share p and level")

    @property
    def p(self) -> int:
        return self.first.p

    @property
    def level(self) -> int:
        return self.first.level

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        return ModuleVector(self.first + other.first, self.second + other.second)

    def scaled(self, tau: TruncatedSeries) -> "ModuleVector":
        return ModuleVector(tau * self.first, tau * self.second)

    def flatten(self) -> tuple[int, ...]:
        return self.first.coeffs + self.second.coeffs


def is_maximal(v: ModuleVector) -> bool:
    """Whether v generates a maximal cyclic submodule (some coordinate a unit)."""
    return v.first.is_unit() or v.second.is_unit()


@dataclass(frozen=True, slots=True)
class CyclicSubmodule:
    """A maximal cyclic submodule in canonical form.

    kind 'A' has generator (1, param); kind 'B' has generator (T*h, 1) where
    h is the level-(n-1) series with coefficients `param`. Two values are
    equal iff they describe the same submodule.
    """

    p: int
    level: int
    kind: str
    param: tuple[int, ...]

    def __post_init__(self):
        check_prime(self.p)
        check_level(self.level)
        if self.kind not in ("A", "B"):
            raise ValueError(f"kind must be 'A' or 'B', got {self.kind!r}")
        if not isinstance(self.param, tuple):
            raise ValueError(
                f"param must be a tuple, got {type(self.param).__name__}"
            )
        expected = self.level if self.kind == "A" else self.level - 1
        if len(self.param) != expected:
            raise ValueError(
                f"kind {self.kind} at level {self.level} needs {expected} "
                f"parameter coefficients, got {len(self.param)}"
            )
        if any(not is_int(c) or not 0 <= c < self.p for c in self.param):
            raise ValueError("parameter coefficients must be reduced mod p")

    @classmethod
    def _trusted(
        cls, p: int, level: int, kind: str, param: tuple[int, ...]
    ) -> "CyclicSubmodule":
        """Build without `__post_init__`: the caller guarantees valid fields.

        For the module's own entry points only, which validate their
        arguments once per call and pass a param tuple of reduced ints of
        the length `kind` needs at `level`.
        """
        sub = object.__new__(cls)
        object.__setattr__(sub, "p", p)
        object.__setattr__(sub, "level", level)
        object.__setattr__(sub, "kind", kind)
        object.__setattr__(sub, "param", param)
        return sub

    @classmethod
    def type_a(cls, g: TruncatedSeries) -> "CyclicSubmodule":
        return cls(g.p, g.level, "A", g.coeffs)

    @classmethod
    def type_b(cls, p: int, level: int, h: tuple[int, ...]) -> "CyclicSubmodule":
        return cls(p, level, "B", tuple([int(c) % p for c in h]))

    @property
    def generator(self) -> ModuleVector:
        p, n = self.p, self.level
        if self.kind == "A":
            return ModuleVector(
                TruncatedSeries.one(p, n), TruncatedSeries(p, self.param, n)
            )
        return ModuleVector(
            TruncatedSeries(p, (0,) + self.param, n), TruncatedSeries.one(p, n)
        )

    def contains(self, v: ModuleVector) -> bool:
        if v.p != self.p or v.level != self.level:
            raise ValueError("vector and submodule must share p and level")
        if self.kind == "A":
            g = TruncatedSeries(self.p, self.param, self.level)
            return v.second == v.first * g
        th = TruncatedSeries(self.p, (0,) + self.param, self.level)
        return v.first == v.second * th

    def elements(self) -> Iterator[ModuleVector]:
        """All p^level elements tau * generator."""
        gen = self.generator
        for digits in itertools.product(range(self.p), repeat=self.level):
            yield gen.scaled(TruncatedSeries(self.p, digits))

    def basis_rows(self) -> np.ndarray:
        """Rows T^i * generator flattened to length 2*level, i = 0..level-1."""
        n = self.level
        flat = self.generator.flatten()
        rows = np.zeros((n, 2 * n), dtype=np.int64)
        for i in range(n):
            rows[i, i:n] = flat[: n - i]
            rows[i, n + i :] = flat[n : 2 * n - i]
        return rows

    def index(self) -> int:
        """Position in the canonical enumeration: kind 'A' first, then 'B'."""
        p = self.p
        value = 0
        for c in reversed(self.param):
            value = value * p + c
        return value if self.kind == "A" else p**self.level + value

    @classmethod
    def from_index(cls, p: int, level: int, i: int) -> "CyclicSubmodule":
        total = count_maximal(p, level)
        if not is_int(i) or not 0 <= i < total:
            raise ValueError(f"index {i!r} out of range [0, {total})")
        if i < p**level:
            kind, size = "A", level
        else:
            kind, size = "B", level - 1
            i -= p**level
        digits = []
        for _ in range(size):
            digits.append(i % p)
            i //= p
        return cls._trusted(p, level, kind, tuple(digits))


def canonical_form(v: ModuleVector) -> CyclicSubmodule:
    """Canonical description of the maximal cyclic submodule generated by v."""
    if not is_maximal(v):
        raise ValueError("vector does not generate a maximal cyclic submodule")
    if v.first.is_unit():
        g = v.first.inverse() * v.second
        return CyclicSubmodule.type_a(g)
    w = v.second.inverse() * v.first
    return CyclicSubmodule(v.p, v.level, "B", w.coeffs[1:])


def count_maximal(p: int, n: int) -> int:
    """Number of maximal cyclic submodules: p^(n-1) * (p + 1)."""
    check_prime(p)
    check_level(n)
    return p**n + p ** (n - 1)


def count_maximal_generators(p: int, n: int) -> int:
    """Number of vectors generating a maximal submodule: p^(2n) - p^(2n-2)."""
    check_prime(p)
    check_level(n)
    return p ** (2 * n) - p ** (2 * n - 2)


def enumerate_maximal(p: int, n: int) -> Iterator[CyclicSubmodule]:
    """All maximal cyclic submodules in canonical index order.

    Checks (p, n) and the census bound once, not each yielded form.
    """
    total = count_maximal(p, n)
    if total > MAX_ENUM_SUBMODULES:
        raise ResourceBoundError(
            f"{total} submodules at (p={p}, n={n}) exceed the "
            f"enumeration bound {MAX_ENUM_SUBMODULES}"
        )
    trusted = CyclicSubmodule._trusted
    for kind, size in (("A", n), ("B", n - 1)):
        # product varies its last digit fastest and param[0] is the lowest
        # index digit, so the reversed tuples come in index order
        for digits in itertools.product(range(p), repeat=size):
            yield trusted(p, n, kind, digits[::-1])


def iter_module_vectors(p: int, n: int) -> Iterator[ModuleVector]:
    """All of (F_p[T]/(T^n))^2, for exhaustive cross-checks."""
    check_prime(p)
    check_level(n)
    if p ** (2 * n) > MAX_ENUM_VECTORS:
        raise ResourceBoundError(
            f"p^(2n) = {p ** (2 * n)} vectors exceed the bound {MAX_ENUM_VECTORS}"
        )
    for digits in itertools.product(range(p), repeat=2 * n):
        yield ModuleVector(
            TruncatedSeries(p, digits[:n]), TruncatedSeries(p, digits[n:])
        )


def census_maximal_generators(p: int, n: int) -> int:
    """Brute-force count of maximal-generating vectors over the whole module."""
    return sum(1 for v in iter_module_vectors(p, n) if is_maximal(v))


@dataclass(frozen=True)
class Intersection:
    """N1 meet N2: a cyclic module of size p^size_exponent.

    The generator is T^(n - size_exponent) times the first canonical
    generator, or None for the trivial intersection.
    """

    size_exponent: int
    generator: ModuleVector | None


def _check_pair(n1: CyclicSubmodule, n2: CyclicSubmodule) -> None:
    if n1.p != n2.p or n1.level != n2.level:
        raise ValueError("submodules must share p and level")


def _diff_valuation(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return len(a)


def intersection_exponent_linalg(n1: CyclicSubmodule, n2: CyclicSubmodule) -> int:
    """Exponent v with |N1 meet N2| = p^v, via rank of the joint span.

    dim(N1 meet N2) = dim N1 + dim N2 - dim(N1 + N2) = 2n - rank.
    """
    _check_pair(n1, n2)
    rows = np.vstack([n1.basis_rows(), n2.basis_rows()])
    return 2 * n1.level - linalg.rank(rows, n1.p)


def intersect(n1: CyclicSubmodule, n2: CyclicSubmodule) -> Intersection:
    """Intersection of two maximal cyclic submodules.

    Same-kind pairs use the closed forms
        kind A: v = val(g - g'),  kind B: v = min(1 + val(h - h'), n)
    and mixed pairs meet trivially, v = 0: tau*(1, g) = sigma*(T h, 1)
    forces tau = sigma*T*h and sigma = tau*g, so tau*(1 - g*T*h) = 0, and
    1 - g*T*h is a unit, so tau = 0. In every case the intersection is the
    unique size-p^v submodule T^(n-v) * N1 of N1.
    """
    _check_pair(n1, n2)
    n = n1.level
    if n1.kind != n2.kind:
        v = 0
    elif n1.kind == "A":
        v = _diff_valuation(n1.param, n2.param)
    else:
        v = min(1 + _diff_valuation(n1.param, n2.param), n)
    if v == 0:
        return Intersection(0, None)
    t_shift = TruncatedSeries.monomial(n1.p, n, n - v)
    return Intersection(v, n1.generator.scaled(t_shift))


@dataclass(frozen=True)
class QuotientStructure:
    """Invariants of Omega_n^2 / (N1 + N2).

    cyclic_structure lists the sizes (k_1 >= k_2 >= ...) with the quotient
    isomorphic to the direct sum of Omega/(T^k_i).
    """

    quotient_size_exponent: int
    cyclic_structure: tuple[int, ...]


def _t_shift_matrix(n: int) -> np.ndarray:
    s = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for j in range(2 * n):
        if j % n != n - 1:
            s[j, j + 1] = 1
    return s


def sum_and_quotient(n1: CyclicSubmodule, n2: CyclicSubmodule) -> QuotientStructure:
    """Sum N1 + N2 and the cyclic structure of the quotient by it.

    Works entirely by GF(p) linear algebra: the quotient dimension is
    2n - rank(N1 + N2), and the block sizes are read off the rank sequence of
    the nilpotent action of T on the quotient.
    """
    _check_pair(n1, n2)
    p, n = n1.p, n1.level
    rows = np.vstack([n1.basis_rows(), n2.basis_rows()])
    reduced, pivots = linalg.rref(rows, p)
    reduced = reduced[: len(pivots)]
    v = 2 * n - len(pivots)
    if v == 0:
        return QuotientStructure(0, ())
    shift = _t_shift_matrix(n)
    pivot_set = set(pivots)
    free = [j for j in range(2 * n) if j not in pivot_set]
    action = np.zeros((v, v), dtype=np.int64)
    for col, j in enumerate(free):
        residual = linalg.reduce_rows(reduced, pivots, shift[j], p)
        action[:, col] = residual[free]
    sizes = linalg.nilpotent_block_sizes(action, p)
    return QuotientStructure(v, sizes)


def project(sub: CyclicSubmodule, m: int) -> CyclicSubmodule:
    """Image under the truncation map to level m <= level; kind is preserved."""
    check_level(m)
    if m > sub.level:
        raise ValueError(f"cannot project level {sub.level} up to level {m}")
    cut = m if sub.kind == "A" else m - 1
    return CyclicSubmodule._trusted(sub.p, m, sub.kind, sub.param[:cut])


def lifts(sub: CyclicSubmodule, m: int) -> Iterator[CyclicSubmodule]:
    """All level-m submodules projecting onto sub; exactly p^(m - level)."""
    check_level(m)
    if m < sub.level:
        raise ValueError(f"cannot lift level {sub.level} down to level {m}")
    extra = m - sub.level
    trusted = CyclicSubmodule._trusted
    for tail in itertools.product(range(sub.p), repeat=extra):
        yield trusted(sub.p, m, sub.kind, sub.param + tail)


@dataclass(frozen=True)
class SubmoduleTower:
    """Compatible canonical forms across increasing levels.

    Stage i + 1 projects onto stage i; towers are built by projecting a top
    submodule downward.
    """

    stages: tuple[CyclicSubmodule, ...]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("tower needs at least one stage")
        for low, high in zip(self.stages, self.stages[1:]):
            if high.p != low.p:
                raise ValueError("stages must share p")
            if high.level <= low.level:
                raise ValueError("stage levels must strictly increase")
            if project(high, low.level) != low:
                raise ValueError(
                    f"stage at level {high.level} does not project onto "
                    f"the stage at level {low.level}"
                )

    @property
    def p(self) -> int:
        return self.stages[0].p

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(s.level for s in self.stages)

    @property
    def top(self) -> CyclicSubmodule:
        return self.stages[-1]

    @classmethod
    def from_top(
        cls, top: CyclicSubmodule, levels: tuple[int, ...] | None = None
    ) -> "SubmoduleTower":
        if levels is None:
            levels = tuple(range(1, top.level + 1))
        return cls(tuple([project(top, m) for m in levels]))
