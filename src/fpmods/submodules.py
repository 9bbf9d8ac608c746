"""Maximal cyclic submodules of the rank-two module (F_p[T]/(T^n))^2.

A vector generates a maximal cyclic submodule exactly when one of its two
coordinates is a unit, and every such submodule has a unique canonical
generator of one of two kinds:

    kind 'A':  (1, g)        g any level-n series            p^n choices
    kind 'B':  (T*h, 1)      h any level-(n-1) coefficient   p^(n-1) choices
                             tuple (empty at n = 1)

for a total census of p^(n-1) * (p + 1). The index machinery owns the
choice of canonical form: `CyclicSubmodule.from_index` and
`enumerate_maximal` decode canonical indices, and `project` and `lifts` move
forms between levels. Intersections of two maximal submodules are again
cyclic, of size p^v where the exponent v has a closed form in the canonical
parameters (0 for mixed-kind pairs), and the quotient by their sum is cyclic
of the same size p^v. The rank-based
`intersection_exponent_linalg` is kept as a test oracle, and is this
module's only use of linear algebra. It and `CyclicSubmodule.basis_rows`
are the module's only numpy calls, and each imports numpy when called:
the exact CLI modes import this module and must not load numpy.
Projections to lower levels truncate the canonical parameter and lifting
enumerates the p^(m-n) parameter extensions, in canonical index order.

The lattice operations (the index, `enumerate_maximal`, `intersect`,
`sum_and_quotient`, `project`, `lifts` and towers) read only the canonical
parameters. Series arithmetic lives in the vector-level oracles:
`CyclicSubmodule.generator`, `basis_rows`, `ModuleVector` and
`iter_module_vectors`.

Validation happens at the public boundary, once per call: the
`CyclicSubmodule(...)` constructor checks every field, and
`enumerate_maximal`, `CyclicSubmodule.from_index`, `project` and `lifts`
check their arguments, then build each result unchecked, since a form made
from validated parameters (a digit tuple, a slice of a valid param, a valid
param plus digits) is valid by construction. A form is a tuple
(p, level, kind, param), all built by one constructor, `tuple.__new__` on
the class: `_forms` maps it over the zipped fields of a stream and single
forms call it once, so building, hashing and comparing forms run in C.
`project` skips its checks where they cannot fail, on a form and an int m
in [1, sub.level]. A form equals only forms, and forms have no order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from operator import add, itemgetter
from typing import TYPE_CHECKING, Iterator

from .errors import ResourceBoundError
from .series import Frozen, TruncatedSeries, check_level, check_prime, check_type, is_int

if TYPE_CHECKING:
    import numpy as np

MAX_ENUM_SUBMODULES = 10_000
MAX_ENUM_VECTORS = 1_000_000


@dataclass(frozen=True)
class ModuleVector:
    """An element of (F_p[T]/(T^n))^2."""

    first: TruncatedSeries
    second: TruncatedSeries

    def __post_init__(self):
        check_type(self.first, TruncatedSeries)
        check_type(self.second, TruncatedSeries)
        if self.first.p != self.second.p or self.first.level != self.second.level:
            raise ValueError("coordinates must share p and level")

    @property
    def p(self) -> int:
        return self.first.p

    @property
    def level(self) -> int:
        return self.first.level

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return ModuleVector(self.first + other.first, self.second + other.second)

    def scaled(self, tau: TruncatedSeries) -> "ModuleVector":
        return ModuleVector(tau * self.first, tau * self.second)

    def flatten(self) -> tuple[int, ...]:
        return self.first.coeffs + self.second.coeffs


def is_maximal(v: ModuleVector) -> bool:
    """Whether v generates a maximal cyclic submodule (some coordinate a unit)."""
    return check_type(v, ModuleVector).first.is_unit() or v.second.is_unit()


class CyclicSubmodule(Frozen, tuple):
    """A maximal cyclic submodule in canonical form (p, level, kind, param).

    kind 'A' has generator (1, param); kind 'B' has generator (T*h, 1) where
    h is the level-(n-1) series with coefficients `param`. Two values are
    equal iff they describe the same submodule; a form never equals a plain
    tuple, and forms are unordered, since tuple order is not index order.
    """

    __slots__ = ()
    # named like a namedtuple's, so dataclasses.asdict rebuilds a held form whole
    _ARGS = _fields = ("p", "level", "kind", "param")

    p = property(itemgetter(0))
    level = property(itemgetter(1))
    kind = property(itemgetter(2))
    param = property(itemgetter(3))

    def __new__(cls, p: int, level: int, kind: str, param: tuple[int, ...]):
        check_prime(p)
        check_level(level)
        if kind not in ("A", "B"):
            raise ValueError(f"kind must be 'A' or 'B', got {kind!r}")
        if not isinstance(param, tuple):
            raise ValueError(f"param must be a tuple, got {type(param).__name__}")
        expected = level if kind == "A" else level - 1
        if len(param) != expected:
            raise ValueError(
                f"kind {kind} at level {level} needs {expected} "
                f"parameter coefficients, got {len(param)}"
            )
        if any(not is_int(c) or not 0 <= c < p for c in param):
            raise ValueError("parameter coefficients must be reduced mod p")
        return tuple.__new__(cls, (p, level, kind, param))

    # bools, never NotImplemented, or a plain tuple's reflected == would match
    def __eq__(self, other):
        return type(other) is CyclicSubmodule and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not CyclicSubmodule or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        raise TypeError("CyclicSubmodule values are unordered")

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self) -> str:
        return "CyclicSubmodule(p={!r}, level={!r}, kind={!r}, param={!r})".format(*self)

    @classmethod
    def type_a(cls, g: TruncatedSeries) -> "CyclicSubmodule":
        return cls(g.p, g.level, "A", g.coeffs)

    @property
    def generator(self) -> ModuleVector:
        p, n, kind, param = self
        one = TruncatedSeries.one(p, n)
        if kind == "A":
            return ModuleVector(one, TruncatedSeries(p, param, n))
        return ModuleVector(TruncatedSeries(p, (0,) + param, n), one)

    def basis_rows(self) -> np.ndarray:
        """Rows T^i * generator flattened to length 2*level, i = 0..level-1."""
        import numpy as np  # an oracle only; see the module docstring

        n = self.level
        flat = self.generator.flatten()
        rows = np.zeros((n, 2 * n), dtype=np.int64)
        for i in range(n):
            rows[i, i:n] = flat[: n - i]
            rows[i, n + i :] = flat[n : 2 * n - i]
        return rows

    def index(self) -> int:
        """Position in the canonical enumeration: kind 'A' first, then 'B'."""
        p, level, kind, param = self
        value = sum([c * p**j for j, c in enumerate(param)])
        return value if kind == "A" else p**level + value

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
        param = tuple([i // p**j % p for j in range(size)])
        return tuple.__new__(CyclicSubmodule, (p, level, kind, param))


def _forms(p: int, level: int, kind: str, params: Iterator) -> Iterator[CyclicSubmodule]:
    """Unchecked forms, one per param: see the module docstring."""
    fields = zip(repeat(p), repeat(level), repeat(kind), params)
    return map(tuple.__new__, repeat(CyclicSubmodule), fields)


# reversed, product's fastest digit, its last, becomes param[0], the lowest
_reversed = itemgetter(slice(None, None, -1))


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

    Checks (p, n) and the enumeration bound once, not each yielded form.
    """
    total = count_maximal(p, n)
    if total > MAX_ENUM_SUBMODULES:
        raise ResourceBoundError(
            f"{total} submodules at (p={p}, n={n}) exceed the "
            f"enumeration bound {MAX_ENUM_SUBMODULES}"
        )
    for kind, size in (("A", n), ("B", n - 1)):
        yield from _forms(p, n, kind, map(_reversed, product(range(p), repeat=size)))


def iter_module_vectors(p: int, n: int) -> Iterator[ModuleVector]:
    """All of (F_p[T]/(T^n))^2, for exhaustive cross-checks."""
    check_prime(p)
    check_level(n)
    if p ** (2 * n) > MAX_ENUM_VECTORS:
        raise ResourceBoundError(
            f"p^(2n) = {p ** (2 * n)} vectors exceed the bound {MAX_ENUM_VECTORS}"
        )
    for digits in product(range(p), repeat=2 * n):
        yield ModuleVector(
            TruncatedSeries(p, digits[:n]), TruncatedSeries(p, digits[n:])
        )


def census_maximal_generators(p: int, n: int) -> int:
    """Brute-force count of maximal-generating vectors over the whole module."""
    return sum(1 for v in iter_module_vectors(p, n) if is_maximal(v))


@dataclass(frozen=True)
class Intersection:
    """N1 meet N2: the cyclic module T^(n - size_exponent) * N1, of size
    p^size_exponent (the zero module when size_exponent is 0)."""

    size_exponent: int


def _check_pair(n1: CyclicSubmodule, n2: CyclicSubmodule) -> None:
    if check_type(n1, CyclicSubmodule)[:2] != check_type(n2, CyclicSubmodule)[:2]:
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
    import numpy as np  # an oracle only; see the module docstring

    from . import linalg

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
    unique size-p^v submodule T^(n-v) * N1 of N1, so a generator of it is
    n1.generator.scaled(TruncatedSeries.monomial(p, n, n - v)) for v > 0.
    """
    _check_pair(n1, n2)
    _, n, kind, a = n1
    if kind != n2[2]:
        return Intersection(0)
    v = _diff_valuation(a, n2[3])
    return Intersection(v if kind == "A" else min(1 + v, n))


@dataclass(frozen=True)
class QuotientStructure:
    """Invariants of Omega_n^2 / (N1 + N2).

    cyclic_structure lists the sizes (k_1 >= k_2 >= ...) with the quotient
    isomorphic to the direct sum of Omega/(T^k_i).
    """

    quotient_size_exponent: int
    cyclic_structure: tuple[int, ...]


def sum_and_quotient(n1: CyclicSubmodule, n2: CyclicSubmodule) -> QuotientStructure:
    """Structure of Omega_n^2 / (N1 + N2): cyclic of size p^v, v = intersect's.

    N1 is generated by a vector with a unit coordinate, so it is a free
    direct summand and Omega_n^2 / N1 is isomorphic to Omega_n. The quotient
    by N1 + N2 is a quotient of that cyclic module, hence cyclic, and its
    size is p^(2n) / |N1 + N2| = |N1 meet N2| = p^v, since |N1| = |N2| = p^n.
    So it is Omega/(T^v), and the zero module when v = 0.
    """
    v = intersect(n1, n2).size_exponent
    return QuotientStructure(v, (v,) if v else ())


def project(sub: CyclicSubmodule, m: int) -> CyclicSubmodule:
    """Image under the truncation map to level m <= level; kind is preserved."""
    if type(sub) is not CyclicSubmodule or type(m) is not int or not 1 <= m <= sub[1]:
        check_level(m)
        level = check_type(sub, CyclicSubmodule)[1]
        if m > level:
            raise ValueError(f"cannot project level {level} up to level {m}")
    p, _, kind, param = sub
    return tuple.__new__(CyclicSubmodule, (p, m, kind, param[: m if kind == "A" else m - 1]))


def lifts(sub: CyclicSubmodule, m: int) -> Iterator[CyclicSubmodule]:
    """All level-m submodules projecting onto sub; exactly p^(m - level).

    They come in canonical index order, like `enumerate_maximal`, so a
    form's lifts are its fiber in the level-m census, in census order.
    """
    check_level(m)
    p, level, kind, param = check_type(sub, CyclicSubmodule)
    if m < level:
        raise ValueError(f"cannot lift level {level} down to level {m}")
    # the tail's digits are the highest of the index; reversed, as in
    # enumerate_maximal, the lowest of them varies fastest
    params = map(add, repeat(param), map(_reversed, product(range(p), repeat=m - level)))
    yield from _forms(p, m, kind, params)


@dataclass(frozen=True)
class SubmoduleTower:
    """Compatible canonical forms across increasing levels.

    Stage i + 1 projects onto stage i; towers are built by projecting a top
    submodule downward.
    """

    stages: tuple[CyclicSubmodule, ...]

    def __post_init__(self):
        if not isinstance(self.stages, tuple):
            raise ValueError(f"stages must be a tuple, got {type(self.stages).__name__}")
        for stage in self.stages:
            check_type(stage, CyclicSubmodule)
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
            levels = tuple(range(1, check_type(top, CyclicSubmodule).level + 1))
        return cls(tuple([project(top, m) for m in levels]))
