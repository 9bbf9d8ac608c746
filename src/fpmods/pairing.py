"""An involution-equivariant alternating pairing on a block module.

The space is a direct sum of hyperbolic blocks over Omega = F_p[T]/(T^m):

    V = Omega_n u_0 + Omega_n v_0 + sum_i ( Omega_{m_i} u_i + Omega_{m_i} v_i )

where block 0 (level n, the rank block) and the torsion blocks (levels m_i)
all have levels that are powers of p. Writing eps_m for the functional that
reads the identity coefficient of a level-m series in the group basis, and
inv for the ring involution, the pairing of x and y sums over blocks

    eps_m( x_u * inv(y_v) - x_v * inv(y_u) ).

This makes distinct blocks orthogonal and gives the generator relations
(u_i, v_i) = 1, (v_i, u_i) = -1, the delta-relation
(g^k1 u_i, g^k2 v_i) = delta_{k1,k2} for g = 1 + T, equivariance
(tau x, y) = (x, inv(tau) y), and skew-symmetry; the pairing is
nondegenerate. Subspaces are GF(p) row spans of flattened coordinate
vectors; orthogonal complements come from the Gram matrix, and maximal
isotropic T-stable subspaces are enumerated breadth-first by socle
extension: a T-stable isotropic M grows to M + <w> for each w orthogonal to
M, outside M, with T w in M. Every T-stable isotropic subspace containing M
properly contains such a w, because T is nilpotent, so every Lagrangian is
reached one dimension at a time.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import InvariantError, ResourceBoundError
from .series import TruncatedSeries, check_level, check_prime, is_power_of

MAX_TOTAL_DIM = 4096
MAX_ENUM_DIM = 12
MAX_SUBSPACE_VECTORS = 2_000_000


@dataclass(frozen=True)
class SpaceShape:
    """Block layout: one rank block plus torsion blocks, levels powers of p."""

    p: int
    rank_level: int
    torsion_levels: tuple[int, ...] = ()

    def __post_init__(self):
        check_prime(self.p)
        for m in (self.rank_level, *self.torsion_levels):
            check_level(m)
            if not is_power_of(m, self.p):
                raise ValueError(f"block level {m} is not a power of {self.p}")
        if self.dim > MAX_TOTAL_DIM:
            raise ValueError(f"total dimension {self.dim} exceeds {MAX_TOTAL_DIM}")

    @property
    def block_levels(self) -> tuple[int, ...]:
        return (self.rank_level, *self.torsion_levels)

    @property
    def num_blocks(self) -> int:
        return 1 + len(self.torsion_levels)

    @property
    def dim(self) -> int:
        return 2 * sum((self.rank_level, *self.torsion_levels))

    @property
    def rank_dim(self) -> int:
        return 2 * self.rank_level

    def generator_slice(self, block: int, side: int) -> slice:
        """Coordinates of the side-th generator (0 = u, 1 = v) of a block."""
        levels = self.block_levels
        start = 2 * sum(levels[:block]) + side * levels[block]
        return slice(start, start + levels[block])


class SpaceElement:
    """An element of the block module, one series coordinate per generator."""

    __slots__ = ("shape", "coords")

    def __init__(self, shape: SpaceShape, coords):
        coords = tuple(coords)
        levels = shape.block_levels
        if len(coords) != 2 * shape.num_blocks:
            raise ValueError(f"need {2 * shape.num_blocks} coordinates")
        for b, level in enumerate(levels):
            for side in (0, 1):
                c = coords[2 * b + side]
                if c.p != shape.p or c.level != level:
                    raise ValueError(
                        f"coordinate {2 * b + side} must live in "
                        f"(p={shape.p}, level={level})"
                    )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("SpaceElement is immutable")

    @classmethod
    def zero(cls, shape: SpaceShape) -> "SpaceElement":
        return cls(
            shape,
            (TruncatedSeries.zero(shape.p, m) for m in shape.block_levels for _ in (0, 1)),
        )

    @classmethod
    def generator(cls, shape: SpaceShape, block: int, side: int) -> "SpaceElement":
        coords = list(cls.zero(shape).coords)
        coords[2 * block + side] = TruncatedSeries.one(shape.p, shape.block_levels[block])
        return cls(shape, coords)

    @classmethod
    def from_vector(cls, shape: SpaceShape, vec) -> "SpaceElement":
        flat = [int(c) for c in vec]
        if len(flat) != shape.dim:
            raise ValueError(f"vector must have length {shape.dim}")
        coords = []
        for b, m in enumerate(shape.block_levels):
            for side in (0, 1):
                s = shape.generator_slice(b, side)
                coords.append(TruncatedSeries(shape.p, flat[s]))
        return cls(shape, coords)

    def to_vector(self) -> np.ndarray:
        out = np.empty(self.shape.dim, dtype=np.int64)
        for i, c in enumerate(self.coords):
            b, side = divmod(i, 2)
            out[self.shape.generator_slice(b, side)] = c.coeffs
        return out

    def __add__(self, other: "SpaceElement") -> "SpaceElement":
        if self.shape != other.shape:
            raise ValueError("elements must share a shape")
        return SpaceElement(self.shape, (a + b for a, b in zip(self.coords, other.coords)))

    def __eq__(self, other):
        if not isinstance(other, SpaceElement):
            return NotImplemented
        return self.shape == other.shape and self.coords == other.coords

    def __hash__(self):
        return hash((self.shape, self.coords))

    def __repr__(self):
        return f"SpaceElement({self.shape}, {[str(c) for c in self.coords]})"

    def _block_scalars(self, poly) -> list[TruncatedSeries]:
        poly = tuple(int(c) for c in poly)
        return [TruncatedSeries(self.shape.p, poly[:m], m) for m in self.shape.block_levels]

    def act(self, poly) -> "SpaceElement":
        """Multiply by a ring element given as T-power coefficients."""
        taus = self._block_scalars(poly)
        return SpaceElement(
            self.shape, (taus[i // 2] * c for i, c in enumerate(self.coords))
        )

    def act_involution(self, poly) -> "SpaceElement":
        """Multiply by the involution of a ring element, blockwise."""
        taus = [t.involution() for t in self._block_scalars(poly)]
        return SpaceElement(
            self.shape, (taus[i // 2] * c for i, c in enumerate(self.coords))
        )

    def pair(self, other: "SpaceElement") -> int:
        """The pairing value in [0, p)."""
        if self.shape != other.shape:
            raise ValueError("elements must share a shape")
        total = 0
        for b in range(self.shape.num_blocks):
            xu, xv = self.coords[2 * b], self.coords[2 * b + 1]
            yu, yv = other.coords[2 * b], other.coords[2 * b + 1]
            diff = xu * yv.involution() - xv * yu.involution()
            total += diff.group_basis()[0]
        return total % self.shape.p


@lru_cache(maxsize=None)
def _block_gram(p: int, m: int) -> np.ndarray:
    """Pairing matrix of one level-m block on the basis T^i u, T^j v."""
    one = TruncatedSeries.one(p, m)
    s = TruncatedSeries.group_generator(p, m).inverse() - one
    a = np.zeros((m, m), dtype=np.int64)
    inv_pow = one
    for j in range(m):
        for i in range(m):
            shifted = TruncatedSeries.monomial(p, m, i) * inv_pow
            a[i, j] = shifted.group_basis()[0]
        inv_pow = inv_pow * s
    return a


@lru_cache(maxsize=None)
def gram_matrix(shape: SpaceShape) -> np.ndarray:
    """Gram matrix of the pairing on the flattened coordinate basis."""
    p = shape.p
    g = np.zeros((shape.dim, shape.dim), dtype=np.int64)
    offset = 0
    for m in shape.block_levels:
        a = _block_gram(p, m)
        g[offset : offset + m, offset + m : offset + 2 * m] = a
        g[offset + m : offset + 2 * m, offset : offset + m] = (-a.T) % p
        offset += 2 * m
    g.setflags(write=False)
    return g


@lru_cache(maxsize=None)
def t_action_matrix(shape: SpaceShape) -> np.ndarray:
    """Matrix of multiplication by T on row vectors: (T x) = x @ A."""
    a = np.zeros((shape.dim, shape.dim), dtype=np.int64)
    for b, m in enumerate(shape.block_levels):
        for side in (0, 1):
            s = shape.generator_slice(b, side)
            for j in range(s.start, s.stop - 1):
                a[j, j + 1] = 1
    a.setflags(write=False)
    return a


class FpSubspace:
    """A GF(p) subspace of the flattened space, stored as a canonical
    reduced-row-echelon basis (so equal subspaces compare equal)."""

    __slots__ = ("shape", "basis", "pivots", "_t_stable")

    def __init__(self, shape: SpaceShape, rows=None):
        mat = linalg.as_matrix([] if rows is None else rows, shape.p, width=shape.dim)
        if mat.shape[1] != shape.dim:
            raise ValueError(f"rows must have length {shape.dim}")
        reduced, pivots = linalg.rref(mat, shape.p)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "basis", reduced[: len(pivots)])
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "_t_stable", None)
        self.basis.setflags(write=False)

    def __setattr__(self, name, value):
        if name == "_t_stable":
            object.__setattr__(self, name, value)
            return
        raise AttributeError("FpSubspace is immutable")

    @property
    def p(self) -> int:
        return self.shape.p

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def key(self) -> bytes:
        return self.basis.tobytes()

    def __eq__(self, other):
        if not isinstance(other, FpSubspace):
            return NotImplemented
        return self.shape == other.shape and self.key() == other.key()

    def __hash__(self):
        return hash((self.shape, self.key()))

    def __repr__(self):
        return f"FpSubspace(dim={self.dim} of {self.shape.dim}, p={self.p})"

    def contains(self, vec) -> bool:
        return linalg.in_row_span(self.basis, self.pivots, vec, self.p)

    @classmethod
    def t_span(cls, shape: SpaceShape, rows) -> "FpSubspace":
        """Smallest T-stable subspace containing the given rows."""
        action = t_action_matrix(shape)
        current = cls(shape, rows)
        while True:
            shifted = linalg.matmul(current.basis, action, shape.p)
            grown = cls(shape, np.vstack([current.basis, shifted]))
            if grown.dim == current.dim:
                grown._t_stable = True
                return grown
            current = grown

    def is_t_stable(self) -> bool:
        if self._t_stable is None:
            shifted = linalg.matmul(self.basis, t_action_matrix(self.shape), self.p)
            self._t_stable = all(self.contains(row) for row in shifted)
        return self._t_stable

    def vectors(self) -> np.ndarray:
        """All p^dim member vectors, one per row."""
        k = self.dim
        if self.p**k > MAX_SUBSPACE_VECTORS:
            raise ResourceBoundError(
                f"p^dim = {self.p ** k} member vectors exceed {MAX_SUBSPACE_VECTORS}"
            )
        if k == 0:
            return np.zeros((1, self.shape.dim), dtype=np.int64)
        combos = np.array(
            list(itertools.product(range(self.p), repeat=k)), dtype=np.int64
        )
        return (combos @ self.basis) % self.p

    def orthogonal_complement(self) -> "FpSubspace":
        """All x with (x, m) = 0 for every m in the subspace."""
        if self.dim == 0:
            return FpSubspace(self.shape, np.eye(self.shape.dim, dtype=np.int64))
        gram = gram_matrix(self.shape)
        constraints = linalg.matmul(self.basis, gram.T, self.p)
        return FpSubspace(self.shape, linalg.nullspace(constraints, self.p))

    def is_isotropic(self) -> bool:
        if self.dim == 0:
            return True
        gram = gram_matrix(self.shape)
        vals = linalg.matmul(linalg.matmul(self.basis, gram, self.p), self.basis.T, self.p)
        return not vals.any()

    def is_maximal_isotropic(self) -> bool:
        return self.is_isotropic() and self == self.orthogonal_complement()


@dataclass(frozen=True)
class MaximalIsotropic:
    """A maximal isotropic T-stable subspace with decomposition diagnostics.

    splits records whether the subspace is the direct sum of its rank-block
    part (which must then be cyclic of full rank-block level, i.e. free of
    rank one) and its torsion-block part. This can genuinely fail at finite
    level, so it is reported, never asserted.
    """

    subspace: FpSubspace
    rank_projection_dim: int
    rank_intersection_dim: int
    torsion_intersection_dim: int
    rank_intersection_cyclic: bool
    splits: bool


def _coordinate_section(sub: FpSubspace, zero_cols: slice) -> np.ndarray:
    """Canonical basis of the members vanishing on the given coordinates."""
    if sub.dim == 0:
        return sub.basis
    block = sub.basis[:, zero_cols]
    combos = linalg.nullspace(block.T, sub.p)
    return linalg.row_basis(linalg.matmul(combos, sub.basis, sub.p), sub.p)


def isotropic_diagnostics(sub: FpSubspace) -> MaximalIsotropic:
    """Decomposition diagnostics of an isotropic T-stable subspace."""
    shape = sub.shape
    p = shape.p
    rank_cols = slice(0, shape.rank_dim)
    torsion_cols = slice(shape.rank_dim, shape.dim)
    proj_dim = linalg.rank(sub.basis[:, rank_cols], p) if sub.dim else 0
    rank_part = _coordinate_section(sub, torsion_cols)
    torsion_part = _coordinate_section(sub, rank_cols)
    shifted = linalg.matmul(rank_part, t_action_matrix(shape), p)
    generators_needed = len(rank_part) - linalg.rank(shifted, p)
    cyclic = generators_needed <= 1
    splits = (
        len(rank_part) + len(torsion_part) == sub.dim
        and len(rank_part) == shape.rank_level
        and cyclic
    )
    return MaximalIsotropic(
        subspace=sub,
        rank_projection_dim=proj_dim,
        rank_intersection_dim=len(rank_part),
        torsion_intersection_dim=len(torsion_part),
        rank_intersection_cyclic=cyclic,
        splits=splits,
    )


def _normalized_rows(vecs: np.ndarray) -> np.ndarray:
    """Nonzero rows whose leading coefficient is 1 (one per projective line)."""
    nonzero = vecs.any(axis=1)
    lead = np.argmax(vecs != 0, axis=1)
    lead_vals = vecs[np.arange(len(vecs)), lead]
    return vecs[nonzero & (lead_vals == 1)]


def enumerate_maximal_isotropic(shape: SpaceShape):
    """All maximal isotropic T-stable subspaces, with diagnostics.

    Breadth-first search over isotropic T-stable subspaces by socle
    extension: a state M is extended by each w in the complement of M,
    outside M, with T w in M, and the child is M + <w>. The child is
    isotropic because w is orthogonal to M and the skew form is alternating
    in odd characteristic, and T-stable because T w lies in M. No T-stable
    isotropic L containing M properly is missed: T is nilpotent on L / M,
    so some w in L outside M has T w in M, and M + <w> lies in L. Only one
    w per line of M^perp / M is tried (reduced modulo M, leading coefficient
    1), since w and c w + m give the same child and T w lies in M for both.
    States of half dimension equal their own complement, hence are maximal.
    Cost is proportional to the number of isotropic T-stable subspaces,
    which is why the total dimension is capped.
    """
    if shape.dim > MAX_ENUM_DIM:
        raise ResourceBoundError(
            f"total dimension {shape.dim} exceeds the enumeration bound {MAX_ENUM_DIM}"
        )
    p = shape.p
    half = shape.dim // 2
    action = t_action_matrix(shape)

    start = FpSubspace(shape)
    seen = {start.key()}
    queue = deque([start])
    found: dict[bytes, FpSubspace] = {}
    while queue:
        current = queue.popleft()
        if current.dim == half:
            found[current.key()] = current
            continue
        # reduced modulo current, perp's rows span a complement of current in
        # perp whose vectors are the canonical representatives of perp / current
        perp = current.orthogonal_complement()
        reduced = linalg.reduce_rows(current.basis, current.pivots, perp.basis, p)
        candidates = _normalized_rows(FpSubspace(shape, reduced).vectors())
        shifted = linalg.reduce_rows(
            current.basis, current.pivots, linalg.matmul(candidates, action, p), p
        )
        for w in candidates[~shifted.any(axis=1)]:
            grown = FpSubspace(shape, np.vstack([current.basis, w[None]]))
            if grown.dim != current.dim + 1:
                raise InvariantError(
                    f"socle extension of a dimension-{current.dim} state has "
                    f"dimension {grown.dim}",
                    p=p, n=shape.rank_level,
                )
            key = grown.key()
            if key not in seen:
                seen.add(key)
                queue.append(grown)
    for key in sorted(found):
        yield isotropic_diagnostics(found[key])
