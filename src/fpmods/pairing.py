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
vectors; orthogonal complements come from the Gram matrix.

Maximal isotropic T-stable subspaces are enumerated by orderly generation,
which builds each T-stable isotropic subspace once, from its canonical
parent. T moves each coordinate to the next index inside its generator
slice, so it strictly raises the leading column of a vector. Hence if M has
reduced-row-echelon rows r_1, ..., r_k, then P = span(r_2, ..., r_k), the
members of M vanishing on every column up to r_1's pivot, is T-stable and
isotropic, and T r_1 lies in P. P is M's parent, and M is the span of P and
a vector w that is orthogonal to P, has T w in P, vanishes on P's pivots and
leads with a 1 before them; all such w come from one kernel per state.
The search expands states in batches of at most SEARCH_CHUNK, all of one
dimension, and reads the kernels of a whole batch off one stacked
elimination (linalg.rref_stack); the frontier it holds is at most the
children of one batch per dimension.

The decomposition diagnostics of each Lagrangian found are read off its
echelon basis in closed form, by duality, with no elimination (see
_lagrangian_diagnostics).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import InvariantError, ResourceBoundError
from .series import (
    Frozen, TruncatedSeries, check_level, check_prime, is_int, is_power_of, read_ints, slot_setters
)

MAX_TOTAL_DIM = 4096
MAX_SUBSPACE_VECTORS = 2_000_000
# States per batch of the isotropic search, whose socle kernels come from one
# stacked elimination; bounds that elimination's arrays and the frontier held
# at once. Measured trade against 1,024: up to 25% slower on (3,1,(1,1,1)),
# but 0.25 MB less peak RSS on the isotropic benchmark at a fixed pass count.
SEARCH_CHUNK = 128


@dataclass(frozen=True)
class SpaceShape:
    """Block layout: one rank block plus torsion blocks, levels powers of p."""

    p: int
    rank_level: int
    torsion_levels: tuple[int, ...] = ()

    def __post_init__(self):
        check_prime(self.p)
        if not isinstance(self.torsion_levels, tuple):
            raise ValueError(
                f"torsion_levels must be a tuple, got {type(self.torsion_levels).__name__}"
            )
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
        valid = is_int(block) and is_int(side) and 0 <= block < self.num_blocks
        if not valid or side not in (0, 1):
            raise ValueError(
                f"need an int block in [0, {self.num_blocks}) and side 0 or 1, "
                f"got block={block!r}, side={side!r}"
            )
        levels = self.block_levels
        start = 2 * sum(levels[:block]) + side * levels[block]
        return slice(start, start + levels[block])


class SpaceElement(Frozen):
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
        _set_element_shape(self, shape)
        _set_element_coords(self, coords)

    @classmethod
    def generator(cls, shape: SpaceShape, block: int, side: int) -> "SpaceElement":
        vec = [0] * shape.dim
        vec[shape.generator_slice(block, side).start] = 1
        return cls.from_vector(shape, vec)

    @classmethod
    def from_vector(cls, shape: SpaceShape, vec) -> "SpaceElement":
        flat = read_ints(vec, "vector entries")
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
        if not isinstance(other, SpaceElement):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("elements must share a shape")
        return SpaceElement(self.shape, (a + b for a, b in zip(self.coords, other.coords)))

    def __repr__(self):
        return f"SpaceElement({self.shape}, {[str(c) for c in self.coords]})"

    def _block_scalars(self, poly) -> list[TruncatedSeries]:
        poly = read_ints(poly)
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


_set_element_shape, _set_element_coords = slot_setters(SpaceElement)


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


class FpSubspace(Frozen):
    """A GF(p) subspace of the flattened space, stored as a canonical
    reduced-row-echelon basis (so equal subspaces compare equal)."""

    __slots__ = ("shape", "basis", "pivots")
    # the rref of an rref basis is itself, so a copy is equal and its basis
    # is read-only again
    _ARGS = ("shape", "basis")

    def __init__(self, shape: SpaceShape, rows=None):
        mat = linalg.as_matrix([] if rows is None else rows, shape.p, width=shape.dim)
        if mat.shape[1] != shape.dim:
            raise ValueError(f"rows must have length {shape.dim}")
        reduced, pivots = linalg.rref(mat, shape.p)
        self._assign(shape, reduced[: len(pivots)], pivots)

    def _assign(self, shape: SpaceShape, basis: np.ndarray, pivots: tuple[int, ...]):
        _set_subspace_shape(self, shape)
        _set_subspace_basis(self, basis)
        _set_subspace_pivots(self, pivots)
        basis.setflags(write=False)

    @classmethod
    def _from_rref(
        cls, shape: SpaceShape, basis: np.ndarray, pivots: tuple[int, ...]
    ) -> "FpSubspace":
        """The subspace whose reduced-row-echelon basis, entries in [0, p),
        and pivot columns the caller already holds; no elimination is run."""
        sub = cls.__new__(cls)
        sub._assign(shape, basis, pivots)
        return sub

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

    @classmethod
    def t_span(cls, shape: SpaceShape, rows) -> "FpSubspace":
        """Smallest T-stable subspace containing the given rows."""
        action = t_action_matrix(shape)
        current = cls(shape, rows)
        while True:
            shifted = linalg.matmul(current.basis, action, shape.p)
            grown = cls(shape, np.vstack([current.basis, shifted]))
            if grown.dim == current.dim:
                return grown
            current = grown

    def is_t_stable(self) -> bool:
        shifted = linalg.matmul(self.basis, t_action_matrix(self.shape), self.p)
        return not linalg.reduce_rows(self.basis, self.pivots, shifted, self.p).any()

    def vectors(self) -> np.ndarray:
        """All p^dim member vectors, one per row."""
        k = self.dim
        if self.p**k > MAX_SUBSPACE_VECTORS:
            raise ResourceBoundError(
                f"p^dim = {self.p ** k} member vectors exceed {MAX_SUBSPACE_VECTORS}"
            )
        combos = np.array(
            list(itertools.product(range(self.p), repeat=k)), dtype=np.int64
        )
        return (combos @ self.basis) % self.p

    def orthogonal_complement(self) -> "FpSubspace":
        """All x with (x, m) = 0 for every m in the subspace."""
        gram = gram_matrix(self.shape)
        constraints = linalg.matmul(self.basis, gram.T, self.p)
        return FpSubspace(self.shape, linalg.nullspace(constraints, self.p))

    def is_isotropic(self) -> bool:
        gram = gram_matrix(self.shape)
        vals = linalg.matmul(linalg.matmul(self.basis, gram, self.p), self.basis.T, self.p)
        return not vals.any()


_set_subspace_shape, _set_subspace_basis, _set_subspace_pivots = slot_setters(FpSubspace)


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


def isotropic_diagnostics(sub: FpSubspace) -> MaximalIsotropic:
    """Decomposition diagnostics of a T-stable Lagrangian: a subspace of half
    the dimension that is isotropic and T-stable, else ValueError."""
    if 2 * sub.dim != sub.shape.dim or not sub.is_isotropic() or not sub.is_t_stable():
        raise ValueError(
            f"need an isotropic T-stable subspace of half dimension, got {sub!r}"
        )
    return _lagrangian_diagnostics(sub)


def _lagrangian_diagnostics(sub: FpSubspace) -> MaximalIsotropic:
    """isotropic_diagnostics without the check, read off the echelon basis B
    of the T-stable Lagrangian L = sub.

    Let R be the rank block (columns 0..2n-1, u_0 then v_0, n the rank
    level) and S the torsion blocks, so R^perp = S and L^perp = L.
    - The rank columns come first, so the rows of B nonzero on them are the
      rows led by a rank column: d = rank_projection_dim counts the pivots
      below 2n.
    - L meet S is the kernel of the projection of L to R, so
      torsion_intersection_dim = dim L - d.
    - (L meet R)^perp = L + S, of dimension dim S + d, so
      rank_intersection_dim = 2n - d.
    - M = L meet R is T-stable, so it needs dim ker(T|M) generators, and that
      kernel is L meet Z for Z = span(T^(n-1) u_0, T^(n-1) v_0) (columns n-1
      and 2n-1). Since (T x, T^(n-1) y) = (x, inv(T) T^(n-1) y) = 0 and the
      dimensions agree, Z^perp = S + T R: the vectors zero on columns 0 and
      n. Hence dim(L meet Z) = 2 - rank(B[:, [0, n]]), and M is cyclic
      exactly when B is nonzero in column 0 (its first pivot is 0) or n.
    - M and L meet S meet only in 0, so they span L exactly when
      (2n - d) + (dim L - d) = dim L, that is when d = n, which also gives M
      the dimension n: splits is d = n and M cyclic.
    """
    shape = sub.shape
    n = shape.rank_level
    proj_dim = bisect_left(sub.pivots, shape.rank_dim)
    cyclic = sub.pivots[0] == 0 or bool(sub.basis[:, n].any())
    return MaximalIsotropic(
        subspace=sub,
        rank_projection_dim=proj_dim,
        rank_intersection_dim=shape.rank_dim - proj_dim,
        torsion_intersection_dim=sub.dim - proj_dim,
        rank_intersection_cyclic=cyclic,
        splits=proj_dim == n and cyclic,
    )


@lru_cache(maxsize=None)
def _coefficients(p: int, count: int) -> np.ndarray:
    """Every coefficient vector in GF(p)^count, one per row, lexicographic."""
    out = np.array(list(itertools.product(range(p), repeat=count)), dtype=np.int64)
    out.setflags(write=False)
    return out


def _socle_kernels(shape: SpaceShape, states) -> list[np.ndarray]:
    """For each of states, all of one dimension k, the reduced-row-echelon
    basis of the w that vanish on the state's pivot columns, are orthogonal
    to the state and have T w in the state.

    w is unknown only on the free (non-pivot) columns, and T w = w A lies in
    the state P exactly when w A equals (w A)[pivots] P, so the conditions
    are z C = 0 for z = w[free] and C = [A - A[:, pivots] P | G P^T][free].
    linalg.nullspace_stack gives every state's kernel of C^T from one
    stacked elimination, by its contract the reduced row echelon basis of
    the z among zero rows; placing it on the free columns keeps that form,
    and the zero rows drop out. k = 0 takes the same steps with empty bases.
    """
    p = shape.p
    action = t_action_matrix(shape)
    bases = np.stack([state.basis for state in states])
    pivots = np.array([state.pivots for state in states], dtype=np.int64)
    count, k, dim = bases.shape
    every = np.arange(count)[:, None]
    is_free = np.ones((count, dim), dtype=bool)
    is_free[every, pivots] = False
    free = np.nonzero(is_free)[1].reshape(count, dim - k)
    # only the free rows of C are formed; the elimination reduces them mod p
    constraints = np.concatenate(
        [
            action[free] - action[free[:, :, None], pivots[:, None, :]] @ bases,
            gram_matrix(shape)[free] @ bases.transpose(0, 2, 1),
        ],
        axis=2,
    )
    kernels = linalg.nullspace_stack(constraints.transpose(0, 2, 1), p)
    out = np.zeros((count, dim - k, dim), dtype=np.int64)
    np.put_along_axis(out, free[:, None, :], kernels, axis=2)
    return [rows[kept] for rows, kept in zip(out, out.any(axis=2))]


def enumerate_maximal_isotropic(shape: SpaceShape):
    """All maximal isotropic T-stable subspaces, with diagnostics, sorted by
    key.

    Orderly generation (see the module docstring): each T-stable isotropic
    subspace M is built once, from its parent P, the span of all but the
    first row r_1 of M's reduced row echelon basis. T strictly raises the
    leading column of a vector, so P is T-stable and T r_1 lies in P.

    The children of a state P are the spans of P and w for each w in the
    kernel of _socle_kernels (orthogonal to P, T w in P, zero on P's pivots)
    whose leading entry is a 1 in a column q before P's first pivot: the
    child is isotropic because the skew form is alternating in odd
    characteristic, T-stable because T w lies in P, and [w; P's basis] is
    already its reduced row echelon basis, so distinct w give distinct
    children and no child needs elimination. Such w are one row of the
    kernel's echelon basis with pivot q, plus any combination of the kernel
    rows after it. A child with j rows and first pivot q can reach half
    dimension only if q >= half - j, since its descendants add rows with
    pivots before q; other children are not built.

    The stack holds batches of states of one dimension. A popped batch gets
    its kernels from one stacked elimination (_socle_kernels), and its
    children are pushed in batches of at most SEARCH_CHUNK, so at each
    dimension the stack holds at most the children of one batch, never a
    whole level. Children of half dimension go straight to the results.

    States of half dimension equal their own complement, hence are maximal.
    They are sorted by key and yielded with their diagnostics (see
    _lagrangian_diagnostics). Cost is proportional to the number of T-stable
    isotropic subspaces that can still reach half dimension, which is why
    p^dim is bounded by MAX_SUBSPACE_VECTORS (so dim <= 12, as p >= 3); that
    also bounds the p^m combinations listed for a kernel row with m rows
    after it.
    """
    p = shape.p
    if p**shape.dim > MAX_SUBSPACE_VECTORS:
        raise ResourceBoundError(
            f"p^dim = {p ** shape.dim} member vectors exceed {MAX_SUBSPACE_VECTORS}"
        )
    half = shape.dim // 2

    stack = [[FpSubspace(shape)]]
    found: list[FpSubspace] = []
    while stack:
        batch = stack.pop()
        children: list[FpSubspace] = []
        for state, kernel in zip(batch, _socle_kernels(shape, batch)):
            first = state.pivots[0] if state.dim else shape.dim
            lowest = half - state.dim - 1
            leads = np.argmax(kernel != 0, axis=1)
            for i in np.flatnonzero((leads >= lowest) & (leads < first)):
                later = kernel[i + 1 :]
                rows = (kernel[i] + _coefficients(p, len(later)) @ later) % p
                lead = np.argmax(rows != 0, axis=1)
                echelon = (
                    (lead < first)
                    & (rows[np.arange(len(rows)), lead] == 1)
                    & ~rows[:, list(state.pivots)].any(axis=1)
                )
                if not echelon.all():
                    raise InvariantError(
                        f"socle extension of a dimension-{state.dim} state (torsion "
                        f"levels {shape.torsion_levels}) by a vector without a leading "
                        f"1 before its first pivot {first} or zeros on its pivots",
                        p=p, n=shape.rank_level,
                    )
                pivots = (int(leads[i]), *state.pivots)
                for w in rows:
                    children.append(
                        FpSubspace._from_rref(shape, np.vstack([w, state.basis]), pivots)
                    )
        if batch[0].dim + 1 == half:
            found.extend(children)
        else:
            stack.extend(
                children[start : start + SEARCH_CHUNK]
                for start in range(0, len(children), SEARCH_CHUNK)
            )
    found.sort(key=FpSubspace.key)
    for sub in found:
        yield _lagrangian_diagnostics(sub)
