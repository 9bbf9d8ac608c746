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
The search starts from the zero state. It holds its states as arrays, not
as FpSubspace objects: a batch of states, all of one dimension, is one
array of echelon bases and one of pivots, of at most SEARCH_CELLS cells.
It reads the kernels of a whole batch off one stacked elimination
(linalg.rref_stack), except the zero state's, which is ker T, spanned by
the unit vectors at the last coordinate of each generator slice and read
in closed form, and it builds all the batch's children as one array, in
one pass; the frontier it holds is at most the children of one batch per
dimension. The search has one outlet, its batches of half dimension:
enumerate_maximal_isotropic stores them and makes FpSubspace objects only
for the results, as they are yielded; _search_count sums their sizes and
drops them. count_maximal_isotropic runs that count only where T acts: at
T = 0 (every block of level 1) it counts in closed form. It never reads the
split criterion: at every shape the split Lagrangians number F(n) * N(S),
the free T-stable Lagrangians of the rank block times the T-stable
Lagrangians of the torsion blocks.

Whether each Lagrangian found splits is read off its echelon basis in
closed form, by duality, with no elimination, for all results at once;
_splits is the one split criterion, and isotropic_diagnostics its
one-subspace case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

import numpy as np

from . import linalg
from .errors import InvariantError, ResourceBoundError
from .series import (
    Frozen, TruncatedSeries, check_level, check_prime, check_type, is_int, is_power_of, read_ints,
    slot_setters,
)
from .submodules import count_maximal

MAX_TOTAL_DIM = 4096
MAX_SUBSPACE_VECTORS = 2_000_000
# Cells (states x rows x dim) per batch of the isotropic search, whose socle
# kernels come from one stacked elimination; bounds its arrays and the
# frontier held at once. At dim 8 a whole level of up to 341 states of
# dimension 3 is one batch; at dim 12, 227 to 113 states of dimension 3 to 6.
# Counting in three fresh processes each on a 2-vCPU host, against batches of
# 128 states: (3,3,(1,1)) 0.15-0.19 s at 32.2 MB peak RSS against 0.15-0.24 s
# at 31.9-32.0 MB; (3,3,(3,)) 0.10-0.11 s at 31.0-31.2 MB against
# 0.10-0.15 s at 30.8-30.9 MB.
SEARCH_CELLS = 8192


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
        check_type(shape, SpaceShape)
        coords = tuple(coords)
        levels = shape.block_levels
        if len(coords) != 2 * shape.num_blocks:
            raise ValueError(f"need {2 * shape.num_blocks} coordinates")
        for b, level in enumerate(levels):
            for side in (0, 1):
                c = check_type(coords[2 * b + side], TruncatedSeries)
                if c.p != shape.p or c.level != level:
                    raise ValueError(
                        f"coordinate {2 * b + side} must live in "
                        f"(p={shape.p}, level={level})"
                    )
        _set_element_shape(self, shape)
        _set_element_coords(self, coords)

    @classmethod
    def generator(cls, shape: SpaceShape, block: int, side: int) -> "SpaceElement":
        check_type(shape, SpaceShape)
        vec = [0] * shape.dim
        vec[shape.generator_slice(block, side).start] = 1
        return cls.from_vector(shape, vec)

    @classmethod
    def from_vector(cls, shape: SpaceShape, vec) -> "SpaceElement":
        check_type(shape, SpaceShape)
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
        check_type(other, SpaceElement)
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
    """Pairing matrix of one level-m block on the basis T^i u, T^j v:
    (T^i u, T^j v) = (-1)^i * C(m-1-i, j) mod p.

    The entry is eps(T^i * inv(T)^j). T^k = (g - 1)^k has g^0 coefficient
    (-1)^k, so eps(x) = sum_k (-1)^k x_k, and inv(T) = g^(-1) - 1 =
    -T (1+T)^(-1). The T^k coefficient of T^(i+j) (1+T)^(-j) is
    (-1)^(k-i-j) C(k-i-1, j-1) for k >= i + j and j >= 1, so
    eps(T^i * inv(T)^j) = (-1)^i * sum_{t=j-1}^{m-i-2} C(t, j-1), which the
    hockey-stick identity sums to (-1)^i * C(m-1-i, j); at j = 0 it is
    eps(T^i) = (-1)^i = (-1)^i * C(m-1-i, 0).
    """
    a = np.array(
        [[(-1) ** i * comb(m - 1 - i, j) % p for j in range(m)] for i in range(m)],
        dtype=np.int64,
    )
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def gram_matrix(shape: SpaceShape) -> np.ndarray:
    """Gram matrix of the pairing on the flattened coordinate basis."""
    check_type(shape, SpaceShape)
    p = shape.p
    g = np.zeros((shape.dim, shape.dim), dtype=np.int64)
    for b, m in enumerate(shape.block_levels):
        a = _block_gram(p, m)
        u, v = shape.generator_slice(b, 0), shape.generator_slice(b, 1)
        g[u, v] = a
        g[v, u] = (-a.T) % p
    g.setflags(write=False)
    return g


@lru_cache(maxsize=None)
def t_action_matrix(shape: SpaceShape) -> np.ndarray:
    """Matrix of multiplication by T on row vectors: (T x) = x @ A."""
    check_type(shape, SpaceShape)
    a = np.zeros((shape.dim, shape.dim), dtype=np.int64)
    for b, m in enumerate(shape.block_levels):
        for side in (0, 1):
            s = shape.generator_slice(b, side)
            for j in range(s.start, s.stop - 1):
                a[j, j + 1] = 1
    a.setflags(write=False)
    return a


def _check_vector_count(p: int, dim: int) -> None:
    """ResourceBoundError unless a space of dimension dim over GF(p) has at
    most MAX_SUBSPACE_VECTORS members."""
    if p**dim > MAX_SUBSPACE_VECTORS:
        raise ResourceBoundError(
            f"p^dim = {p ** dim} member vectors exceed {MAX_SUBSPACE_VECTORS}"
        )


class FpSubspace(Frozen):
    """A GF(p) subspace of the flattened space, stored as a canonical
    reduced-row-echelon basis (so equal subspaces compare equal)."""

    __slots__ = ("shape", "basis", "pivots")
    # the rref of an rref basis is itself, so a copy is equal and its basis
    # is read-only again
    _ARGS = ("shape", "basis")

    def __init__(self, shape: SpaceShape, rows=None):
        check_type(shape, SpaceShape)
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
        _check_vector_count(self.p, k)
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
    """A maximal isotropic T-stable subspace and whether it splits.

    splits records whether the subspace is the direct sum of its rank-block
    part (which must then be cyclic of full rank-block level, i.e. free of
    rank one) and its torsion-block part. This can genuinely fail at finite
    level, so it is reported, never asserted.
    """

    subspace: FpSubspace
    splits: bool


def isotropic_diagnostics(sub: FpSubspace) -> MaximalIsotropic:
    """The report of a T-stable Lagrangian: a subspace of half the dimension
    that is isotropic and T-stable, else ValueError (TypeError unless sub is
    an FpSubspace)."""
    check_type(sub, FpSubspace)
    if 2 * sub.dim != sub.shape.dim or not sub.is_isotropic() or not sub.is_t_stable():
        raise ValueError(
            f"need an isotropic T-stable subspace of half dimension, got {sub!r}"
        )
    pivots = np.array([sub.pivots], dtype=np.int64)
    (split,) = _splits(sub.shape, sub.basis[None], pivots).tolist()
    return MaximalIsotropic(sub, split)


def _splits(shape: SpaceShape, bases: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Whether each T-stable Lagrangian L splits, as an (N,) bool array, for
    the stacked echelon bases B, an (N, dim L, dim) array of any integer
    dtype, and their (N, dim L) pivots. enumerate_maximal_isotropic reads
    its reports here; count_maximal_isotropic counts the split Lagrangians
    by a product that this criterion proves.

    Let R be the rank block (columns 0..2n-1, u_0 then v_0, n the rank
    level) and S the torsion blocks, so R^perp = S and L^perp = L; L splits
    when it is the direct sum of M = L meet R, cyclic of dimension n, and
    L meet S.
    - The rank columns come first, so the rows of B nonzero on them are the
      rows led by a rank column: the projection of L to R has dimension d,
      the number of pivots below 2n.
    - L meet S is the kernel of that projection, so it has dimension
      dim L - d.
    - M^perp = L + S, of dimension dim S + d, so M has dimension 2n - d.
    - M is T-stable, so it needs dim ker(T|M) generators, and that kernel
      is L meet Z for Z = span(T^(n-1) u_0, T^(n-1) v_0) (columns n-1 and
      2n-1). Since (T x, T^(n-1) y) = (x, inv(T) T^(n-1) y) = 0 and the
      dimensions agree, Z^perp = S + T R: the vectors zero on columns 0 and
      n. Hence dim(L meet Z) = 2 - rank(B[:, [0, n]]), and M is cyclic
      exactly when B is nonzero in column 0 (its first pivot is 0) or n.
    - M and L meet S meet only in 0, so they span L exactly when
      (2n - d) + (dim L - d) = dim L, that is when d = n, which also gives M
      the dimension n: L splits iff d = n and M is cyclic.
    """
    n = shape.rank_level
    d = (pivots < shape.rank_dim).sum(axis=1)
    cyclic = (pivots[:, 0] == 0) | bases[:, :, n].any(axis=1)
    return (d == n) & cyclic


def _socle_kernels(shape: SpaceShape, bases: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """For each state of a batch, all of one dimension k, given as its
    reduced-row-echelon basis in the (N, k, dim) int64 array bases and its
    pivot columns in the (N, k) int64 array pivots: the reduced-row-echelon
    basis of the w that vanish on the state's pivot columns, are orthogonal
    to the state and have T w in the state, as an (N, dim - k, dim) int64
    array whose nonzero rows, in order, are that basis and whose other rows
    are zero.

    w is unknown only on the free (non-pivot) columns, and T w = w A lies in
    the state P exactly when w A equals (w A)[pivots] P, so the conditions
    are z C = 0 for z = w[free] and C = [A - A[:, pivots] P | G P^T][free].
    linalg.nullspace_stack gives every state's kernel of C^T from one
    stacked elimination, by its contract the reduced row echelon basis of
    the z among zero rows; placing it on the free columns keeps that form.
    Only the columns of C that are nonzero mod p for some state of the batch
    are passed on: a column that is zero for every state constrains no z,
    so every kernel is unchanged. At T = 0 (every block of level 1) that
    drops the whole T part, leaving the k pairing constraints.

    The zero state (k = 0) has no pivots and no pairing conditions, so its
    kernel is ker T, which is read in closed form, with no elimination.
    T x = x A, and each row of A is zero or a unit vector, distinct from
    every other: T shifts each generator slice by one coordinate. So x A = 0
    exactly when x vanishes on every column whose row of A is nonzero, and
    ker T is spanned by the unit vectors e_c at the columns c whose row of A
    is zero, the last coordinate of each slice. Those unit vectors, in
    increasing column order, are its reduced row echelon basis; e_c is
    placed in row c, so the nonzero rows are that basis, in order.
    """
    p = shape.p
    action = t_action_matrix(shape)
    count, k, dim = bases.shape
    if k == 0:
        out = np.zeros((count, dim, dim), dtype=np.int64)
        units = np.flatnonzero(~action.any(axis=1))
        out[:, units, units] = 1
        return out
    every = np.arange(count)[:, None]
    is_free = np.ones((count, dim), dtype=bool)
    is_free[every, pivots] = False
    free = np.nonzero(is_free)[1].reshape(count, dim - k)
    # only the free rows of C are formed, reduced so that zero columns show
    constraints = np.concatenate(
        [
            action[free] - action[free[:, :, None], pivots[:, None, :]] @ bases,
            gram_matrix(shape)[free] @ bases.transpose(0, 2, 1),
        ],
        axis=2,
    )
    constraints %= p
    constraints = constraints[:, :, constraints.any(axis=(0, 1))]
    kernels = linalg.nullspace_stack(constraints.transpose(0, 2, 1), p)
    out = np.zeros((count, dim - k, dim), dtype=np.int64)
    out[every, :, free] = kernels.transpose(0, 2, 1)
    return out


def _children(
    shape: SpaceShape, bases: np.ndarray, pivots: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The children of a batch of states of one dimension k, as the bases
    (M, k + 1, dim) and pivots (M, k + 1) of their echelon bases
    [w; state's basis], in state order (see enumerate_maximal_isotropic).

    Read per kernel row of _socle_kernels, a state's run is its nonzero rows
    that lead in [half - k - 1, first pivot) (the first pivot of the zero
    state is dim). The children of a state are the spans [w; state's basis]
    for w = row i of the run plus any combination sum_{j=1..m} c_j row_{i+j}
    of the m nonzero rows after it, so row i has p^m children, by run row
    and then with c in itertools.product order: child t of row i's block
    has c_j = digit j of t in base p, most significant first, that is
    t // p^(m-j) % p. Each state's nonzero rows are stable-sorted to the
    front, so row i + j is the j-th nonzero row after row i, and the
    children of the whole batch are built at once, one pass per digit
    position (at most dim). _batches admits only p^dim <=
    MAX_SUBSPACE_VECTORS, so p^m and t fit in int64.

    Before they are used the kernels are checked, else InvariantError:
    every row of a run must lead with a 1, and every nonzero row from a
    run's first row on must vanish on its state's pivots. By _socle_kernels'
    contract the nonzero rows lead at strictly increasing columns, and under
    that premise this check fails exactly when some child would fail the
    check on the children themselves: w leads with a 1 before the state's
    first pivot and vanishes on its pivots, so that [w; state's basis] is in
    reduced row echelon form.
    - The rows after row i lead after it, so they vanish on its leading
      column, and every w of row i leads where row i does, before the first
      pivot by the run's definition, with row i's leading entry. So every w
      leads with a 1 exactly when every run row does.
    - Every w of every run row vanishes on the pivots exactly when every
      nonzero row from the run's first row i on does: c = 0 gives row i, c =
      e_j gives row i + row j and so row j, and sums of vanishing rows
      vanish.
    A state with an empty run has no children, and none of its rows is
    checked.
    """
    p, dim = shape.p, shape.dim
    count, k = pivots.shape
    kernels = _socle_kernels(shape, bases, pivots)
    kept = kernels.any(axis=2)
    leads = np.argmax(kernels != 0, axis=2)
    firsts = pivots[:, :1] if k else np.full((count, 1), dim)
    run = kept & (leads >= dim // 2 - k - 1) & (leads < firsts)
    every = np.arange(count)[:, None]
    leading = kernels[every, np.arange(kernels.shape[1]), leads]
    on_pivots = kernels[every, :, pivots].any(axis=1)
    reached = np.cumsum(run, axis=1) > 0
    faulty = (run & (leading != 1)) | (reached & on_pivots)
    if faulty.any():
        first = firsts[np.argmax(faulty.any(axis=1)), 0]
        raise InvariantError(
            f"socle extension of a dimension-{k} state (torsion "
            f"levels {shape.torsion_levels}) by a vector without a leading "
            f"1 before its first pivot {first} or zeros on its pivots",
            p=shape.p, n=shape.rank_level,
        )
    order = np.argsort(~kept, axis=1, kind="stable")
    rows = kernels[every, order]
    state, row = np.nonzero(run[every, order])
    last = kept.sum(axis=1)[state] - 1
    sizes = p ** (last - row)
    block = np.repeat(np.arange(len(row)), sizes)
    t = np.arange(len(block)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    state, row, last = state[block], row[block], last[block]
    w = rows[state, row]
    # digit j of t, most significant first, is digit e = m - j, least
    # significant first, and weighs row i + j = last - e; for e >= m the
    # digit of t < p^m is 0, whatever row last - e names
    for e in range(int((last - row).max(initial=0))):
        w += (t // p**e % p)[:, None] * rows[state, last - e]
    w %= p
    child_bases = np.concatenate([w[:, None, :], bases[state]], axis=1)
    child_pivots = np.concatenate([leads[run][block][:, None], pivots[state]], axis=1)
    return child_bases, child_pivots


def _batches(shape: SpaceShape):
    """The search's states of half dimension, its T-stable Lagrangians, as
    batches (bases, pivots) in depth-first order; ResourceBoundError unless
    p^dim is at most MAX_SUBSPACE_VECTORS (see enumerate_maximal_isotropic).
    The search starts from the zero state and pushes every batch's children
    in batches of SEARCH_CELLS // (k * dim) states of dimension k, one at
    least, so that no pushed batch holds more than SEARCH_CELLS cells unless
    it is a single state."""
    _check_vector_count(shape.p, shape.dim)
    half = shape.dim // 2

    def split(bases, pivots):
        step = max(1, SEARCH_CELLS // (pivots.shape[1] * shape.dim))
        return [
            (bases[start : start + step], pivots[start : start + step])
            for start in range(0, len(bases), step)
        ]

    stack = [(np.zeros((1, 0, shape.dim), dtype=np.int64), np.zeros((1, 0), dtype=np.int64))]
    while stack:
        bases, pivots = stack.pop()
        if pivots.shape[1] == half:
            yield bases, pivots
        else:
            stack.extend(split(*_children(shape, bases, pivots)))


def enumerate_maximal_isotropic(shape: SpaceShape):
    """All maximal isotropic T-stable subspaces, each with whether it splits,
    sorted by key.

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

    States are held as arrays, never as FpSubspace objects: a batch is an
    (N, k, dim) int64 array of echelon bases and an (N, k) array of their
    pivots, all of one dimension k. A popped batch gets its kernels from one
    stacked elimination (_socle_kernels), except the zero state, whose
    kernel is ker T, read in closed form, with no elimination; its children
    are built as one array of [w; P's basis] rows (_children) and pushed in
    batches of at most SEARCH_CELLS cells (states x rows x dim), so at each
    dimension the stack holds at most the children of one batch, never a
    whole level (_batches). The search's one outlet is its batches of half
    dimension: here they go to a compact result store, in the smallest
    unsigned dtypes that hold their entries and pivots, and _search_count
    sums their sizes and drops them.

    States of half dimension equal their own complement, hence are maximal.
    The store is sorted once, by its rows' bytes, which orders them as
    FpSubspace.key does (each entry's bytes are those of its int64 key
    padded with the same zero bytes). An FpSubspace with its int64 basis is
    made only as each result is yielded, with the splits of all results
    read at once (see _splits). Cost is proportional to
    the number of T-stable isotropic subspaces that can still reach half
    dimension, which is why p^dim is bounded by MAX_SUBSPACE_VECTORS (so
    dim <= 12, as p >= 3); that also bounds the p^m children built for a
    kernel row with m rows after it.
    """
    check_type(shape, SpaceShape)
    entry = np.min_scalar_type(shape.p - 1)
    column = np.min_scalar_type(shape.dim - 1)
    found_bases, found_pivots = [], []
    for bases, pivots in _batches(shape):
        found_bases.append(bases.astype(entry))
        found_pivots.append(pivots.astype(column))
    # the span of the u coordinates is a T-stable Lagrangian, so found_* are
    # never empty
    bases, pivots = np.concatenate(found_bases), np.concatenate(found_pivots)
    del found_bases, found_pivots
    rows = bases.reshape(len(bases), -1)
    order = np.argsort(rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))[:, 0])
    bases, pivots = bases[order], pivots[order]
    for basis, piv, split in zip(bases, pivots, _splits(shape, bases, pivots).tolist()):
        sub = FpSubspace._from_rref(shape, basis.astype(np.int64), tuple(piv.tolist()))
        yield MaximalIsotropic(sub, split)


def count_maximal_isotropic(shape: SpaceShape) -> tuple[int, int]:
    """(results, splits): the number of maximal isotropic T-stable subspaces
    and of those that split, equal to len(reports) and
    sum(r.splits for r in reports) for the reports of
    enumerate_maximal_isotropic(shape), under the same MAX_SUBSPACE_VECTORS
    bound (ResourceBoundError above it). No result is stored and no
    FpSubspace is made.

    results is _lagrangian_count(shape). At every shape, with n the rank
    level, h = (n + 1) / 2 and S the torsion blocks (a shape whose rank
    block is the first torsion block),

        splits = F(n) * N(S),  F(n) = (p + 1) * p^(h - 1),

    where N(S) = _lagrangian_count(S) counts the T-stable Lagrangians of S,
    and N(S) = 1 when there are no torsion blocks. The full shape is counted
    first, so its bound is checked before S, which is smaller, is counted.

    Let R be the rank block, so R and S are orthogonal and V = R + S. By
    _splits, a T-stable Lagrangian L splits iff d = n and M = L meet R is
    cyclic, and then L = M + (L meet S) with M cyclic of dimension n:
    M is free of rank one over Lambda = F_p[T]/(T^n), isotropic and
    T-stable in R, of half R's dimension, so a free T-stable Lagrangian of
    R, and L meet S is isotropic, T-stable and of half S's dimension, so a
    T-stable Lagrangian of S. Conversely, for a free T-stable Lagrangian M
    of R and a T-stable Lagrangian N of S, L = M + N is T-stable, isotropic
    (R is orthogonal to S) and of half dimension, with L meet R = M and
    L meet S = N, so d = n and L splits. Hence the split Lagrangians are
    these sums, one for each pair (M, N), and there are F(n) * N(S).

    F(n) counts the free T-stable Lagrangians Lambda w of R, w = (a, b) not
    in T R. eps(x inv(y)) is a nondegenerate form on Lambda, the group ring
    of the cyclic group of order n generated by g = 1 + T, so Lambda w is
    isotropic iff a inv(b) is fixed by inv. If a is a unit, Lambda w =
    Lambda (1, c) for the one c = b / a, isotropic iff inv(c) = c; inv
    fixes the span of g^k + g^(-k), k = 0..(n - 1)/2 (n is odd), so there
    are p^h such c. Otherwise b is a unit, and Lambda w = Lambda (T e, 1)
    for the one T e = a / b in T Lambda, isotropic iff inv(T e) = T e; the
    augmentation (the value at T = 0) commutes with inv and maps the fixed
    elements onto F_p, so p^(h - 1) of them lie in T Lambda. Only a module
    of the first kind holds a vector whose u coordinate is a unit, so
    F(n) = p^h + p^(h - 1) = (p + 1) * p^((n - 1)/2). That is the census
    of maximal cyclic submodules at level h, so F(n) is read from
    submodules.count_maximal(p, h): on an echelon basis of the fixed
    elements, one of valuation 0 and h - 1 in T Lambda, the h coordinates of
    c are the digits of a kind-A form at level h, and the h - 1 coordinates
    of T e those of a kind-B form. At T = 0, with g blocks of level 1, this
    reads splits = (p + 1) * prod_{i=1..g-1} (p^i + 1).
    """
    check_type(shape, SpaceShape)
    p, levels = shape.p, shape.torsion_levels
    results = _lagrangian_count(shape)
    torsion = _lagrangian_count(SpaceShape(p, levels[0], levels[1:])) if levels else 1
    return results, count_maximal(p, (shape.rank_level + 1) // 2) * torsion


def _lagrangian_count(shape: SpaceShape) -> int:
    """The number of T-stable Lagrangians, under the MAX_SUBSPACE_VECTORS
    bound (ResourceBoundError above it). Where T acts, this is
    _search_count. At T = 0, when every block has level 1 and dim = 2g for
    g = shape.num_blocks, it is the closed form prod_{i=1..g} (p^i + 1),
    with no search: every subspace is T-stable, so these are all the
    Lagrangians of a 2g-dimensional symplectic GF(p)-space."""
    p, g = shape.p, shape.num_blocks
    if shape.dim != 2 * g:
        return _search_count(shape)
    _check_vector_count(p, shape.dim)
    return prod(p**i + 1 for i in range(1, g + 1))


def _search_count(shape: SpaceShape) -> int:
    """The number of T-stable Lagrangians, by the search, at any shape: it
    runs the search that enumerate_maximal_isotropic runs and sums the sizes
    of its batches; no result is stored and no FpSubspace is made. It serves
    the shapes where T acts, and is the oracle of the T = 0 closed form."""
    return sum(len(bases) for bases, _ in _batches(shape))
