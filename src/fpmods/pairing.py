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

The decomposition diagnostics of the Lagrangians found are computed in
chunks of DIAGNOSTICS_CHUNK results, by two stacked eliminations per chunk
(linalg.rref_stack) rather than scalar eliminations per result;
isotropic_diagnostics runs the same code on a chunk of one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import InvariantError, ResourceBoundError
from .series import TruncatedSeries, check_level, check_prime, is_power_of

MAX_TOTAL_DIM = 4096
MAX_ENUM_DIM = 12
MAX_SUBSPACE_VECTORS = 2_000_000
# Lagrangians per stacked diagnostics elimination; bounds the stacks' memory
DIAGNOSTICS_CHUNK = 4096


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
        self._assign(shape, reduced[: len(pivots)], pivots)

    def _assign(self, shape: SpaceShape, basis: np.ndarray, pivots: tuple[int, ...]):
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "_t_stable", None)
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


def isotropic_diagnostics(sub: FpSubspace) -> MaximalIsotropic:
    """Decomposition diagnostics of an isotropic T-stable subspace."""
    return _diagnostics_chunk([sub])[0]


def _diagnostics_chunk(subs: list[FpSubspace]) -> list[MaximalIsotropic]:
    """isotropic_diagnostics of subspaces of one shape and one dimension,
    from two stacked eliminations.

    The rank columns come first, so in the reduced row echelon basis the
    rows led by a rank column, the rows nonzero on the rank columns, project
    to a basis of the rank-block projection, and the other rows span the
    torsion part (the members that vanish on the rank columns). Eliminating
    again with the torsion columns first gives the rank part the same way:
    the rows led by a rank column. T maps the rank block into itself, so
    the rank part needs len(rank part) - rank(T * rank part) generators;
    the second elimination runs on the rank parts with their other rows
    zeroed, which leaves those ranks unchanged.
    """
    shape = subs[0].shape
    p = shape.p
    r = shape.rank_dim
    bases = np.stack([sub.basis for sub in subs])
    proj_dims = bases[:, :, :r].any(axis=2).sum(axis=1)
    reordered, pivots = linalg.rref_stack(
        np.concatenate([bases[:, :, r:], bases[:, :, :r]], axis=2), p
    )
    led_by_rank = pivots >= shape.dim - r
    rank_parts = reordered[:, :, shape.dim - r :] * led_by_rank[:, :, None]
    shifted = rank_parts @ t_action_matrix(shape)[:r, :r] % p
    rank_dims = led_by_rank.sum(axis=1)
    generators_needed = rank_dims - (linalg.rref_stack(shifted, p)[1] >= 0).sum(axis=1)
    out = []
    for sub, proj_dim, rank_dim, needed in zip(
        subs, proj_dims.tolist(), rank_dims.tolist(), generators_needed.tolist()
    ):
        torsion_dim = sub.dim - proj_dim
        cyclic = needed <= 1
        out.append(
            MaximalIsotropic(
                subspace=sub,
                rank_projection_dim=proj_dim,
                rank_intersection_dim=rank_dim,
                torsion_intersection_dim=torsion_dim,
                rank_intersection_cyclic=cyclic,
                splits=(
                    rank_dim + torsion_dim == sub.dim
                    and rank_dim == shape.rank_level
                    and cyclic
                ),
            )
        )
    return out


@lru_cache(maxsize=None)
def _coefficients(p: int, count: int) -> np.ndarray:
    """Every coefficient vector in GF(p)^count, one per row, lexicographic."""
    out = np.array(list(itertools.product(range(p), repeat=count)), dtype=np.int64)
    out.setflags(write=False)
    return out


def _socle_kernel(shape: SpaceShape, state: FpSubspace) -> np.ndarray:
    """Reduced-row-echelon basis of the w that vanish on the state's pivot
    columns, are orthogonal to the state and have T w in the state.

    w is unknown only on the free (non-pivot) columns, and T w = w A lies in
    the state P exactly when w A equals (w A)[pivots] P, so the conditions
    are z C = 0 for z = w[free] and C = [A - A[:, pivots] P | G P^T][free].
    The kernel comes from one elimination of C^T with its columns reversed:
    linalg.nullspace returns one row per free column f, with a 1 at f, zeros
    at the other free columns and entries only at pivot columns before f,
    so reversing the columns back (and the rows) gives the reduced row
    echelon form of the kernel, led by the former free columns.
    """
    p = shape.p
    action = t_action_matrix(shape)
    pivots = list(state.pivots)
    free = [c for c in range(shape.dim) if c not in state.pivots]
    shifted = (action - action[:, pivots] @ state.basis) % p
    paired = linalg.matmul(gram_matrix(shape), state.basis.T, p)
    constraints = np.hstack([shifted, paired])[free]
    kernel = linalg.nullspace(constraints.T[:, ::-1], p)[::-1, ::-1]
    out = np.zeros((len(kernel), shape.dim), dtype=np.int64)
    out[:, free] = kernel
    return out


def enumerate_maximal_isotropic(shape: SpaceShape):
    """All maximal isotropic T-stable subspaces, with diagnostics, sorted by
    key.

    Orderly generation (see the module docstring): each T-stable isotropic
    subspace M is built once, from its parent P, the span of all but the
    first row r_1 of M's reduced row echelon basis. T strictly raises the
    leading column of a vector, so P is T-stable and T r_1 lies in P.

    The children of a state P are the spans of P and w for each w in the
    kernel of _socle_kernel (orthogonal to P, T w in P, zero on P's pivots)
    whose leading entry is a 1 in a column q before P's first pivot: the
    child is isotropic because the skew form is alternating in odd
    characteristic, T-stable because T w lies in P, and [w; P's basis] is
    already its reduced row echelon basis, so distinct w give distinct
    children and no child needs elimination. Such w are one row of the
    kernel's echelon basis with pivot q, plus any combination of the kernel
    rows after it. A child with j rows and first pivot q can reach half
    dimension only if q >= half - j, since its descendants add rows with
    pivots before q; other children are not built.

    States of half dimension equal their own complement, hence are maximal.
    They are sorted by key, and their diagnostics are computed in chunks of
    DIAGNOSTICS_CHUNK by stacked elimination (see _diagnostics_chunk), each
    chunk before its results are yielded; the chunks bound the stacks'
    memory.
    Cost is proportional to the number of T-stable isotropic subspaces that
    can still reach half dimension, which is why the total dimension is
    capped; p^dim is bounded by MAX_SUBSPACE_VECTORS, which also bounds the
    p^m combinations listed for a kernel row with m rows after it.
    """
    if shape.dim > MAX_ENUM_DIM:
        raise ResourceBoundError(
            f"total dimension {shape.dim} exceeds the enumeration bound {MAX_ENUM_DIM}"
        )
    p = shape.p
    if p**shape.dim > MAX_SUBSPACE_VECTORS:
        raise ResourceBoundError(
            f"p^dim = {p ** shape.dim} member vectors exceed {MAX_SUBSPACE_VECTORS}"
        )
    half = shape.dim // 2

    stack = [FpSubspace(shape)]
    found: list[FpSubspace] = []
    while stack:
        state = stack.pop()
        if state.dim == half:
            found.append(state)
            continue
        first = state.pivots[0] if state.dim else shape.dim
        lowest = half - state.dim - 1
        kernel = _socle_kernel(shape, state)
        leads = np.argmax(kernel != 0, axis=1)
        for i in np.flatnonzero((leads >= lowest) & (leads < first)):
            later = kernel[i + 1 :]
            children = (kernel[i] + _coefficients(p, len(later)) @ later) % p
            lead = np.argmax(children != 0, axis=1)
            echelon = (
                (lead < first)
                & (children[np.arange(len(children)), lead] == 1)
                & ~children[:, list(state.pivots)].any(axis=1)
            )
            if not echelon.all():
                raise InvariantError(
                    f"socle extension of a dimension-{state.dim} state by a vector "
                    f"without a leading 1 before its first pivot {first} or zeros "
                    f"on its pivots",
                    p=p, n=shape.rank_level,
                )
            pivots = (int(leads[i]), *state.pivots)
            for w in children:
                stack.append(
                    FpSubspace._from_rref(shape, np.vstack([w, state.basis]), pivots)
                )
    found.sort(key=FpSubspace.key)
    for start in range(0, len(found), DIAGNOSTICS_CHUNK):
        yield from _diagnostics_chunk(found[start : start + DIAGNOSTICS_CHUNK])
