"""Dense linear algebra over the prime fields GF(p).

Matrices are numpy int64 arrays with entries reduced mod p, and subspaces are
row spans. Elimination keeps everything in exact integer arithmetic.

Input matrices are read through `_entries`, the one integer check, so
floats raise `ValueError` rather than being truncated. `rref` reduces one
matrix and serves the subspace code and the tests as the reference; the
nonzero rows of its result are the row space's one canonical basis.
`rref_stack` reduces a whole (N, rows, cols) stack at once, with each matrix
pivoting on its own, and returns exactly `rref`'s result for each. It works
column-major and lazily, and its docstring proves the three facts that make
that exact:
- a step at column c changes only columns >= c, because its pivot row is
  zero mod p left of c;
- entries reduced only in the pivoted column and the pivot row stay below
  p + cols * p^2 in absolute value, so int64 holds them for the library's
  small primes;
- rows need no swaps: ordering them once at the end by their pivot columns
  puts them where `rref` puts them, since the rows without a pivot are zero.
`nullspace_stack` reads the kernel of every matrix of a stack off one such
elimination, in its reduced row echelon form; the isotropic search reads
the socle kernels of a batch of states off it, and `nullspace`, its
one-matrix case, serves `FpSubspace.orthogonal_complement` and the tests.
Both eliminations invert pivots with one inverse table per modulus built by
Fermat's little theorem, the library's only modular inverse. The modulus
is checked before its table is built: one that is not an odd prime up to
`series.MAX_PRIME`, the library's primes, raises `ValueError`
instead of eliminating with wrong inverses or overflowing, or of building
a table of p entries for a large p. `reduce_rows` is
the one reduction against an rref basis, which it takes as given: exactly
the nonzero rows of an rref with the given pivot columns. It is also the one
membership test: a row lies in the span exactly when its residual is zero.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .series import _ODD_PRIMES


def _entries(rows, p: int) -> np.ndarray:
    """rows as an int64 array of the same shape, reduced mod p before the
    cast; ValueError unless the entries are integers (empty input passes)."""
    a = np.asarray(rows)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"matrix entries must be integers, got dtype {a.dtype}")
    return (a % p).astype(np.int64, copy=False)


def as_matrix(rows, p: int, width: int | None = None) -> np.ndarray:
    """Coerce integer entries to a 2-d int64 array reduced mod p; a vector is
    one row. Empty 2-d input keeps its own width; other empty input needs one."""
    a = _entries(rows, p)
    if a.size == 0:
        if a.ndim == 2:
            width = a.shape[1]
        elif width is None:
            raise ValueError("empty matrix needs an explicit width")
        return np.zeros((0, width), dtype=np.int64)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    return a


@lru_cache(maxsize=None)
def _inverse_table(p: int) -> np.ndarray:
    """inv[a] = a^(-1) mod p for a in [1, p), and inv[0] = 0; ValueError,
    before any table is built, unless p is one of the library's primes, the
    odd primes up to series.MAX_PRIME, a range that rref_stack's int64 bound
    covers."""
    if p not in _ODD_PRIMES:
        raise ValueError(f"elimination needs a prime modulus, got {p}")
    table = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=np.int64)
    table.setflags(write=False)
    return table


def rref(mat, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form over GF(p). Returns (R, pivot_columns).

    Column by column, with r the next pivot row: the first row at or below r
    that is nonzero in column c is scaled by the inverse of that entry, row
    r moves into its place, one outer product clears column c in every row
    nonzero there, and the scaled row is written at r.
    """
    a = _entries(mat, p)
    nrows, ncols = a.shape
    inverses = _inverse_table(p)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        pivot_row = a[k] * inverses[a[k, c]] % p
        a[k] = a[r]
        # clears column c in every row nonzero there, row r included when
        # k == r, then writes the scaled pivot row at r
        rest = np.nonzero(a[:, c])[0]
        a[rest] = (a[rest] - np.outer(a[rest, c], pivot_row)) % p
        a[r] = pivot_row
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def rref_stack(stack, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of every matrix of an (N, rows, cols) stack.

    Returns (R, pivots): R[k] equals rref(stack[k], p)[0], and pivots[k] is
    an int64 row of length rows holding rref(stack[k], p)[1] padded with -1.
    One pass over the columns serves all matrices, on a column-major copy.
    At column c the column is reduced mod p, and every matrix with a nonzero
    entry there in a row that has no pivot yet takes the first such row as
    its pivot row: the row is scaled by an inverse-table entry and reduced,
    and every row i loses it times f_i, the column's entry in row i less 1
    in the pivot row. That leaves the column zero but for a 1 in the pivot
    row, and the pivot row equal to its scaled self mod p. The other
    matrices get a pivot row of zeros, which changes nothing.
    - Only columns >= c are updated. A row without a pivot is zero mod p in
      every earlier column: a pivot step cleared it there, or no such row
      was nonzero there. So the pivot row's earlier entries are multiples of
      p, and the update they would add is zero mod p.
    - Entries stay below p + cols * p^2 in absolute value. They start in
      [0, p); a step adds at most (p - 1)^2 to an entry, since f_i lies in
      [0, p - 1) at the pivot row and in [0, p) elsewhere and the scaled row
      is reduced; and an entry is updated only by the steps at or before its
      column. Everything is reduced once at the end.
    - No rows are swapped. Each pivot row records its column, and one
      stable sort by that column puts the pivot rows first, in the order in
      which rref moves them to the top. rref's rows without a pivot are
      zero, and so are these, so their order does not matter.
    """
    a = _entries(stack, p)
    if a.ndim != 3:
        raise ValueError("stack must be 3-dimensional")
    count, nrows, ncols = a.shape
    inverses = _inverse_table(p)
    if count == 0 or nrows == 0:
        return a, np.full((count, nrows), -1, dtype=np.int64)
    # b[k, c] is column c of the k-th matrix
    b = np.ascontiguousarray(a.transpose(0, 2, 1))
    del a
    every = np.arange(count)
    pivot_of = np.full((count, nrows), ncols, dtype=np.int64)
    left = count * nrows
    for c in range(ncols):
        column = b[:, c]
        column %= p
        candidates = (column != 0) & (pivot_of == ncols)
        has = candidates.any(axis=1)
        if not has.any():
            continue
        lead = candidates.argmax(axis=1)
        pivot_row = b[every, c:, lead]
        pivot_row *= (inverses[column[every, lead]] * has)[:, None]
        pivot_row %= p
        factor = column.copy()
        factor[every, lead] -= has
        b[:, c:] -= pivot_row[:, :, None] * factor[:, None, :]
        chosen = np.flatnonzero(has)
        pivot_of[chosen, lead[chosen]] = c
        left -= len(chosen)
        if left == 0:
            break
    order = np.argsort(pivot_of, axis=1, kind="stable")
    pivot_of.sort(axis=1)
    pivot_of[pivot_of == ncols] = -1
    reduced = b.transpose(0, 2, 1)[every[:, None], order]
    reduced %= p
    return reduced, pivot_of


def rank(mat, p: int) -> int:
    return len(rref(mat, p)[1])


def nullspace_stack(stack, p: int) -> np.ndarray:
    """The kernel {x : mat @ x == 0 mod p} of every matrix of an (N, rows,
    cols) stack, as an (N, cols, cols) array: the nonzero rows of its k-th
    matrix, in order, are the reduced row echelon basis of stack[k]'s
    kernel, and its other rows are zero.

    With a matrix's columns reversed, each free column f of its rref R gives
    a kernel row with a 1 at f, zeros at the other free columns and -R[i, f]
    at the pivot column of each row i. Once R's rows are moved to the rows
    named by their pivot columns, row f of I - R^T is that kernel row, and
    the row of a pivot column is zero, since R is the identity on its pivot
    columns. Flipping columns and rows back leads each kernel row with its
    1, at a free column zero in every other row, in increasing column order.
    """
    a = np.asarray(stack)
    if a.ndim != 3:
        raise ValueError("stack must be 3-dimensional")
    count, _, ncols = a.shape
    reduced, pivots = rref_stack(a[:, :, ::-1], p)
    # rows of R without a pivot (column -1) land on the spare last row
    placed = np.zeros((count, ncols + 1, ncols), dtype=np.int64)
    placed[np.arange(count)[:, None], pivots] = reduced
    kernels = (np.eye(ncols, dtype=np.int64) - placed[:, :-1].transpose(0, 2, 1)) % p
    return kernels[:, ::-1, ::-1]


def nullspace(mat, p: int) -> np.ndarray:
    """The reduced row echelon basis of the kernel {x : mat @ x == 0 mod p}:
    nullspace_stack's one-matrix case. A vector is read as one row."""
    a = as_matrix(mat, p, width=np.shape(mat)[-1])
    kernel = nullspace_stack(a[None], p)[0]
    return kernel[kernel.any(axis=1)]


def reduce_rows(basis_rref: np.ndarray, pivots, rows, p: int) -> np.ndarray:
    """Residuals of rows, one vector or a 2-d stack, after elimination
    against basis_rref: exactly the len(pivots) nonzero rows of an rref with
    those pivot columns. That basis is the identity on its pivot columns, so
    one elimination step leaves the other pivot entries alone and the
    sequential elimination equals the single product below. The input is
    reduced first, so unreduced entries cannot overflow the product."""
    v = _entries(rows, p)
    return (v - v[..., list(pivots)] @ basis_rref) % p


def matmul(a, b, p: int) -> np.ndarray:
    return (_entries(a, p) @ _entries(b, p)) % p


def nilpotent_block_sizes(a, p: int) -> tuple[int, ...]:
    """Jordan block sizes of a nilpotent matrix over GF(p), descending;
    ValueError unless a, read through as_matrix, is square and nilpotent
    (empty input is the 0 x 0 matrix).

    Uses the rank sequence: blocks of size >= k number rank(a^(k-1)) - rank(a^k).
    """
    a = as_matrix(a, p, width=0)
    dim = a.shape[0]
    if a.shape[1] != dim:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    ranks = [dim]
    power = a
    while ranks[-1] > 0:
        ranks.append(rank(power, p))
        if len(ranks) > dim + 1:
            raise ValueError("matrix is not nilpotent")
        power = matmul(power, a, p)
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    at_least.append(0)
    sizes: list[int] = []
    for k in range(len(at_least) - 1, 0, -1):
        sizes.extend([k] * (at_least[k - 1] - at_least[k]))
    return tuple(sizes)
