"""Dense linear algebra over the prime fields GF(p).

Matrices are numpy int64 arrays with entries reduced mod p, and subspaces are
row spans. Elimination keeps everything in exact integer arithmetic.

Input matrices are read through `_entries`, the one integer check, so
floats raise `ValueError` rather than being truncated. `rref` reduces one
matrix and serves `nullspace`, the subspace code and the tests as the
reference; the nonzero rows of its result are the row space's one canonical
basis, and `nullspace` returns the kernel's, its reduced row echelon form.
`rref_stack` reduces a whole (N, rows, cols) stack at once, with each matrix
pivoting on its own. Both take the pivot step that
`rref_stack` describes, with one inverse table per prime built by Fermat's
little theorem, the library's only modular inverse. The table has p
entries, so p should be one of the library's small primes. `reduce_rows` is
the one reduction against an rref basis, which it takes as given: exactly
the nonzero rows of an rref with the given pivot columns. It is also the one
membership test: a row lies in the span exactly when its residual is zero.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _entries(rows, p: int) -> np.ndarray:
    """rows as an int64 array of the same shape, reduced mod p before the
    cast; ValueError unless the entries are integers (empty input passes)."""
    a = np.asarray(rows)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"matrix entries must be integers, got dtype {a.dtype}")
    return (a % p).astype(np.int64, copy=False)


def as_matrix(rows, p: int, width: int | None = None) -> np.ndarray:
    """Coerce integer entries to a 2-d int64 array reduced mod p; a vector is
    one row, and empty input needs a width."""
    a = _entries(rows, p)
    if a.size == 0:
        if width is None:
            raise ValueError("empty matrix needs an explicit width")
        return np.zeros((0, width), dtype=np.int64)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    return a


@lru_cache(maxsize=None)
def _inverse_table(p: int) -> np.ndarray:
    """inv[a] = a^(-1) mod p for a in [1, p), and inv[0] = 0."""
    table = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=np.int64)
    table.setflags(write=False)
    return table


def rref(mat, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form over GF(p). Returns (R, pivot_columns)."""
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
    One pass over the columns serves all matrices. In each column every
    matrix that still has a nonzero entry at or below its next pivot row
    swaps its first such row up, scales it by an inverse-table entry and
    clears the column elsewhere; the other matrices get a pivot row of
    zeros, so the broadcast elimination leaves them unchanged.
    """
    a = _entries(stack, p)
    if a.ndim != 3:
        raise ValueError("stack must be 3-dimensional")
    count, nrows, ncols = a.shape
    pivots = np.full((count, nrows), -1, dtype=np.int64)
    if count == 0 or nrows == 0:
        return a, pivots
    inverses = _inverse_table(p)
    every = np.arange(count)
    row_ids = np.arange(nrows)
    r = np.zeros(count, dtype=np.int64)
    for c in range(ncols):
        below = (a[:, :, c] != 0) & (row_ids >= r[:, None])
        has = below.any(axis=1)
        if not has.any():
            continue
        # matrices without a pivot here swap row min(r, rows - 1) with itself
        top = np.minimum(r, nrows - 1)
        lead = np.where(has, below.argmax(axis=1), top)
        chosen = a[every, lead]
        a[every, lead] = a[every, top]
        pivot_row = chosen * (inverses[chosen[:, c]] * has)[:, None] % p
        # clears column c in every row, the pivot row included, then puts
        # the scaled pivot row back
        a[every, top] = chosen
        a -= a[:, :, c, None] * pivot_row[:, None, :]
        a %= p
        a[every, top] += pivot_row
        pivots[every[has], r[has]] = c
        r += has
        if (r == nrows).all():
            break
    return a, pivots


def rank(mat, p: int) -> int:
    return len(rref(mat, p)[1])


def nullspace(mat, p: int) -> np.ndarray:
    """The reduced row echelon basis of the kernel {x : mat @ x == 0 mod p}.

    With mat's columns reversed, each free column f of its rref gives a
    kernel row with a 1 at f, zeros at the other free columns and entries
    only at pivot columns before f. Flipping columns and rows back leads
    each row with its 1, at a free column zero in every other row, in
    increasing column order. A vector is read as one row.
    """
    a = as_matrix(mat, p, width=np.shape(mat)[-1])
    r, piv = rref(a[:, ::-1], p)
    ncols = a.shape[1]
    pivot_set = set(piv)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for i, c in enumerate(free):
        basis[i, c] = 1
        for row, pc in enumerate(piv):
            basis[i, pc] = (-int(r[row, c])) % p
    return basis[::-1, ::-1]


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


def nilpotent_block_sizes(a: np.ndarray, p: int) -> tuple[int, ...]:
    """Jordan block sizes of a nilpotent matrix over GF(p), descending.

    Uses the rank sequence: blocks of size >= k number rank(a^(k-1)) - rank(a^k).
    """
    dim = a.shape[0]
    ranks = [dim]
    power = a % p
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
