import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmods import linalg
from fpmods.series import _ODD_PRIMES


def naive_rank(mat, p):
    """Rank by enumerating row-space combinations; tiny matrices only."""
    import itertools

    rows = [tuple(r % p) for r in np.atleast_2d(np.asarray(mat, dtype=np.int64))]
    span = set()
    for combo in itertools.product(range(p), repeat=len(rows)):
        vec = tuple(
            sum(c * r[j] for c, r in zip(combo, rows)) % p for j in range(len(rows[0]))
        )
        span.add(vec)
    size = len(span)
    k = 0
    while p**k < size:
        k += 1
    return k


def test_rref_reproduces_row_space():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = int(rng.choice([3, 5, 7]))
        mat = rng.integers(0, p, size=(3, 4))
        r, piv = linalg.rref(mat, p)
        assert linalg.rank(mat, p) == naive_rank(mat, p)
        assert len(piv) == linalg.rank(mat, p)
        # pivot columns are unit columns
        for row, c in enumerate(piv):
            col = r[:, c]
            assert col[row] == 1 and (np.delete(col, row) == 0).all()


def test_rref_idempotent_and_canonical():
    rng = np.random.default_rng(2)
    for _ in range(30):
        p = 5
        mat = rng.integers(0, p, size=(4, 5))
        reduced, piv = linalg.rref(mat, p)
        again, again_piv = linalg.rref(reduced, p)
        assert (reduced == again).all() and again_piv == piv
        # shuffling rows does not change the canonical basis
        perm = rng.permutation(mat.shape[0])
        shuffled, shuffled_piv = linalg.rref(mat[perm], p)
        assert (shuffled == reduced).all() and shuffled_piv == piv


def test_nullspace_annihilates_and_has_complementary_dim():
    rng = np.random.default_rng(3)
    for _ in range(40):
        p = int(rng.choice([3, 5]))
        mat = rng.integers(0, p, size=(3, 6))
        ns = linalg.nullspace(mat, p)
        assert ns.shape[0] == 6 - linalg.rank(mat, p)
        assert not ((mat @ ns.T) % p).any()
        assert linalg.rank(ns, p) == ns.shape[0]


def test_nullspace_of_empty_constraints_is_everything():
    empty = np.zeros((0, 4), dtype=np.int64)
    ns = linalg.nullspace(empty, 3)
    assert ns.shape == (4, 4)
    assert linalg.rank(ns, 3) == 4


@pytest.mark.parametrize("p", [3, 5, 97])
def test_nullspace_is_the_reduced_echelon_basis_of_the_kernel(p):
    rng = np.random.default_rng(p)
    mats = [
        [[1, 1]],
        np.zeros((0, 4), dtype=np.int64),
        np.vstack([np.eye(3, dtype=np.int64), rng.integers(0, p, size=(2, 3))]),
        np.outer(rng.integers(1, p, size=3), rng.integers(0, p, size=6)),
        *(rng.integers(0, p, size=(rows, 6)) for rows in range(1, 6)),
    ]
    for mat in mats:
        mat = np.asarray(mat, dtype=np.int64)
        ns = linalg.nullspace(mat, p)
        assert ns.shape == (mat.shape[1] - linalg.rank(mat, p), mat.shape[1])
        reduced, piv = linalg.rref(ns, p)
        assert len(piv) == len(ns) and (reduced == ns).all()
        assert not (mat @ ns.T % p).any()


@pytest.mark.parametrize("p", [3, 5, 97])
def test_nullspace_stack_gives_each_matrix_its_echelon_kernel(p):
    """Every matrix of one stack, whatever its rank and pivots, gets the
    reduced row echelon basis of its own kernel among zero rows."""
    rng = np.random.default_rng(p + 1)
    stack = rng.integers(0, p, size=(12, 4, 6))
    stack[0] = 0
    stack[1, :, :2] = 0
    stack[2, 3] = (2 * stack[2, 0] + stack[2, 1]) % p
    stack[3, :, ::2] = 0
    kernels = linalg.nullspace_stack(stack, p)
    assert kernels.shape == (12, 6, 6)
    for mat, kernel in zip(stack, kernels):
        ns = kernel[kernel.any(axis=1)]
        assert len(ns) == 6 - linalg.rank(mat, p)
        reduced, piv = linalg.rref(ns, p)
        assert len(piv) == len(ns) and (reduced == ns).all()
        assert not (mat @ ns.T % p).any()
    assert linalg.nullspace_stack(np.zeros((0, 2, 5), dtype=np.int64), p).shape == (0, 5, 5)
    with pytest.raises(ValueError, match="3-dimensional"):
        linalg.nullspace_stack(stack[0], p)


def test_reduce_rows_membership():
    p = 3
    mat = np.array([[1, 0, 2], [0, 1, 1]], dtype=np.int64)
    basis, piv = linalg.rref(mat, p)
    basis = basis[: len(piv)]
    inside = (2 * mat[0] + mat[1]) % p
    outside = np.array([0, 0, 1], dtype=np.int64)
    assert not linalg.reduce_rows(basis, piv, inside, p).any()
    assert linalg.reduce_rows(basis, piv, outside, p).any()


@pytest.mark.parametrize("p", [3, 5, 97])
def test_reduce_rows_properties(p):
    """Residuals checked from the definition of reduction, by rank alone."""
    rng = np.random.default_rng(p)
    for _ in range(60):
        nrows, ncols = (int(x) for x in rng.integers(1, 7, 2))
        mat = rng.integers(0, p, (nrows, ncols))
        if nrows > 1 and rng.random() < 0.5:
            mat[-1] = 2 * mat[-2] % p  # rank-deficient input
        reduced, piv = linalg.rref(mat, p)
        basis = reduced[: len(piv)]
        combos = rng.integers(0, p, (4, len(piv)))
        members = (combos @ basis) % p
        rows = np.vstack([rng.integers(0, p, (4, ncols)), members])
        for given in (rows, rows - 3 * p, rows + 5 * p):
            residual = linalg.reduce_rows(basis, piv, given, p)
            assert residual.shape == given.shape
            assert ((residual >= 0) & (residual < p)).all()
            for row, res in zip(given % p, residual):
                assert not res[list(piv)].any()
                assert linalg.rank(np.vstack([basis, row - res]), p) == len(piv)
                inside = linalg.rank(np.vstack([basis, row]), p) == len(piv)
                assert (not res.any()) == inside
        single = linalg.reduce_rows(basis, piv, rows[0] - p, p)
        assert single.ndim == 1 and single.shape == (ncols,)
        assert not single[list(piv)].any()
        assert linalg.rank(np.vstack([basis, rows[0] - single]), p) == len(piv)
        # against the empty basis every row is its own residual
        empty = np.zeros((0, ncols), dtype=np.int64)
        assert (linalg.reduce_rows(empty, (), rows - p, p) == rows).all()
        assert (linalg.reduce_rows(empty, (), rows[0], p) == rows[0]).all()


def test_as_matrix_rejects_non_integers():
    for bad in ([[1.5, 0, 0]], [[1.0, 0, 0]], np.array([[True, False, False]])):
        with pytest.raises(ValueError):
            linalg.as_matrix(bad, 3)
    assert (linalg.as_matrix(np.array([[4, 5, 6]], dtype=np.uint8), 3) == [[1, 2, 0]]).all()
    # reduced before the cast to int64, which would wrap 2^64 - 1 to -1
    big = np.array([[2**64 - 1, 2**63]], dtype=np.uint64)
    assert (linalg.as_matrix(big, 3) == [[0, 2]]).all()
    assert linalg.as_matrix([], 3, width=2).shape == (0, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: linalg.rref([[1.5, 1]], 3),
        lambda: linalg.nullspace([[1.5, 1]], 3),
        lambda: linalg.rref_stack([[[1.5, 1]]], 3),
        lambda: linalg.reduce_rows(np.eye(2, dtype=np.int64), (0, 1), [[1.5, 1]], 3),
        lambda: linalg.matmul([[1.5, 1]], np.eye(2, dtype=np.int64), 3),
        lambda: linalg.matmul(np.eye(2, dtype=np.int64), [[1, 0], [0, 1.0]], 3),
    ],
    ids=["rref", "nullspace", "rref_stack", "reduce_rows", "matmul-left", "matmul-right"],
)
def test_every_entry_point_rejects_non_integers(call):
    # a float is never truncated to an integer
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        call()


def test_nullspace_reads_a_vector_as_one_row():
    assert linalg.nullspace([1, 1], 3).tolist() == [[1, 2]]


def test_inverse_table():
    for p in sorted(_ODD_PRIMES):
        inv = linalg._inverse_table(p)
        assert inv.shape == (p,) and inv[0] == 0
        for a in range(1, p):
            assert a * int(inv[a]) % p == 1
        assert not inv.flags.writeable
        with pytest.raises(ValueError):
            inv[1] = 0


@pytest.mark.parametrize("p", [1, 4, 9])
@pytest.mark.parametrize(
    "call",
    [
        lambda p: linalg.rref([[2, 1], [1, 1]], p),
        lambda p: linalg.rref_stack([[[3, 1]]], p),
        lambda p: linalg.nullspace([[1, 2]], p),
        lambda p: linalg.nullspace_stack([[[1, 2]]], p),
    ],
    ids=["rref", "rref_stack", "nullspace", "nullspace_stack"],
)
def test_eliminations_refuse_a_modulus_that_is_not_prime(call, p):
    # mod 4 the Fermat "inverse" of 2 is 0, so an elimination would scale a
    # pivot row to zero and report a wrong rank instead of failing
    with pytest.raises(ValueError, match=f"prime modulus, got {p}"):
        call(p)


def test_nilpotent_block_sizes_known_forms():
    p = 3

    def jordan(sizes):
        dim = sum(sizes)
        a = np.zeros((dim, dim), dtype=np.int64)
        at = 0
        for s in sizes:
            for i in range(s - 1):
                a[at + i, at + i + 1] = 1
            at += s
        return a

    for sizes in [(3,), (2, 1), (1, 1, 1), (4, 2), (3, 3, 1), ()]:
        assert linalg.nilpotent_block_sizes(jordan(sizes), p) == tuple(
            sorted(sizes, reverse=True)
        )


def test_nilpotent_block_sizes_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        linalg.nilpotent_block_sizes(np.eye(2, dtype=np.int64), 3)


def assert_stack_matches_scalar(stack, p):
    """rref_stack agrees with rref on every matrix, on R and the pivots."""
    stack = np.asarray(stack, dtype=np.int64)
    reduced, pivots = linalg.rref_stack(stack, p)
    assert reduced.shape == stack.shape and reduced.dtype == np.int64
    assert pivots.shape == stack.shape[:2] and pivots.dtype == np.int64
    for k in range(stack.shape[0]):
        expected, expected_pivots = linalg.rref(stack[k], p)
        assert (reduced[k] == expected).all()
        rank = len(expected_pivots)
        assert tuple(pivots[k, :rank].tolist()) == expected_pivots
        assert (pivots[k, rank:] == -1).all()


@pytest.mark.parametrize("p", [3, 5, 97])
@pytest.mark.parametrize(
    "size", [(40, 3, 4), (40, 4, 8), (30, 6, 3), (30, 1, 5), (30, 5, 1), (25, 7, 7)]
)
def test_rref_stack_matches_rref_on_random_stacks(p, size):
    rng = np.random.default_rng(1000 * p + sum(size))
    stack = rng.integers(0, p, size=size)
    assert_stack_matches_scalar(stack, p)
    # rank-deficient: repeated and scaled rows, and rows of small entries
    deficient = stack.copy()
    if size[1] > 1:
        deficient[:, -1] = deficient[:, 0]
        deficient[:, 1] = 2 * deficient[:, 0]
    deficient[::2] = rng.integers(0, 2, size=deficient[::2].shape)
    assert_stack_matches_scalar(deficient, p)
    assert_stack_matches_scalar(np.zeros(size, dtype=np.int64), p)
    # unreduced and negative entries are reduced mod p first
    assert_stack_matches_scalar(stack - 3 * p, p)


@pytest.mark.parametrize("size", [(0, 3, 4), (0, 0, 0), (4, 0, 3), (4, 3, 0)])
def test_rref_stack_empty_shapes(size):
    reduced, pivots = linalg.rref_stack(np.zeros(size, dtype=np.int64), 5)
    assert reduced.shape == size and pivots.shape == size[:2]
    assert (pivots == -1).all()


def test_rref_stack_mixed_ranks_in_one_stack():
    # matrices of full, partial and zero rank pivot independently
    p = 3
    stack = np.array(
        [
            [[1, 2, 0], [0, 0, 1], [2, 1, 1]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 2, 1], [0, 1, 2], [0, 0, 0]],
            [[0, 0, 2], [1, 0, 0], [0, 1, 0]],
        ]
    )
    reduced, pivots = linalg.rref_stack(stack, p)
    assert pivots.tolist() == [[0, 2, -1], [-1, -1, -1], [1, -1, -1], [0, 1, 2]]
    assert_stack_matches_scalar(stack, p)


def test_rref_stack_rejects_non_stacks():
    with pytest.raises(ValueError):
        linalg.rref_stack(np.zeros((3, 3), dtype=np.int64), 3)


@st.composite
def random_stack(draw):
    p = draw(st.sampled_from([3, 5, 7, 97]))
    count = draw(st.integers(0, 6))
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    entries = st.integers(0, p - 1) if draw(st.booleans()) else st.integers(0, 1)
    flat = draw(st.lists(entries, min_size=count * rows * cols, max_size=count * rows * cols))
    return np.array(flat, dtype=np.int64).reshape(count, rows, cols), p


@settings(max_examples=200, deadline=None)
@given(random_stack())
def test_rref_stack_matches_rref_property(case):
    stack, p = case
    assert_stack_matches_scalar(stack, p)
