import collections
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmods import (
    FpSubspace,
    SpaceElement,
    SpaceShape,
    TruncatedSeries,
    count_maximal_isotropic,
    enumerate_maximal_isotropic,
    gram_matrix,
    isotropic_diagnostics,
    t_action_matrix,
)
from fpmods import linalg, pairing
from fpmods.errors import InvariantError, ResourceBoundError
from fpmods.linalg import nullspace, rank, reduce_rows, rref
from fpmods.submodules import ModuleVector, is_maximal

ACCEPTANCE_SHAPES = [
    SpaceShape(3, 1),
    SpaceShape(3, 1, (1,)),
    SpaceShape(3, 1, (3,)),
    SpaceShape(3, 3),
    SpaceShape(3, 3, (1,)),
    SpaceShape(3, 3, (3,)),
]


def random_element(shape, rng):
    return SpaceElement.from_vector(shape, rng.integers(0, shape.p, shape.dim))


def test_shape_validation():
    with pytest.raises(ValueError):
        SpaceShape(3, 2)  # 2 is not a power of 3
    with pytest.raises(ValueError):
        SpaceShape(3, 3, (5,))
    with pytest.raises(ValueError):
        SpaceShape(4, 1)
    with pytest.raises(ValueError, match="total dimension 4098 exceeds 4096"):
        SpaceShape(3, 1, (1,) * 2048)
    sh = SpaceShape(5, 5, (1, 5))
    assert sh.dim == 2 * (5 + 1 + 5)
    assert sh.block_levels == (5, 1, 5)
    assert sh.rank_dim == 10


def test_shape_rejects_non_tuple_torsion_levels():
    # a list would reach enumerate_maximal_isotropic's cache unhashable
    with pytest.raises(ValueError, match="torsion_levels must be a tuple, got list"):
        SpaceShape(3, 1, [1])
    assert SpaceShape(3, 1, (1,)).torsion_levels == (1,)


def test_element_rejects_non_integral_coordinates():
    shape = SpaceShape(3, 1, (1,))
    # floats are rejected, not truncated to e_0 or to a scalar of 1
    with pytest.raises(ValueError, match="vector entries must be integers"):
        SpaceElement.from_vector(shape, [1.5, 0, 0, 0])
    with pytest.raises(ValueError, match="vector entries must be integers"):
        SpaceElement.from_vector(shape, np.array([1.0, 0, 0, 0]))
    x = SpaceElement.generator(shape, 0, 0)
    for bad in ([1.9], [1, 0.5], ["1"]):
        with pytest.raises(ValueError, match="coefficients must be integers"):
            x.act(bad)
        with pytest.raises(ValueError, match="coefficients must be integers"):
            x.act_involution(bad)
    assert SpaceElement.from_vector(shape, np.array([1, 0, 0, 0])) == x
    assert x.act([np.int64(2)]) == SpaceElement.from_vector(shape, [2, 0, 0, 0])


def test_generator_indices_are_validated():
    shape = SpaceShape(3, 1, (1,))
    for block, side in ((-1, 1), (2, 0), (0, 2), (0, -1), (True, 0), (0, True), (0.0, 0)):
        with pytest.raises(ValueError):
            shape.generator_slice(block, side)
        with pytest.raises(ValueError):
            SpaceElement.generator(shape, block, side)
    assert shape.generator_slice(1, 0) == slice(2, 3)
    assert SpaceElement.generator(shape, 1, 1) == SpaceElement.from_vector(
        shape, [0, 0, 0, 1]
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda sh, x, y: SpaceElement(sh, [TruncatedSeries(3, (1, 0))] + list(x.coords[1:])),
         r"coordinate 0 must live in \(p=3, level=1\)"),
        (lambda sh, x, y: SpaceElement(sh, [TruncatedSeries(5, (1,))] + list(x.coords[1:])),
         r"coordinate 0 must live in \(p=3, level=1\)"),
        (lambda sh, x, y: SpaceElement.from_vector(sh, [1, 0, 2]), "vector must have length 4"),
        (lambda sh, x, y: x + y, "elements must share a shape"),
        (lambda sh, x, y: x.pair(y), "elements must share a shape"),
    ],
    ids=["coordinate-level", "coordinate-prime", "vector-length", "add", "pair"],
)
def test_element_rejects_mismatched_shapes(call, message):
    shape = SpaceShape(3, 1, (1,))
    x = SpaceElement.from_vector(shape, [1, 0, 2, 1])
    y = SpaceElement.generator(SpaceShape(3, 1), 0, 0)
    with pytest.raises(ValueError, match=message):
        call(shape, x, y)


def test_element_addition_refuses_foreign_operands():
    shape = SpaceShape(3, 1, (1,))
    x = SpaceElement.from_vector(shape, [1, 0, 2, 1])
    for other in (1, x.coords[0], None):
        with pytest.raises(TypeError, match="unsupported operand"):
            x + other
    assert x + x == SpaceElement.from_vector(shape, [2, 0, 1, 2])


def test_element_vector_round_trip():
    rng = np.random.default_rng(30)
    for shape in ACCEPTANCE_SHAPES:
        for _ in range(20):
            vec = rng.integers(0, shape.p, shape.dim)
            elem = SpaceElement.from_vector(shape, vec)
            assert (elem.to_vector() == vec % shape.p).all()
            assert SpaceElement.from_vector(shape, elem.to_vector()) == elem


def test_generator_relations_all_shapes():
    for shape in ACCEPTANCE_SHAPES:
        p = shape.p
        for b in range(shape.num_blocks):
            u = SpaceElement.generator(shape, b, 0)
            v = SpaceElement.generator(shape, b, 1)
            assert u.pair(v) == 1
            assert v.pair(u) == p - 1
            assert u.pair(u) == 0 and v.pair(v) == 0
        # cross-block orthogonality
        for b1 in range(shape.num_blocks):
            for b2 in range(shape.num_blocks):
                if b1 == b2:
                    continue
                for s1 in (0, 1):
                    for s2 in (0, 1):
                        x = SpaceElement.generator(shape, b1, s1)
                        y = SpaceElement.generator(shape, b2, s2)
                        assert x.pair(y) == 0


def test_delta_relation_all_blocks_and_indices():
    for shape in ACCEPTANCE_SHAPES:
        for b, m in enumerate(shape.block_levels):
            g = TruncatedSeries.group_generator(shape.p, m)
            for k1 in range(m):
                for k2 in range(m):
                    x = SpaceElement.generator(shape, b, 0).act((g**k1).coeffs)
                    y = SpaceElement.generator(shape, b, 1).act((g**k2).coeffs)
                    assert x.pair(y) == (1 if k1 == k2 else 0)


def test_bilinearity_and_gram_consistency():
    rng = np.random.default_rng(31)
    for shape in ACCEPTANCE_SHAPES:
        p = shape.p
        gram = gram_matrix(shape)
        for _ in range(50):
            x, y, z = (random_element(shape, rng) for _ in range(3))
            assert (x + y).pair(z) == (x.pair(z) + y.pair(z)) % p
            assert x.pair(y + z) == (x.pair(y) + x.pair(z)) % p
            assert x.pair(y) == int(x.to_vector() @ gram @ y.to_vector() % p)


@pytest.mark.parametrize(
    "shape",
    [
        SpaceShape(3, 9),
        SpaceShape(5, 5),
        SpaceShape(7, 7),
        SpaceShape(97, 1),
        SpaceShape(3, 3, (9,)),
    ],
    ids=lambda shape: f"{shape.p}-{shape.rank_level}-{shape.torsion_levels}",
)
def test_gram_matrix_entries_equal_the_series_pairing(shape):
    # gram_matrix is a closed form; SpaceElement.pair multiplies series
    basis = [
        SpaceElement.from_vector(shape, row)
        for row in np.eye(shape.dim, dtype=np.int64)
    ]
    want = [[x.pair(y) for y in basis] for x in basis]
    assert gram_matrix(shape).tolist() == want


def test_equivariance_on_random_triples():
    rng = np.random.default_rng(32)
    for shape in ACCEPTANCE_SHAPES:
        top = max(shape.block_levels)
        for _ in range(100):
            x = random_element(shape, rng)
            y = random_element(shape, rng)
            tau = tuple(int(c) for c in rng.integers(0, shape.p, top))
            assert x.act(tau).pair(y) == x.pair(y.act_involution(tau))


def test_skew_symmetry_exhaustive_small():
    for shape in (SpaceShape(3, 1), SpaceShape(3, 1, (1,))):
        p = shape.p
        vectors = list(itertools.product(range(p), repeat=shape.dim))
        elems = [SpaceElement.from_vector(shape, v) for v in vectors]
        for x in elems:
            for y in elems:
                assert x.pair(y) == (-y.pair(x)) % p


def test_t_action_matrix_matches_act():
    rng = np.random.default_rng(33)
    for shape in ACCEPTANCE_SHAPES:
        action = t_action_matrix(shape)
        for _ in range(20):
            x = random_element(shape, rng)
            shifted = x.act((0, 1))  # multiply by T
            assert (shifted.to_vector() == x.to_vector() @ action % shape.p).all()


def test_gram_nondegenerate():
    for shape in ACCEPTANCE_SHAPES + [SpaceShape(5, 5, (1,)), SpaceShape(7, 1, (7,))]:
        assert rank(gram_matrix(shape), shape.p) == shape.dim


def test_subspace_canonical_equality():
    shape = SpaceShape(3, 3)
    rows = np.array([[1, 0, 0, 1, 2, 0], [0, 1, 0, 0, 1, 1]])
    a = FpSubspace(shape, rows)
    b = FpSubspace(shape, np.vstack([rows[1], (2 * rows[0]) % 3, rows.sum(axis=0) % 3]))
    assert a == b and hash(a) == hash(b) and a.dim == 2
    assert not reduce_rows(a.basis, a.pivots, rows[0], 3).any()
    assert reduce_rows(a.basis, a.pivots, [0, 0, 0, 0, 0, 1], 3).any()
    # non-integral rows are rejected, not truncated to the span of e_0
    with pytest.raises(ValueError):
        FpSubspace(shape, [[1.5, 0, 0, 0, 0, 0]])


def test_empty_rows_of_the_wrong_length_are_rejected():
    shape = SpaceShape(3, 1, (1,))
    with pytest.raises(ValueError, match="^rows must have length 4$"):
        FpSubspace(shape, np.zeros((0, 7), dtype=np.int64))
    zero = FpSubspace(shape)
    assert zero.dim == 0 and zero.basis.shape == (0, 4)
    empty = np.zeros((0, 4), dtype=np.int64)
    assert FpSubspace(shape, []) == FpSubspace(shape, empty) == zero


def test_complement_laws_on_random_subspaces():
    rng = np.random.default_rng(34)
    for shape in ACCEPTANCE_SHAPES:
        for _ in range(100):
            k = int(rng.integers(0, shape.dim + 1))
            sub = FpSubspace(shape, rng.integers(0, shape.p, (k, shape.dim)))
            perp = sub.orthogonal_complement()
            assert sub.dim + perp.dim == shape.dim
            assert perp.orthogonal_complement() == sub
            # complement really annihilates the subspace
            gram = gram_matrix(shape)
            if sub.dim and perp.dim:
                vals = perp.basis @ gram @ sub.basis.T % shape.p
                assert not vals.any()


def test_complement_example_rank_one():
    shape = SpaceShape(3, 1)
    u = SpaceElement.generator(shape, 0, 0)
    sub = FpSubspace(shape, [u.to_vector()])
    assert sub.orthogonal_complement() == sub
    assert sub.is_isotropic() and 2 * sub.dim == shape.dim
    zero = FpSubspace(shape)
    assert zero.orthogonal_complement() == FpSubspace(shape, np.eye(shape.dim, dtype=np.int64))
    assert zero.is_isotropic() and zero.is_t_stable()
    assert 2 * zero.dim != shape.dim


def test_t_span_closure_and_stability():
    shape = SpaceShape(3, 3, (3,))
    rng = np.random.default_rng(35)
    action = t_action_matrix(shape)
    for _ in range(30):
        seed_rows = rng.integers(0, 3, (2, shape.dim))
        closed = FpSubspace.t_span(shape, seed_rows)
        assert closed.is_t_stable()
        assert not reduce_rows(closed.basis, closed.pivots, seed_rows, 3).any()
        shifted = closed.basis @ action % 3
        assert not reduce_rows(closed.basis, closed.pivots, shifted, 3).any()
    loose = FpSubspace(shape, [[1] + [0] * (shape.dim - 1)])
    assert not loose.is_t_stable()


def test_complement_of_t_stable_is_t_stable():
    rng = np.random.default_rng(36)
    for shape in (SpaceShape(3, 3), SpaceShape(3, 3, (3,))):
        for _ in range(20):
            sub = FpSubspace.t_span(shape, rng.integers(0, 3, (2, shape.dim)))
            assert sub.orthogonal_complement().is_t_stable()


def brute_force_isotropic_halfdim(shape):
    """Oracle: canonical keys of all half-dim isotropic T-stable subspaces,
    found by scanning every spanning matrix of half dimension."""
    p = shape.p
    half = shape.dim // 2
    keys = set()
    for entries in itertools.product(range(p), repeat=half * shape.dim):
        mat = np.array(entries, dtype=np.int64).reshape(half, shape.dim)
        sub = FpSubspace(shape, mat)
        if sub.dim != half or not sub.is_t_stable():
            continue
        # isotropy via the element-level pairing, independent of the Gram path
        elems = [SpaceElement.from_vector(shape, row) for row in sub.basis]
        if all(x.pair(y) == 0 for x in elems for y in elems):
            keys.add(sub.key())
    return keys


def test_enumeration_matches_brute_force_rank_one():
    shape = SpaceShape(3, 1)
    found = list(enumerate_maximal_isotropic(shape))
    assert len(found) == 4
    assert {r.subspace.key() for r in found} == brute_force_isotropic_halfdim(shape)
    for r in found:
        assert r.subspace.is_isotropic() and 2 * r.subspace.dim == shape.dim
        assert r.splits  # no torsion: every line is its own rank part


def test_enumeration_matches_lagrangian_count_dim_four():
    shape = SpaceShape(3, 1, (1,))
    found = list(enumerate_maximal_isotropic(shape))
    # Lagrangians of a 4-dim symplectic space over F_p: (1+p)(1+p^2)
    assert len(found) == (1 + 3) * (1 + 9) == 40
    assert {r.subspace.key() for r in found} == brute_force_isotropic_halfdim(shape)
    for r in found:
        assert r.subspace.is_isotropic() and 2 * r.subspace.dim == shape.dim
        assert r.subspace.is_t_stable()


def test_enumeration_results_verified_independently_rank_three():
    shape = SpaceShape(3, 3)
    found = list(enumerate_maximal_isotropic(shape))
    assert len(found) == len({r.subspace.key() for r in found})
    for r in found:
        sub = r.subspace
        assert sub.dim == 3
        assert sub.is_t_stable()
        assert sub == sub.orthogonal_complement()
        diag = isotropic_diagnostics(sub)
        assert diag == r


def test_greedy_random_completion_lands_in_enumeration():
    # independent reachability check: grow a random isotropic T-stable
    # subspace greedily to maximality and find it among the enumerated ones
    shape = SpaceShape(3, 3)
    found_keys = {r.subspace.key() for r in enumerate_maximal_isotropic(shape)}
    rng = np.random.default_rng(37)
    for _ in range(25):
        current = FpSubspace(shape)
        while current.dim < shape.dim // 2:
            perp = current.orthogonal_complement()
            options = []
            for vec in perp.vectors():
                if not reduce_rows(current.basis, current.pivots, vec, 3).any():
                    continue
                grown = FpSubspace.t_span(shape, np.vstack([current.basis, vec[None]]))
                if grown.dim <= shape.dim // 2 and grown.is_isotropic():
                    options.append(grown)
            assert options, "greedy growth got stuck below half dimension"
            current = options[int(rng.integers(len(options)))]
        assert current.key() in found_keys


@pytest.mark.parametrize(
    "shape, results, split",
    [
        # level 1: T = 0, so every Lagrangian counts: prod_{i<=g} (p^i + 1)
        (SpaceShape(5, 1, (1,)), (5 + 1) * (25 + 1), 36),
        (SpaceShape(7, 1, (1,)), (7 + 1) * (49 + 1), 64),
        (SpaceShape(3, 3, (1,)), 184, 48),
        (SpaceShape(3, 1, (3,)), 184, 64),
    ],
)
def test_enumeration_counts_dim_four_and_eight(shape, results, split):
    found = list(enumerate_maximal_isotropic(shape))
    assert len(found) == results
    assert sum(r.splits for r in found) == split
    keys = [r.subspace.key() for r in found]
    assert keys == sorted(set(keys))
    for r in found:
        sub = r.subspace
        assert sub.dim == shape.dim // 2
        assert sub.is_t_stable()
        assert sub == sub.orthogonal_complement()


@pytest.mark.parametrize(
    "shape, results, split",
    [
        (SpaceShape(3, 1, (1, 1)), 1120, 160),
        (SpaceShape(5, 1, (1, 1)), 19656, 936),
        (SpaceShape(3, 1, (1, 1, 1)), 91840, 4480),
    ],
    ids=str,
)
def test_level_one_counts_follow_the_closed_forms(shape, results, split):
    # level 1: T = 0 and g = half the dimension, so every Lagrangian counts,
    # prod_{i<=g} (p^i + 1), and the split ones are a line of the rank
    # block times a Lagrangian of the torsion blocks; streamed, so the
    # largest shape's reports are never held at once
    p, g = shape.p, shape.dim // 2
    assert results == math.prod(p**i + 1 for i in range(1, g + 1))
    assert split == (p + 1) * math.prod(p**i + 1 for i in range(1, g))
    count = splits = 0
    previous = b""
    for report in enumerate_maximal_isotropic(shape):
        key = report.subspace.key()
        assert key > previous
        previous = key
        count += 1
        splits += report.splits
    assert (count, splits) == (results, split)
    assert count_maximal_isotropic(shape) == (results, split)
    assert pairing._search_count(shape) == results


def test_count_follows_the_level_one_closed_forms_beyond_enumeration():
    # (7,1,(1,1)): 137,600 Lagrangians, counted by the search without
    # building them, and in closed form
    p, g = 7, 3
    results = math.prod(p**i + 1 for i in range(1, g + 1))
    split = (p + 1) * math.prod(p**i + 1 for i in range(1, g))
    assert (results, split) == (137_600, 3_200)
    shape = SpaceShape(7, 1, (1, 1))
    assert count_maximal_isotropic(shape) == (results, split)
    assert pairing._search_count(shape) == results


def test_level_one_counts_run_no_search(monkeypatch):
    # (3,1,(1,1,1,1)) takes minutes by search; at T = 0 the count is the
    # closed form, while a shape where T acts still searches
    def refused(*args):
        raise AssertionError("the count searched")

    monkeypatch.setattr(pairing, "_batches", refused)
    assert count_maximal_isotropic(SpaceShape(3, 1, (1, 1, 1, 1))) == (22_408_960, 367_360)
    with pytest.raises(AssertionError, match="the count searched"):
        count_maximal_isotropic(SpaceShape(3, 3, (1,)))


def _lagrangian_batches(shape):
    """The search's T-stable Lagrangians, as the children of its batches."""
    for batch in pairing._batches(shape):
        yield from pairing._children(shape, *batch)


def _split_oracle(shape):
    """The number of split Lagrangians by the split criterion, read off
    every Lagrangian the search builds."""
    return sum(
        int(pairing._splits(shape, bases, pivots).sum())
        for bases, pivots in _lagrangian_batches(shape)
    )


@pytest.mark.parametrize(
    "shape, split",
    [
        (SpaceShape(3, 1, (3,)), 64),
        (SpaceShape(3, 3, (1,)), 48),
        (SpaceShape(3, 3, (3,)), 192),
        (SpaceShape(3, 1, (1, 1)), 160),
        (SpaceShape(5, 1, (1, 1)), 936),
        (SpaceShape(3, 3, (1, 1)), 480),
        (SpaceShape(3, 1, (3, 1)), 736),
        (SpaceShape(3, 1, (1, 3)), 736),
        (SpaceShape(7, 1, (1, 1)), 3200),
    ],
    ids=str,
)
def test_split_count_is_the_product_of_rank_and_torsion_counts(shape, split):
    # splits = F(n) * N(S): the free T-stable Lagrangians of the rank block
    # times the T-stable Lagrangians of the torsion blocks, against the
    # split criterion read off every Lagrangian the search builds
    p, levels = shape.p, shape.torsion_levels
    free = (p + 1) * p ** ((shape.rank_level - 1) // 2)
    torsion = count_maximal_isotropic(SpaceShape(p, levels[0], levels[1:]))[0]
    assert _split_oracle(shape) == split == free * torsion
    assert count_maximal_isotropic(shape)[1] == split


@pytest.mark.parametrize(
    "shape, results, free",
    [(SpaceShape(3, 9), 484, 324), (SpaceShape(5, 5), 186, 150)],
    ids=str,
)
def test_split_count_of_a_rank_block_is_its_free_lagrangians(
    monkeypatch, shape, results, free
):
    # with no torsion block the split Lagrangians are the free ones,
    # F(n) = (p + 1) * p^((n - 1) / 2) of them; p^dim is above the bound,
    # which is lifted here only
    monkeypatch.setattr(pairing, "MAX_SUBSPACE_VECTORS", shape.p**shape.dim)
    n = shape.rank_level
    assert free == (shape.p + 1) * shape.p ** ((n - 1) // 2)
    assert _split_oracle(shape) == free
    assert count_maximal_isotropic(shape) == (results, free)


def test_count_reads_no_split_criterion(monkeypatch):
    def refused(*args):
        raise AssertionError("the count read the split criterion")

    monkeypatch.setattr(pairing, "_splits", refused)
    assert count_maximal_isotropic(SpaceShape(3, 3, (3,))) == (4720, 192)


@pytest.mark.parametrize(
    "shape, searches",
    [
        # S = (3,1,(1,)) is a closed form
        (SpaceShape(3, 3, (1, 1)), [SpaceShape(3, 3, (1, 1))]),
        # the full shape, then S = (3,3,(1,)), where T acts
        (SpaceShape(3, 1, (3, 1)), [SpaceShape(3, 1, (3, 1)), SpaceShape(3, 3, (1,))]),
        # S = (3,1,(3,)) is searched, but not its own torsion shape (3,3,())
        (SpaceShape(3, 1, (1, 3)), [SpaceShape(3, 1, (1, 3)), SpaceShape(3, 1, (3,))]),
    ],
    ids=str,
)
def test_count_searches_the_full_shape_then_its_torsion_shape(monkeypatch, shape, searches):
    searched = []
    batches = pairing._batches

    def recording(shape):
        searched.append(shape)
        return batches(shape)

    monkeypatch.setattr(pairing, "_batches", recording)
    count_maximal_isotropic(shape)
    assert searched == searches


@pytest.mark.parametrize(
    "cached",
    [
        lambda: gram_matrix(SpaceShape(3, 3, (1,))),
        lambda: t_action_matrix(SpaceShape(3, 3, (1,))),
        lambda: pairing._block_gram(3, 3),
        lambda: linalg._inverse_table(3),
    ],
    ids=["gram_matrix", "t_action_matrix", "_block_gram", "_inverse_table"],
)
def test_cached_arrays_are_read_only(cached):
    # a write would change every later caller's copy
    array = cached()
    with pytest.raises(ValueError, match="read-only"):
        array[(0,) * array.ndim] = 2
    assert cached() is array


@pytest.mark.parametrize("torsion", [(1,), (1, 1)], ids=["1", "1-1"])
def test_enumeration_rejects_a_child_out_of_echelon_form(monkeypatch, torsion):
    # an identity "kernel" offers w that are nonzero on the state's pivots,
    # so [w; state basis] is not a reduced echelon basis; the child check
    # must catch it before a wrong subspace is built, and name the torsion
    # levels, which p and n alone do not determine
    monkeypatch.setattr(
        pairing,
        "_socle_kernels",
        lambda shape, bases, pivots: np.array([np.eye(shape.dim, dtype=np.int64) for _ in bases]),
    )
    levels = re.escape(f"torsion levels {torsion}")
    with pytest.raises(InvariantError, match=f"socle extension.*{levels}.*p=3, n=1"):
        list(enumerate_maximal_isotropic(SpaceShape(3, 1, torsion)))


def socle_bfs_oracle(shape):
    """Oracle: breadth-first socle extension, with repeats dropped by key.

    A state M grows to M + <w> for one w per line of M^perp / M with T w in
    M; every T-stable isotropic subspace is reached from each of its
    parents. Returns the half-dimensional states sorted by key.
    """
    p = shape.p
    half = shape.dim // 2
    action = t_action_matrix(shape)
    start = FpSubspace(shape)
    seen = {start.key()}
    queue = collections.deque([start])
    found = {}
    while queue:
        current = queue.popleft()
        if current.dim == half:
            found[current.key()] = current
            continue
        perp = current.orthogonal_complement()
        reduced = reduce_rows(current.basis, current.pivots, perp.basis, p)
        vecs = FpSubspace(shape, reduced).vectors()
        lead = np.argmax(vecs != 0, axis=1)
        normalized = vecs.any(axis=1) & (vecs[np.arange(len(vecs)), lead] == 1)
        candidates = vecs[normalized]
        shifted = reduce_rows(current.basis, current.pivots, candidates @ action % p, p)
        for w in candidates[~shifted.any(axis=1)]:
            grown = FpSubspace(shape, np.vstack([current.basis, w[None]]))
            assert grown.dim == current.dim + 1
            if grown.key() not in seen:
                seen.add(grown.key())
                queue.append(grown)
    return [found[key] for key in sorted(found)]


def _coordinate_section(sub, zero_cols):
    if sub.dim == 0:
        return sub.basis
    combos = nullspace(sub.basis[:, zero_cols].T, sub.p)
    reduced, pivots = rref(combos @ sub.basis % sub.p, sub.p)
    return reduced[: len(pivots)]


def diagnostics_oracle(sub):
    """Oracle: the report, whether sub splits, from explicit coordinate
    sections, five eliminations per subspace and no call into _splits."""
    shape = sub.shape
    p = shape.p
    rank_cols = slice(0, shape.rank_dim)
    torsion_cols = slice(shape.rank_dim, shape.dim)
    rank_part = _coordinate_section(sub, torsion_cols)
    torsion_part = _coordinate_section(sub, rank_cols)
    shifted = rank_part @ t_action_matrix(shape) % p
    cyclic = len(rank_part) - rank(shifted, p) <= 1
    return pairing.MaximalIsotropic(
        subspace=sub,
        splits=(
            len(rank_part) + len(torsion_part) == sub.dim
            and len(rank_part) == shape.rank_level
            and cyclic
        ),
    )


ORACLE_SHAPES = [
    SpaceShape(3, 1),
    SpaceShape(3, 3),
    SpaceShape(3, 1, (1,)),
    SpaceShape(5, 1, (1,)),
    SpaceShape(7, 1, (1,)),
    SpaceShape(3, 3, (1,)),
    SpaceShape(3, 1, (3,)),
    SpaceShape(3, 1, (1, 1)),
]


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=str)
def test_orderly_generation_matches_socle_bfs(shape):
    # equal reports check both the search and, on every result, the
    # split against the five-elimination oracle
    found = list(enumerate_maximal_isotropic(shape))
    expected = [diagnostics_oracle(sub) for sub in socle_bfs_oracle(shape)]
    assert found == expected
    assert [r.subspace.pivots for r in found] == [r.subspace.pivots for r in expected]
    if shape == SpaceShape(3, 1, (1, 1)):
        assert len(found) == (3 + 1) * (9 + 1) * (27 + 1) == 1120


def _extensions_oracle(shape, pivots, kernel):
    """Oracle: one state's w, each with its run row's lead, in the search's
    order: for each run row i of the given padded kernel, row i plus every
    combination of the nonzero rows after it, by itertools.product."""
    half, k = shape.dim // 2, len(pivots)
    first = pivots[0] if k else shape.dim
    rows = kernel[kernel.any(axis=1)]
    leads = np.argmax(rows != 0, axis=1)
    for i in np.flatnonzero((leads >= half - k - 1) & (leads < first)):
        later = rows[i + 1 :]
        for c in itertools.product(range(shape.p), repeat=len(later)):
            yield leads[i], (rows[i] + np.array(c, dtype=np.int64) @ later) % shape.p


def _children_oracle_rejects(shape, pivots, kernel):
    """Oracle: the child check on every child itself, for one state with
    the given pivots and padded kernel: some w of a run row fails to lead
    with a 1 before the first pivot or to vanish on the pivots."""
    first = pivots[0] if len(pivots) else shape.dim
    for _, w in _extensions_oracle(shape, pivots, kernel):
        lead = np.argmax(w != 0)
        if not (w.any() and lead < first and w[lead] == 1) or w[list(pivots)].any():
            return True
    return False


def _dropped_oracle(shape, pivots, kernel, lead, w):
    """Oracle: whether the search drops the child [w; state] of a state with
    the given pivots and padded kernel, w leading at lead, by the rule as
    stated: below half dimension, with f_r = (w, K_r) over the nonzero
    kernel rows K and U the rows of K that lead before lead, U is empty and
    f is not, or U is one row r, f_r != 0 and f vanishes on every other
    row."""
    if len(pivots) + 1 >= shape.dim // 2:
        return False
    rows = kernel[kernel.any(axis=1)]
    f = rows @ gram_matrix(shape) @ w % shape.p
    before = np.argmax(rows != 0, axis=1) < lead
    if not before.any():
        return bool(f.any())
    return before.sum() == 1 and f[before][0] != 0 and not f[~before].any()


def _children_oracle(shape, basis, pivots, kernel, rule=True):
    """Oracle: one state's children as lists of echelon bases [w; basis]
    and of their pivots, in the search's order, without the children that
    the rule drops unless rule is False."""
    bases, child_pivots = [], []
    for lead, w in _extensions_oracle(shape, pivots, kernel):
        if rule and _dropped_oracle(shape, pivots, kernel, lead, w):
            continue
        bases.append(np.vstack([w[None], basis]))
        child_pivots.append([lead, *pivots])
    return bases, child_pivots


def _built(shape, bases, pivots):
    """All children that _children builds for a batch, its slices joined."""
    built = list(pairing._children(shape, bases, pivots))
    assert all(len(b) for b, _ in built)
    if not built:
        k = pivots.shape[1]
        return np.zeros((0, k + 1, shape.dim), dtype=np.int64), np.zeros((0, k + 1), dtype=np.int64)
    return np.concatenate([b for b, _ in built]), np.concatenate([p for _, p in built])


def _random_padded_kernels(shape, rng, count):
    """count random (pivots, padded kernel) pairs for states of shape:
    kernels whose nonzero rows lead at strictly increasing columns (the
    kernels' contract), with leading entries and entries on the state's
    pivots that are mostly, not always, right. States have any dimension
    k < half, the zero state included, as the search expands it too."""
    dim = shape.dim
    for _ in range(count):
        k = int(rng.integers(0, shape.dim // 2))
        pivots = np.sort(rng.choice(dim, k, replace=False))
        kernel = np.zeros((dim - k, dim), dtype=np.int64)
        slots = np.sort(rng.choice(dim - k, int(rng.integers(0, dim - k + 1)), replace=False))
        leads = np.sort(rng.choice(dim, len(slots), replace=False))
        for slot, lead in zip(slots, leads):
            kernel[slot, lead + 1 :] = rng.integers(0, shape.p, dim - lead - 1)
            kernel[slot, lead] = rng.choice([1, 1, 1, 1, 2])
            if rng.random() < 0.9:
                kernel[slot, pivots[pivots != lead]] = 0
        yield pivots, kernel


def test_kernel_row_check_fails_exactly_when_a_child_check_would(monkeypatch):
    shape = SpaceShape(3, 1, (1, 1))
    outcomes = collections.Counter()
    for pivots, kernel in _random_padded_kernels(shape, np.random.default_rng(26), 300):
        monkeypatch.setattr(pairing, "_socle_kernels", lambda *args: kernel[None])
        bases = np.zeros((1, len(pivots), shape.dim), dtype=np.int64)
        expected = _children_oracle_rejects(shape, pivots, kernel)
        if expected:
            with pytest.raises(InvariantError, match="socle extension"):
                _built(shape, bases, pivots[None])
        else:
            _built(shape, bases, pivots[None])
        outcomes[expected] += 1
    assert min(outcomes[True], outcomes[False]) > 30


def _assert_children_match_the_oracle(shape, bases, pivots, kernels):
    expected_bases, expected_pivots = [], []
    for basis, state_pivots, kernel in zip(bases, pivots, kernels):
        state_bases, state_child_pivots = _children_oracle(shape, basis, state_pivots, kernel)
        expected_bases += state_bases
        expected_pivots += state_child_pivots
    child_bases, child_pivots = _built(shape, bases, pivots)
    assert child_bases.dtype == child_pivots.dtype == np.int64
    assert child_bases.shape == (len(expected_bases), pivots.shape[1] + 1, shape.dim)
    assert child_pivots.tolist() == expected_pivots
    assert all((child_bases[i] == b).all() for i, b in enumerate(expected_bases))
    return len(expected_bases)


@pytest.mark.parametrize("p", [3, 5])
def test_children_are_built_in_the_per_state_order(monkeypatch, p):
    # random kernels that pass the check, batched by state dimension, so a
    # batch mixes states with runs and states without; the states' bases
    # are random too, so a child with the wrong state's basis shows
    shape = SpaceShape(p, 1, (1, 1))
    rng = np.random.default_rng(34)
    by_dim = collections.defaultdict(list)
    for pivots, kernel in _random_padded_kernels(shape, rng, 1800):
        if not _children_oracle_rejects(shape, pivots, kernel):
            by_dim[len(pivots)].append((pivots, kernel))
    assert sum(map(len, by_dim.values())) >= 300
    built = 0
    for k, states in by_dim.items():
        for start in range(0, len(states), 16):
            batch = states[start : start + 16]
            pivots = np.array([piv for piv, _ in batch], dtype=np.int64).reshape(len(batch), k)
            kernels = np.array([kernel for _, kernel in batch])
            bases = rng.integers(0, p, (len(batch), k, shape.dim))
            monkeypatch.setattr(pairing, "_socle_kernels", lambda *args: kernels)
            built += _assert_children_match_the_oracle(shape, bases, pivots, kernels)
    assert built > 1000


def _zero_state(shape):
    return np.zeros((1, 0, shape.dim), dtype=np.int64), np.zeros((1, 0), dtype=np.int64)


def test_zero_state_kernel_reads_ker_t_off_the_generator_slices(monkeypatch):
    # ker T is spanned by the last coordinate of each generator slice, read
    # with no elimination; each unit vector e_c is row c of the kernel
    def refused(*args):
        raise AssertionError("the zero state's kernel called linalg.nullspace_stack")

    monkeypatch.setattr(pairing.linalg, "nullspace_stack", refused)
    shape = SpaceShape(3, 3, (1,))
    ends = [shape.generator_slice(b, side).stop - 1 for b in range(2) for side in (0, 1)]
    assert ends == [2, 5, 6, 7]
    kernels = pairing._socle_kernels(shape, *_zero_state(shape))
    assert kernels.dtype == np.int64
    expected = np.zeros((1, 8, 8), dtype=np.int64)
    expected[0, ends, ends] = 1
    assert (kernels == expected).all()
    bases, pivots = _built(shape, *_zero_state(shape))
    # 9 children of e_5, 3 of e_6 and 1 of e_7; e_2 leads before half - 1
    assert pivots[:, 0].tolist() == [5] * 9 + [6] * 3 + [7]
    assert not bases[:, 0, [0, 1, 2, 3, 4]].any()
    assert bases[:, 0, [5, 6, 7]].tolist() == [
        [1, a, b] for a in range(3) for b in range(3)
    ] + [[0, 1, b] for b in range(3)] + [[0, 0, 1]]


@pytest.mark.parametrize("shape", ORACLE_SHAPES + [SpaceShape(3, 3, (3,))], ids=str)
def test_zero_state_kernel_is_the_eliminated_kernel_of_t(shape):
    # the closed form against linalg.nullspace of A^T, whose kernel is the
    # x with x A = 0, that is ker T
    kernels = pairing._socle_kernels(shape, *_zero_state(shape))
    assert kernels.shape == (1, shape.dim, shape.dim)
    kernel = kernels[0][kernels[0].any(axis=1)]
    expected = nullspace(t_action_matrix(shape).T, shape.p)
    assert kernel.shape == expected.shape
    assert (kernel == expected).all()


def test_search_checks_the_zero_state_kernel(monkeypatch):
    # the closed-form kernel goes through _children's check like every
    # other: a unit row that leads with 2 stops the search
    socle_kernels = pairing._socle_kernels

    def corrupted(shape, bases, pivots):
        kernels = socle_kernels(shape, bases, pivots)
        if pivots.shape[1] == 0:
            kernels[:, shape.dim - 1, shape.dim - 1] = 2
        return kernels

    monkeypatch.setattr(pairing, "_socle_kernels", corrupted)
    with pytest.raises(InvariantError, match="dimension-0 state .* first pivot 8 "):
        pairing._search_count(SpaceShape(3, 3, (1,)))


def test_children_of_search_batches_match_the_oracle(monkeypatch):
    # every batch that the search at (3,3,(3,)) expands, at every dimension:
    # the count expands those below half - 1 and counts the children of the
    # rest, which the enumeration builds
    shape = SpaceShape(3, 3, (3,))
    expanded = []
    children = pairing._children

    def recording(shape, bases, pivots):
        expanded.append((bases, pivots))
        return children(shape, bases, pivots)

    monkeypatch.setattr(pairing, "_children", recording)
    assert pairing._search_count(shape) == 4720
    assert {pivots.shape[1] for _, pivots in expanded} == set(range(shape.dim // 2 - 1))
    assert len(list(enumerate_maximal_isotropic(shape))) == 4720
    monkeypatch.undo()
    assert count_maximal_isotropic(shape) == (4720, 192)
    assert {pivots.shape[1] for _, pivots in expanded} == set(range(shape.dim // 2))
    built = sum(
        _assert_children_match_the_oracle(
            shape, bases, pivots, pairing._socle_kernels(shape, bases, pivots)
        )
        for bases, pivots in expanded
    )
    assert built >= 4720


# the children the rule drops at each shape, by their dimension
DROPPED = {
    SpaceShape(3, 1): {},
    SpaceShape(3, 3): {},
    SpaceShape(3, 1, (1,)): {1: 1},
    SpaceShape(5, 1, (1,)): {1: 1},
    SpaceShape(7, 1, (1,)): {1: 1},
    SpaceShape(3, 3, (1,)): {2: 24, 3: 55},
    SpaceShape(3, 1, (3,)): {3: 29},
    SpaceShape(3, 1, (1, 1)): {2: 40},
    SpaceShape(3, 3, (3,)): {3: 81, 4: 648, 5: 1451},
    SpaceShape(3, 3, (1, 1)): {3: 3124, 4: 6520},
}


@pytest.mark.parametrize(
    "shape", ORACLE_SHAPES + [SpaceShape(3, 3, (3,)), SpaceShape(3, 3, (1, 1))], ids=str
)
def test_dropped_children_have_no_children(monkeypatch, shape):
    # every child that the rule drops, against the rule-free oracle of every
    # state the count expands: its own socle kernel has no nonzero row that
    # leads before its first pivot, so the rule-free oracle gives it no
    # child, and no state of half dimension is dropped
    expanded = []
    children = pairing._children

    def recording(shape, bases, pivots):
        expanded.append((bases, pivots))
        return children(shape, bases, pivots)

    monkeypatch.setattr(pairing, "_children", recording)
    results = pairing._search_count(shape)
    monkeypatch.undo()
    assert results == count_maximal_isotropic(shape)[0]
    lost = collections.defaultdict(list)
    for bases, pivots in expanded:
        built = {b.tobytes() for b in _built(shape, bases, pivots)[0]}
        kernels = pairing._socle_kernels(shape, bases, pivots)
        for basis, state_pivots, kernel in zip(bases, pivots, kernels):
            every = zip(*_children_oracle(shape, basis, state_pivots, kernel, rule=False))
            for child, child_pivots in every:
                if child.tobytes() not in built:
                    lost[len(child_pivots)].append((child, child_pivots))
    assert {k: len(c) for k, c in lost.items()} == DROPPED[shape]
    assert shape.dim // 2 not in lost
    for children_of_k in lost.values():
        bases = np.array([child for child, _ in children_of_k])
        pivots = np.array([child_pivots for _, child_pivots in children_of_k])
        kernels = pairing._socle_kernels(shape, bases, pivots)
        leads = np.where(kernels.any(axis=2), np.argmax(kernels != 0, axis=2), shape.dim)
        assert (leads >= pivots[:, :1]).all()
        for basis, child_pivots, kernel in zip(bases, pivots, kernels):
            assert _children_oracle(shape, basis, child_pivots, kernel, rule=False) == ([], [])


@pytest.mark.parametrize("shape", [SpaceShape(3, 3, (1,)), SpaceShape(3, 1, (3,))], ids=str)
def test_count_checks_the_kernels_of_the_last_level(monkeypatch, shape):
    # a kernel corrupted only at dimension half - 1, whose children the
    # count sizes without building them: a run row led by 2 still raises
    socle_kernels = pairing._socle_kernels
    top = shape.dim // 2 - 1

    def corrupted(shape, bases, pivots):
        kernels = socle_kernels(shape, bases, pivots)
        if pivots.shape[1] == top:
            kernels[kernels.any(axis=2) & (np.argmax(kernels != 0, axis=2) < pivots[:, :1])] *= 2
        return kernels

    monkeypatch.setattr(pairing, "_socle_kernels", corrupted)
    with pytest.raises(InvariantError, match=f"dimension-{top} state"):
        count_maximal_isotropic(shape)
    with pytest.raises(InvariantError, match=f"dimension-{top} state"):
        list(enumerate_maximal_isotropic(shape))


@pytest.mark.parametrize(
    "state, rows, results, split",
    [
        # a later row is nonzero in column n = 3: 3 - 1 of row 0's 3
        # children split, and row 1's one child
        ((4, 5), [[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]], 4, 3),
        # no later row is, and row 0 is: all 3 of its children split
        ((4, 5), [[0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0]], 4, 3),
        # no later row is, and row 0 is not: none split
        ((4, 5), [[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]], 4, 0),
        # w[n] = 0 always, but the state is nonzero in column n: all split
        ((3, 5), [[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]], 4, 4),
        # w[n] = 0 always, but row 0 leads at 0: its 3 children split
        ((4, 5), [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]], 4, 3),
    ],
    ids=["later-row", "own-entry", "neither", "state-column", "lead-zero"],
)
def test_built_children_split_by_column_n(monkeypatch, state, rows, results, split):
    # the state span(e_i : i in state) of (3,3,()) has every pivot below
    # 2n, so d = n for every child; the kernel rows lead before the state's
    # first pivot and vanish on its pivots, and the built children agree
    shape = SpaceShape(3, 3)
    bases = np.eye(6, dtype=np.int64)[None, list(state)]
    pivots = np.array([state])
    kernel = np.zeros((1, 4, 6), dtype=np.int64)
    kernel[0, [0, 2]] = rows
    monkeypatch.setattr(pairing, "_socle_kernels", lambda *args: kernel)
    child_bases, child_pivots = _built(shape, bases, pivots)
    splits = int(pairing._splits(shape, child_bases, child_pivots).sum())
    assert [len(child_bases), splits] == [results, split]


@pytest.mark.parametrize("shape", ORACLE_SHAPES + [SpaceShape(3, 3, (3,))], ids=str)
def test_count_matches_enumeration(shape):
    found = list(enumerate_maximal_isotropic(shape))
    assert count_maximal_isotropic(shape) == (len(found), sum(r.splits for r in found))


def test_count_builds_no_subspace(monkeypatch):
    def refused(*args):
        raise AssertionError("the count built a subspace")

    monkeypatch.setattr(FpSubspace, "_from_rref", refused)
    assert pairing._search_count(SpaceShape(3, 1, (1, 1))) == 1120
    assert count_maximal_isotropic(SpaceShape(3, 1, (1, 1))) == (1120, 160)


def test_orderly_generation_builds_each_state_once(monkeypatch):
    # every expanded state (the bases handed to _socle_kernels) and every
    # result is distinct; states of different dimensions differ in length.
    # The count expands the same states, each once, and builds no result.
    built = []
    socle_kernels = pairing._socle_kernels

    def recording(shape, bases, pivots):
        built.extend(basis.tobytes() for basis in bases)
        return socle_kernels(shape, bases, pivots)

    monkeypatch.setattr(pairing, "_socle_kernels", recording)
    found = list(enumerate_maximal_isotropic(SpaceShape(3, 1, (1, 1))))
    assert len(found) == 1120
    assert b"" in built
    expanded = list(built)
    built.extend(r.subspace.key() for r in found)
    assert len(built) == len(set(built))
    built.clear()
    assert pairing._search_count(SpaceShape(3, 1, (1, 1))) == 1120
    assert built == expanded


def test_search_builds_subspaces_only_for_results(monkeypatch):
    built = []
    from_rref = FpSubspace._from_rref.__func__

    def recording(cls, shape, basis, pivots):
        built.append(basis.tobytes())
        return from_rref(cls, shape, basis, pivots)

    def refused(*args, **kwargs):
        raise AssertionError("the search called np.vstack")

    monkeypatch.setattr(FpSubspace, "_from_rref", classmethod(recording))
    monkeypatch.setattr(np, "vstack", refused)
    found = list(enumerate_maximal_isotropic(SpaceShape(3, 1, (1, 1))))
    assert len(found) == 1120
    assert built == [r.subspace.key() for r in found]


@pytest.mark.parametrize(
    "shape",
    [SpaceShape(3, 3, (1,)), SpaceShape(5, 1, (1,)), SpaceShape(3, 1, (1, 1))],
    ids=str,
)
def test_socle_kernel_is_the_echelon_basis_of_its_definition(shape):
    # brute force over all of V: w zero on the state's pivots, orthogonal
    # to the state, with T w in the state; the states are the first 20
    # Lagrangians and every state on their parent chains, in one batch per
    # dimension, so a batch mixes pivot sets and dimension 0 is one
    p = shape.p
    action = t_action_matrix(shape)
    gram = gram_matrix(shape)
    space = FpSubspace(shape, np.eye(shape.dim, dtype=np.int64)).vectors()
    lagrangians = [r.subspace for r in enumerate_maximal_isotropic(shape)][:20]
    by_dim = collections.defaultdict(dict)
    for lagrangian in lagrangians:
        for k in range(lagrangian.dim + 1):
            state = FpSubspace(shape, lagrangian.basis[k:])
            by_dim[state.dim][state.key()] = state
    assert 0 in by_dim
    assert any(len({s.pivots for s in batch.values()}) > 1 for batch in by_dim.values())
    for batch in by_dim.values():
        states = list(batch.values())
        bases = np.stack([state.basis for state in states])
        pivots = np.array([state.pivots for state in states], dtype=np.int64)
        kernels = pairing._socle_kernels(shape, bases, pivots)
        assert kernels.shape == (len(states), shape.dim - bases.shape[1], shape.dim)
        for state, padded in zip(states, kernels):
            kernel = padded[padded.any(axis=1)]
            members = space[~space[:, list(state.pivots)].any(axis=1)]
            members = members[~(members @ gram @ state.basis.T % p).any(axis=1)]
            shifted = reduce_rows(state.basis, state.pivots, members @ action % p, p)
            reduced, pivots = rref(members[~shifted.any(axis=1)], p)
            expected = reduced[: len(pivots)]
            assert kernel.shape == expected.shape
            assert (kernel == expected).all()


def _reports(shape):
    return [
        (r, r.subspace.key(), r.subspace.pivots) for r in enumerate_maximal_isotropic(shape)
    ]


@pytest.mark.parametrize("cells", [lambda dim: 1, lambda dim: 7 * dim], ids=["1", "7-dim"])
@pytest.mark.parametrize("shape", [SpaceShape(3, 1, (1, 1)), SpaceShape(3, 3, (1,))], ids=str)
def test_search_cell_bound_leaves_the_reports_unchanged(monkeypatch, shape, cells):
    # the reports compare the subspace and its split, in order; a bound of 1
    # cell makes every batch one state, and 7 * dim cells 7 // k states
    expected = _reports(shape)
    monkeypatch.setattr(pairing, "SEARCH_CELLS", cells(shape.dim))
    assert _reports(shape) == expected


def test_search_makes_one_elimination_per_dimension_at_a_small_shape(monkeypatch):
    # (3,3,(1,)): 13 states of dimension 1 from the closed form, then 52 of
    # dimension 2 and 156 of dimension 3, each level one batch under the
    # cell bound, so one stacked elimination each; without the rule that
    # drops children with no children they were 76 and 211 (24 and 55
    # childless states dropped)
    stacks = []
    rref_stack = pairing.linalg.rref_stack

    def counting_stack(stack, p):
        stacks.append(len(stack))
        return rref_stack(stack, p)

    monkeypatch.setattr(pairing.linalg, "rref_stack", counting_stack)
    assert pairing._search_count(SpaceShape(3, 3, (1,))) == 184
    assert stacks == [13, 52, 156]


def test_search_batches_fill_the_cell_bound_at_dim_12(monkeypatch):
    # (3,3,(3,)): every batch of dimension k >= 1, expanded, yielded or
    # built as a result, holds at most 8192 // (12 k) states, and from k = 3
    # on the largest holds exactly that many: 227, 170, 136 and 113; the
    # zero state is a batch of its own. The enumeration expands every batch
    # that _batches yields, so each expanded batch is a built one.
    shape = SpaceShape(3, 3, (3,))
    sizes = collections.defaultdict(list)
    built = collections.defaultdict(list)
    children = pairing._children

    def recording(shape, bases, pivots):
        sizes[pivots.shape[1]].append(len(bases))
        for child_bases, child_pivots in children(shape, bases, pivots):
            built[child_pivots.shape[1]].append(len(child_bases))
            yield child_bases, child_pivots

    monkeypatch.setattr(pairing, "_children", recording)
    assert len(list(enumerate_maximal_isotropic(shape))) == 4720
    monkeypatch.undo()
    yielded = [len(pivots) for _, pivots in pairing._batches(shape)]
    assert sum(built[6]) == 4720
    assert {k: max(built[k]) for k in range(3, 7)} == {3: 227, 4: 170, 5: 136, 6: 113}
    assert sizes[0] == [1]
    assert all(sorted(sizes[k]) == sorted(built[k]) for k in range(1, 6))
    assert sorted(yielded) == sorted(built[5])
    assert all(n <= 8192 // (12 * k) for k, counts in built.items() for n in counts)


def test_children_are_built_and_tested_in_bounded_slices(monkeypatch):
    # with the cell bound patched small, every slice that _children yields
    # holds at most SEARCH_CELLS // ((k + 1) * dim) children of a batch of
    # dimension k, one at least, and so does every _combine call that
    # builds or tests them; the reports are unchanged
    shape = SpaceShape(3, 3, (1,))
    expected = _reports(shape)
    monkeypatch.setattr(pairing, "SEARCH_CELLS", 5 * shape.dim)
    bounds, slices = [], collections.Counter()
    children, combine = pairing._children, pairing._combine

    def recording(shape, bases, pivots):
        bound = max(1, pairing.SEARCH_CELLS // ((pivots.shape[1] + 1) * shape.dim))
        inner = children(shape, bases, pivots)
        while True:
            bounds.append(bound)
            try:
                child_bases, child_pivots = next(inner)
            except StopIteration:
                return
            finally:
                bounds.pop()
            assert 1 <= len(child_bases) <= bound
            slices[len(child_bases) == bound] += 1
            yield child_bases, child_pivots

    def bounded(table, p, state, *args):
        assert len(state) <= bounds[-1]
        return combine(table, p, state, *args)

    monkeypatch.setattr(pairing, "_children", recording)
    monkeypatch.setattr(pairing, "_combine", bounded)
    assert _reports(shape) == expected
    assert pairing._search_count(shape) == 184
    assert slices[True] > 10 and slices[False]


def test_search_reads_kernels_off_stacked_eliminations(monkeypatch):
    # one stacked elimination per expanded batch of dimension k >= 1, and
    # none for the zero state, whose kernel is read in closed form
    expanded = []
    stacks = []
    socle_kernels = pairing._socle_kernels
    rref_stack = pairing.linalg.rref_stack

    def counting_kernels(shape, bases, pivots):
        expanded.append(pivots.shape)
        return socle_kernels(shape, bases, pivots)

    def counting_stack(stack, p):
        stacks.append(len(stack))
        return rref_stack(stack, p)

    def refused(*args):
        raise AssertionError("the search called linalg.nullspace")

    monkeypatch.setattr(pairing, "_socle_kernels", counting_kernels)
    monkeypatch.setattr(pairing.linalg, "rref_stack", counting_stack)
    monkeypatch.setattr(pairing.linalg, "nullspace", refused)
    assert len(list(enumerate_maximal_isotropic(SpaceShape(3, 1, (1, 1))))) == 1120
    assert expanded[0] == (1, 0)
    assert stacks == [count for count, k in expanded if k]
    assert len(stacks) < sum(stacks)


def test_socle_kernels_drop_constraints_that_constrain_nothing(monkeypatch):
    # at T = 0 the T part of the constraints is zero, so a state of
    # dimension k leaves at most its k pairing constraints to eliminate, at
    # k = 1 in the search; the zero state's kernel, ker T, needs no
    # elimination at all
    shape = SpaceShape(5, 1, (1,))
    received = []
    nullspace_stack = pairing.linalg.nullspace_stack

    def recording(stack, p):
        received.append(stack.shape)
        return nullspace_stack(stack, p)

    monkeypatch.setattr(pairing.linalg, "nullspace_stack", recording)
    assert pairing._search_count(shape) == 156
    assert {shape.dim - cols for _, _, cols in received} == {1}
    eliminations = len(received)
    pairing._socle_kernels(shape, *_zero_state(shape))
    assert len(received) == eliminations
    assert all(rows <= shape.dim - cols for _, rows, cols in received)
    assert count_maximal_isotropic(shape) == (156, 36)


@st.composite
def t_stable_isotropic(draw):
    """A random T-stable isotropic subspace, grown by socle extension."""
    shape = draw(st.sampled_from(ORACLE_SHAPES[:7]))
    action = t_action_matrix(shape)
    current = FpSubspace(shape)
    for _ in range(draw(st.integers(1, shape.dim // 2))):
        perp = current.orthogonal_complement().vectors()
        outside = reduce_rows(current.basis, current.pivots, perp, shape.p)
        shifted = reduce_rows(
            current.basis, current.pivots, perp @ action % shape.p, shape.p
        )
        options = perp[outside.any(axis=1) & ~shifted.any(axis=1)]
        w = options[draw(st.integers(0, len(options) - 1))]
        current = FpSubspace(shape, np.vstack([current.basis, w[None]]))
    return current


@settings(max_examples=60, deadline=None)
@given(t_stable_isotropic())
def test_dropping_the_first_echelon_row_leaves_a_t_stable_parent(sub):
    shape = sub.shape
    assert sub.is_t_stable() and sub.is_isotropic()
    first = sub.basis[0]
    parent = FpSubspace(shape, sub.basis[1:])
    assert (parent.basis == sub.basis[1:]).all()
    assert parent.is_t_stable()
    shifted = first @ t_action_matrix(shape) % shape.p
    assert not reduce_rows(parent.basis, parent.pivots, shifted, shape.p).any()
    # the parent is exactly the members vanishing up to the first pivot
    members = sub.vectors()
    zero_prefix = members[~members[:, : sub.pivots[0] + 1].any(axis=1)]
    assert FpSubspace(shape, zero_prefix) == parent


@settings(max_examples=60, deadline=None)
@given(t_stable_isotropic())
def test_single_diagnostics_match_the_oracle_at_every_dimension(sub):
    # the public path: Lagrangians match the oracle, and every shorter
    # state on the way raises; the strategy grows up to half dimension
    shape = sub.shape
    for k in range(sub.dim + 1):
        state = FpSubspace(shape, sub.basis[k:])
        if 2 * state.dim == shape.dim:
            assert isotropic_diagnostics(state) == diagnostics_oracle(state)
        else:
            with pytest.raises(ValueError, match="isotropic T-stable subspace"):
                isotropic_diagnostics(state)


@pytest.mark.parametrize(
    "shape, rows, isotropic, t_stable",
    [
        # span{u0, v0}: half dimension and T-stable (T = 0), not isotropic
        (SpaceShape(3, 1, (1,)), [[1, 0, 0, 0], [0, 1, 0, 0]], False, True),
        # span{u0, T^2 u0, T v0 + T^2 v0}: isotropic, but T u0 is missing
        (SpaceShape(3, 3), [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 1]],
         True, False),
        # span{T^2 u0}: isotropic and T-stable, one row short of half
        (SpaceShape(3, 3), [[0, 0, 1, 0, 0, 0]], True, True),
    ],
    ids=["not-isotropic", "not-t-stable", "too-short"],
)
def test_isotropic_diagnostics_rejects_non_lagrangians(shape, rows, isotropic, t_stable):
    sub = FpSubspace(shape, rows)
    assert (sub.is_isotropic(), sub.is_t_stable()) == (isotropic, t_stable)
    with pytest.raises(ValueError, match="isotropic T-stable subspace of half dimension"):
        isotropic_diagnostics(sub)


@pytest.mark.parametrize(
    "sub", ["x", None, np.eye(2, dtype=np.int64)], ids=["str", "none", "array"]
)
def test_isotropic_diagnostics_rejects_a_non_subspace(sub):
    with pytest.raises(TypeError, match="expected an FpSubspace"):
        isotropic_diagnostics(sub)


SHAPE = SpaceShape(3, 1, (1,))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: count_maximal_isotropic("x"), "expected a SpaceShape, got str"),
        (lambda: next(enumerate_maximal_isotropic("x")), "expected a SpaceShape, got str"),
        (lambda: gram_matrix("x"), "expected a SpaceShape, got str"),
        (lambda: t_action_matrix("x"), "expected a SpaceShape, got str"),
        (lambda: FpSubspace("x"), "expected a SpaceShape, got str"),
        (lambda: SpaceElement("x", []), "expected a SpaceShape, got str"),
        (lambda: SpaceElement(SHAPE, [1, 2, 3, 4]), "expected a TruncatedSeries, got int"),
        (lambda: SpaceElement.from_vector("x", [0]), "expected a SpaceShape, got str"),
        (lambda: SpaceElement.generator("x", 0, 0), "expected a SpaceShape, got str"),
        (lambda: SpaceElement.generator(SHAPE, 0, 0).pair(3), "expected a SpaceElement, got int"),
        (lambda: ModuleVector(1, 2), "expected a TruncatedSeries, got int"),
        (lambda: is_maximal("x"), "expected a ModuleVector, got str"),
    ],
    ids=[
        "count", "enumerate", "gram", "t-action", "subspace", "element-shape",
        "element-coords", "from-vector", "generator", "pair", "module-vector",
        "is-maximal",
    ],
)
def test_entry_points_reject_an_argument_of_the_wrong_type(call, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "shape",
    [SpaceShape(97, 1, (1,)), SpaceShape(13, 1, (1, 1)), SpaceShape(3, 3, (3, 3))],
    ids=str,
)
def test_enumeration_refuses_more_vectors_than_the_listing_bound(shape):
    # p^dim above MAX_SUBSPACE_VECTORS, though the dimension is within bound;
    # (3,3,(3,3)) is refused though its torsion shape (3,3,(3,)) is not
    message = r"p\^dim = \d+ member vectors exceed 2000000"
    with pytest.raises(ResourceBoundError, match=message):
        list(enumerate_maximal_isotropic(shape))
    with pytest.raises(ResourceBoundError, match=message):
        count_maximal_isotropic(shape)


def test_diagnostics_split_and_nonsplit_cases():
    shape = SpaceShape(3, 1, (1,))
    reports = {r.subspace.key(): r for r in enumerate_maximal_isotropic(shape)}
    split = FpSubspace(shape, [[1, 0, 0, 0], [0, 0, 1, 0]])  # span{u0, e1}
    mixed = FpSubspace(shape, [[1, 0, 1, 0], [0, 1, 0, 2]])  # span{u0+e1, v0-f1}
    assert reports[split.key()].splits
    assert not reports[mixed.key()].splits


def test_enumeration_resource_guard():
    with pytest.raises(ResourceBoundError):
        list(enumerate_maximal_isotropic(SpaceShape(3, 9)))


def test_vectors_guard_and_members():
    shape = SpaceShape(3, 1, (1,))
    sub = FpSubspace(shape, [[1, 0, 0, 0], [0, 0, 1, 0]])
    vecs = sub.vectors()
    assert len(vecs) == 9
    assert not reduce_rows(sub.basis, sub.pivots, vecs, 3).any()
    zero = FpSubspace(shape).vectors()
    assert zero.shape == (1, shape.dim) and not zero.any()
    # 97^4 members exceed the listing bound, so none is built
    whole = FpSubspace(SpaceShape(97, 1, (1,)), np.eye(4, dtype=np.int64))
    with pytest.raises(ResourceBoundError, match="p\\^dim = 88529281 member vectors"):
        whole.vectors()


def test_act_is_module_action():
    rng = np.random.default_rng(38)
    shape = SpaceShape(3, 3, (1,))
    for _ in range(50):
        x = random_element(shape, rng)
        s = tuple(int(c) for c in rng.integers(0, 3, 3))
        t = tuple(int(c) for c in rng.integers(0, 3, 3))
        st = (
            TruncatedSeries(3, s) * TruncatedSeries(3, t)
        ).coeffs
        assert x.act(s).act(t) == x.act(st)
