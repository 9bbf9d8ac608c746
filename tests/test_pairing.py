import collections
import itertools
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
    enumerate_maximal_isotropic,
    gram_matrix,
    isotropic_diagnostics,
    t_action_matrix,
)
from fpmods import pairing
from fpmods.errors import InvariantError, ResourceBoundError
from fpmods.linalg import nullspace, rank, reduce_rows, rref

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
        assert r.rank_projection_dim == 1
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


@pytest.mark.parametrize("torsion", [(1,), (1, 1)], ids=["1", "1-1"])
def test_enumeration_rejects_a_child_out_of_echelon_form(monkeypatch, torsion):
    # an identity "kernel" offers w that are nonzero on the state's pivots,
    # so [w; state basis] is not a reduced echelon basis; the child check
    # must catch it before a wrong subspace is built, and name the torsion
    # levels, which p and n alone do not determine
    monkeypatch.setattr(
        pairing,
        "_socle_kernels",
        lambda shape, states: [np.eye(shape.dim, dtype=np.int64) for _ in states],
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
    """Oracle: the diagnostics from explicit coordinate sections, six
    eliminations per subspace."""
    shape = sub.shape
    p = shape.p
    rank_cols = slice(0, shape.rank_dim)
    torsion_cols = slice(shape.rank_dim, shape.dim)
    proj_dim = rank(sub.basis[:, rank_cols], p) if sub.dim else 0
    rank_part = _coordinate_section(sub, torsion_cols)
    torsion_part = _coordinate_section(sub, rank_cols)
    shifted = rank_part @ t_action_matrix(shape) % p
    cyclic = len(rank_part) - rank(shifted, p) <= 1
    return pairing.MaximalIsotropic(
        subspace=sub,
        rank_projection_dim=proj_dim,
        rank_intersection_dim=len(rank_part),
        torsion_intersection_dim=len(torsion_part),
        rank_intersection_cyclic=cyclic,
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
    # diagnostics against the six-elimination oracle
    found = list(enumerate_maximal_isotropic(shape))
    expected = [diagnostics_oracle(sub) for sub in socle_bfs_oracle(shape)]
    assert found == expected
    assert [r.subspace.pivots for r in found] == [r.subspace.pivots for r in expected]
    if shape == SpaceShape(3, 1, (1, 1)):
        assert len(found) == (3 + 1) * (9 + 1) * (27 + 1) == 1120


def test_orderly_generation_builds_each_state_once(monkeypatch):
    built = []
    from_rref = FpSubspace._from_rref.__func__

    def recording(cls, shape, basis, pivots):
        built.append(basis.tobytes())
        return from_rref(cls, shape, basis, pivots)

    monkeypatch.setattr(FpSubspace, "_from_rref", classmethod(recording))
    assert len(list(enumerate_maximal_isotropic(SpaceShape(3, 1, (1, 1))))) == 1120
    assert len(built) == len(set(built))


@pytest.mark.parametrize(
    "shape", [SpaceShape(3, 3, (1,)), SpaceShape(5, 1, (1,))], ids=str
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
        kernels = pairing._socle_kernels(shape, states)
        assert len(kernels) == len(states)
        for state, kernel in zip(states, kernels):
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


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("shape", [SpaceShape(3, 1, (1, 1)), SpaceShape(3, 3, (1,))], ids=str)
def test_search_chunk_size_leaves_the_reports_unchanged(monkeypatch, shape, chunk):
    # the reports compare all five diagnostics and the subspace, in order
    expected = _reports(shape)
    monkeypatch.setattr(pairing, "SEARCH_CHUNK", chunk)
    assert _reports(shape) == expected


def test_search_reads_kernels_off_stacked_eliminations(monkeypatch):
    expanded = []
    stacks = []
    socle_kernels = pairing._socle_kernels
    rref_stack = pairing.linalg.rref_stack

    def counting_kernels(shape, states):
        expanded.append(len(states))
        return socle_kernels(shape, states)

    def counting_stack(stack, p):
        stacks.append(len(stack))
        return rref_stack(stack, p)

    def refused(*args):
        raise AssertionError("the search called linalg.nullspace")

    monkeypatch.setattr(pairing, "_socle_kernels", counting_kernels)
    monkeypatch.setattr(pairing.linalg, "rref_stack", counting_stack)
    monkeypatch.setattr(pairing.linalg, "nullspace", refused)
    assert len(list(enumerate_maximal_isotropic(SpaceShape(3, 1, (1, 1))))) == 1120
    assert stacks == expanded
    assert len(stacks) < sum(expanded)


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
    "shape", [SpaceShape(97, 1, (1,)), SpaceShape(13, 1, (1, 1))], ids=str
)
def test_enumeration_refuses_more_vectors_than_the_listing_bound(shape):
    # p^dim above MAX_SUBSPACE_VECTORS, though the dimension is within bound
    message = r"p\^dim = \d+ member vectors exceed 2000000"
    with pytest.raises(ResourceBoundError, match=message):
        list(enumerate_maximal_isotropic(shape))


def test_diagnostics_split_and_nonsplit_cases():
    shape = SpaceShape(3, 1, (1,))
    reports = {r.subspace.key(): r for r in enumerate_maximal_isotropic(shape)}
    split = FpSubspace(shape, [[1, 0, 0, 0], [0, 0, 1, 0]])  # span{u0, e1}
    mixed = FpSubspace(shape, [[1, 0, 1, 0], [0, 1, 0, 2]])  # span{u0+e1, v0-f1}
    assert reports[split.key()].splits
    assert reports[split.key()].rank_intersection_dim == 1
    assert reports[split.key()].torsion_intersection_dim == 1
    assert not reports[mixed.key()].splits
    assert reports[mixed.key()].rank_intersection_dim == 0
    assert reports[mixed.key()].rank_projection_dim == 2


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
