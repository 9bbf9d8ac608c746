import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmods import (
    CyclicSubmodule,
    ModuleVector,
    SubmoduleTower,
    TruncatedSeries,
    census_maximal_generators,
    count_maximal,
    count_maximal_generators,
    enumerate_maximal,
    intersect,
    intersection_exponent_linalg,
    is_maximal,
    iter_module_vectors,
    lifts,
    project,
    sum_and_quotient,
)
from fpmods.errors import ResourceBoundError
from fpmods.linalg import reduce_rows, rref
from fpmods.series import _ODD_PRIMES, MAX_LEVEL
from fpmods.submodules import MAX_ENUM_SUBMODULES

ODD_PRIMES = sorted(_ODD_PRIMES)


def span_set(v: ModuleVector) -> frozenset:
    """All multiples tau * v, the cyclic submodule as a plain set."""
    out = set()
    for digits in itertools.product(range(v.p), repeat=v.level):
        tau = TruncatedSeries(v.p, digits)
        out.add(v.scaled(tau).flatten())
    return frozenset(out)


def random_submodule(p, n, rng) -> CyclicSubmodule:
    return CyclicSubmodule.from_index(p, n, int(rng.integers(count_maximal(p, n))))


def test_module_vector_validation():
    with pytest.raises(ValueError):
        ModuleVector(TruncatedSeries(3, (1,)), TruncatedSeries(3, (1, 0)))
    with pytest.raises(ValueError):
        ModuleVector(TruncatedSeries(3, (1,)), TruncatedSeries(5, (1,)))


def test_module_vector_addition_refuses_foreign_operands():
    v = ModuleVector(TruncatedSeries(3, (1, 2)), TruncatedSeries(3, (0, 1)))
    for other in (1, v.first, (1, 2)):
        with pytest.raises(TypeError, match="unsupported operand"):
            v + other
    assert v + v == ModuleVector(TruncatedSeries(3, (2, 1)), TruncatedSeries(3, (0, 2)))


def test_is_maximal_iff_unit_coordinate():
    for p, n in [(3, 1), (3, 2)]:
        for v in iter_module_vectors(p, n):
            expected = v.first.valuation() == 0 or v.second.valuation() == 0
            assert is_maximal(v) == expected


def test_counts_match_formulas():
    assert count_maximal(3, 1) == 4
    assert count_maximal(3, 2) == 12
    assert count_maximal(3, 3) == 36
    assert count_maximal(5, 2) == 30
    assert count_maximal_generators(3, 1) == 8
    assert count_maximal_generators(3, 2) == 72
    assert count_maximal_generators(5, 1) == 24


def test_generator_census_brute_force():
    for p, n in [(3, 1), (3, 2), (5, 1)]:
        assert census_maximal_generators(p, n) == count_maximal_generators(p, n)


def test_enumeration_distinct_and_counted():
    for p, n in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)]:
        forms = list(enumerate_maximal(p, n))
        assert len(forms) == count_maximal(p, n)
        assert len(set(forms)) == len(forms)
        kinds = [f.kind for f in forms]
        assert kinds.count("A") == p**n and kinds.count("B") == p ** (n - 1)


def enumerable_levels(p):
    return [n for n in range(1, MAX_LEVEL + 1) if count_maximal(p, n) <= MAX_ENUM_SUBMODULES]


def validated(sub: CyclicSubmodule) -> CyclicSubmodule:
    """The same form rebuilt through the checking constructor."""
    return CyclicSubmodule(sub.p, sub.level, sub.kind, sub.param)


def is_int_tuple(param) -> bool:
    return type(param) is tuple and all(type(c) is int for c in param)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 97])
def test_enumeration_matches_validated_forms_in_index_order(p):
    for n in enumerable_levels(p):
        forms = list(enumerate_maximal(p, n))
        assert forms == [validated(f) for f in forms]
        assert [f.index() for f in forms] == list(range(count_maximal(p, n)))
        assert all(is_int_tuple(f.param) for f in forms)
        for i in range(0, len(forms), 7):
            assert CyclicSubmodule.from_index(p, n, i) == forms[i]


@pytest.mark.parametrize("p, n, m", [(3, 1, 4), (3, 2, 5), (5, 1, 3), (7, 2, 3), (97, 1, 2)])
def test_project_and_lifts_match_validated_forms(p, n, m):
    for low in enumerate_maximal(p, n):
        for high in lifts(low, m):
            assert high == validated(high) and is_int_tuple(high.param)
            for k in range(1, m + 1):
                image = project(high, k)
                assert image == validated(image) and is_int_tuple(image.param)
            assert project(high, n) == low


@st.composite
def lift_case(draw):
    p = draw(st.sampled_from(ODD_PRIMES))
    n = draw(st.integers(1, MAX_LEVEL))
    most = n
    while most < MAX_LEVEL and p ** (most + 1 - n) <= 1000:
        most += 1
    m = draw(st.integers(n, most))
    i = draw(st.integers(0, count_maximal(p, n) - 1))
    return CyclicSubmodule.from_index(p, n, i), m


@settings(max_examples=80, deadline=None)
@given(lift_case())
def test_lifts_are_distinct_and_project_back(case):
    low, m = case
    lifted = list(lifts(low, m))
    assert len(lifted) == low.p ** (m - low.level)
    assert len(set(lifted)) == len(lifted)
    assert all(project(high, low.level) == low for high in lifted)


@st.composite
def submodule_pair(draw):
    """Two forms at random (p, n); same-kind pairs often share a prefix."""
    p = draw(st.sampled_from(ODD_PRIMES))
    n = draw(st.integers(1, MAX_LEVEL))
    kinds = draw(st.tuples(st.sampled_from("AB"), st.sampled_from("AB")))
    digits = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    first, second = draw(digits), draw(digits)
    shared = draw(st.integers(0, n))
    second = first[:shared] + second[shared:]
    forms = [
        CyclicSubmodule(p, n, kind, tuple(d[: n if kind == "A" else n - 1]))
        for kind, d in zip(kinds, (first, second))
    ]
    return tuple(forms)


@settings(max_examples=150, deadline=None)
@given(submodule_pair())
def test_closed_form_agrees_with_linalg_exponent_property(pair):
    n1, n2 = pair
    assert intersect(n1, n2).size_exponent == intersection_exponent_linalg(n1, n2)


def test_bools_are_rejected_as_integers():
    with pytest.raises(ValueError, match="parameter coefficients must be reduced mod p"):
        CyclicSubmodule(3, 1, "A", (True,))
    with pytest.raises(ValueError, match="parameter coefficients must be reduced mod p"):
        CyclicSubmodule(3, 3, "B", (0, False))
    with pytest.raises(ValueError, match="out of range"):
        CyclicSubmodule.from_index(3, 1, True)
    with pytest.raises(ValueError, match="out of range"):
        CyclicSubmodule.from_index(3, 1, False)


def test_param_must_be_a_tuple():
    # a list param would make the value unhashable and break lifts
    with pytest.raises(ValueError, match="param must be a tuple, got list"):
        CyclicSubmodule(3, 2, "A", [1, 2])
    with pytest.raises(ValueError, match="param must be a tuple, got list"):
        CyclicSubmodule(3, 2, "B", [1])
    with pytest.raises(ValueError, match="kind A at level 2 needs 2 parameter coefficients, got 1"):
        CyclicSubmodule(3, 2, "A", (1,))
    with pytest.raises(ValueError, match="kind B at level 2 needs 1 parameter coefficients, got 2"):
        CyclicSubmodule(3, 2, "B", (1, 2))
    sub = CyclicSubmodule(3, 2, "A", (1, 2))
    assert hash(sub) == hash(CyclicSubmodule(3, 2, "A", (1, 2)))
    assert len(list(lifts(sub, 3))) == 3


def test_enumeration_resource_guard():
    with pytest.raises(ResourceBoundError):
        list(enumerate_maximal(97, 3))
    with pytest.raises(ResourceBoundError):
        list(iter_module_vectors(5, 5))


def test_index_round_trip():
    for p, n in [(3, 3), (5, 2)]:
        for i in range(count_maximal(p, n)):
            sub = CyclicSubmodule.from_index(p, n, i)
            assert sub.index() == i
    with pytest.raises(ValueError):
        CyclicSubmodule.from_index(3, 2, 12)


def test_census_holds_every_maximal_vector_exactly_once():
    # the census is complete: a maximal vector generates a module of size
    # p^n, so lying in exactly one census form's span means it generates
    # exactly one of them
    for p, n in [(3, 1), (3, 2), (5, 1), (5, 2)]:
        spans = [span_set(f.generator) for f in enumerate_maximal(p, n)]
        for v in iter_module_vectors(p, n):
            if is_maximal(v):
                assert sum(v.flatten() in span for span in spans) == 1


def test_distinct_canonical_forms_are_distinct_modules():
    for p, n in [(3, 1), (3, 2)]:
        spans = [span_set(f.generator) for f in enumerate_maximal(p, n)]
        assert len(set(spans)) == len(spans)


def meet_generator(n1: CyclicSubmodule, v: int) -> ModuleVector:
    """A generator of T^(n - v) * N1, which intersect documents as N1 meet N2."""
    shift = TruncatedSeries.monomial(n1.p, n1.level, n1.level - v)
    return n1.generator.scaled(shift)


def test_intersection_example():
    n1 = CyclicSubmodule(3, 2, "A", (0, 0))
    n2 = CyclicSubmodule(3, 2, "A", (0, 1))
    meet = intersect(n1, n2)
    assert meet.size_exponent == 1
    gen = meet_generator(n1, meet.size_exponent)
    assert gen.flatten() == (0, 1, 0, 0)
    assert span_set(gen) == span_set(n1.generator) & span_set(n2.generator)


def test_intersection_against_set_oracle_exhaustive():
    p, n = 3, 2
    forms = list(enumerate_maximal(p, n))
    for n1 in forms:
        s1 = span_set(n1.generator)
        for n2 in forms:
            s2 = span_set(n2.generator)
            meet = intersect(n1, n2)
            common = s1 & s2
            assert len(common) == p**meet.size_exponent
            if meet.size_exponent > 0:
                gen = meet_generator(n1, meet.size_exponent)
                assert span_set(gen) == common
                assert gen.flatten() in s1 and gen.flatten() in s2
            else:
                assert common == {(0,) * (2 * n)}


def test_intersection_against_set_oracle_sampled():
    rng = np.random.default_rng(22)
    for p, n in [(3, 3), (5, 2)]:
        for _ in range(40):
            n1 = random_submodule(p, n, rng)
            n2 = random_submodule(p, n, rng)
            meet = intersect(n1, n2)
            common = span_set(n1.generator) & span_set(n2.generator)
            assert len(common) == p**meet.size_exponent


def test_closed_form_agrees_with_linalg_exponent():
    rng = np.random.default_rng(23)
    for p, n in [(3, 2), (3, 3), (5, 2), (7, 2)]:
        for _ in range(60):
            n1 = random_submodule(p, n, rng)
            n2 = random_submodule(p, n, rng)
            assert intersect(n1, n2).size_exponent == intersection_exponent_linalg(n1, n2)


def test_mixed_kind_intersections_are_trivial():
    for p, n in [(3, 2), (3, 3)]:
        a_forms = [f for f in enumerate_maximal(p, n) if f.kind == "A"]
        b_forms = [f for f in enumerate_maximal(p, n) if f.kind == "B"]
        for n1 in a_forms:
            for n2 in b_forms:
                assert intersect(n1, n2).size_exponent == 0


def test_intersect_requires_matching_parameters():
    with pytest.raises(ValueError):
        intersect(CyclicSubmodule(3, 2, "A", (0, 0)), CyclicSubmodule(3, 3, "A", (0, 0, 0)))
    with pytest.raises(ValueError):
        intersect(CyclicSubmodule(3, 2, "A", (0, 0)), CyclicSubmodule(5, 2, "A", (0, 0)))


def quotient_kernel_profile(n1, n2):
    """Oracle: dim ker(T^k) on the quotient, via coset residuals only."""
    p, n = n1.p, n1.level
    rows = np.vstack([n1.basis_rows(), n2.basis_rows()])
    reduced, piv = rref(rows, p)
    reduced = reduced[: len(piv)]
    shift = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for j in range(2 * n):
        if j % n != n - 1:
            shift[j, j + 1] = 1
    vecs = np.array(list(itertools.product(range(p), repeat=2 * n)), dtype=np.int64)
    reps = np.unique(reduce_rows(reduced, piv, vecs, p), axis=0)
    dims = []
    power = np.eye(2 * n, dtype=np.int64)
    for _ in range(n + 1):
        images = reduce_rows(reduced, piv, reps @ power % p, p)
        killed = int((~images.any(axis=1)).sum())
        k = 0
        while p**k < killed:
            k += 1
        dims.append(k)
        power = power @ shift % p
    return dims  # dims[k] = dim ker T^k


def cyclic_structure_from_profile(dims):
    """Block sizes, largest first, of a nilpotent map with dim ker T^k = dims[k].

    dims[k] - dims[k-1] blocks have size >= k.
    """
    at_least = [b - a for a, b in zip(dims, dims[1:])] + [0]
    sizes = []
    for k in range(len(dims) - 1, 0, -1):
        sizes += [k] * (at_least[k - 1] - at_least[k])
    return tuple(sizes)


# every ordered pair where that is cheap, a strided first form where not
@pytest.mark.parametrize(
    "p, n, stride",
    [(3, 1, 1), (3, 2, 1), (5, 1, 1), (7, 1, 1), (3, 3, 4), (5, 2, 5)],
)
def test_sum_and_quotient_structure_against_kernel_oracle(p, n, stride):
    forms = list(enumerate_maximal(p, n))
    for n1 in forms[::stride]:
        for n2 in forms:
            q = sum_and_quotient(n1, n2)
            dims = quotient_kernel_profile(n1, n2)
            assert q.quotient_size_exponent == dims[-1]
            assert q.cyclic_structure == cyclic_structure_from_profile(dims)


def test_quotient_of_equal_pair_is_full_cyclic():
    for p, n in [(3, 2), (3, 3), (5, 2)]:
        for form in itertools.islice(enumerate_maximal(p, n), 0, None, 5):
            q = sum_and_quotient(form, form)
            assert q.quotient_size_exponent == n
            assert q.cyclic_structure == (n,)


def test_duality_exponent_exhaustive():
    p, n = 3, 2
    forms = list(enumerate_maximal(p, n))
    assert len(forms) == 12
    for n1 in forms:
        for n2 in forms:
            assert (
                intersect(n1, n2).size_exponent
                == sum_and_quotient(n1, n2).quotient_size_exponent
            )


def test_project_truncates_and_preserves_kind():
    sub = CyclicSubmodule(3, 3, "A", (1, 2, 0))
    assert project(sub, 2) == CyclicSubmodule(3, 2, "A", (1, 2))
    assert project(sub, 3) == sub
    subb = CyclicSubmodule(3, 3, "B", (2, 1))
    assert project(subb, 2) == CyclicSubmodule(3, 2, "B", (2,))
    assert project(subb, 1) == CyclicSubmodule(3, 1, "B", ())
    with pytest.raises(ValueError):
        project(CyclicSubmodule(3, 2, "A", (0, 0)), 3)


@pytest.mark.parametrize(
    "p, n", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]
)
def test_project_equals_the_validating_rebuild(p, n):
    # project builds its image unchecked when sub is a form and m an int in
    # [1, level]; every such image is the form the checking constructor builds
    for form in enumerate_maximal(p, n):
        for m in range(1, n + 1):
            image = project(form, m)
            size = m if form.kind == "A" else m - 1
            rebuilt = CyclicSubmodule(p, m, form.kind, form.param[:size])
            assert type(image) is CyclicSubmodule
            assert image == rebuilt and hash(image) == hash(rebuilt)
            assert is_int_tuple(image.param)


LEVEL_ERROR = "level must be an integer in [1, 12], got {!r}"


@pytest.mark.parametrize(
    "sub, m, error, message",
    [
        (CyclicSubmodule(3, 2, "A", (1, 2)), True, ValueError, LEVEL_ERROR.format(True)),
        (CyclicSubmodule(3, 2, "A", (1, 2)), 0, ValueError, LEVEL_ERROR.format(0)),
        (CyclicSubmodule(3, 2, "A", (1, 2)), 13, ValueError, LEVEL_ERROR.format(13)),
        (CyclicSubmodule(3, 12, "B", (0,) * 11), 13, ValueError, LEVEL_ERROR.format(13)),
        (
            CyclicSubmodule(3, 2, "B", (1,)),
            3,
            ValueError,
            "cannot project level 2 up to level 3",
        ),
        (
            CyclicSubmodule(3, 2, "A", (1, 2)),
            np.int64(1),
            ValueError,
            LEVEL_ERROR.format(np.int64(1)),
        ),
        ((3, 2, "A", (1, 2)), 1, TypeError, "expected a CyclicSubmodule, got tuple"),
        ((3, 2, "A", (1, 2)), 0, ValueError, LEVEL_ERROR.format(0)),
        ((3, 2, "A", (1, 2)), 3, TypeError, "expected a CyclicSubmodule, got tuple"),
    ],
    ids=[
        "m-True",
        "m-0",
        "m-13",
        "m-13-at-level-12",
        "m-above-level",
        "numpy-int64-m",
        "plain-tuple",
        "plain-tuple-bad-m",
        "plain-tuple-m-above-level",
    ],
)
def test_project_errors_keep_their_type_and_message(sub, m, error, message):
    # checked in the order level, form, direction: a bad m is reported first
    with pytest.raises(error) as caught:
        project(sub, m)
    assert type(caught.value) is error and str(caught.value) == message


def test_projection_is_the_module_image():
    # the projected canonical form generates exactly the truncated span
    rng = np.random.default_rng(24)
    for _ in range(25):
        sub = random_submodule(3, 3, rng)
        low = project(sub, 2)
        # a flattened level-3 vector is (first[0:3], second[0:3])
        image = {flat[:2] + flat[3:5] for flat in span_set(sub.generator)}
        assert image == span_set(low.generator)


def test_lifts_example_and_fibers():
    base = CyclicSubmodule(3, 2, "A", (1, 2))
    lifted = list(lifts(base, 3))
    assert len(lifted) == 3
    assert {f.param for f in lifted} == {(1, 2, 0), (1, 2, 1), (1, 2, 2)}
    for f in lifted:
        assert project(f, 2) == base
    with pytest.raises(ValueError):
        list(lifts(base, 1))


def test_lifts_partition_level():
    for p, n, m in [(3, 1, 2), (3, 1, 3), (3, 2, 3), (5, 1, 2)]:
        pooled = []
        for low in enumerate_maximal(p, n):
            batch = list(lifts(low, m))
            assert len(batch) == p ** (m - n)
            pooled.extend(batch)
        assert sorted(f.index() for f in pooled) == list(range(count_maximal(p, m)))


@pytest.mark.parametrize("kind", ["A", "B"])
@pytest.mark.parametrize("p, n, m", [(3, 1, 3), (3, 2, 4), (5, 1, 3), (7, 2, 3)])
def test_lifts_come_in_census_order(p, n, m, kind):
    # the order is a contract: pushforward_consistency compares each fiber
    # of the level-m census with the lift stream, form by form
    census = list(enumerate_maximal(p, m))
    for low in enumerate_maximal(p, n):
        if low.kind != kind:
            continue
        indices = [f.index() for f in lifts(low, m)]
        assert all(a < b for a, b in zip(indices, indices[1:]))
        assert list(lifts(low, m)) == [h for h in census if project(h, n) == low]


def test_tower_validation_and_from_top():
    top = CyclicSubmodule(3, 3, "A", (1, 0, 2))
    tower = SubmoduleTower.from_top(top)
    assert tower.levels == (1, 2, 3)
    assert tower.top == top
    assert tower.p == 3
    with pytest.raises(ValueError):
        SubmoduleTower(
            (CyclicSubmodule(3, 1, "A", (2,)), CyclicSubmodule(3, 2, "A", (1, 0)))
        )
    with pytest.raises(ValueError):
        SubmoduleTower(())
    with pytest.raises(ValueError, match="stages must share p"):
        SubmoduleTower((CyclicSubmodule(3, 1, "A", (1,)), CyclicSubmodule(5, 2, "A", (1, 0))))
    with pytest.raises(ValueError, match="stage levels must strictly increase"):
        SubmoduleTower((top, top))
    partial = SubmoduleTower.from_top(top, (1, 3))
    assert partial.levels == (1, 3)
    # stages must be a tuple of forms, checked before the checks above, so
    # every tower built hashes
    with pytest.raises(ValueError, match="stages must be a tuple, got list"):
        SubmoduleTower([top])
    with pytest.raises(ValueError, match="stages must be a tuple, got str"):
        SubmoduleTower("A")
    plain = (3, 1, "A", (1,))
    for stages in [(plain,), (plain, (3, 2, "A", (1, 0))), ("A",), (top, tuple(top))]:
        with pytest.raises(TypeError, match="expected a CyclicSubmodule"):
            SubmoduleTower(stages)
    with pytest.raises(TypeError, match="expected a CyclicSubmodule, got tuple"):
        SubmoduleTower.from_top((3, 2, "A", (0, 1)))
    with pytest.raises(TypeError, match="expected a CyclicSubmodule, got tuple"):
        SubmoduleTower.from_top((3, 2, "A", (0, 1)), (1,))
    assert hash(tower) == hash(SubmoduleTower.from_top(top))


def test_tower_stabilization_exhaustive_level3():
    p, top_level = 3, 3
    forms = list(enumerate_maximal(p, top_level))
    for n1 in forms:
        t1 = SubmoduleTower.from_top(n1)
        for n2 in forms:
            t2 = SubmoduleTower.from_top(n2)
            exps = [
                intersect(a, b).size_exponent for a, b in zip(t1.stages, t2.stages)
            ]
            if n1 == n2:
                assert exps == [1, 2, 3]
            else:
                v = exps[-1]
                assert exps == [min(v, k) for k in (1, 2, 3)]
