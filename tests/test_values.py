"""Value objects: immutable, and copied or pickled through their validation.

`TruncatedSeries`, `SpaceElement`, `FpSubspace` and `CyclicSubmodule`
inherit `series.Frozen`: assigning or deleting any attribute raises
`FrozenInstanceError`, and `copy.copy`, `copy.deepcopy` and `pickle`
rebuild through the checking constructors, so a tampered pickle fails to
load. Trusted `CyclicSubmodule` forms must be indistinguishable from
validated ones. A form is a tuple (p, level, kind, param) that equals only
forms, has no order, and is never taken for a plain tuple. The frozen
dataclasses holding these objects copy and pickle through them.
"""

import copy
import dataclasses
import pickle

import pytest

from fpmods import (
    CyclicSubmodule,
    FpSubspace,
    ModuleVector,
    SpaceElement,
    SpaceShape,
    SubmoduleTower,
    TruncatedSeries,
    count_maximal,
    enumerate_maximal,
    enumerate_maximal_isotropic,
    intersect,
    lifts,
    monte_carlo,
    project,
    pushforward_consistency,
    sample_pair,
    sum_and_quotient,
)
from fpmods.probability import RngSpec
from fpmods.series import Frozen

SHAPE = SpaceShape(3, 1, (1,))


def _submodule(i: int) -> CyclicSubmodule:
    return CyclicSubmodule.from_index(3, 3, i)


VALUES = {
    "series": lambda: TruncatedSeries(5, [1, 4, 0, 2]),
    "series-zero": lambda: TruncatedSeries.zero(3, 2),
    "module-vector": lambda: ModuleVector(
        TruncatedSeries(3, [1, 2]), TruncatedSeries(3, [0, 1])
    ),
    "submodule-A": lambda: CyclicSubmodule(3, 2, "A", (1, 2)),
    "submodule-B": lambda: CyclicSubmodule(5, 1, "B", ()),
    "intersection": lambda: intersect(_submodule(1), _submodule(10)),
    "intersection-trivial": lambda: intersect(_submodule(0), _submodule(30)),
    "quotient": lambda: sum_and_quotient(_submodule(1), _submodule(10)),
    "tower": lambda: SubmoduleTower.from_top(_submodule(17)),
    "pair-sample": lambda: sample_pair(3, 3, RngSpec(7), 2),
    "pushforward-report": lambda: pushforward_consistency(3, 1, 2),
    "sampled-exponents": lambda: monte_carlo(3, 3, 500, RngSpec(7)),
    "shape": lambda: SpaceShape(3, 3, (1, 3)),
    "element": lambda: SpaceElement.from_vector(SHAPE, [1, 0, 2, 1]),
    "subspace": lambda: FpSubspace(SHAPE, [[2, 0, 1, 1], [0, 1, 0, 2]]),
    "subspace-zero": lambda: FpSubspace(SHAPE),
    "subspace-full": lambda: FpSubspace(SHAPE, [[1, 0, 0, 0], [0, 1, 0, 0],
                                                [0, 0, 1, 0], [0, 0, 0, 1]]),
    "lagrangian": lambda: list(enumerate_maximal_isotropic(SHAPE))[5],
}

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


def _bases(value):
    """Every FpSubspace basis held by value, directly or in a field."""
    if isinstance(value, FpSubspace):
        return [value.basis]
    if dataclasses.is_dataclass(value):
        return [b for f in dataclasses.fields(value) for b in _bases(getattr(value, f.name))]
    return []


@pytest.mark.parametrize("how", ROUND_TRIPS)
@pytest.mark.parametrize("name", VALUES)
def test_value_round_trips(name, how):
    value = VALUES[name]()
    restored = ROUND_TRIPS[how](value)
    assert type(restored) is type(value)
    assert restored == value
    if name not in ("pushforward-report", "sampled-exponents"):  # hold dicts
        assert hash(restored) == hash(value)
    assert repr(restored) == repr(value)
    for basis in _bases(restored):
        assert not basis.flags.writeable
        if basis.size:
            with pytest.raises(ValueError, match="read-only"):
                basis[0, 0] = 0


class _Forged:
    """Pickles as a call of `target` with `args`, as a foreign file could."""

    def __init__(self, target, *args):
        self.target, self.args = target, args

    def __reduce__(self):
        return self.target, self.args


SUBMODULE = CyclicSubmodule(3, 2, "A", (1, 2))
# a form's fields are properties of its tuple, not slots: its __slots__ is empty
FIELDS = ("p", "level", "kind", "param")


@pytest.mark.parametrize(
    "forged, message",
    [
        (_Forged(TruncatedSeries, 4, (1, 2)), "odd prime"),
        (_Forged(TruncatedSeries, 3, (1.5,)), "must be integers"),
        (_Forged(SpaceElement, SHAPE, (TruncatedSeries(3, [1]),)), "coordinates"),
        (_Forged(FpSubspace, SHAPE, [[1, 0, 2]]), "length 4"),
        (_Forged(FpSubspace, SHAPE, [[0.5, 0, 0, 0]]), "integer"),
        (_Forged(CyclicSubmodule, 4, 2, "A", (1, 2)), "odd prime"),
        (_Forged(CyclicSubmodule, 3, 2, "Q", (1, 2)), "kind must be 'A' or 'B'"),
        (_Forged(CyclicSubmodule, 3, 2, "A", (1.0, 2)), "reduced mod p"),
    ],
    ids=["series-prime", "series-float", "element-arity", "subspace-width",
         "subspace-float", "submodule-prime", "submodule-kind", "submodule-float"],
)
def test_unpickling_validates_again(forged, message):
    payload = pickle.dumps(forged)
    with pytest.raises(ValueError, match=message):
        pickle.loads(payload)


def test_unpickled_subspace_rows_are_put_in_echelon_form():
    payload = pickle.dumps(_Forged(FpSubspace, SHAPE, [[2, 0, 1, 1], [2, 0, 1, 1]]))
    restored = pickle.loads(payload)
    assert restored == FpSubspace(SHAPE, [[1, 0, 2, 2]])
    assert restored.basis.tolist() == [[1, 0, 2, 2]]


@pytest.mark.parametrize(
    "value, message",
    [
        (TruncatedSeries(3, [1, 2]), "TruncatedSeries is immutable"),
        (SpaceElement.from_vector(SHAPE, [1, 0, 2, 1]), "SpaceElement is immutable"),
        (FpSubspace(SHAPE, [[1, 0, 2, 1]]), "FpSubspace is immutable"),
        (SUBMODULE, "CyclicSubmodule is immutable"),
    ],
    ids=["series", "element", "subspace", "submodule"],
)
def test_assignment_raises_the_immutable_error(value, message):
    assert isinstance(value, Frozen)
    names = FIELDS if isinstance(value, CyclicSubmodule) else type(value).__slots__
    for candidate in (value, copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        for name in (*names, "other"):
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^{message}$"):
                setattr(candidate, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^{message}$"):
                delattr(candidate, name)
        assert candidate == value


def validated(sub: CyclicSubmodule) -> CyclicSubmodule:
    return CyclicSubmodule(sub.p, sub.level, sub.kind, sub.param)


def trusted_forms(p: int, n: int) -> list[CyclicSubmodule]:
    """Forms from each entry point that builds them unchecked."""
    census = list(enumerate_maximal(p, n))
    step = max(1, len(census) // 9)
    out = census[::step] + census[-1:]
    out += [CyclicSubmodule.from_index(p, n, i) for i in range(0, count_maximal(p, n), step)]
    out += [project(sub, m) for sub in out[:6] for m in range(1, n + 1)]
    out += [high for sub in out[:4] for high in lifts(sub, n + 1)]
    return out


@pytest.mark.parametrize("p, n", [(3, 1), (3, 4), (5, 2), (7, 3), (97, 1)])
def test_trusted_forms_are_frozen_and_equal_their_validated_rebuilds(p, n):
    forms = trusted_forms(p, n)
    assert {f.kind for f in forms} == {"A", "B"}
    for form in forms:
        rebuilt = validated(form)
        assert form == rebuilt and hash(form) == hash(rebuilt)
        assert not hasattr(form, "__dict__")
        for value in (form, rebuilt):
            for name in (*FIELDS, "other"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(value, name)
        assert form == rebuilt


def _entry_point_forms() -> list[CyclicSubmodule]:
    """Forms from every public way of making one, checked or not."""
    forms = trusted_forms(3, 3) + trusted_forms(5, 1)
    forms += [*sample_pair(3, 3, RngSpec(7), 2), *sample_pair(5, 12, RngSpec(7), 0)]
    forms += list(SubmoduleTower.from_top(_submodule(30)).stages)
    forms += [CyclicSubmodule.type_a(TruncatedSeries(5, [1, 4, 0])), SUBMODULE]
    return forms + [how(form) for form in forms[:5] for how in ROUND_TRIPS.values()]


def test_forms_from_every_entry_point_hash_as_their_validated_rebuilds():
    for form in _entry_point_forms():
        rebuilt = validated(form)
        assert type(form) is CyclicSubmodule
        assert form == rebuilt and not form != rebuilt
        assert hash(form) == hash(rebuilt)
        assert isinstance(form, tuple)
        assert tuple(form) == (form.p, form.level, form.kind, form.param)


def _plain(form: CyclicSubmodule) -> tuple:
    return (form.p, form.level, form.kind, form.param)


def test_a_form_never_equals_its_plain_tuple():
    for form in _entry_point_forms():
        plain = _plain(form)
        assert not form == plain and not plain == form
        assert form != plain and plain != form
        assert plain not in {form} and form not in {plain}
        assert not form == list(plain) and form != None  # noqa: E711
        assert form != TruncatedSeries(form.p, form.param or (0,))


def test_forms_are_unordered():
    a, b = _submodule(1), _submodule(10)
    for left, right in [(a, b), (b, a), (a, a), (a, _plain(b)), (_plain(a), b)]:
        for compare in (lambda x, y: x < y, lambda x, y: x <= y,
                        lambda x, y: x > y, lambda x, y: x >= y):
            with pytest.raises(TypeError):
                compare(left, right)
    with pytest.raises(TypeError):
        sorted([b, a])
    with pytest.raises(TypeError):
        sorted(enumerate_maximal(3, 2))
    with pytest.raises(TypeError):
        max(a, b)


def test_repr_names_the_four_fields():
    assert repr(SUBMODULE) == "CyclicSubmodule(p=3, level=2, kind='A', param=(1, 2))"
    assert repr(CyclicSubmodule(5, 1, "B", ())) == (
        "CyclicSubmodule(p=5, level=1, kind='B', param=())"
    )


def test_dataclass_holders_convert_with_their_forms_kept_whole():
    # forms name their fields as a namedtuple does, so asdict rebuilds them
    tower = VALUES["tower"]()
    for converted in (dataclasses.asdict(tower)["stages"], dataclasses.astuple(tower)[0]):
        assert converted == tower.stages
        assert all(type(stage) is CyclicSubmodule for stage in converted)


@pytest.mark.parametrize(
    "call",
    [
        lambda plain: project(plain, 1),
        lambda plain: next(lifts(plain, 3)),
        lambda plain: intersect(plain, SUBMODULE),
        lambda plain: intersect(SUBMODULE, plain),
        lambda plain: sum_and_quotient(plain, plain),
    ],
    ids=["project", "lifts", "intersect-first", "intersect-second", "sum-and-quotient"],
)
def test_a_plain_tuple_is_not_taken_for_a_form(call):
    plain = _plain(SUBMODULE)
    with pytest.raises(TypeError, match="expected a CyclicSubmodule, got tuple"):
        call(plain)
