import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from scipy.stats import chi2

from fpmods import probability
from fpmods import (
    CyclicSubmodule,
    RngSpec,
    chi_square_uniformity,
    collision_probability_census,
    collision_probability_exact,
    count_maximal,
    enumerate_maximal,
    intersect,
    intersection_bound,
    lifts,
    monte_carlo,
    project,
    pushforward_consistency,
    sample_pair,
    sum_and_quotient,
    tower_experiment,
)
from fpmods.errors import ResourceBoundError

CENSUS_GRID = [(3, n) for n in range(1, 6)] + [(5, n) for n in range(1, 4)] + [
    (7, n) for n in range(1, 4)
]


def test_exact_collision_values():
    assert collision_probability_exact(3, 1) == Fraction(1, 4)
    assert collision_probability_exact(3, 2) == Fraction(1, 12)
    assert collision_probability_exact(3, 3) == Fraction(1, 36)
    assert collision_probability_exact(5, 1) == Fraction(1, 6)
    assert collision_probability_exact(5, 2) == Fraction(1, 30)
    assert collision_probability_exact(5, 3) == Fraction(1, 150)


def test_census_equals_closed_form_on_grid():
    for p, n in CENSUS_GRID:
        assert collision_probability_census(p, n) == collision_probability_exact(p, n)


def test_census_resource_guard():
    with pytest.raises(ResourceBoundError):
        collision_probability_census(7, 5)


def test_intersection_bound_values_and_monotonicity():
    assert intersection_bound(3, 1) == Fraction(3, 4)
    assert intersection_bound(3, 2) == Fraction(11, 12)
    for p in (3, 5, 7):
        bounds = [intersection_bound(p, n) for n in range(1, 9)]
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert all(0 < b < 1 for b in bounds)


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_intersection_bound_is_the_share_of_distinct_pairs(p, n):
    # over every ordered pair of the census: the bound is P(v < n), while a
    # nontrivial meet has probability 1/(p+1) at every level
    forms = list(enumerate_maximal(p, n))
    exponents = Counter(intersect(a, b).size_exponent for a in forms for b in forms)
    pairs = len(forms) ** 2
    below = sum(count for v, count in exponents.items() if v < n)
    assert intersection_bound(p, n) == Fraction(below, pairs)
    assert Fraction(pairs - exponents[0], pairs) == Fraction(1, p + 1)


def test_rng_spec_validation():
    with pytest.raises(ValueError):
        RngSpec(-1)
    with pytest.raises(ValueError):
        RngSpec(2**64)


def test_sample_pair_deterministic_and_independent():
    spec = RngSpec(7)
    pair = sample_pair(3, 3, spec, 11)
    again = sample_pair(3, 3, RngSpec(7), 11)
    assert pair == again
    other_trial = sample_pair(3, 3, spec, 12)
    assert pair != other_trial


def test_sample_pair_accepts_every_kernel_trial():
    n1, n2 = sample_pair(3, 2, RngSpec(5), 2**64 - 1)
    assert n1.level == n2.level == 2


@pytest.mark.parametrize("trial", [True, 1.5, -1, 2**64])
def test_sample_pair_rejects_bad_trials(trial):
    with pytest.raises(ValueError, match="trial"):
        sample_pair(3, 2, RngSpec(5), trial)


def test_chi_square_uniformity_sane():
    stat, dof = chi_square_uniformity(3, 2, 200_000, RngSpec(17))
    assert dof == 11
    assert stat < chi2.ppf(0.999, dof)


@pytest.mark.parametrize("draws", [0, -5, True, 2.0])
def test_chi_square_uniformity_rejects_bad_draws(draws):
    with pytest.raises(ValueError, match="draws"):
        chi_square_uniformity(3, 2, draws, RngSpec(17))


@pytest.mark.parametrize("n", [5, 12])
def test_chi_square_uniformity_resource_guard(n, monkeypatch):
    # (97, 5) has about 8.7e9 forms: the guard must fire before the module
    # touches numpy to allocate one counter per form
    monkeypatch.setattr(probability, "np", None)
    with pytest.raises(ResourceBoundError, match="census bound"):
        chi_square_uniformity(97, n, 10, RngSpec(0))


def test_monte_carlo_matches_exact_within_four_sigma():
    res = monte_carlo(3, 2, 20_000, RngSpec(5))
    assert res.exact == Fraction(1, 12)
    assert abs(float(res.frequency) - float(res.exact)) <= 4 * res.stderr
    assert res.collisions == res.exponent_counts.get(2, 0)
    assert sum(res.exponent_counts.values()) == res.trials


def test_monte_carlo_exponents_match_exhaustive_distribution():
    p, n = 3, 2
    forms = list(enumerate_maximal(p, n))
    exact_counts = Counter(
        intersect(a, b).size_exponent for a in forms for b in forms
    )
    # duality over every pair: the quotient by the sum is cyclic of order p^v,
    # so the exponent histogram is also the quotient-structure histogram
    assert Counter(
        sum_and_quotient(a, b).cyclic_structure for a in forms for b in forms
    ) == {(() if v == 0 else (v,)): c for v, c in exact_counts.items()}
    total_pairs = len(forms) ** 2
    res = monte_carlo(p, n, 20_000, RngSpec(13))
    for v, pairs in exact_counts.items():
        q = pairs / total_pairs
        tol = 4 * (q * (1 - q) / res.trials) ** 0.5
        assert abs(res.exponent_counts.get(v, 0) / res.trials - q) <= tol


def test_monte_carlo_seed_sensitivity():
    a = monte_carlo(3, 2, 2000, RngSpec(1))
    b = monte_carlo(3, 2, 2000, RngSpec(2))
    assert a != b


def test_monte_carlo_validation():
    with pytest.raises(ValueError):
        monte_carlo(3, 2, 0, RngSpec(0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: RngSpec(True),
        lambda: monte_carlo(3, 2, True, RngSpec(0)),
        lambda: tower_experiment(3, 2, True, RngSpec(0)),
        lambda: tower_experiment(3, True, 10, RngSpec(0)),
    ],
    ids=["seed", "trials", "tower-trials", "tower-level"],
)
def test_bool_rejected_where_ints_are_expected(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("spec", [7, None], ids=["int", "none"])
@pytest.mark.parametrize(
    "call",
    [
        lambda spec: sample_pair(3, 2, spec, 0),
        lambda spec: monte_carlo(3, 2, 10, spec),
        lambda spec: tower_experiment(3, 2, 10, spec),
        lambda spec: chi_square_uniformity(3, 2, 10, spec),
    ],
    ids=["sample_pair", "monte_carlo", "tower_experiment", "chi_square"],
)
def test_a_spec_that_is_not_an_rng_spec_is_a_type_error(call, spec, monkeypatch):
    def refuse(*args):
        raise RuntimeError("drew before checking the spec")

    monkeypatch.setattr(probability, "_trial_keys", refuse)
    name = type(spec).__name__
    with pytest.raises(TypeError, match=f"^spec must be an RngSpec, got {name}$"):
        call(spec)


def test_pushforward_consistency_grid():
    for p, n, m in [(3, 1, 2), (3, 1, 3), (3, 2, 3), (5, 1, 2)]:
        report = pushforward_consistency(p, n, m)
        assert report.expected_fiber == p ** (m - n)
        assert report.fibers_uniform
        assert report.lifts_partition
        assert len(report.fiber_counts) == count_maximal(p, n)
        assert set(report.fiber_counts.values()) == {p ** (m - n)}


@pytest.mark.parametrize(
    "change",
    [
        lambda lifted: lifted[:-1],
        lambda lifted: lifted[:-1] + lifted[:1],
        lambda lifted: list(lifts(list(enumerate_maximal(3, 1))[1], 2)),
        lambda lifted: lifted + lifted[:1],
    ],
    ids=[
        "one-lift-too-few",
        "lift-repeated",
        "another-form's-lifts",
        "one-lift-too-many",
    ],
)
def test_pushforward_detects_bad_lifts(change, monkeypatch):
    real = probability.lifts
    first = next(enumerate_maximal(3, 1))

    def patched(low, m):
        lifted = list(real(low, m))
        return change(lifted) if low == first else lifted

    monkeypatch.setattr(probability, "lifts", patched)
    report = pushforward_consistency(3, 1, 2)
    assert report.fibers_uniform
    assert not report.lifts_partition


def test_pushforward_detects_a_wrong_projection(monkeypatch):
    real = probability.project
    stray = next(enumerate_maximal(3, 2))
    wrong = next(f for f in enumerate_maximal(3, 1) if f != real(stray, 1))

    def patched(high, n):
        return wrong if high == stray else real(high, n)

    monkeypatch.setattr(probability, "project", patched)
    report = pushforward_consistency(3, 1, 2)
    assert not report.fibers_uniform
    assert not report.lifts_partition


def two_pass_report(p, n, m):
    """The two-pass pushforward check, as an oracle: counts the fibers over
    the level-m census, then lifts every level-n form and checks its lifts
    as a set. It calls the module's names, so faults patched in there reach
    it too."""
    expected = p ** (m - n)
    census = probability.enumerate_maximal
    fibers = Counter(probability.project(high, n) for high in census(p, m))
    low_forms = list(census(p, n))
    census_set = set(low_forms)
    uniform = len(fibers) == len(low_forms) and all(
        fibers[f] == expected for f in low_forms
    )
    lifted = {low: list(probability.lifts(low, m)) for low in low_forms}
    partition = all(
        len(set(highs)) == len(highs) == expected
        and all(probability.project(h, n) == low for h in highs)
        for low, highs in lifted.items()
    )
    return probability.PushforwardReport(
        p=p,
        low_level=n,
        high_level=m,
        expected_fiber=expected,
        fibers_uniform=uniform,
        lifts_partition=partition,
        fiber_counts=dict(
            sorted((f.index(), c) for f, c in fibers.items() if f in census_set)
        ),
        stray_counts={f: c for f, c in fibers.items() if f not in census_set},
    )


# every 1 <= n < m with an enumerable level-m census; it holds the
# benchmark's (3, 1, 8), (5, 1, 5) and (7, 1, 4)
PUSHFORWARD_GRID = [
    (p, n, m)
    for p in (3, 5, 7)
    for m in range(2, 13)
    if count_maximal(p, m) <= 10_000
    for n in range(1, m)
]


@pytest.mark.parametrize("p, n, m", PUSHFORWARD_GRID)
def test_pushforward_matches_the_two_pass_check(p, n, m):
    report = pushforward_consistency(p, n, m)
    assert report == two_pass_report(p, n, m)
    assert list(report.fiber_counts) == list(range(count_maximal(p, n)))
    assert report.stray_counts == {}
    assert report.fibers_uniform and report.lifts_partition


def test_pushforward_detects_a_repeated_census_form(monkeypatch):
    # the level-2 census yields its form 0 again in place of form 3, of the
    # same fiber: every fiber keeps its size and the lifts are right, so the
    # two-pass check reads both flags true
    real = probability.enumerate_maximal
    census = list(real(3, 2))
    assert project(census[0], 1) == project(census[3], 1)

    def patched(p, n):
        return iter(census[:3] + census[:1] + census[4:]) if n == 2 else real(p, n)

    monkeypatch.setattr(probability, "enumerate_maximal", patched)
    oracle = two_pass_report(3, 1, 2)
    assert oracle.fibers_uniform and oracle.lifts_partition
    report = pushforward_consistency(3, 1, 2)
    assert report == replace(oracle, lifts_partition=False)


def test_pushforward_requires_lifts_in_census_order(monkeypatch):
    real = probability.lifts
    monkeypatch.setattr(probability, "lifts", lambda low, m: list(real(low, m))[::-1])
    oracle = two_pass_report(3, 1, 3)
    assert oracle.fibers_uniform and oracle.lifts_partition
    report = pushforward_consistency(3, 1, 3)
    assert report == replace(oracle, lifts_partition=False)


def test_pushforward_counts_a_projection_outside_the_census(monkeypatch):
    real = probability.project
    stray = next(enumerate_maximal(3, 2))
    outside = CyclicSubmodule(3, 2, "B", (2,))  # level 2, index 11

    def patched(high, n):
        return outside if high == stray else real(high, n)

    monkeypatch.setattr(probability, "project", patched)
    report = pushforward_consistency(3, 1, 2)
    assert not report.fibers_uniform
    assert not report.lifts_partition
    assert report.fiber_counts == {0: 2, 1: 3, 2: 3, 3: 3}
    assert report.stray_counts == {outside: 1}
    assert report == two_pass_report(3, 1, 2)


def test_pushforward_keeps_a_stray_apart_from_the_census_form_of_its_index(
    monkeypatch,
):
    # the stray has index 0, like the census form 0 it takes a form from
    real = probability.project
    stray = next(enumerate_maximal(3, 2))
    outside = CyclicSubmodule(5, 1, "A", (0,))

    def patched(high, n):
        return outside if high == stray else real(high, n)

    monkeypatch.setattr(probability, "project", patched)
    report = pushforward_consistency(3, 1, 2)
    assert not report.fibers_uniform
    assert not report.lifts_partition
    assert report.fiber_counts == {0: 2, 1: 3, 2: 3, 3: 3}
    assert report.stray_counts == {outside: 1}
    counted = sum(report.fiber_counts.values()) + sum(report.stray_counts.values())
    assert counted == count_maximal(3, 2)
    assert report == two_pass_report(3, 1, 2)


def test_pushforward_detects_an_extra_form_projecting_outside(monkeypatch):
    # a p = 5 form appended to the p = 3 census leaves every fiber full, so
    # only check (1) sees its projection, level-1 index 4, outside the census
    real = probability.enumerate_maximal
    extra = CyclicSubmodule(5, 2, "A", (4, 4))

    def patched(p, n):
        return iter([*real(p, n), extra]) if n == 2 else real(p, n)

    monkeypatch.setattr(probability, "enumerate_maximal", patched)
    report = pushforward_consistency(3, 1, 2)
    assert report.fiber_counts == {0: 3, 1: 3, 2: 3, 3: 3}
    assert report.stray_counts == {CyclicSubmodule(5, 1, "A", (4,)): 1}
    assert not report.fibers_uniform
    assert not report.lifts_partition
    assert report == replace(two_pass_report(3, 1, 2), lifts_partition=False)


def test_pushforward_counts_a_plain_tuple_image_as_a_stray(monkeypatch):
    # the fiber table's keys are plain tuples, but only forms are looked up:
    # an image with a census form's fields and no form's type is a stray
    real = probability.project
    stray = next(enumerate_maximal(3, 2))
    image = tuple(real(stray, 1))

    def patched(high, n):
        return image if high == stray else real(high, n)

    monkeypatch.setattr(probability, "project", patched)
    report = pushforward_consistency(3, 1, 2)
    assert not report.fibers_uniform
    assert not report.lifts_partition
    assert report.fiber_counts == {0: 2, 1: 3, 2: 3, 3: 3}
    assert report.stray_counts == {image: 1}
    assert type(next(iter(report.stray_counts))) is tuple
    assert report == two_pass_report(3, 1, 2)


def test_pushforward_rejects_a_plain_tuple_lift(monkeypatch):
    # a lift with the next census form's fields and no form's type does not
    # match it; the fibers, counted off the census, stay uniform
    real = probability.lifts
    first = next(enumerate_maximal(3, 1))

    def patched(low, m):
        lifted = real(low, m)
        if low == first:
            yield tuple(next(lifted))
        yield from lifted

    monkeypatch.setattr(probability, "lifts", patched)
    report = pushforward_consistency(3, 1, 2)
    assert report.fibers_uniform
    assert not report.lifts_partition
    assert report.fiber_counts == {0: 3, 1: 3, 2: 3, 3: 3}
    assert report.stray_counts == {}


def test_pushforward_memory_is_flat_in_the_high_level():
    # the lift streams hold O(p^n) state; the two-pass check held all
    # p^(m-1) * (p + 1) lifted forms at once, about 1.6 MB at (3, 1, 8)
    pushforward_consistency(3, 1, 2)
    tracemalloc.start()
    try:
        pushforward_consistency(3, 1, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_pushforward_rejects_bad_levels():
    with pytest.raises(ValueError):
        pushforward_consistency(3, 2, 2)
    with pytest.raises(ValueError):
        pushforward_consistency(3, 3, 1)


def test_tower_experiment_report():
    trials = 3000
    report = tower_experiment(3, 3, trials, RngSpec(21))
    assert (report.level, report.trials, report.seed) == (3, trials, 21)
    assert report.exact == Fraction(1, 36)
    assert sum(report.exponent_counts.values()) == trials
    assert report.collisions == report.exponent_counts.get(3, 0)
    assert set(report.exponent_counts) <= {0, 1, 2, 3}
    # one histogram read two ways: the tower's is the Monte Carlo one
    assert report == monte_carlo(3, 3, trials, RngSpec(21))
    expected = float(report.exact)
    tol = 4 * (expected * (1 - expected) / trials) ** 0.5
    assert abs(report.collisions / trials - expected) <= tol
    again = tower_experiment(3, 3, trials, RngSpec(21))
    assert again == report
