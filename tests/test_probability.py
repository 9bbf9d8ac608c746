from collections import Counter
from fractions import Fraction

import pytest
from scipy.stats import chi2

from fpmods import probability
from fpmods import (
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
    pushforward_consistency,
    sample_pair,
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
    assert (pair.n1, pair.n2) != (other_trial.n1, other_trial.n2)


def test_sample_pair_accepts_every_kernel_trial():
    assert sample_pair(3, 2, RngSpec(5), 2**64 - 1).n1.level == 2


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
    assert sum(res.quotient_structure_counts.values()) == res.trials


def test_monte_carlo_exponents_match_exhaustive_distribution():
    p, n = 3, 2
    forms = list(enumerate_maximal(p, n))
    exact_counts = Counter(
        intersect(a, b).size_exponent for a in forms for b in forms
    )
    total_pairs = len(forms) ** 2
    res = monte_carlo(p, n, 20_000, RngSpec(13))
    for v, pairs in exact_counts.items():
        q = pairs / total_pairs
        tol = 4 * (q * (1 - q) / res.trials) ** 0.5
        assert abs(res.exponent_counts.get(v, 0) / res.trials - q) <= tol
    # duality held trial by trial: structures are single blocks keyed by v
    assert {
        (() if v == 0 else (v,)): c for v, c in res.exponent_counts.items()
    } == res.quotient_structure_counts


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
    ],
    ids=["one-lift-too-few", "lift-repeated", "another-form's-lifts"],
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


def test_pushforward_rejects_bad_levels():
    with pytest.raises(ValueError):
        pushforward_consistency(3, 2, 2)
    with pytest.raises(ValueError):
        pushforward_consistency(3, 3, 1)


def test_tower_experiment_report():
    trials = 3000
    report = tower_experiment(3, 3, trials, RngSpec(21))
    assert report.exact == Fraction(1, 36)
    assert sum(report.exponent_counts.values()) + report.collisions == trials
    assert report.stabilization_level_counts == {
        v + 1: c for v, c in report.exponent_counts.items()
    }
    expected = float(report.exact)
    tol = 4 * (expected * (1 - expected) / trials) ** 0.5
    assert abs(report.collisions / trials - expected) <= tol
    again = tower_experiment(3, 3, trials, RngSpec(21))
    assert again == report
