from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from fpmods import (
    ProbabilityModel,
    RngSpec,
    chi_square_uniformity,
    collision_probability_census,
    collision_probability_exact,
    count_maximal,
    enumerate_maximal,
    intersect,
    intersection_bound,
    monte_carlo,
    pushforward_consistency,
    sample_maximal,
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


def test_probability_model_fields():
    model = ProbabilityModel.for_level(3, 2)
    assert model.total_pairs == 144
    assert model.collision_pairs == 12
    assert model.collision_probability == Fraction(1, 12)
    assert model.collision_probability == Fraction(
        model.collision_pairs, model.total_pairs
    )
    assert model.collision_probability == collision_probability_exact(3, 2)


def test_intersection_bound_values_and_monotonicity():
    assert intersection_bound(3, 1) == Fraction(3, 4)
    assert intersection_bound(3, 2) == Fraction(11, 12)
    for p in (3, 5, 7):
        bounds = [intersection_bound(p, n) for n in range(1, 9)]
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert all(0 < b < 1 for b in bounds)


def test_rng_spec_validation_and_determinism():
    with pytest.raises(ValueError):
        RngSpec(-1)
    with pytest.raises(ValueError):
        RngSpec(2**64)
    spec = RngSpec(123)
    a = spec.stream(5, 0).integers(0, 1000, 10)
    b = RngSpec(123).stream(5, 0).integers(0, 1000, 10)
    c = spec.stream(5, 1).integers(0, 1000, 10)
    assert (a == b).all()
    assert (a != c).any()


def test_sample_maximal_supports_everything():
    p, n = 3, 2
    spec = RngSpec(99)
    seen = {sample_maximal(p, n, spec.stream(i)).index() for i in range(2000)}
    assert seen == set(range(count_maximal(p, n)))


def test_sample_pair_deterministic_and_independent():
    spec = RngSpec(7)
    pair = sample_pair(3, 3, spec, 11)
    again = sample_pair(3, 3, RngSpec(7), 11)
    assert pair == again
    other_trial = sample_pair(3, 3, spec, 12)
    assert (pair.n1, pair.n2) != (other_trial.n1, other_trial.n2)


def test_kind_a_branch_probability():
    # structurally: kind A occupies indices [0, p^n) of [0, (p+1)p^(n-1))
    p, n = 3, 2
    assert Fraction(p**n, count_maximal(p, n)) == Fraction(p, p + 1)
    spec = RngSpec(3)
    draws = 4000
    hits = sum(
        1 for i in range(draws) if sample_maximal(p, n, spec.stream(i)).kind == "A"
    )
    q = p / (p + 1)
    tol = 4 * (q * (1 - q) / draws) ** 0.5
    assert abs(hits / draws - q) <= tol


def test_chi_square_uniformity_sane():
    stat, dof = chi_square_uniformity(3, 2, 200_000, RngSpec(17))
    assert dof == 11
    assert stat < chi2.ppf(0.999, dof)


def test_monte_carlo_matches_exact_within_four_sigma():
    res = monte_carlo(3, 2, 20_000, RngSpec(5))
    assert res.exact == Fraction(1, 12)
    assert abs(float(res.frequency) - float(res.exact)) <= 4 * res.stderr
    assert res.collisions == res.exponent_counts.get(2, 0)
    assert sum(res.exponent_counts.values()) == res.trials
    assert sum(res.quotient_structure_counts.values()) == res.trials


def test_monte_carlo_thread_counts_agree():
    base = monte_carlo(3, 2, 3001, RngSpec(8), threads=1)
    for threads in (2, 3, 8):
        assert monte_carlo(3, 2, 3001, RngSpec(8), threads=threads) == base
    assert monte_carlo(3, 2, 3001, RngSpec(8), threads=0) == base


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
    with pytest.raises(ValueError):
        monte_carlo(3, 2, 10, RngSpec(0), threads=-1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: RngSpec(True),
        lambda: monte_carlo(3, 2, True, RngSpec(0)),
        lambda: monte_carlo(3, 2, 10, RngSpec(0), threads=True),
        lambda: tower_experiment(3, 2, True, RngSpec(0)),
        lambda: tower_experiment(3, True, 10, RngSpec(0)),
    ],
    ids=["seed", "trials", "threads", "tower-trials", "tower-level"],
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
