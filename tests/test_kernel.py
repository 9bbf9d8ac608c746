"""Differential tests of the index-space sampling kernel against the scalar path."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from fpmods import (
    InvariantError,
    QuotientStructure,
    RngSpec,
    SubmoduleTower,
    chi_square_uniformity,
    count_maximal,
    enumerate_maximal,
    intersect,
    intersection_exponent_linalg,
    monte_carlo,
    sample_pair,
    sum_and_quotient,
    tower_experiment,
)
from fpmods import probability
from fpmods.probability import (
    CHUNK_TRIALS,
    _kernel_indices,
    _pair_exponents,
    _trial_keys,
)


def kind_pair(pair):
    return 2 * (pair.n1.kind == "B") + (pair.n2.kind == "B")


@pytest.mark.parametrize("p, n", [(3, 1), (3, 3), (5, 2), (3, 12), (97, 12)])
def test_kernel_matches_scalar_path_per_trial(p, n):
    spec = RngSpec(404)
    trials = 2000
    kinds, v = _pair_exponents(p, n, _trial_keys(spec.seed, 0, trials))
    for t in range(trials):
        pair = sample_pair(p, n, spec, t)
        vt = int(v[t])
        assert kind_pair(pair) == kinds[t]
        assert intersect(pair.n1, pair.n2).size_exponent == vt
        assert (pair.n1 == pair.n2) == (vt == n)
        assert sum_and_quotient(pair.n1, pair.n2) == QuotientStructure(
            vt, (vt,) if vt else ()
        )


def test_kernel_indices_match_sample_pair():
    p, n, spec = 5, 3, RngSpec(9)
    keys = _trial_keys(spec.seed, 0, 300)
    first = _kernel_indices(p, n, keys, 0)
    second = _kernel_indices(p, n, keys, 1)
    for t in range(300):
        pair = sample_pair(p, n, spec, t)
        assert (pair.n1.index(), pair.n2.index()) == (first[t], second[t])


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 3), (5, 2)])
def test_index_space_formula_on_every_ordered_pair(p, n, monkeypatch):
    """Feed the kernel the digits of every ordered index pair."""
    count = count_maximal(p, n)
    index = np.arange(count * count, dtype=np.int64)
    indices = (index // count, index % count)

    def digits(keys, coord, j, bound):
        assert len(keys) == count * count
        if j == n - 1:
            return indices[coord] // p ** (n - 1)
        return indices[coord] // p**j % p

    monkeypatch.setattr(probability, "_digit", digits)
    kinds, v = _pair_exponents(p, n, index.astype(np.uint64))
    forms = list(enumerate_maximal(p, n))
    for k, (i, j) in enumerate(zip(*indices)):
        a, b = forms[i], forms[j]
        vk = int(v[k])
        assert kinds[k] == 2 * (a.kind == "B") + (b.kind == "B")
        assert intersection_exponent_linalg(a, b) == vk
        assert sum_and_quotient(a, b) == QuotientStructure(vk, (vk,) if vk else ())


def test_kernel_pair_indices_chi_square():
    # joint cells of both coordinates, so this also tests their independence
    p, n, draws = 3, 2, 1_000_000
    count = count_maximal(p, n)
    keys = _trial_keys(31, 0, draws)
    cells = _kernel_indices(p, n, keys, 0) * count + _kernel_indices(p, n, keys, 1)
    observed = np.bincount(cells, minlength=count * count)
    assert (observed > 0).all()  # full support
    expected = draws / count**2
    stat = float((((observed - expected) ** 2) / expected).sum())
    assert stat < chi2.ppf(0.999, count * count - 1)
    # kind A is top digit < p, that is, index < p^n; its share is p/(p+1)
    kind_a = float((cells // count < p**n).mean())
    q = p / (p + 1)
    assert abs(kind_a - q) <= 4 * (q * (1 - q) / draws) ** 0.5


def test_rejected_words_are_redrawn(monkeypatch):
    """With half of all words rejected, draws stay uniform and consistent."""
    monkeypatch.setattr(
        probability, "_accept_max", lambda bound: np.uint64(2**63) // bound * bound - 1
    )
    p, n, spec = 3, 2, RngSpec(5)
    stat, dof = chi_square_uniformity(p, n, 60_000, spec)
    assert stat < chi2.ppf(0.999, dof)
    keys = _trial_keys(spec.seed, 0, 200)
    first = _kernel_indices(p, n, keys, 0)
    for t in range(200):
        assert sample_pair(p, n, spec, t).n1.index() == first[t]
    assert (first == _kernel_indices(p, n, keys, 0)).all()


def test_chunking_does_not_change_results(monkeypatch):
    p, n, spec = 3, 2, RngSpec(77)
    trials = 3 * CHUNK_TRIALS + 17
    base = monte_carlo(p, n, trials, spec)
    # one run split at a chunk boundary into two independent halves
    halves = [
        _pair_exponents(p, n, _trial_keys(spec.seed, a, b))[1]
        for a, b in ((0, CHUNK_TRIALS), (CHUNK_TRIALS, trials))
    ]
    assert dict(sorted(Counter(np.concatenate(halves).tolist()).items())) == (
        base.exponent_counts
    )
    monkeypatch.setattr(probability, "CHUNK_TRIALS", 4999)
    assert monte_carlo(p, n, trials, spec) == base


def scalar_monte_carlo(p, n, trials, spec):
    exps, quots, hits = Counter(), Counter(), 0
    for t in range(trials):
        pair = sample_pair(p, n, spec, t)
        exps[intersect(pair.n1, pair.n2).size_exponent] += 1
        quots[sum_and_quotient(pair.n1, pair.n2).cyclic_structure] += 1
        hits += pair.n1 == pair.n2
    return hits, dict(sorted(exps.items())), dict(sorted(quots.items()))


def scalar_tower(p, n, trials, spec):
    v_counts, hits = Counter(), 0
    for t in range(trials):
        pair = sample_pair(p, n, spec, t)
        stages = zip(
            SubmoduleTower.from_top(pair.n1).stages,
            SubmoduleTower.from_top(pair.n2).stages,
        )
        exps = [intersect(a, b).size_exponent for a, b in stages]
        if pair.n1 == pair.n2:
            hits += 1
        else:
            v_counts[exps[-1]] += 1
    return hits, dict(sorted(v_counts.items()))


def test_monte_carlo_equals_scalar_reference():
    p, n, spec = 3, 2, RngSpec(12)
    res = monte_carlo(p, n, 400, spec)
    # the quotient by the sum is cyclic of order p^v: its structure is (v,)
    quotients = {((v,) if v else ()): c for v, c in res.exponent_counts.items()}
    assert (res.collisions, res.exponent_counts, quotients) == scalar_monte_carlo(
        p, n, 400, spec
    )


def test_tower_equals_scalar_reference():
    p, n, spec = 3, 4, RngSpec(12)
    res = tower_experiment(p, n, 400, spec)
    distinct = {v: c for v, c in res.exponent_counts.items() if v < n}
    assert (res.collisions, distinct) == scalar_tower(p, n, 400, spec)


def test_oracle_runs_once_per_observed_class(monkeypatch):
    checked = []
    original = probability._check_trial

    def spy(p, n, spec, trial, kinds, v):
        checked.append((kinds, v))
        original(p, n, spec, trial, kinds, v)

    monkeypatch.setattr(probability, "_check_trial", spy)
    p, n, spec, trials = 3, 3, RngSpec(3), 2 * CHUNK_TRIALS
    monte_carlo(p, n, trials, spec)
    kinds, v = _pair_exponents(p, n, _trial_keys(spec.seed, 0, trials))
    observed = set(zip(kinds.tolist(), v.tolist()))
    assert sorted(checked) == sorted(observed)
    assert len(checked) == len(set(checked))


def _corrupt_trial(trial, n):
    """A kernel that labels `trial` as a mixed pair of exponent n."""
    original = probability._pair_exponents

    def corrupt(p, level, keys):
        kinds, v = original(p, level, keys)
        if len(keys) > trial:
            kinds, v = kinds.copy(), v.copy()
            kinds[trial], v[trial] = 1, n
        return kinds, v

    return corrupt


@pytest.mark.parametrize("experiment", [monte_carlo, tower_experiment])
def test_kernel_mismatch_raises_invariant_error(experiment, monkeypatch):
    monkeypatch.setattr(probability, "_pair_exponents", _corrupt_trial(7, 3))
    with pytest.raises(InvariantError, match=r"seed=41, trial=7") as info:
        experiment(3, 3, 100, RngSpec(41))
    assert (info.value.p, info.value.n, info.value.seed, info.value.trial) == (
        3, 3, 41, 7,
    )


@pytest.mark.parametrize("experiment", [monte_carlo, tower_experiment])
def test_wrong_lower_stage_raises_invariant_error(experiment, monkeypatch):
    """An intersection wrong only below the top level is caught in both modes."""
    original = probability.intersect

    def wrong_below_top(a, b):
        meet = original(a, b)
        if a.level < 3:
            return replace(meet, size_exponent=meet.size_exponent + 1)
        return meet

    monkeypatch.setattr(probability, "intersect", wrong_below_top)
    # classes are rechecked in ascending order; trial 2 is the first of the
    # lowest one, an A-A pair with v = 0
    with pytest.raises(InvariantError, match=r"stage exponents.*seed=41, trial=2"):
        experiment(3, 3, 100, RngSpec(41))
