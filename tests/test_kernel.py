"""Differential tests of the index-space sampling kernel against the scalar path."""

import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from fpmods import (
    CyclicSubmodule,
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
from fpmods.series import _ODD_PRIMES
from fpmods.probability import (
    CHUNK_TRIALS,
    _digit,
    _digits,
    _draw_pairs,
    _kernel_indices,
    _pair_exponents,
    _trial_keys,
    _uniform,
)


def kind_pair(n1, n2):
    return 2 * (n1.kind == "B") + (n2.kind == "B")


@pytest.mark.parametrize("p, n", [(3, 1), (3, 3), (5, 2), (3, 12), (97, 12)])
def test_kernel_matches_scalar_path_per_trial(p, n):
    spec = RngSpec(404)
    trials = 2000
    kinds, v = _pair_exponents(
        p, n, _trial_keys(spec.seed, np.arange(trials, dtype=np.uint64))
    )
    for t in range(trials):
        n1, n2 = sample_pair(p, n, spec, t)
        vt = int(v[t])
        assert kind_pair(n1, n2) == kinds[t]
        assert intersect(n1, n2).size_exponent == vt
        assert (n1 == n2) == (vt == n)
        assert sum_and_quotient(n1, n2) == QuotientStructure(
            vt, (vt,) if vt else ()
        )


def test_kernel_indices_match_sample_pair():
    p, n, spec = 5, 3, RngSpec(9)
    keys = _trial_keys(spec.seed, np.arange(300, dtype=np.uint64))
    first = _kernel_indices(p, n, keys, 0)
    second = _kernel_indices(p, n, keys, 1)
    for t in range(300):
        n1, n2 = sample_pair(p, n, spec, t)
        assert (n1.index(), n2.index()) == (first[t], second[t])


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 3), (5, 2)])
def test_index_space_formula_on_every_ordered_pair(p, n, monkeypatch):
    """Feed the kernel the digits of every ordered index pair."""
    count = count_maximal(p, n)
    index = np.arange(count * count, dtype=np.int64)
    indices = (index // count, index % count)

    def digit(keys, coord, j):
        # each key is a pair index; the kernel hands any subset of them
        pair = keys.astype(np.int64)
        form = (pair // count, pair % count)[coord]
        if j == n - 1:
            return form // p ** (n - 1)
        return form // p**j % p

    def digits(keys, coords, j, bound):
        return np.array([digit(keys, coord, j) for coord in coords]).reshape(
            len(coords), len(keys)
        )

    monkeypatch.setattr(probability, "_digits", digits)
    kinds, v = _pair_exponents(p, n, index.astype(np.uint64))
    forms = list(enumerate_maximal(p, n))
    for k, (i, j) in enumerate(zip(*indices)):
        a, b = forms[i], forms[j]
        vk = int(v[k])
        assert kinds[k] == 2 * (a.kind == "B") + (b.kind == "B")
        assert intersection_exponent_linalg(a, b) == vk
        assert sum_and_quotient(a, b) == QuotientStructure(vk, (vk,) if vk else ())


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 12), (5, 4), (97, 12)])
def test_lower_digit_j_is_drawn_only_for_same_kind_trials_tied_below_j(
    p, n, monkeypatch
):
    """Top digits are drawn for every trial; lower digit j of both forms
    only for the same-kind trials whose digits below j all agree, and no
    digit once none is left; one call draws digit j of both forms."""
    keys = _trial_keys(8, np.arange(5000, dtype=np.uint64))
    top = [_digit(keys, coord, n - 1, p + 1) for coord in (0, 1)]
    lower = [[_digit(keys, coord, j, p) for j in range(n - 1)] for coord in (0, 1)]
    expected = {(coord, n - 1): keys for coord in (0, 1)}
    live = (top[0] == p) == (top[1] == p)
    for j in range(n - 1):
        if not live.any():
            break
        expected.update({(coord, j): keys[live] for coord in (0, 1)})
        live &= lower[0][j] == lower[1][j]
    calls, drawn, coord_sets = [], {}, []

    def recording(keys, coords, j, bound):
        coord_sets.append(coords)
        for coord in coords:
            calls.append((coord, j, len(keys)))
            drawn[coord, j] = keys.copy()
        return _digits(keys, coords, j, bound)

    monkeypatch.setattr(probability, "_digits", recording)
    _pair_exponents(p, n, keys)
    assert coord_sets == [(0, 1)] * (len(expected) // 2)
    assert sorted(calls) == sorted((*key, len(k)) for key, k in expected.items())
    for key, want in expected.items():
        assert (drawn[key] == want).all(), key


def all_digits_pair_exponents(p, n, keys):
    """The reference kernel: (kind pair, v) from all 2n digits of every trial."""
    top1 = _digit(keys, 0, n - 1, p + 1)
    top2 = _digit(keys, 1, n - 1, p + 1)
    # descending j leaves the smallest differing j in place
    first = np.full(len(keys), n - 1, dtype=np.int64)
    for j in range(n - 2, -1, -1):
        first[_digit(keys, 0, j, p) != _digit(keys, 1, j, p)] = j
    b1, b2 = top1 == p, top2 == p
    v_a = np.where((first == n - 1) & (top1 == top2), n, first)
    v_b = np.minimum(first + 1, n)
    return 2 * b1 + b2, np.where(b1 != b2, 0, np.where(b1, v_b, v_a))


@pytest.mark.parametrize("seed", [0, 404, 2**64 - 1])
@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 3), (3, 12), (5, 4), (97, 12)])
def test_kernel_equals_the_all_digits_reference(p, n, seed):
    keys = _trial_keys(seed, np.arange(20_000, dtype=np.uint64))
    kinds, v = _pair_exponents(p, n, keys)
    want_kinds, want_v = all_digits_pair_exponents(p, n, keys)
    assert kinds.dtype == want_kinds.dtype and v.dtype == want_v.dtype
    assert (kinds == want_kinds).all() and (v == want_v).all()


def test_kernel_pair_indices_chi_square():
    # joint cells of both coordinates, so this also tests their independence
    p, n, draws = 3, 2, 1_000_000
    count = count_maximal(p, n)
    keys = _trial_keys(31, np.arange(draws, dtype=np.uint64))
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
    keys = _trial_keys(spec.seed, np.arange(200, dtype=np.uint64))
    first = _kernel_indices(p, n, keys, 0)
    for t in range(200):
        assert sample_pair(p, n, spec, t)[0].index() == first[t]
    assert (first == _kernel_indices(p, n, keys, 0)).all()


M64 = 2**64 - 1


def _mix64_int(z):
    """The SplitMix64 finalizer on one Python int."""
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 & M64
    z ^= z >> 27
    z = z * 0x94D049BB133111EB & M64
    return z ^ z >> 31


def _unmix64_int(w):
    """The stream whose SplitMix64 word is w: the finalizer is a bijection."""

    def unshift(y, s):
        z = y
        for _ in range(64 // s + 1):
            z = y ^ z >> s
        return z

    w = unshift(w, 31)
    w = w * pow(0x94D049BB133111EB, -1, 2**64) & M64
    w = unshift(w, 27)
    w = w * pow(0xBF58476D1CE4E5B9, -1, 2**64) & M64
    return unshift(w, 30)


def uniform_by_remainder(stream, bound, half):
    """`_uniform` for one stream in Python ints, reduced with %: the word of
    the first accepted attempt, modulo bound."""
    last = (2**63 // bound * bound if half else 2**64 - 2**64 % bound) - 1
    attempt = 0
    while True:
        word = _mix64_int(stream + attempt * (1 << 9) * 0x9E3779B97F4A7C15 & M64)
        if word <= last:
            return word % bound
        attempt += 1


# words at both ends of the range and its middle, then a few mixed ones
EDGE_WORDS = [0, 2**63, 2**64 - 1, 1, 2**63 - 1, 2**64 - 2]


@pytest.mark.parametrize("redraw", [False, True], ids=["plain", "half-rejected"])
def test_floor_division_reduction_equals_remainder(redraw, monkeypatch):
    """`_uniform` reduces accepted words by floor division; that equals the
    % reference on edge words, for the bounds p and p + 1 of every library
    prime and for per-element bounds laid out as `_draw_pairs` lays them."""
    if redraw:  # the patch of test_rejected_words_are_redrawn
        monkeypatch.setattr(
            probability,
            "_accept_max",
            lambda bound: np.uint64(2**63) // bound * bound - 1,
        )
    streams = [_unmix64_int(w) for w in EDGE_WORDS]
    streams += [s * 0x9E3779B97F4A7C15 & M64 for s in range(1, 11)]
    assert [_mix64_int(s) for s in streams[: len(EDGE_WORDS)]] == EDGE_WORDS
    stream_array = np.array(streams, dtype=np.uint64)
    for p in sorted(_ODD_PRIMES):
        for bound in (p, p + 1):
            got = _uniform(stream_array, bound)
            assert got.dtype == np.int64
            assert got.tolist() == [
                uniform_by_remainder(s, bound, redraw) for s in streams
            ], bound
        # every stream under each of a draw's bounds: p for the lower
        # digits and p + 1 for the top one, per element
        n = 3
        bounds = np.repeat(([p] * (n - 1) + [p + 1]) * 2, len(streams))
        tiled = np.tile(stream_array, 2 * n)
        got = _uniform(tiled, bounds)
        assert got.tolist() == [
            uniform_by_remainder(s, int(b), redraw)
            for s, b in zip(tiled.tolist(), bounds.tolist())
        ], p


def test_chunking_does_not_change_results(monkeypatch):
    p, n, spec = 3, 2, RngSpec(77)
    trials = 3 * CHUNK_TRIALS + 17
    base = monte_carlo(p, n, trials, spec)
    # one run split at a chunk boundary into two independent halves
    halves = [
        _pair_exponents(
            p, n, _trial_keys(spec.seed, np.arange(a, b, dtype=np.uint64))
        )[1]
        for a, b in ((0, CHUNK_TRIALS), (CHUNK_TRIALS, trials))
    ]
    assert dict(sorted(Counter(np.concatenate(halves).tolist()).items())) == (
        base.exponent_counts
    )
    monkeypatch.setattr(probability, "CHUNK_TRIALS", 4999)
    assert monte_carlo(p, n, trials, spec) == base


def test_chi_square_chunking_does_not_change_results(monkeypatch):
    p, n, spec = 3, 2, RngSpec(77)
    draws = 3 * CHUNK_TRIALS + 17
    base = chi_square_uniformity(p, n, draws, spec)
    monkeypatch.setattr(probability, "CHUNK_TRIALS", 4999)
    assert chi_square_uniformity(p, n, draws, spec) == base


def scalar_monte_carlo(p, n, trials, spec):
    exps, quots, hits = Counter(), Counter(), 0
    for t in range(trials):
        n1, n2 = sample_pair(p, n, spec, t)
        exps[intersect(n1, n2).size_exponent] += 1
        quots[sum_and_quotient(n1, n2).cyclic_structure] += 1
        hits += n1 == n2
    return hits, dict(sorted(exps.items())), dict(sorted(quots.items()))


def scalar_tower(p, n, trials, spec):
    v_counts, hits = Counter(), 0
    for t in range(trials):
        n1, n2 = sample_pair(p, n, spec, t)
        stages = zip(
            SubmoduleTower.from_top(n1).stages, SubmoduleTower.from_top(n2).stages
        )
        exps = [intersect(a, b).size_exponent for a, b in stages]
        if n1 == n2:
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
    checked, drawn = [], []
    check, draw = probability._check_trials, probability._draw_pairs

    def spy_check(p, n, spec, checks):
        checked.append(list(checks))
        check(p, n, spec, checks)

    def spy_draw(p, n, seed, trials):
        drawn.append(list(trials))
        return draw(p, n, seed, trials)

    monkeypatch.setattr(probability, "_check_trials", spy_check)
    monkeypatch.setattr(probability, "_draw_pairs", spy_draw)
    p, n, spec, trials = 3, 3, RngSpec(3), 2 * CHUNK_TRIALS
    monte_carlo(p, n, trials, spec)
    kinds, v = _pair_exponents(
        p, n, _trial_keys(spec.seed, np.arange(trials, dtype=np.uint64))
    )
    classes = (kinds * (n + 1) + v).tolist()
    first = {}
    for t, cls in enumerate(classes):
        first.setdefault(divmod(cls, n + 1), t)
    flat = [c for call in checked for c in call]
    # every observed class exactly once, at its first trial
    assert sorted(c[1:] for c in flat) == sorted(first)
    assert all(first[c[1:]] == c[0] for c in flat)
    # one batch per chunk at most, each in ascending class order and drawn once
    assert 1 <= len(checked) <= 2
    for call in checked:
        assert [c[1:] for c in call] == sorted(c[1:] for c in call)
    assert drawn == [[t for t, _, _ in call] for call in checked]


# unsorted, with repeats, from both ends of the trial range
DRAW_TRIALS = [5, 0, 2**64 - 1, 17, 5, 2**63, 0, 3, 2**64 - 1, 1]


def digit_by_digit_pair(p, n, seed, trial):
    """The trial's pair from one `_digit` call per digit, indices as ints."""
    keys = _trial_keys(seed, [trial])
    indices = [
        sum(
            int(_digit(keys, coord, j, p + 1 if j == n - 1 else p)[0]) * p**j
            for j in range(n)
        )
        for coord in (0, 1)
    ]
    return tuple(CyclicSubmodule.from_index(p, n, i) for i in indices)


@pytest.mark.parametrize("redraw", [False, True], ids=["plain", "half-rejected"])
@pytest.mark.parametrize("p, n", [(3, 1), (5, 3), (97, 12)])
def test_stacked_draw_equals_sample_pair(p, n, redraw, monkeypatch):
    if redraw:  # the patch of test_rejected_words_are_redrawn
        monkeypatch.setattr(
            probability,
            "_accept_max",
            lambda bound: np.uint64(2**63) // bound * bound - 1,
        )
    for spec in (RngSpec(0), RngSpec(404), RngSpec(2**64 - 1)):
        pairs = _draw_pairs(p, n, spec.seed, DRAW_TRIALS)
        assert pairs == [sample_pair(p, n, spec, t) for t in DRAW_TRIALS]
        assert pairs == [
            digit_by_digit_pair(p, n, spec.seed, t) for t in DRAW_TRIALS
        ]
        if (p, n) == (97, 12):  # beyond int64: decoded with Python ints
            assert max(form.index() for pair in pairs for form in pair) >= 2**63


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


def _intersect_wrong_below_top(original):
    def wrong(a, b):
        meet = original(a, b)
        if a.level < 3:
            return replace(meet, size_exponent=meet.size_exponent + 1)
        return meet

    return wrong


def _project_swaps_kind_at_level_1(original):
    def wrong(sub, m):
        if m > 1:
            return original(sub, m)
        if sub.kind == "A":
            return CyclicSubmodule(sub.p, 1, "B", ())
        return CyclicSubmodule(sub.p, 1, "A", (0,))

    return wrong


# the patched name of probability, its fault, and the scalar stage exponents
# of the first class checked
LOWER_STAGE_FAULTS = {
    "intersect": (_intersect_wrong_below_top, "[1, 1, 0]"),
    "project": (_project_swaps_kind_at_level_1, "[1, 0, 0]"),
}


@pytest.mark.parametrize(
    "experiment, target",
    [
        pytest.param(monte_carlo, "intersect", id="monte_carlo"),
        pytest.param(tower_experiment, "intersect", id="tower_experiment"),
        pytest.param(monte_carlo, "project", id="monte_carlo-project"),
        pytest.param(tower_experiment, "project", id="tower_experiment-project"),
    ],
)
def test_wrong_lower_stage_raises_invariant_error(experiment, target, monkeypatch):
    """An intersection or a projection wrong only below the top level is
    caught in both modes."""
    fault, scalar = LOWER_STAGE_FAULTS[target]
    monkeypatch.setattr(probability, target, fault(getattr(probability, target)))
    # classes are rechecked in ascending order; trial 2 is the first of the
    # lowest one, an A-A pair with v = 0
    message = (
        f"stage exponents: kernel [0, 0, 0], scalar {scalar} "
        "(p=3, n=3, seed=41, trial=2)"
    )
    with pytest.raises(InvariantError, match=re.escape(message)):
        experiment(3, 3, 100, RngSpec(41))


def test_sampled_check_builds_no_tower(monkeypatch):
    """The cross-check intersects projected forms; it builds no tower."""

    def refuse(self):
        raise RuntimeError("the sampled check built a SubmoduleTower")

    monkeypatch.setattr(SubmoduleTower, "__post_init__", refuse)
    assert monte_carlo(3, 12, 2000, RngSpec(0)).exponent_counts == {
        0: 1522, 1: 312, 2: 123, 3: 23, 4: 12, 5: 4, 6: 3, 10: 1,
    }
    assert tower_experiment(3, 6, 3000, RngSpec(0)).exponent_counts == {
        0: 2245, 1: 508, 2: 173, 3: 48, 4: 15, 5: 8, 6: 3,
    }
