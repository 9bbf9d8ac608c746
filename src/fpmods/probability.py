"""Collision statistics of uniformly random maximal cyclic submodules.

Two independent uniform maximal cyclic submodules at level n coincide with
probability 1/((p+1)p^(n-1)) (one over the census), so they intersect
nontrivially below the top with probability at least 1 - 1/((p+1)p^(n-1)),
a bound increasing in n. The exact values are kept as Fractions end to end;
floats appear only in summaries.

Sampling draws each submodule's canonical index as n mixed-radix digits: a
top digit in [0, p+1), which is param[n-1] of a kind-'A' submodule when it
is below p and marks kind 'B' when it equals p, and n-1 digits in [0, p),
the remaining parameter coefficients. Every submodule is exactly equally
likely and kind 'A' has probability p/(p+1). Weighted by p^j, digit j
sums with the others to the canonical index, which `sample_pair` decodes
through `CyclicSubmodule.from_index`. Each digit is a SplitMix64-mixed
64-bit word keyed by (seed, trial, coordinate, digit, attempt), a
counter-based draw in the manner of Salmon et al. (SC'11); a word at or above
the largest multiple of the digit's bound is rejected and redrawn with the
next attempt (Lemire, ACM TOMACS 2019), so digits are exactly uniform. Every
draw is a pure function of (seed, trial, coordinate), so results do not
depend on how trials are chunked. This kernel is the library's only way of
drawing a submodule.

Monte Carlo and tower trials run as one numpy kernel over trial-index
arrays, in fixed chunks of CHUNK_TRIALS, using the closed forms on canonical
indices: v is the first differing digit for kind-'A' pairs, min(1 + first
differing digit, n) for kind-'B' pairs and 0 for mixed pairs. Both modes
return the same histogram of v, a `SampledExponents`, read two ways: by
`monte_carlo` as intersection sizes p^v, with the quotient by the sum cyclic
of size p^v, and by `tower_experiment` as a tower whose stage k has exponent
min(v, k). In every call, for both modes, the first trial of each observed
(kind pair, v) class is recomputed through the scalar path:
`SubmoduleTower.from_top` of each submodule and `intersect` at every stage k
must give min(v, k); a disagreement raises InvariantError naming (p, n,
seed, trial).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .errors import InvariantError, ResourceBoundError
from .series import check_level, check_prime, is_int
from .submodules import (
    CyclicSubmodule,
    SubmoduleTower,
    count_maximal,
    enumerate_maximal,
    intersect,
    lifts,
    project,
)

MAX_CENSUS_FORMS = 2_000
MAX_UNIFORMITY_FORMS = 4_000_000
CHUNK_TRIALS = 1 << 14

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_ATTEMPT_STEP = (1 << 9) * _GOLDEN
_KIND_PAIRS = 4  # 2 * [first is kind B] + [second is kind B]


@dataclass(frozen=True)
class RngSpec:
    """A 64-bit root seed: it keys every draw of the sampling kernel."""

    seed: int

    def __post_init__(self):
        if not is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")


@dataclass(frozen=True)
class PairSample:
    """Two independently sampled maximal submodules at a common (p, level)."""

    n1: CyclicSubmodule
    n2: CyclicSubmodule

    def __post_init__(self):
        if self.n1.p != self.n2.p or self.n1.level != self.n2.level:
            raise ValueError("pair must share p and level")


def collision_probability_exact(p: int, n: int) -> Fraction:
    """Probability that two uniform maximal submodules coincide."""
    return Fraction(1, count_maximal(p, n))


def intersection_bound(p: int, n: int) -> Fraction:
    """Lower bound for a nontrivial intersection below the top level."""
    return 1 - collision_probability_exact(p, n)


def collision_probability_census(p: int, n: int) -> Fraction:
    """Collision probability recomputed from the full enumeration.

    Over all N^2 ordered pairs of enumerated forms, a form occurring c times
    collides in c^2 of them, so the census needs one pass, not N^2 compares.
    A census of more than MAX_CENSUS_FORMS forms raises ResourceBoundError.
    """
    total = count_maximal(p, n)
    if total > MAX_CENSUS_FORMS:
        raise ResourceBoundError(
            f"{total} forms at (p={p}, n={n}) exceed the census bound "
            f"{MAX_CENSUS_FORMS}"
        )
    multiplicity = Counter(enumerate_maximal(p, n))
    pairs = sum(multiplicity.values()) ** 2
    return Fraction(sum(c * c for c in multiplicity.values()), pairs)


def _check_count(value: int, name: str) -> None:
    if not is_int(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


# ------------------------------------------------------- counter-based draws


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, elementwise on uint64 (wrapping mod 2^64)."""
    z = z ^ (z >> 30)
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def _trial_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """One 64-bit key per trial in [start, stop), a pure function of (seed, trial)."""
    root = _mix64(np.array([seed], dtype=np.uint64))
    trials = np.arange(start, stop, dtype=np.uint64)
    return _mix64(root + (trials + 1) * np.uint64(_GOLDEN))


def _stream(keys: np.ndarray, coord: int, j: int) -> np.ndarray:
    """Keys offset for digit j of submodule `coord`.

    Attempt a of the digit mixes key + c * golden with counter
    c = (a << 9 | coord << 8 | j) + 1, that is, stream + a * _ATTEMPT_STEP.
    """
    return keys + np.uint64(((coord << 8 | j) + 1) * _GOLDEN % 2**64)


def _accept_max(bound: np.ndarray) -> np.ndarray:
    """Largest accepted word: one below the largest multiple of bound <= 2^64.

    (2^64 - bound) % bound is 2^64 % bound, and ~x is 2^64 - 1 - x.
    """
    return ~((-bound) % bound)


def _uniform(stream: np.ndarray, bound) -> np.ndarray:
    """Exactly uniform integers in [0, bound), one per stream element.

    bound is one int or one per element. A word above _accept_max is redrawn
    with the next attempt until it is accepted.
    """
    bound = np.asarray(bound, dtype=np.uint64).reshape(-1)
    last = _accept_max(bound)
    x = _mix64(stream)
    rejected = x > last
    attempt = 0
    while rejected.any():
        attempt += 1
        step = np.uint64(attempt * _ATTEMPT_STEP % 2**64)
        x[rejected] = _mix64(stream[rejected] + step)
        rejected = x > last
    return (x % bound).astype(np.int64)


def _digit(keys: np.ndarray, coord: int, j: int, bound: int) -> np.ndarray:
    """Digit j of submodule `coord` for each trial key, uniform in [0, bound)."""
    return _uniform(_stream(keys, coord, j), bound)


def _top_digit(p: int, n: int, keys: np.ndarray, coord: int) -> np.ndarray:
    return _digit(keys, coord, n - 1, p + 1)


def _pair_exponents(
    p: int, n: int, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(kind pair, v) of the pair drawn for each trial key.

    kind pair is 2 * [first is kind B] + [second is kind B], and p^v is the
    size of the intersection.
    """
    top1 = _top_digit(p, n, keys, 0)
    top2 = _top_digit(p, n, keys, 1)
    # first differing lower digit, n - 1 when all n - 1 of them agree;
    # descending j leaves the smallest differing j in place
    first = np.full(len(keys), n - 1, dtype=np.int64)
    for j in range(n - 2, -1, -1):
        first[_digit(keys, 0, j, p) != _digit(keys, 1, j, p)] = j
    b1 = top1 == p
    b2 = top2 == p
    v_a = np.where((first == n - 1) & (top1 == top2), n, first)
    v_b = np.minimum(first + 1, n)
    v = np.where(b1 != b2, 0, np.where(b1, v_b, v_a))
    return 2 * b1 + b2, v


def _kernel_indices(p: int, n: int, keys: np.ndarray, coord: int) -> np.ndarray:
    """Canonical indices of submodule `coord` for each trial key (int64, so
    only for censuses below 2^63)."""
    index = _top_digit(p, n, keys, coord)
    for j in range(n - 2, -1, -1):
        index = index * p + _digit(keys, coord, j, p)
    return index


def sample_pair(p: int, n: int, spec: RngSpec, trial: int) -> PairSample:
    """The trial-th pair: exactly the pair the sampling kernel uses for it.

    trial is an integer in [0, 2^64), the kernel's range of trial indices.
    """
    check_prime(p)
    check_level(n)
    if not is_int(trial) or not 0 <= trial < 2**64:
        raise ValueError(f"trial must be an integer in [0, 2^64), got {trial!r}")
    keys = _trial_keys(spec.seed, trial, trial + 1)
    streams = np.concatenate([_stream(keys, c, j) for c in (0, 1) for j in range(n)])
    bounds = ([p] * (n - 1) + [p + 1]) * 2
    # digit j has weight p^j, so a top digit p gives index p^n + lower, kind B
    n1, n2 = (
        CyclicSubmodule.from_index(p, n, sum(d * p**j for j, d in enumerate(digits)))
        for digits in _uniform(streams, bounds).reshape(2, n).tolist()
    )
    return PairSample(n1, n2)


def chi_square_uniformity(
    p: int, n: int, draws: int, spec: RngSpec
) -> tuple[float, int]:
    """Chi-square statistic and degrees of freedom for sampler uniformity.

    The draws are the kernel's first-submodule indices of trials [0, draws).
    One counter is kept per form, so a census of more than
    MAX_UNIFORMITY_FORMS forms raises ResourceBoundError before anything is
    allocated.
    """
    _check_count(draws, "draws")
    count = count_maximal(p, n)
    if count > MAX_UNIFORMITY_FORMS:
        raise ResourceBoundError(
            f"{count} forms at (p={p}, n={n}) exceed the uniformity census "
            f"bound {MAX_UNIFORMITY_FORMS}"
        )
    observed = np.zeros(count, dtype=np.int64)
    for start in range(0, draws, CHUNK_TRIALS):
        stop = min(start + CHUNK_TRIALS, draws)
        keys = _trial_keys(spec.seed, start, stop)
        observed += np.bincount(_kernel_indices(p, n, keys, 0), minlength=count)
    expected = draws / count
    stat = float((((observed - expected) ** 2) / expected).sum())
    return stat, count - 1


def _check_trial(p: int, n: int, spec: RngSpec, trial: int, kinds: int, v: int) -> None:
    """Recompute one kernel trial through the scalar path; raise on mismatch.

    Stage n is the top intersection; its v is also the quotient's exponent.
    """
    pair = sample_pair(p, n, spec, trial)
    stages = zip(
        SubmoduleTower.from_top(pair.n1).stages,
        SubmoduleTower.from_top(pair.n2).stages,
    )
    got = {
        "kind pair": 2 * (pair.n1.kind == "B") + (pair.n2.kind == "B"),
        "collision": pair.n1 == pair.n2,
        "stage exponents": [intersect(a, b).size_exponent for a, b in stages],
    }
    want = {
        "kind pair": kinds,
        "collision": v == n,
        "stage exponents": [min(v, k) for k in range(1, n + 1)],
    }
    for key in want:
        if got[key] != want[key]:
            raise InvariantError(
                f"sampling kernel disagrees with the scalar path on the "
                f"{key}: kernel {want[key]}, scalar {got[key]}",
                p=p, n=n, seed=spec.seed, trial=trial,
            )


def _exponent_census(p: int, n: int, trials: int, spec: RngSpec) -> np.ndarray:
    """Trial counts by v (index 0..n) over trials [0, trials).

    Validates (p, n, trials) for both sampled modes. Works in chunks of
    CHUNK_TRIALS so memory stays flat; the first trial of every newly
    observed (kind pair, v) class goes through _check_trial.
    """
    check_prime(p)
    check_level(n)
    _check_count(trials, "trials")
    width = n + 1
    counts = np.zeros(_KIND_PAIRS * width, dtype=np.int64)
    for start in range(0, trials, CHUNK_TRIALS):
        stop = min(start + CHUNK_TRIALS, trials)
        kinds, v = _pair_exponents(p, n, _trial_keys(spec.seed, start, stop))
        classes = kinds * width + v
        chunk = np.bincount(classes, minlength=len(counts))
        if ((chunk > 0) & (counts == 0)).any():
            seen, first = np.unique(classes, return_index=True)
            for cls, i in zip(seen.tolist(), first.tolist()):
                if counts[cls] == 0:
                    kind_pair, exponent = divmod(cls, width)
                    _check_trial(p, n, spec, start + i, kind_pair, exponent)
        counts += chunk
    return counts.reshape(_KIND_PAIRS, width).sum(axis=0)


@dataclass(frozen=True)
class SampledExponents:
    """The intersection exponents v of `trials` sampled pairs at `level`.

    `exponent_counts` maps each observed v in [0, level], in increasing
    order, to its number of trials; v = level is a collision, an equal pair.
    Read down a tower, the intersection exponent of a pair at stage k is
    min(v, k): a pair distinct at the top stabilizes from level v + 1 on,
    and an equal pair has exponent k at every level k. Violations raise
    instead of being recorded. `stderr` is the binomial standard error of
    the collision frequency at the exact probability.
    """

    p: int
    level: int
    trials: int
    seed: int
    exponent_counts: dict

    @property
    def collisions(self) -> int:
        return self.exponent_counts.get(self.level, 0)

    @property
    def exact(self) -> Fraction:
        return collision_probability_exact(self.p, self.level)

    @property
    def frequency(self) -> Fraction:
        return Fraction(self.collisions, self.trials)

    @property
    def stderr(self) -> float:
        q = float(self.exact)
        return sqrt(q * (1 - q) / self.trials)

    @property
    def delta(self) -> float:
        return float(self.frequency - self.exact)


def _sampled_exponents(p: int, n: int, trials: int, spec: RngSpec) -> SampledExponents:
    counts = _exponent_census(p, n, trials, spec).tolist()
    exps = {v: c for v, c in enumerate(counts) if c}
    return SampledExponents(p, n, trials, spec.seed, exps)


def monte_carlo(p: int, n: int, trials: int, spec: RngSpec) -> SampledExponents:
    """Sample pairs trials [0, trials) with the kernel, cross-check each
    observed class through the scalar path, aggregate."""
    return _sampled_exponents(p, n, trials, spec)


def tower_experiment(p: int, n: int, trials: int, spec: RngSpec) -> SampledExponents:
    """Sample pairs at the top level n and track intersections down the tower.

    The result is `monte_carlo`'s for the same arguments. This stays a def
    of its own, not an alias or a call of `monte_carlo`, so that a profiler
    that wraps functions by name (as perfbench/layers.py does) times the
    two modes apart.
    """
    return _sampled_exponents(p, n, trials, spec)


@dataclass(frozen=True)
class PushforwardReport:
    """Fiber census of the projection from level m down to level n."""

    p: int
    low_level: int
    high_level: int
    expected_fiber: int
    fibers_uniform: bool
    lifts_partition: bool
    fiber_counts: dict
    stray_counts: dict


def pushforward_consistency(p: int, n: int, m: int) -> PushforwardReport:
    """Check that projection pushes the level-m census onto the level-n one.

    One streaming pass over the level-m census `enumerate_maximal(p, m)`,
    the reference: its forms are the count_maximal(p, m) distinct level-m
    forms, in index order. Write F(low) for the fiber of a level-n form, the
    census forms h with project(h, n) == low, in census order. Each form h
    is projected once; its image's entry counts it, and h is compared with
    the next form of that entry's `lifts(low, m)` stream. The pass checks
    (1) no form projects outside the level-n census `enumerate_maximal(p, n)`,
    (2) every fiber F(low) has p^(m-n) forms, and
    (3) every fiber equals its lift stream, in order: each form equals the
        next lift, and each stream ends with its fiber.
    `fibers_uniform` is (1) and (2). `lifts_partition` is (1), (2) and (3),
    which imply every claim about the lifts: by (3) the lifts of low are
    F(low), so they number p^(m-n) by (2), are distinct because the census
    is, and project back to low by the definition of F; and since `project`
    is a function with values in the level-n census by (1), the fibers, so
    the lift lists, partition the level-m census. Conversely, correct
    `project` and `lifts` satisfy (1)-(3), because `lifts` yields in index
    order; lifts that are right as a set but come in another order make
    `lifts_partition` false.

    `fiber_counts` maps the index of every level-n census form hit by a
    projection to its fiber size, in index order, and `stray_counts` maps
    each form outside that census that a projection hits to its count; a
    stray may share its index with a census form, so it is keyed by itself.
    Together they count each level-m census form once: the two sums add up
    to count_maximal(p, m). Memory is O(p^n): one count and one lift stream
    per level-n form; each level-m form is built once by the census and once
    by `lifts`, and never stored.
    """
    check_prime(p)
    check_level(n)
    check_level(m)
    if n >= m:
        raise ValueError(f"need low level {n} < high level {m}")
    expected = p ** (m - n)
    # each level-n form's fiber size so far and the rest of its lift stream
    fibers = {low: [0, iter(lifts(low, m))] for low in enumerate_maximal(p, n)}
    strays = Counter()  # projections outside the level-n census
    in_order = True
    for high in enumerate_maximal(p, m):
        low = project(high, n)
        entry = fibers.get(low)
        if entry is None:
            strays[low] += 1
            continue
        entry[0] += 1
        if next(entry[1], None) != high:
            in_order = False
    uniform = not strays and all(count == expected for count, _ in fibers.values())
    partition = (
        uniform
        and in_order
        and all(next(rest, None) is None for _, rest in fibers.values())
    )
    return PushforwardReport(
        p=p,
        low_level=n,
        high_level=m,
        expected_fiber=expected,
        fibers_uniform=uniform,
        lifts_partition=partition,
        fiber_counts={
            low.index(): count for low, (count, _) in fibers.items() if count
        },
        stray_counts=dict(strays),
    )
