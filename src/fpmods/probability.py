"""Collision statistics of uniformly random maximal cyclic submodules.

Two independent uniform maximal cyclic submodules at level n coincide with
probability 1/((p+1)p^(n-1)) (one over the census), so they differ with
probability 1 - 1/((p+1)p^(n-1)) (`intersection_bound`), increasing in n;
they meet nontrivially with probability 1/(p+1) at every n. The exact
values are kept as Fractions end to end; floats appear only in summaries.
Those exact laws live in `fpmods.laws`, which imports no numpy; this module
re-exports them by name.

Sampling draws each submodule's canonical index as n mixed-radix digits: a
top digit in [0, p+1), which is param[n-1] of a kind-'A' submodule when it
is below p and marks kind 'B' when it equals p, and n-1 digits in [0, p),
the remaining parameter coefficients. Every submodule is exactly equally
likely and kind 'A' has probability p/(p+1). Weighted by p^j, digit j
sums with the others to the canonical index, which `sample_pair` decodes
through `CyclicSubmodule.from_index`; it returns the two forms, a tuple
(n1, n2) of `CyclicSubmodule`s. Each digit is a SplitMix64-mixed
64-bit word keyed by (seed, trial, coordinate, digit, attempt), a
counter-based draw in the manner of Salmon et al. (SC'11); a word at or above
the largest multiple of the digit's bound is rejected and redrawn with the
next attempt (Lemire, ACM TOMACS 2019), so digits are exactly uniform. Every
draw is a pure function of (seed, trial, coordinate), so results do not
depend on how trials are chunked or batched. This kernel is the library's
only way of drawing a submodule, and `_draw_pairs`, which draws the digits
of any list of trials in one stacked call and decodes them with Python
ints, is its only way of decoding pairs; `sample_pair` is its one-trial
case.

Monte Carlo and tower trials run as one numpy kernel over trial-index
arrays, in fixed chunks of CHUNK_TRIALS, using the closed forms on canonical
indices: v is the first differing digit for kind-'A' pairs, min(1 + first
differing digit, n) for kind-'B' pairs and 0 for mixed pairs. So the kernel
draws only the digits that decide v: both top digits of every trial, then,
for j = 0, 1, ..., lower digit j of both forms only for the same-kind trials
whose lower digits below j all agree, stopping once no trial is left. Each
digit is a pure function of (key, coordinate, position), so the digits it
skips change no value. A trial draws on average fewer than
(p^2+1)/(p+1)^2 * p/(p-1) pairs of lower digits (15/16 at p = 3) instead
of n - 1; `_kernel_indices`, which the chi-square test reads, and
`_draw_pairs`, which the cross-check decodes, still draw every digit. Both
modes return the same histogram of v, a `SampledExponents`, read two ways: by
`monte_carlo` as intersection sizes p^v, with the quotient by the sum cyclic
of size p^v, and by `tower_experiment` as a tower whose stage k has exponent
min(v, k). In every call, for both modes, the first trial of each observed
(kind pair, v) class is recomputed through the scalar path. The pairs of
all classes new in a chunk come from one stacked draw; they are then
re-checked one by one, in ascending class order: `intersect` of the two
forms, each projected to level k, must give min(v, k) at every level k; the
first disagreement raises InvariantError naming (p, n, seed, trial), which
`sample_pair(p, n, RngSpec(seed), trial)` reproduces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .errors import InvariantError, ResourceBoundError
from .laws import (  # re-exported: probability.<law> names the same function
    collision_probability_census,
    collision_probability_exact,
    intersection_bound,
)
from .series import check_level, check_prime, is_int
from .submodules import (
    CyclicSubmodule,
    count_maximal,
    enumerate_maximal,
    intersect,
    lifts,
    project,
)

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


def _check_count(value: int, name: str) -> None:
    if not is_int(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_spec(spec) -> None:
    if not isinstance(spec, RngSpec):
        raise TypeError(f"spec must be an RngSpec, got {type(spec).__name__}")


# ------------------------------------------------------- counter-based draws


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, elementwise on uint64 (wrapping mod 2^64)."""
    z = z ^ (z >> 30)
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def _trial_keys(seed: int, trials) -> np.ndarray:
    """One 64-bit key per trial, a pure function of (seed, trial), for a
    sequence or uint64 array of trial indices, in its order."""
    root = _mix64(np.array([seed], dtype=np.uint64))
    trials = np.asarray(trials, dtype=np.uint64)
    return _mix64(root + (trials + 1) * np.uint64(_GOLDEN))


def _key_chunks(seed: int, total: int):
    """(start, keys) for trials [0, total), in chunks of CHUNK_TRIALS."""
    for start in range(0, total, CHUNK_TRIALS):
        stop = min(start + CHUNK_TRIALS, total)
        yield start, _trial_keys(seed, np.arange(start, stop, dtype=np.uint64))


def _stream_offset(coord: int, j: int) -> int:
    """Offset of digit j of submodule `coord` from the trial key.

    Attempt a of the digit mixes key + c * golden with counter
    c = (a << 9 | coord << 8 | j) + 1, that is, stream + a * _ATTEMPT_STEP.
    """
    return ((coord << 8 | j) + 1) * _GOLDEN % 2**64


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
    return _uniform(keys + np.uint64(_stream_offset(coord, j)), bound)


def _pair_exponents(
    p: int, n: int, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(kind pair, v) of the pair drawn for each trial key.

    kind pair is 2 * [first is kind B] + [second is kind B], and p^v is the
    size of the intersection. Lower digits are drawn only where they decide
    v (see the module docstring).
    """
    top1 = _digit(keys, 0, n - 1, p + 1)
    top2 = _digit(keys, 1, n - 1, p + 1)
    b1 = top1 == p
    b2 = top2 == p
    # first differing lower digit, n - 1 when all n - 1 of them agree. A
    # mixed pair has v = 0 whatever its digits, so only same-kind trials are
    # live, and digit j is drawn only for those tied on every digit below j
    first = np.full(len(keys), n - 1, dtype=np.int64)
    live = np.flatnonzero(b1 == b2)
    for j in range(n - 1):
        if not len(live):
            break
        live_keys = keys[live]
        tied = _digit(live_keys, 0, j, p) == _digit(live_keys, 1, j, p)
        first[live[~tied]] = j
        live = live[tied]
    v_a = np.where((first == n - 1) & (top1 == top2), n, first)
    v_b = np.minimum(first + 1, n)
    v = np.where(b1 != b2, 0, np.where(b1, v_b, v_a))
    return 2 * b1 + b2, v


def _kernel_indices(p: int, n: int, keys: np.ndarray, coord: int) -> np.ndarray:
    """Canonical indices of submodule `coord` for each trial key (int64, so
    only for censuses below 2^63)."""
    index = _digit(keys, coord, n - 1, p + 1)
    for j in range(n - 2, -1, -1):
        index = index * p + _digit(keys, coord, j, p)
    return index


def _draw_pairs(
    p: int, n: int, seed: int, trials: list[int]
) -> list[tuple[CyclicSubmodule, CyclicSubmodule]]:
    """The pair (n1, n2) of each trial in `trials`, from one stacked draw.

    The 2n digit streams of every trial go through a single `_uniform`
    call; its rejection rule acts per element, so each digit is the one a
    draw of its trial alone gives. Indices are summed as Python ints, since
    the census exceeds int64 at large (p, n).
    """
    keys = _trial_keys(seed, trials)
    offsets = [_stream_offset(c, j) for c in (0, 1) for j in range(n)]
    streams = keys + np.array(offsets, dtype=np.uint64)[:, None]
    bounds = np.repeat(([p] * (n - 1) + [p + 1]) * 2, len(trials))
    digits = _uniform(streams.reshape(-1), bounds).reshape(2, n, len(trials))
    # digit j has weight p^j, so a top digit p gives index p^n + lower, kind B
    weights = [p**j for j in range(n)]
    forms = [
        CyclicSubmodule.from_index(p, n, sum(d * w for d, w in zip(row, weights)))
        for row in digits.transpose(2, 0, 1).reshape(-1, n).tolist()
    ]
    return list(zip(forms[::2], forms[1::2]))


def sample_pair(
    p: int, n: int, spec: RngSpec, trial: int
) -> tuple[CyclicSubmodule, CyclicSubmodule]:
    """The trial-th pair (n1, n2): exactly the two forms the sampling kernel
    uses for it.

    trial is an integer in [0, 2^64), the kernel's range of trial indices.
    This is the one-trial case of the stacked draw with which the sampled
    modes' cross-check decodes all new classes of a chunk at once, so it
    reproduces any trial an InvariantError names.
    """
    check_prime(p)
    check_level(n)
    if not is_int(trial) or not 0 <= trial < 2**64:
        raise ValueError(f"trial must be an integer in [0, 2^64), got {trial!r}")
    _check_spec(spec)
    return _draw_pairs(p, n, spec.seed, [trial])[0]


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
    _check_spec(spec)
    count = count_maximal(p, n)
    if count > MAX_UNIFORMITY_FORMS:
        raise ResourceBoundError(
            f"{count} forms at (p={p}, n={n}) exceed the uniformity census "
            f"bound {MAX_UNIFORMITY_FORMS}"
        )
    observed = np.zeros(count, dtype=np.int64)
    for _, keys in _key_chunks(spec.seed, draws):
        observed += np.bincount(_kernel_indices(p, n, keys, 0), minlength=count)
    expected = draws / count
    stat = float((((observed - expected) ** 2) / expected).sum())
    return stat, count - 1


def _check_trials(
    p: int, n: int, spec: RngSpec, checks: list[tuple[int, int, int]]
) -> None:
    """Recompute kernel trials through the scalar path; raise on a mismatch.

    `checks` holds (trial, kind pair, v) in ascending class order. All the
    pairs come from one stacked draw, then each is checked in turn, so the
    first failing class is the one reported. Level k intersects both forms
    projected to k; level n is the top, and its v is the quotient's exponent.
    """
    pairs = _draw_pairs(p, n, spec.seed, [trial for trial, _, _ in checks])
    levels = range(1, n + 1)
    for (trial, kinds, v), (n1, n2) in zip(checks, pairs):
        got = {
            "kind pair": 2 * (n1.kind == "B") + (n2.kind == "B"),
            "collision": n1 == n2,
            "stage exponents": [
                intersect(project(n1, k), project(n2, k)).size_exponent
                for k in levels
            ],
        }
        want = {
            "kind pair": kinds,
            "collision": v == n,
            "stage exponents": [min(v, k) for k in levels],
        }
        for key in want:
            if got[key] != want[key]:
                raise InvariantError(
                    f"sampling kernel disagrees with the scalar path on the "
                    f"{key}: kernel {want[key]}, scalar {got[key]}",
                    p=p, n=n, seed=spec.seed, trial=trial,
                )


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
    """Trial counts by v over trials [0, trials), for both sampled modes.

    Validates (p, n, trials). Chunks keep memory flat; the first trials of
    all (kind pair, v) classes new in a chunk go to one _check_trials call,
    in ascending class order.
    """
    check_prime(p)
    check_level(n)
    _check_count(trials, "trials")
    _check_spec(spec)
    width = n + 1
    counts = np.zeros(_KIND_PAIRS * width, dtype=np.int64)
    for start, keys in _key_chunks(spec.seed, trials):
        kinds, v = _pair_exponents(p, n, keys)
        classes = kinds * width + v
        chunk = np.bincount(classes, minlength=len(counts))
        new = np.flatnonzero((chunk > 0) & (counts == 0))
        if len(new):
            # the first trial of each class; np.unique would sort the chunk
            first = np.full(len(counts), len(keys))
            np.minimum.at(first, classes, np.arange(len(keys)))
            checks = [
                (start + i, *divmod(cls, width))
                for cls, i in zip(new.tolist(), first[new].tolist())
            ]
            _check_trials(p, n, spec, checks)
        counts += chunk
    by_v = counts.reshape(_KIND_PAIRS, width).sum(axis=0).tolist()
    exps = {v: c for v, c in enumerate(by_v) if c}
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
    to count_maximal(p, m). Memory is O(p^n): one count, one lift stream and
    the form itself per level-n form; each level-m form is built once by the
    census and once by `lifts`, and never stored.

    The table is keyed by plain tuples, so lookups run in C; only images of
    type `CyclicSubmodule` are looked up, and a lift matches only a form, so
    a plain tuple never passes for a form. `project`, `lifts` (wrapped in
    `iter`) and `enumerate_maximal` are called through this module's names,
    so that patched faults and the layer tracer's wrappers reach the pass.
    """
    check_prime(p)
    check_level(n)
    check_level(m)
    if n >= m:
        raise ValueError(f"need low level {n} < high level {m}")
    expected = p ** (m - n)
    # by fields, each level-n form's fiber size, rest of lift stream and form
    fibers = {tuple(f): [0, iter(lifts(f, m)), f] for f in enumerate_maximal(p, n)}
    strays = Counter()  # projections outside the level-n census
    in_order = True
    for high in enumerate_maximal(p, m):
        low = project(high, n)
        entry = fibers.get(tuple(low)) if type(low) is CyclicSubmodule else None
        if entry is None:
            strays[low] += 1
            continue
        entry[0] += 1
        nxt = next(entry[1], None)
        if not (type(nxt) is CyclicSubmodule and tuple.__eq__(nxt, high)):
            in_order = False
    uniform = not strays and all(count == expected for count, _, _ in fibers.values())
    partition = (
        uniform
        and in_order
        and all(next(rest, None) is None for _, rest, _ in fibers.values())
    )
    return PushforwardReport(
        p=p,
        low_level=n,
        high_level=m,
        expected_fiber=expected,
        fibers_uniform=uniform,
        lifts_partition=partition,
        fiber_counts={
            low.index(): count for count, _, low in fibers.values() if count
        },
        stray_counts=dict(strays),
    )
