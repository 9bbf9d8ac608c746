"""Workload definitions, output checks and end-to-end metrics for fpmods.

Each workload is a list of operations run in a fixed order; one run of the
benchmark repeats that list ("a pass") in a closed loop with one client in
one process. An operation is either an fpmods CLI invocation, driven through
``fpmods.cli.main(argv)`` with ``--format both`` into a temporary directory,
or a library call of ``pushforward_consistency``.

Every check here follows from the mathematics, never from a sampled value
pinned for one seed, so the checks survive a change of the sampling RNG.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

# Operation specs: "<cli mode> <flags>" or "pushforward_consistency p n m".
# The sampling workload gets a fresh CLI seed per pass, derived from --seed;
# the other two are deterministic and always pass --seed 0.
WORKLOADS = {
    "sampling": {
        "why": (
            "Monte Carlo and tower trials: sample_pair, intersect, "
            "sum_and_quotient and small rref calls at n=3 and n=12; "
            "--threads 2 shows GIL contention; pairing is never called"
        ),
        "seeded": True,
        "ops": {
            "mc_t1": "montecarlo --prime 3 --levels 3 --trials 4000 --threads 1",
            "mc_t2": "montecarlo --prime 3 --levels 3 --trials 4000 --threads 2",
            "mc_n12": "montecarlo --prime 3 --levels 12 --trials 2000",
            "tower": "tower --prime 3 --levels 6 --trials 3000",
        },
    },
    "isotropic": {
        "why": (
            "isotropic BFS: pairing t_span and linalg on candidate matrices, "
            "level-1 shapes (T = 0) and a rank-level-3 shape where t_span "
            "iterates; submodules and probability are never called"
        ),
        "seeded": False,
        "ops": {
            "iso_p5": "isotropic --prime 5 --levels 1 --shape 1",
            "iso_p7": "isotropic --prime 7 --levels 1 --shape 1",
            "iso_deep": "isotropic --prime 3 --levels 3 --shape 1",
        },
    },
    "exact": {
        "why": (
            "census, counts and pushforward: builds, hashes and compares "
            "canonical forms, project and lifts, with no RNG and no linalg"
        ),
        "seeded": False,
        "ops": {
            "ex_p3": "exhaustive --prime 3 --levels 1,2,3,4,5,6",
            "ex_p11": "exhaustive --prime 11 --levels 1,2,3",
            "count_p3": "count --prime 3 --levels 1,2,3,4,5,6,7,8",
            "count_p97": "count --prime 97 --levels 1,2",
            "pf_3_1_8": "pushforward_consistency 3 1 8",
            "pf_5_1_5": "pushforward_consistency 5 1 5",
            "pf_7_1_4": "pushforward_consistency 7 1 4",
        },
    },
}

# The same operations at inputs small enough for the self-test.
TINY_OPS = {
    "sampling": {
        "mc_t1": "montecarlo --prime 3 --levels 3 --trials 60 --threads 1",
        "mc_t2": "montecarlo --prime 3 --levels 3 --trials 60 --threads 2",
        "mc_n12": "montecarlo --prime 3 --levels 12 --trials 20",
        "tower": "tower --prime 3 --levels 6 --trials 40",
    },
    "isotropic": {
        "iso_p5": "isotropic --prime 3 --levels 1 --shape 1",
        "iso_p7": "isotropic --prime 3 --levels 1 --shape 1",
        "iso_deep": "isotropic --prime 3 --levels 1 --shape 1",
    },
    "exact": {
        "ex_p3": "exhaustive --prime 3 --levels 1,2",
        "ex_p11": "exhaustive --prime 11 --levels 1",
        "count_p3": "count --prime 3 --levels 1,2,3",
        "count_p97": "count --prime 97 --levels 1",
        "pf_3_1_8": "pushforward_consistency 3 1 3",
        "pf_5_1_5": "pushforward_consistency 5 1 2",
        "pf_7_1_4": "pushforward_consistency 7 1 2",
    },
}

# End-to-end metrics: name -> (unit, better, bound, workloads). bound is the
# share of the base median by which a metric may worsen before the compare
# mode calls it a regression. wall_s is the time of one pass, summed over
# its operations. Times and rates are corrected to the nominal host speed
# (see probe.py); the *_raw_s metrics and probe_us are the uncorrected
# measurements and have no bound. wall_s, setup_s and peak_rss_mb are the
# ones BENCHMARK.json lists.
ALL = tuple(WORKLOADS)
E2E_METRICS = {
    "setup_s": ("s", "lower", 0.25, ALL),
    "wall_s": ("s", "lower", 0.25, ALL),
    "setup_raw_s": ("s", "lower", None, ALL),
    "wall_raw_s": ("s", "lower", None, ALL),
    "probe_us": ("us", "lower", None, ALL),
    "peak_rss_mb": ("MB", "lower", 0.1, ALL),
    "failed_share": ("ratio", "lower", 0.0, ALL),
    "mc_trials_per_s": ("1/s", "higher", 0.25, ("sampling",)),
    "mc_threads2_trials_per_s": ("1/s", "higher", 0.25, ("sampling",)),
    "mc_n12_trials_per_s": ("1/s", "higher", 0.25, ("sampling",)),
    "tower_trials_per_s": ("1/s", "higher", 0.25, ("sampling",)),
    "iso_level1_results_per_s": ("1/s", "higher", 0.25, ("isotropic",)),
    "iso_deep_results_per_s": ("1/s", "higher", 0.25, ("isotropic",)),
    "census_pairs_per_s": ("1/s", "higher", 0.25, ("exact",)),
    "pushforward_forms_per_s": ("1/s", "higher", 0.25, ("exact",)),
}

# 0.5 * erfc(5 / sqrt(2)): the one-sided normal tail beyond 5 standard errors.
FIVE_SIGMA_TAIL = 0.5 * math.erfc(5 / math.sqrt(2))

# Maximal isotropic T-stable counts beyond level 1, keyed by (p, n, dim):
# (results, splits_true).
KNOWN_ISOTROPIC = {(3, 3, 8): (184, 48)}


def metrics_for(workload: str) -> list[str]:
    return [name for name, spec in E2E_METRICS.items() if workload in spec[3]]


def definitions_digest() -> str:
    """sha256 over the workload definitions; equal digests mean equal inputs."""
    text = json.dumps({"workloads": WORKLOADS, "tiny": TINY_OPS}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def pass_seed(seed: int, k: int) -> int:
    """The CLI seed of pass k, a pure function of the benchmark seed."""
    digest = hashlib.sha256(f"fpmods-bench:{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class OpResult:
    key: str
    seconds: float
    error: str | None = None
    probe_s: float | None = None
    csv_text: str = ""
    json_text: str = ""
    report: object = None


@dataclass
class PassResult:
    seconds: float
    ops: dict
    checks: list = field(default_factory=list)
    probe_s: float | None = None

    @property
    def failures(self) -> list[str]:
        errors = [f"{op.key}: {op.error}" for op in self.ops.values() if op.error]
        return errors + [name for name, ok in self.checks if not ok]

    @property
    def attempted(self) -> int:
        return len(self.ops) + len(self.checks)


def run_op(fpmods, key: str, spec: str, seed: int, tmpdir: str) -> OpResult:
    """Run one operation and time it end to end; outputs are read afterwards."""
    mode, *args = spec.split()
    try:
        if mode == "pushforward_consistency":
            call = fpmods.probability.pushforward_consistency
            t0 = time.perf_counter()
            report = call(*(int(a) for a in args))
            return OpResult(key, time.perf_counter() - t0, report=report)
        prefix = os.path.join(tmpdir, key)
        argv = ["--mode", mode, *args, "--seed", str(seed), "--format", "both",
                "--output", prefix]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = fpmods.cli.main(argv)
            elapsed = time.perf_counter() - t0
        if code != 0:
            return OpResult(key, elapsed, error=f"exit code {code}")
        with open(prefix + ".csv") as fh:
            csv_text = fh.read()
        with open(prefix + ".json") as fh:
            json_text = fh.read()
        return OpResult(key, elapsed, csv_text=csv_text, json_text=json_text)
    except Exception:  # an op that raises is a failed op, not a failed run
        return OpResult(key, 0.0, error=traceback.format_exc(limit=3).strip())


def run_pass(fpmods, workload: str, seed: int, k: int, tmpdir: str,
             tiny: bool = False, probe=None, between_ops=None) -> PassResult:
    """One pass over the workload's operations, then the output checks.

    With a host probe (an object whose `samples` list grows while it runs),
    each operation records the mean probe time seen during it, and the pass
    records the mean over all its operations.
    """
    ops = TINY_OPS[workload] if tiny else WORKLOADS[workload]["ops"]
    cli_seed = pass_seed(seed, k) if WORKLOADS[workload]["seeded"] else 0
    results, seen = {}, []
    for key, spec in ops.items():
        first = len(probe.samples) if probe else 0
        op = results[key] = run_op(fpmods, key, spec, cli_seed, tmpdir)
        if probe and len(probe.samples) > first:
            seen += probe.samples[first:]
            op.probe_s = statistics.fmean(probe.samples[first:])
        if between_ops:
            between_ops()
    result = PassResult(sum(op.seconds for op in results.values()), results)
    result.probe_s = statistics.fmean(seen) if seen else None
    result.checks = check_pass(workload, ops, results)
    return result


# ---------------------------------------------------------------- checks


def _parse_extra(text: str) -> dict:
    return dict(part.split("=", 1) for part in text.split(";") if part)


def _histogram(extra: dict, prefix: str) -> dict:
    return {k[len(prefix):]: int(v) for k, v in extra.items()
            if k.startswith(prefix) and k[len(prefix):].isdigit()}


def binomial_tail(hits: int, trials: int, q: float) -> float:
    """P(X >= hits) if hits is above the mean, else P(X <= hits), X ~ B(trials, q)."""
    above = hits >= trials * q
    ks = range(hits, trials + 1) if above else range(0, hits + 1)
    log_q, log_r = math.log(q), math.log1p(-q)
    log_n = math.lgamma(trials + 1)
    total = sum(
        math.exp(log_n - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                 + k * log_q + (trials - k) * log_r)
        for k in ks
    )
    return min(total, 1.0)


def _json_matches_csv(op: OpResult) -> bool:
    csv_rows = list(csv.DictReader(io.StringIO(op.csv_text)))
    json_rows = json.loads(op.json_text)["rows"]
    if len(csv_rows) != len(json_rows):
        return False
    for c, j in zip(csv_rows, json_rows):
        if set(c) != set(j):
            return False
        if any(str(j[k]) != c[k] for k in c if k != "runtime_ms"):
            return False
    return True


def _check_row(row: dict, add) -> None:
    mode, p, n = row["mode"], int(row["p"]), int(row["n"])
    exact = Fraction(int(row["exact_num"]), int(row["exact_den"]))
    extra = _parse_extra(row["extra"])
    where = f"{mode}(p={p},n={n})"
    collision = Fraction(1, (p + 1) * p ** (n - 1))
    if mode == "montecarlo":
        trials = int(row["trials"])
        v, q = _histogram(extra, "v"), _histogram(extra, "q")
        hits = int(extra["collisions"])
        add(f"{where}: exact is the closed form", exact == collision)
        add(f"{where}: v histogram sums to trials", sum(v.values()) == trials)
        add(f"{where}: every quotient key q<v> matches its v", q == v)
        # The exact binomial form of |freq - q| <= 5 stderr. The normal
        # approximation misfires at n=12, where one collision in 2000
        # trials is 19 stderr above the mean but has probability 0.3%.
        add(f"{where}: collision frequency within 5 stderr",
            binomial_tail(hits, trials, float(collision)) >= FIVE_SIGMA_TAIL)
    elif mode == "tower":
        trials = int(row["trials"])
        v = _histogram(extra, "v")
        add(f"{where}: exact is the closed form", exact == collision)
        add(f"{where}: collisions plus v counts equal trials",
            int(extra["collisions"]) + sum(v.values()) == trials)
    elif mode == "isotropic":
        dim = int(extra["dim"])
        splits = int(extra["splits_true"])
        add(f"{where}: splits_true + splits_false equals results",
            splits + int(extra["splits_false"]) == exact)
        if n == 1:  # T = 0: every Lagrangian of the 2g-dimensional space
            g = dim // 2
            add(f"{where}: results equal prod(p^i + 1)",
                exact == math.prod(p**i + 1 for i in range(1, g + 1)))
            if g == 2:
                add(f"{where}: splits_true equals (p+1)^2", splits == (p + 1) ** 2)
        elif (p, n, dim) in KNOWN_ISOTROPIC:
            results, split_count = KNOWN_ISOTROPIC[(p, n, dim)]
            add(f"{where}: results equal {results}", exact == results)
            add(f"{where}: splits_true equals {split_count}", splits == split_count)
    elif mode == "exhaustive":
        add(f"{where}: exact is the closed form and verified",
            exact == collision and extra.get("verified") == "true")
    elif mode == "count":
        total = p**n + p ** (n - 1)
        add(f"{where}: count is p^n + p^(n-1)", exact == total)
        add(f"{where}: generators are p^(2n) - p^(2n-2)",
            int(extra["generators"]) == p ** (2 * n) - p ** (2 * n - 2))
        if extra["enumerated"] != "skipped":
            add(f"{where}: enumerated equals the count", int(extra["enumerated"]) == total)
    else:
        add(f"{where}: known mode", False)


def check_pass(workload: str, ops: dict, results: dict) -> list:
    """(name, ok) for every output check of one pass."""
    checks = []

    def add(name, ok):
        checks.append((name, bool(ok)))

    for key, op in results.items():
        if op.error:
            continue
        mode, *args = ops[key].split()
        if mode == "pushforward_consistency":
            p, low, high = (int(a) for a in args)
            r = op.report
            add(f"{key}: fibers_uniform and lifts_partition",
                r.fibers_uniform and r.lifts_partition)
            add(f"{key}: fibers sum to the level-{high} census",
                sum(r.fiber_counts.values()) == p**high + p ** (high - 1)
                and r.expected_fiber == p ** (high - low))
            continue
        try:
            rows = list(csv.DictReader(io.StringIO(op.csv_text)))
            levels = args[args.index("--levels") + 1].split(",")
            add(f"{key}: one row per level", len(rows) == len(levels))
            add(f"{key}: JSON rows equal CSV rows", _json_matches_csv(op))
            for row in rows:
                _check_row(row, add)
        except (KeyError, ValueError, json.JSONDecodeError) as e:
            add(f"{key}: output parses ({e!r})", False)
    if workload == "sampling":
        t1, t2 = results["mc_t1"], results["mc_t2"]
        if not (t1.error or t2.error):
            add("CSV at --threads 2 is byte-identical to --threads 1",
                t1.csv_text == t2.csv_text)
    return checks


# ------------------------------------------------------------- metrics


def _csv_rows(op: OpResult) -> list[dict]:
    return list(csv.DictReader(io.StringIO(op.csv_text)))


def _trials(op: OpResult) -> int:
    return sum(int(r["trials"]) for r in _csv_rows(op))


def _results(op: OpResult) -> int:
    return sum(int(r["exact_num"]) for r in _csv_rows(op))


def pass_rates(workload: str, ops: dict, results: dict, t: dict) -> dict:
    """Workload-specific throughputs of one pass whose ops all succeeded,
    given the time of each operation."""
    if workload == "sampling":
        return {
            "mc_trials_per_s": _trials(results["mc_t1"]) / t["mc_t1"],
            "mc_threads2_trials_per_s": _trials(results["mc_t2"]) / t["mc_t2"],
            "mc_n12_trials_per_s": _trials(results["mc_n12"]) / t["mc_n12"],
            "tower_trials_per_s": _trials(results["tower"]) / t["tower"],
        }
    if workload == "isotropic":
        level1 = ("iso_p5", "iso_p7")
        return {
            "iso_level1_results_per_s":
                sum(_results(results[k]) for k in level1) / sum(t[k] for k in level1),
            "iso_deep_results_per_s": _results(results["iso_deep"]) / t["iso_deep"],
        }
    census = [k for k in ops if ops[k].startswith("exhaustive")]
    pushforward = [k for k in ops if ops[k].startswith("pushforward_consistency")]
    pairs = sum(int(r["exact_den"]) ** 2 for k in census for r in _csv_rows(results[k]))
    forms = 0
    for k in pushforward:
        p, _, m = (int(a) for a in ops[k].split()[1:])
        forms += p**m + p ** (m - 1)
    return {
        "census_pairs_per_s": pairs / sum(t[k] for k in census),
        "pushforward_forms_per_s": forms / sum(t[k] for k in pushforward),
    }
