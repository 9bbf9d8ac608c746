"""Benchmark of fpmods, measured end to end and per module.

Run one workload (the last stdout line is a JSON result):

    python3 perfbench/run.py --workload sampling --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: passes over
the workload's operations in a closed loop, two at least, then more until
``--seconds`` have elapsed.
``--trace 1`` runs untraced passes for half of ``--seconds``, then exactly
one pass with every layer traced, and reports the per-layer metrics of that
pass and its cost as ``trace.overhead_ratio``.

Run every workload untraced ``--runs`` times, then once traced, and keep the
result set:

    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --runs 10 --out a.json

Compare result sets or single-run result files; runs are paired in the
order given, so collect the two sides alternately (parent, change, parent,
...) and list each side's files in that order:

    python3 perfbench/run.py --base a1.json a2.json --new b1.json b2.json

Check the benchmark itself at tiny inputs:

    python3 perfbench/run.py --self-test

Times and rates are corrected for the host's speed, which on a shared VM
drifts by up to 1.9x over minutes (see probe.py); the uncorrected times are
reported beside them as ``wall_raw_s``, ``setup_raw_s`` and ``probe_us``.

The program is imported from ``src/`` of the checkout that holds this file;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

import layers
import workloads
from probe import PROBE_INTERVAL_S, PROBE_NOMINAL_S, HostProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The end-to-end metrics every workload reports, as listed in BENCHMARK.json.
RESULT_METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SETUP_SPAWNS = 7
SETUP_CODE = (
    f"import sys, time; sys.path.insert(0, {str(SRC)!r}); import fpmods.cli; "
    f"t = time.perf_counter(); sys.path.insert(0, {str(Path(__file__).parent)!r}); "
    f"import probe; p = probe.probe_mean_s(); print(p, time.perf_counter() - t)"
)
COMPARABLE = ("python", "numpy", "machine", "nproc", "definitions_sha256",
              "probe_nominal_s")
CHILD_TIMEOUT_S = 170


class SetupError(RuntimeError):
    """The program under test cannot be found or imported."""


def import_fpmods():
    """fpmods from this checkout's src/, never from anywhere else."""
    if not (SRC / "fpmods" / "__init__.py").is_file():
        raise SetupError(f"no fpmods package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fpmods
    import fpmods.cli

    if Path(fpmods.__file__).resolve().parent != SRC / "fpmods":
        raise SetupError(f"imported fpmods from {fpmods.__file__}, not {SRC}")
    return fpmods


def spawn_setup() -> tuple[float, float]:
    """(seconds, probe seconds) of a fresh interpreter importing fpmods.cli.

    The child then times the probe kernel on its own CPU, since it may not
    run where this process runs, and reports how long that took, which is
    taken off the set-up time.
    """
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE], check=True,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    probe_s, tail_s = (float(x) for x in out.stdout.split())
    return elapsed - tail_s, probe_s


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "argv": sys.argv,
        "seed": seed,
        "definitions_sha256": workloads.definitions_digest(),
        "probe_nominal_s": PROBE_NOMINAL_S,
        "probe_interval_s": PROBE_INTERVAL_S,
    }


def summarize(values: list[float]) -> dict:
    """Median and quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def _more(passes: list, t0: float, seconds: float, least: int) -> bool:
    """Closed loop: `least` passes always, then more until `seconds` have
    elapsed, but none that the last pass's time says would end after
    1.5 x `seconds`, so that runs of long passes stay bounded."""
    if len(passes) < least:
        return True
    elapsed = time.perf_counter() - t0
    return elapsed < seconds and elapsed + passes[-1].seconds <= 1.5 * seconds


def _passes(fpmods, workload, seed, seconds, tmpdir, tiny):
    passes = []
    t0 = time.perf_counter()
    while _more(passes, t0, seconds, 1):
        passes.append(workloads.run_pass(fpmods, workload, seed, len(passes), tmpdir, tiny))
    return passes


def _measured_passes(fpmods, workload, seed, seconds, tmpdir, tiny, setup_spawns):
    """Untraced passes with the host probe on, and set-up spawns spread over
    the run, at most one between two operations, so that the set-up median
    sees the same host as the passes. Returns (passes, set-up times, probe
    samples)."""
    probe, setup = HostProbe(), []
    spawn_setup()  # untimed: writes the bytecode caches, as an install would
    t0 = time.perf_counter()

    def between_ops():
        due = setup_spawns * min(1.0, (time.perf_counter() - t0) / seconds) if seconds else 0
        if len(setup) < due:
            with probe.paused():
                setup.append(spawn_setup())

    passes = []
    probe.start()
    try:
        # Two passes at least, so that peak memory and the medians never
        # depend on whether a long pass left room for a second one.
        while _more(passes, t0, seconds, 2):
            passes.append(workloads.run_pass(fpmods, workload, seed, len(passes), tmpdir,
                                             tiny, probe, between_ops))
    finally:
        probe.stop()
    while len(setup) < setup_spawns:
        setup.append(spawn_setup())
    return passes, setup, probe.samples


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, setup_spawns: int = SETUP_SPAWNS) -> dict:
    """One benchmark run; the record holds its samples, metrics and checks."""
    fpmods = import_fpmods()
    record = {"provenance": provenance(seed), "workload": workload, "seed": seed,
              "seconds": seconds, "trace": int(trace), "tiny": tiny}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmpdir:
        if trace:
            passes = _passes(fpmods, workload, seed, seconds / 2, tmpdir, tiny)
            modules = {name: getattr(fpmods, name) for name in
                       ("series", "linalg", "submodules", "probability", "pairing", "cli")}
            tracer = layers.Tracer()
            tracer.install(modules)
            try:
                traced = workloads.run_pass(fpmods, workload, seed, len(passes), tmpdir, tiny)
            finally:
                tracer.uninstall()
        else:
            passes, setup, probes = _measured_passes(
                fpmods, workload, seed, seconds, tmpdir, tiny, setup_spawns)
    every = passes + [traced] if trace else passes
    failures = [msg for p in every for msg in p.failures]
    attempted = sum(p.attempted for p in every)
    record.update(passes=len(every), attempted=attempted, failed=len(failures),
                  failures=failures[:20])
    ops = workloads.TINY_OPS[workload] if tiny else workloads.WORKLOADS[workload]["ops"]
    if trace:
        stats, edges = tracer.aggregate()
        overhead = traced.seconds / statistics.median(p.seconds for p in passes)
        values = layers.layer_metrics(stats, overhead)
        record["layers"] = values
        record["bypass"] = layers.bypass_report(workload, values)
        record["missing_targets"] = tracer.missing
        record["call_tree"] = layers.call_tree(stats, edges)
        record["metrics"] = {name: {"value": values[name], "unit": spec[0]}
                             for name, spec in layers.LAYER_METRICS.items()}
        return record
    # Host-speed correction: each time is scaled by PROBE_NOMINAL_S over the
    # mean probe time seen while it ran: the operation's own probes, else its
    # pass's, else the run's; a set-up spawn uses the probe its child ran.
    run_probe = statistics.fmean(probes) if probes else math.nan
    samples = {name: [] for name in workloads.metrics_for(workload)}
    samples["setup_raw_s"] = [t for t, _ in setup]
    samples["setup_s"] = [t * PROBE_NOMINAL_S / p for t, p in setup]
    samples["wall_raw_s"] = [p.seconds for p in passes]
    samples["probe_us"] = [run_probe * 1e6]
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    samples["failed_share"] = [len(failures) / attempted]
    for p in passes:
        times = {key: op.seconds * PROBE_NOMINAL_S / (op.probe_s or p.probe_s or run_probe)
                 for key, op in p.ops.items()}
        samples["wall_s"].append(sum(times.values()))
        if not p.failures:
            for name, value in workloads.pass_rates(workload, ops, p.ops, times).items():
                samples[name].append(value)
    samples = {name: [v for v in values if math.isfinite(v)]
               for name, values in samples.items()}
    record["samples"] = samples
    record["summary"] = {name: dict(unit=workloads.E2E_METRICS[name][0], **summarize(v))
                         for name, v in samples.items() if v}
    record["metrics"] = {name: {"value": record["summary"][name]["median"],
                                "unit": workloads.E2E_METRICS[name][0]}
                         for name in RESULT_METRICS if name in record["summary"]}
    return record


def print_record(record: dict) -> None:
    head = (f"{record['workload']} seed={record['seed']} passes={record['passes']} "
            f"attempted={record['attempted']} failed={record['failed']}")
    print(head + (" (traced)" if record["trace"] else ""))
    for msg in record["failures"]:
        print(f"  FAILED {msg}")
    if record["trace"]:
        for name, value in record["layers"].items():
            print(f"  {name:45s} {value:14.6g} {layers.LAYER_METRICS[name][0]}")
        for prediction, held in record["bypass"]:
            print(f"  prediction: {prediction}: {'held' if held else 'NOT held'}")
        for target in record["missing_targets"]:
            print(f"  trace target missing: {target}")
        return
    print(f"  {'metric':28s} {'unit':6s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s}")
    for name, s in record["summary"].items():
        print(f"  {name:28s} {s['unit']:6s} {s['n']:3d} {s['median']:12.6g} "
              f"{s['q1']:12.6g} {s['q3']:12.6g}")


def result_line(record: dict) -> str:
    return json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": record["metrics"]})


def write_json(path: str, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


# ------------------------------------------------------------------ suite


def run_suite(seed: int, seconds: float, runs: int, out: str | None) -> int:
    """Every workload untraced `runs` times, then each once traced, each run
    in a fresh interpreter so that set-up and peak memory are its own."""
    records = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmpdir:
        plan = [(w, seed + i, 0) for i in range(runs) for w in workloads.WORKLOADS]
        plan += [(w, seed, 1) for w in workloads.WORKLOADS]
        for i, (w, s, trace) in enumerate(plan):
            path = os.path.join(tmpdir, f"{i}.json")
            print(f"[{i + 1}/{len(plan)}] {w} seed={s} trace={trace}", file=sys.stderr)
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(s),
                            "--seconds", str(seconds), "--trace", str(trace), "--out", path],
                           check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
            with open(path) as fh:
                records.append(json.load(fh))
    result = {"provenance": provenance(seed), "runs": records}
    for w in workloads.WORKLOADS:
        untraced = [r for r in records if r["workload"] == w and not r["trace"]]
        print(f"{w}: {len(untraced)} runs, per-run medians")
        print(f"  {'metric':28s} {'unit':6s} {'n':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'iqr/med':>8s}")
        for name in workloads.metrics_for(w):
            values = [r["summary"][name]["median"] for r in untraced if name in r["summary"]]
            if not values:
                print(f"  {name:28s} no samples")
                continue
            s = summarize(values)
            spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
            print(f"  {name:28s} {workloads.E2E_METRICS[name][0]:6s} {s['n']:3d} "
                  f"{s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {spread:8.3f}")
        for r in records:
            if r["workload"] == w and r["trace"]:
                print_record(r)
    if out:
        write_json(out, result)
    failed = sum(r["failed"] for r in records)
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------- compare


def _load_runs(paths: list[str]) -> tuple[dict, list[dict]]:
    """Provenance of the first file and the runs of all files, in order."""
    provenances, runs = [], []
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        provenances.append(data["provenance"])
        runs += data["runs"] if "runs" in data else [data]
    return provenances, runs


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict and share of pairs won, by the rule for small sandboxes.

    Improved: the new side wins at least 9/10 of the pairs (ties count for
    neither) and the medians differ by more than the base quartile spread.
    Unresolved: either side's quartile spread exceeds the bound, unless every
    new run beats every base run. Regressed: the new median is worse by more
    than the bound. Otherwise no worse within the bound.
    """
    sign = 1 if better == "higher" else -1
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0) / len(pairs)
    sb, sn = summarize(base), summarize(new)
    gain = sign * (sn["median"] - sb["median"])
    if wins >= 0.9 and gain > sb["q3"] - sb["q1"]:
        return "improved", wins
    spread = max((s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0 for s in (sb, sn))
    every_better = all(sign * (n - b) > 0 for n in new for b in base)
    if spread > bound and not every_better:
        return "unresolved", wins
    worse = -gain / sb["median"] if sb["median"] else (1.0 if gain < 0 else 0.0)
    return ("regressed" if worse > bound else "no worse within bound"), wins


def compare(base_paths: list[str], new_paths: list[str]) -> int:
    """Verdicts per workload and end-to-end metric, with the per-layer deltas
    of the traced runs beside them; exit code 1 if any metric regressed."""
    base_provs, base_runs = _load_runs(base_paths)
    new_provs, new_runs = _load_runs(new_paths)
    first = base_provs[0]
    diffs = sorted({k for prov in base_provs + new_provs for k in COMPARABLE
                    if prov.get(k) != first.get(k)})
    if diffs:
        print("NOT comparable, provenance differs in: " + ", ".join(diffs))
    else:
        print("comparable: " + ", ".join(f"{k}={first[k]}" for k in COMPARABLE))
    print("base revisions: " + " ".join(sorted({str(p.get("git_revision")) for p in base_provs})))
    print("new revisions: " + " ".join(sorted({str(p.get("git_revision")) for p in new_provs})))
    regressed = False
    for w in workloads.WORKLOADS:
        sides = [[r for r in runs if r["workload"] == w and not r["trace"]]
                 for runs in (base_runs, new_runs)]
        traced = [[r["layers"] for r in runs if r["workload"] == w and r["trace"]]
                  for runs in (base_runs, new_runs)]
        if not all(sides):
            continue
        print(f"\n{w}: {len(sides[0])} base runs, {len(sides[1])} new runs")
        for name in workloads.metrics_for(w):
            unit, better, bound, _ = workloads.E2E_METRICS[name]
            base, new = ([r["summary"][name]["median"] for r in side if name in r["summary"]]
                         for side in sides)
            if not base or not new:
                print(f"  {name}: no samples on one side")
                continue
            sb, sn = summarize(base), summarize(new)
            if bound is None:
                print(f"  {name} [{unit}, uncorrected, no verdict]")
            else:
                v, wins = verdict(base, new, better, bound)
                regressed |= v == "regressed"
                print(f"  {name} [{unit}, {better} is better, bound {bound:.0%}]: {v}; "
                      f"pairs won {wins:.0%}")
            print(f"    base median {sb['median']:.6g} (q1 {sb['q1']:.6g}, q3 {sb['q3']:.6g}); "
                  f"new median {sn['median']:.6g} (q1 {sn['q1']:.6g}, q3 {sn['q3']:.6g})")
            if not all(traced):
                continue
            for layer, (lunit, _, moves) in layers.LAYER_METRICS.items():
                if (w, name) not in moves:
                    continue
                lb = statistics.median(t[layer] for t in traced[0])
                ln = statistics.median(t[layer] for t in traced[1])
                if lb or ln:
                    delta = f"{(ln - lb) / lb:+.1%}" if lb else "new"
                    print(f"      {layer:45s} {lb:12.6g} -> {ln:12.6g} {lunit:6s} {delta}")
    return 1 if regressed else 0


# -------------------------------------------------------------- self-test


def self_test() -> int:
    """Each workload at tiny inputs, untraced and traced, plus BENCHMARK.json."""
    problems = []
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for m in bench["end_to_end"]:
        unit, better, bound, _ = workloads.E2E_METRICS[m["name"]]
        if (m["unit"], m["better"], m["bound"]) != (unit, better, bound):
            problems.append(f"BENCHMARK.json end_to_end {m['name']} differs")
    if [m["name"] for m in bench["end_to_end"]] != list(RESULT_METRICS):
        problems.append("BENCHMARK.json end_to_end names differ from RESULT_METRICS")
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] != [
            (n, u, b) for n, (u, b, _) in layers.LAYER_METRICS.items()]:
        problems.append("BENCHMARK.json per_layer differs from layers.LAYER_METRICS")
    for w in workloads.WORKLOADS:
        for trace in (False, True):
            record = run_workload(w, 1, 0 if trace else 1, trace, tiny=True, setup_spawns=1)
            line = json.loads(result_line(record))
            label = f"{w} trace={int(trace)}"
            if record["failed"] or not line["correct"]:
                problems.append(f"{label}: failures {record['failures']}")
            expected = layers.LAYER_METRICS if trace else RESULT_METRICS
            if set(line["metrics"]) != set(expected):
                problems.append(f"{label}: result line metrics {sorted(line['metrics'])}")
            if any(not math.isfinite(m["value"]) for m in line["metrics"].values()):
                problems.append(f"{label}: non-finite metric")
            if trace and record["missing_targets"]:
                problems.append(f"{label}: trace targets missing {record['missing_targets']}")
            if not trace:
                absent = set(workloads.metrics_for(w)) - set(record["summary"])
                if absent:
                    problems.append(f"{label}: metrics absent {sorted(absent)}")
    for problem in problems:
        print(f"self-test FAILED: {problem}")
    print("self-test ok" if not problems else f"self-test: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=10, help="runs per workload with 'all'")
    parser.add_argument("--out", help="write the result record or set here")
    parser.add_argument("--base", nargs="+", help="result files of the parent, to compare")
    parser.add_argument("--new", nargs="+", help="result files of the change, to compare")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.base or args.new:
            if not (args.base and args.new):
                parser.error("--base and --new go together")
            return compare(args.base, args.new)
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_suite(args.seed, args.seconds, args.runs, args.out)
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.out:
        write_json(args.out, record)
    print_record(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
