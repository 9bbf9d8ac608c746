"""Experiment runner: counts, exact checks, sampling, towers, isotropics.

Modes
    count       census of maximal cyclic submodules per level
    exhaustive  exact collision probability, verified by double enumeration
    montecarlo  sampled collision/intersection statistics
    tower       stabilization statistics down a tower of levels
    isotropic   maximal isotropic T-stable subspaces of a pairing space

Reports go to <output>.csv and/or <output>.json (written to a temp file and
renamed into place). CSV rows are byte-stable for a fixed (config, seed):
wall-clock measurements and the run timestamp appear only in the JSON
report. Exit codes: 0 ok, 2 usage error, 3 resource bound exceeded,
4 I/O error, 5 internal invariant violated (the message names p, n, seed and
trial needed to reproduce it). --threads is accepted and validated but no
longer changes speed or results: sampling is one vectorized kernel.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction

from . import __version__
from .errors import InvariantError, ResourceBoundError
from .pairing import SpaceShape, enumerate_maximal_isotropic
from .probability import (
    RngSpec,
    collision_probability_census,
    collision_probability_exact,
    intersection_bound,
    monte_carlo,
    tower_experiment,
)
from .series import check_level, check_prime, is_int
from .submodules import (
    MAX_ENUM_SUBMODULES,
    count_maximal,
    count_maximal_generators,
    enumerate_maximal,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_IO = 4
EXIT_INVARIANT = 5

MODES = ("count", "exhaustive", "montecarlo", "tower", "isotropic")
FORMATS = ("csv", "json", "both")
CSV_COLUMNS = (
    "mode",
    "p",
    "n",
    "exact_num",
    "exact_den",
    "exact_decimal",
    "empirical",
    "stderr",
    "trials",
    "seed",
    "runtime_ms",
    "extra",
)

_DECIMAL_CTX = Context(prec=12, rounding=ROUND_HALF_EVEN)


class UsageError(ValueError):
    """Bad configuration; message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    prime: int
    levels: tuple[int, ...]
    output: str
    trials: int = 10_000
    seed: int = 0
    shape: tuple[int, ...] = ()
    format: str = "csv"
    threads: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise UsageError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        try:
            check_prime(self.prime)
        except ValueError as e:
            raise UsageError(f"prime: {e}") from None
        if not self.levels:
            raise UsageError("levels: at least one level is required")
        for n in self.levels:
            try:
                check_level(n)
            except ValueError as e:
                raise UsageError(f"levels: {e}") from None
        if not self.output:
            raise UsageError("output: an output path prefix is required")
        if not is_int(self.trials) or self.trials < 1:
            raise UsageError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise UsageError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if self.format not in FORMATS:
            raise UsageError(
                f"format must be one of {', '.join(FORMATS)}, got {self.format!r}"
            )
        if not is_int(self.threads) or self.threads < 0:
            raise UsageError(
                f"threads must be an integer >= 0 (0 = auto), got {self.threads!r}"
            )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["levels"] = list(self.levels)
        d["shape"] = list(self.shape)
        return d


@dataclass(frozen=True)
class ReportRow:
    mode: str
    p: int
    n: int
    exact: Fraction
    seed: int
    runtime_ms: int
    extra: str
    empirical: Fraction | None = None
    stderr: float | None = None
    trials: int | None = None


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: tuple[ReportRow, ...]
    version: str
    timestamp: str


def fraction_decimal(x: Fraction) -> str:
    """Decimal rendering at 12 significant digits, round-half-even."""
    return str(_DECIMAL_CTX.divide(x.numerator, x.denominator))


def float_sci(x: float) -> str:
    return f"{x:.11e}"


def _counts_extra(prefix: str, counts: dict) -> str:
    return ";".join(f"{prefix}{k}={v}" for k, v in counts.items())


def _structure_extra(counts: dict) -> str:
    parts = []
    for struct, c in counts.items():
        key = "q" + "_".join(str(s) for s in struct) if struct else "q0"
        parts.append(f"{key}={c}")
    return ";".join(parts)


def _run_count(config: ExperimentConfig) -> list[ReportRow]:
    rows = []
    for n in config.levels:
        t0 = time.perf_counter()
        total = count_maximal(config.prime, n)
        extra = f"generators={count_maximal_generators(config.prime, n)}"
        if total <= MAX_ENUM_SUBMODULES:
            enumerated = sum(1 for _ in enumerate_maximal(config.prime, n))
            extra += f";enumerated={enumerated}"
        else:
            extra += ";enumerated=skipped"
        rows.append(
            ReportRow(
                mode=config.mode,
                p=config.prime,
                n=n,
                exact=Fraction(total),
                seed=config.seed,
                runtime_ms=int((time.perf_counter() - t0) * 1000),
                extra=extra,
            )
        )
    return rows


def _run_exhaustive(config: ExperimentConfig) -> list[ReportRow]:
    rows = []
    for n in config.levels:
        t0 = time.perf_counter()
        exact = collision_probability_exact(config.prime, n)
        census = collision_probability_census(config.prime, n)
        if census != exact:
            raise RuntimeError(
                f"census {census} disagrees with closed form {exact} at n={n}"
            )
        bound = intersection_bound(config.prime, n)
        extra = f"verified=true;bound={bound.numerator}/{bound.denominator}"
        rows.append(
            ReportRow(
                mode=config.mode,
                p=config.prime,
                n=n,
                exact=exact,
                seed=config.seed,
                runtime_ms=int((time.perf_counter() - t0) * 1000),
                extra=extra,
            )
        )
    return rows


def _run_montecarlo(config: ExperimentConfig) -> list[ReportRow]:
    rows = []
    spec = RngSpec(config.seed)
    for n in config.levels:
        t0 = time.perf_counter()
        res = monte_carlo(config.prime, n, config.trials, spec, threads=config.threads)
        extra = ";".join(
            [
                f"collisions={res.collisions}",
                f"delta={float_sci(res.delta)}",
                _counts_extra("v", res.exponent_counts),
                _structure_extra(res.quotient_structure_counts),
            ]
        )
        rows.append(
            ReportRow(
                mode=config.mode,
                p=config.prime,
                n=n,
                exact=res.exact,
                empirical=res.frequency,
                stderr=res.stderr,
                trials=config.trials,
                seed=config.seed,
                runtime_ms=int((time.perf_counter() - t0) * 1000),
                extra=extra,
            )
        )
    return rows


def _run_tower(config: ExperimentConfig) -> list[ReportRow]:
    rows = []
    spec = RngSpec(config.seed)
    for n in config.levels:
        t0 = time.perf_counter()
        res = tower_experiment(config.prime, n, config.trials, spec)
        q = float(res.exact)
        stderr = (q * (1 - q) / config.trials) ** 0.5
        extra = ";".join(
            [
                f"collisions={res.collisions}",
                _counts_extra("v", res.exponent_counts),
                _counts_extra("n0_", res.stabilization_level_counts),
            ]
        )
        rows.append(
            ReportRow(
                mode=config.mode,
                p=config.prime,
                n=n,
                exact=res.exact,
                empirical=Fraction(res.collisions, res.trials),
                stderr=stderr,
                trials=config.trials,
                seed=config.seed,
                runtime_ms=int((time.perf_counter() - t0) * 1000),
                extra=extra,
            )
        )
    return rows


def _run_isotropic(config: ExperimentConfig) -> list[ReportRow]:
    rows = []
    for n in config.levels:
        t0 = time.perf_counter()
        shape = SpaceShape(config.prime, n, config.shape)
        splits_true = 0
        splits_false = 0
        total = 0
        for report in enumerate_maximal_isotropic(shape):
            total += 1
            if report.splits:
                splits_true += 1
            else:
                splits_false += 1
        extra = (
            f"dim={shape.dim};splits_true={splits_true};splits_false={splits_false}"
        )
        rows.append(
            ReportRow(
                mode=config.mode,
                p=config.prime,
                n=n,
                exact=Fraction(total),
                seed=config.seed,
                runtime_ms=int((time.perf_counter() - t0) * 1000),
                extra=extra,
            )
        )
    return rows


_RUNNERS = {
    "count": _run_count,
    "exhaustive": _run_exhaustive,
    "montecarlo": _run_montecarlo,
    "tower": _run_tower,
    "isotropic": _run_isotropic,
}


def run(config: ExperimentConfig) -> ExperimentReport:
    if config.mode == "isotropic":
        try:
            for n in config.levels:
                SpaceShape(config.prime, n, config.shape)
        except ValueError as e:
            raise UsageError(f"shape: {e}") from None
    rows = _RUNNERS[config.mode](config)
    return ExperimentReport(
        config=config,
        rows=tuple(rows),
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def _row_cells(row: ReportRow, include_runtime: bool) -> dict:
    return {
        "mode": row.mode,
        "p": row.p,
        "n": row.n,
        "exact_num": row.exact.numerator,
        "exact_den": row.exact.denominator,
        "exact_decimal": fraction_decimal(row.exact),
        "empirical": "" if row.empirical is None else fraction_decimal(row.empirical),
        "stderr": "" if row.stderr is None else float_sci(row.stderr),
        "trials": "" if row.trials is None else row.trials,
        "seed": row.seed,
        "runtime_ms": row.runtime_ms if include_runtime else "",
        "extra": row.extra,
    }


def render_csv(report: ExperimentReport) -> str:
    """CSV text; deterministic for fixed (config, seed), so no wall-clock."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in report.rows:
        writer.writerow(_row_cells(row, include_runtime=False))
    return buf.getvalue()


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "config": report.config.to_dict(),
        "rows": [_row_cells(row, include_runtime=True) for row in report.rows],
        "metadata": {
            "library": "fpmods",
            "version": report.version,
            "timestamp": report.timestamp,
        },
    }


def render_json(report: ExperimentReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fpmods-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def emit(report: ExperimentReport) -> list[str]:
    paths = []
    fmt = report.config.format
    if fmt in ("csv", "both"):
        path = report.config.output + ".csv"
        _atomic_write(path, render_csv(report))
        paths.append(path)
    if fmt in ("json", "both"):
        path = report.config.output + ".json"
        _atomic_write(path, render_json(report))
        paths.append(path)
    return paths


def _styled(text: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[1m{text}\x1b[0m"


def _parse_int_list(text: str, name: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{name}: expected comma-separated integers, got {text!r}") from None


def _read_config_file(path: str) -> dict:
    keys = {
        "mode",
        "prime",
        "levels",
        "trials",
        "seed",
        "shape",
        "output",
        "format",
        "threads",
    }
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in keys:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    settings: dict = {}
    if args.config:
        raw = _read_config_file(args.config)
        for key in ("mode", "output", "format"):
            if key in raw:
                settings[key] = raw[key]
        for key in ("prime", "trials", "seed", "threads"):
            if key in raw:
                try:
                    settings[key] = int(raw[key])
                except ValueError:
                    raise UsageError(f"{key}: expected an integer, got {raw[key]!r}") from None
        if "levels" in raw:
            settings["levels"] = _parse_int_list(raw["levels"], "levels")
        if "shape" in raw:
            settings["shape"] = _parse_int_list(raw["shape"], "shape")
    for key in ("mode", "prime", "trials", "seed", "output", "format", "threads"):
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if args.levels is not None:
        settings["levels"] = _parse_int_list(args.levels, "levels")
    if args.shape is not None:
        settings["shape"] = _parse_int_list(args.shape, "shape")
    for required in ("mode", "prime", "levels", "output"):
        if required not in settings:
            raise UsageError(f"{required} is required (flag --{required} or config file)")
    return ExperimentConfig(**settings)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpmods",
        description="Experiments on maximal cyclic submodules over F_p[T]/(T^n).",
    )
    parser.add_argument("--mode", choices=MODES, help="experiment to run")
    parser.add_argument("--prime", type=int, help="odd prime p, 3 <= p <= 97")
    parser.add_argument("--levels", help="comma-separated truncation levels")
    parser.add_argument("--trials", type=int, help="sampled trials per level")
    parser.add_argument("--seed", type=int, help="64-bit root seed")
    parser.add_argument(
        "--shape", help="comma-separated torsion block levels (isotropic mode)"
    )
    parser.add_argument("--output", help="output path prefix")
    parser.add_argument("--format", choices=FORMATS, help="report format(s)")
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument(
        "--threads",
        type=int,
        help="accepted for compatibility, >= 0; changes neither speed nor results",
    )
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = build_config(args)
        report = run(config)
        paths = emit(report)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceBoundError as e:
        print(f"resource bound exceeded: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except InvariantError as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    print(_styled(f"{config.mode} p={config.prime} levels={','.join(map(str, config.levels))}"))
    for row in report.rows:
        exact = f"{row.exact.numerator}/{row.exact.denominator}"
        line = f"  n={row.n} exact={exact}"
        if row.empirical is not None:
            line += f" empirical={fraction_decimal(row.empirical)}"
        print(line)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
