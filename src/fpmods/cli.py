"""Experiment runner: counts, exact checks, sampling, towers, isotropics.

Modes
    count       census of maximal cyclic submodules per level
    exhaustive  exact collision probability, verified by an enumeration census
    montecarlo  sampled collision/intersection statistics
    tower       stabilization statistics down a tower of levels
    isotropic   maximal isotropic T-stable subspaces of a pairing space

Reports go to <output>.csv and/or <output>.json (all rendered first, then
all written to temp files, then each renamed into place; a failed rename
removes the reports already placed, so either all are written or none).
CSV rows are byte-stable for a fixed (config, seed): wall-clock
measurements, the run timestamp and the provenance (Python, numpy,
platform, CPU count, argv) appear only in the JSON report. Exit codes:
0 ok, 2 usage error, 3 resource bound exceeded, 4 I/O error, 5 internal
invariant violated (the message names p and n, plus the seed and trial of
a sampling failure).

Only the sampled modes (`montecarlo`, `tower`) and `isotropic` load numpy,
by importing `probability` or `pairing` when a row of theirs is computed
(and `isotropic` when its config is checked). `count` and `exhaustive`
never import numpy. So neither this module nor any module it imports at
load time may import numpy at module level: each exact run would pay
numpy's start-up (about 90 ms) for no numpy call; see the `fpmods` package
docstring.

Settings are described once, by the fields of ExperimentConfig, so a bad
value is a usage error with the same message from a flag or a config file.
--threads is accepted and validated but no longer changes speed or results:
sampling is one vectorized kernel.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import os
import platform
import sys
import time
from dataclasses import MISSING, Field, dataclass, field, fields
from datetime import datetime, timezone
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING

from . import __version__
from .errors import InvariantError, ResourceBoundError
from .laws import (
    collision_probability_census,
    collision_probability_exact,
    intersection_bound,
)
from .series import check_level, check_prime, is_int, is_power_of
from .submodules import count_maximal, count_maximal_generators, enumerate_maximal

if TYPE_CHECKING:
    from .probability import SampledExponents

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


def _setting(help: str, metavar: str | None = None, default=MISSING):
    """A config field whose metadata is the keyword arguments of its flag."""
    return field(default=default, metadata=dict(help=help, metavar=metavar))


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment settings. Each field is both a --flag and a config-file
    key: its metadata holds the flag's help and metavar, its annotation says
    how the text of either is converted, and a field without a default is
    required."""

    mode: str = _setting("experiment to run", metavar="{%s}" % ",".join(MODES))
    prime: int = _setting("odd prime p, 3 <= p <= 97")
    levels: tuple[int, ...] = _setting("comma-separated truncation levels")
    output: str = _setting("output path prefix")
    trials: int = _setting("sampled trials per level", default=10_000)
    seed: int = _setting("64-bit root seed", default=0)
    shape: tuple[int, ...] = _setting(
        "comma-separated torsion block levels (isotropic mode)", default=()
    )
    format: str = _setting(
        "report format(s)", metavar="{%s}" % ",".join(FORMATS), default="csv"
    )
    threads: int = _setting(
        "accepted for compatibility, >= 0; changes neither speed nor results",
        default=1,
    )

    def __post_init__(self):
        for name in ("levels", "shape"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                raise UsageError(f"{name} must be a tuple, got {type(value).__name__}")
        if not all(is_int(k) for k in self.shape):
            raise UsageError(f"shape entries must be integers, got {self.shape!r}")
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
        if not isinstance(self.output, str):
            raise UsageError(f"output must be a string, got {type(self.output).__name__}")
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
            raise UsageError(f"threads must be an integer >= 0, got {self.threads!r}")
        if self.mode == "isotropic":
            from .pairing import SpaceShape

            for n in self.levels:
                if not is_power_of(n, self.prime):
                    raise UsageError(f"levels: level {n} is not a power of {self.prime}")
            try:
                for n in self.levels:
                    SpaceShape(self.prime, n, self.shape)
            except ValueError as e:
                raise UsageError(f"shape: {e}") from None

    def to_dict(self) -> dict:
        d = {setting.name: getattr(self, setting.name) for setting in fields(self)}
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
    argv: tuple[str, ...] | None = None  # the arguments of main; None from run()


def fraction_decimal(x: Fraction) -> str:
    """Decimal rendering at 12 significant digits, round-half-even."""
    return str(_DECIMAL_CTX.divide(x.numerator, x.denominator))


def float_sci(x: float) -> str:
    return f"{x:.11e}"


def _counts_extra(prefix: str, counts: dict) -> str:
    return ";".join(f"{prefix}{k}={v}" for k, v in counts.items())


def _count_fields(config: ExperimentConfig, n: int) -> dict:
    count = count_maximal(config.prime, n)
    try:
        enumerated = sum(1 for _ in enumerate_maximal(config.prime, n))
    except ResourceBoundError:
        enumerated = "skipped"
    if enumerated not in (count, "skipped"):
        raise InvariantError(
            f"enumeration found {enumerated} forms, closed form {count}",
            p=config.prime, n=n,
        )
    generators = count_maximal_generators(config.prime, n)
    extra = f"generators={generators};enumerated={enumerated}"
    return dict(exact=Fraction(count), extra=extra)


def _exhaustive_fields(config: ExperimentConfig, n: int) -> dict:
    exact = collision_probability_exact(config.prime, n)
    census = collision_probability_census(config.prime, n)
    if census != exact:
        raise InvariantError(
            f"census {census} disagrees with closed form {exact}", p=config.prime, n=n
        )
    bound = intersection_bound(config.prime, n)
    extra = f"verified=true;bound={bound.numerator}/{bound.denominator}"
    return dict(exact=exact, extra=extra)


def _sampled_fields(res: SampledExponents, *extra: str) -> dict:
    return dict(
        exact=res.exact,
        empirical=res.frequency,
        stderr=res.stderr,
        trials=res.trials,
        extra=";".join([f"collisions={res.collisions}", *extra]),
    )


def _montecarlo_fields(config: ExperimentConfig, n: int) -> dict:
    from .probability import RngSpec, monte_carlo

    res = monte_carlo(config.prime, n, config.trials, RngSpec(config.seed))
    return _sampled_fields(
        res,
        f"delta={float_sci(res.delta)}",
        _counts_extra("v", res.exponent_counts),
        # the quotient is cyclic of order p^v: its structure is v, "q0" trivial
        _counts_extra("q", res.exponent_counts),
    )


def _tower_fields(config: ExperimentConfig, n: int) -> dict:
    from .probability import RngSpec, tower_experiment

    res = tower_experiment(config.prime, n, config.trials, RngSpec(config.seed))
    # pairs distinct at the top (v < n) stabilize from level n0 = v + 1 on
    distinct = {v: c for v, c in res.exponent_counts.items() if v < n}
    return _sampled_fields(
        res,
        _counts_extra("v", distinct),
        _counts_extra("n0_", {v + 1: c for v, c in distinct.items()}),
    )


def _isotropic_fields(config: ExperimentConfig, n: int) -> dict:
    from .pairing import SpaceShape, count_maximal_isotropic

    shape = SpaceShape(config.prime, n, config.shape)
    results, splits = count_maximal_isotropic(shape)
    extra = f"dim={shape.dim};splits_true={splits};splits_false={results - splits}"
    return dict(exact=Fraction(results), extra=extra)


# Per mode, the fields of one level's row beyond mode, p, n, seed and runtime.
_ROW_FIELDS = {
    "count": _count_fields,
    "exhaustive": _exhaustive_fields,
    "montecarlo": _montecarlo_fields,
    "tower": _tower_fields,
    "isotropic": _isotropic_fields,
}


def run(
    config: ExperimentConfig, argv: tuple[str, ...] | None = None
) -> ExperimentReport:
    row_fields = _ROW_FIELDS[config.mode]
    rows = []
    for n in config.levels:
        t0 = time.perf_counter()
        values = row_fields(config, n)
        rows.append(
            ReportRow(
                mode=config.mode,
                p=config.prime,
                n=n,
                seed=config.seed,
                runtime_ms=int((time.perf_counter() - t0) * 1000),
                **values,
            )
        )
    return ExperimentReport(
        config=config,
        rows=tuple(rows),
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
        argv=argv,
    )


def _row_cells(row: ReportRow, include_runtime: bool) -> tuple:
    """The row's cells, in CSV_COLUMNS order."""
    return (
        row.mode,
        row.p,
        row.n,
        row.exact.numerator,
        row.exact.denominator,
        fraction_decimal(row.exact),
        "" if row.empirical is None else fraction_decimal(row.empirical),
        "" if row.stderr is None else float_sci(row.stderr),
        "" if row.trials is None else row.trials,
        row.seed,
        row.runtime_ms if include_runtime else "",
        row.extra,
    )


def render_csv(report: ExperimentReport) -> str:
    """CSV text; deterministic for fixed (config, seed), so no wall-clock."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(_row_cells(row, include_runtime=False) for row in report.rows)
    return buf.getvalue()


def _numpy_version() -> str:
    """The numpy version, read without loading numpy when it is not loaded:
    from the name of the one numpy-<version>.dist-info directory beside the
    package (importlib.metadata would cost a fresh run about 20 ms)."""
    numpy = sys.modules.get("numpy")
    if numpy is None:
        spec = importlib.util.find_spec("numpy")
        if spec is not None and spec.origin is not None:
            site = os.path.dirname(os.path.dirname(spec.origin))
            found = [d for d in os.listdir(site)
                     if d.startswith("numpy-") and d.endswith(".dist-info")]
            if len(found) == 1:
                return found[0][len("numpy-"):-len(".dist-info")]
        import numpy
    return numpy.__version__


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "config": report.config.to_dict(),
        "rows": [
            dict(zip(CSV_COLUMNS, _row_cells(row, include_runtime=True)))
            for row in report.rows
        ],
        "metadata": {
            "library": "fpmods",
            "version": report.version,
            "timestamp": report.timestamp,
            "python": platform.python_version(),
            "numpy": _numpy_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "argv": None if report.argv is None else list(report.argv),
        },
    }


def render_json(report: ExperimentReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def _stage(path: str, text: str) -> str:
    """Write text to a new temp file beside path and return its name."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".fpmods-{os.urandom(8).hex()}")
    # 0666 less the umask, applied by the kernel: the mode open() would give
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
    except BaseException:
        _discard(tmp)
        raise
    return tmp


def _discard(tmp: str) -> None:
    try:
        os.unlink(tmp)
    except OSError:
        pass


def emit(report: ExperimentReport) -> list[str]:
    """Render every requested format, stage each in a temp file, then rename
    them into place: a render or staging error writes no report, and a
    failed rename removes the reports this call already renamed (a report
    they replaced is not restored)."""
    renderers = {"csv": render_csv, "json": render_json}
    fmt = report.config.format
    texts = {
        f"{report.config.output}.{ext}": render(report)
        for ext, render in renderers.items()
        if fmt in (ext, "both")
    }
    staged: dict[str, str] = {}
    placed: list[str] = []
    try:
        for path, text in texts.items():
            staged[path] = _stage(path, text)
        for path, tmp in staged.items():
            os.replace(tmp, path)
            placed.append(path)
    except BaseException as e:
        for name in [*staged.values(), *placed]:
            _discard(name)
        if isinstance(e, OSError):
            # name the report being staged or renamed, not its temp file
            raise OSError(e.errno, e.strerror, path) from e
        raise
    return list(texts)


def _styled(text: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[1m{text}\x1b[0m"


def _convert(setting: Field, text: str):
    """A flag or config-file text, converted by its field's annotation (a
    string, as annotations are postponed)."""
    try:
        if setting.type == "int":
            return int(text)
        if setting.type == "tuple[int, ...]":
            return tuple(int(part) for part in text.split(",")) if text.strip() else ()
    except ValueError:
        expected = "an integer" if setting.type == "int" else "comma-separated integers"
        raise UsageError(f"{setting.name}: expected {expected}, got {text!r}") from None
    return text


def _read_config_file(path: str) -> dict:
    try:
        # utf-8-sig drops a leading byte-order mark, as editors may write
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as e:
        raise UsageError(f"{path}: not UTF-8 text ({e.reason})") from None
    keys = {setting.name for setting in fields(ExperimentConfig)}
    values: dict = {}
    set_on: dict = {}  # the line that set each key
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key in set_on:
            raise UsageError(
                f"{path}:{lineno}: key {key!r} is already set on line {set_on[key]}"
            )
        set_on[key] = lineno
        values[key] = value.strip()
    return values


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Flag texts laid over config-file texts, each converted once."""
    texts = _read_config_file(args.config) if args.config else {}
    settings = {}
    for setting in fields(ExperimentConfig):
        flag = getattr(args, setting.name)
        text = texts.get(setting.name) if flag is None else flag
        if text is not None:
            settings[setting.name] = _convert(setting, text)
    for setting in fields(ExperimentConfig):
        if setting.default is MISSING and setting.name not in settings:
            name = setting.name
            raise UsageError(f"{name} is required (flag --{name} or config file)")
    return ExperimentConfig(**settings)


@cache
def make_parser() -> argparse.ArgumentParser:
    """The flag parser, built once per process: parse_args leaves it
    unchanged, and no flag has a default to share between runs."""
    parser = argparse.ArgumentParser(
        prog="fpmods",
        description="Experiments on maximal cyclic submodules over F_p[T]/(T^n).",
    )
    for setting in fields(ExperimentConfig):
        parser.add_argument(f"--{setting.name}", **setting.metadata)
    parser.add_argument("--config", help="key=value config file; flags override it")
    return parser


def main(argv=None) -> int:
    argv = tuple(sys.argv[1:] if argv is None else argv)
    args = make_parser().parse_args(argv)
    try:
        config = build_config(args)
        report = run(config, argv)
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
