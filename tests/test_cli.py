import csv
import dataclasses
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fpmods import TruncatedSeries, cli, pairing
from fpmods.cli import (
    CSV_COLUMNS,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    ExperimentConfig,
    UsageError,
    build_config,
    emit,
    fraction_decimal,
    float_sci,
    make_parser,
    render_csv,
    render_json,
    report_to_dict,
    run,
)
from fpmods.probability import RngSpec, monte_carlo, tower_experiment


def config(**overrides) -> ExperimentConfig:
    base = dict(mode="count", prime=3, levels=(1, 2), output="out")
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_defaults():
    c = config()
    assert (c.trials, c.seed, c.shape, c.format, c.threads) == (
        10_000,
        0,
        (),
        "csv",
        1,
    )


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(mode="walk"), "mode"),
        (dict(prime=4), "prime"),
        (dict(prime=2), "prime"),
        (dict(prime=101), "prime"),
        (dict(levels=()), "levels"),
        (dict(levels=(0,)), "levels"),
        (dict(levels=(13,)), "levels"),
        (dict(output=""), "output"),
        (dict(trials=0), "trials"),
        (dict(seed=-1), "seed"),
        (dict(seed=2**64), "seed"),
        (dict(format="xml"), "format"),
        (dict(threads=-1), "threads"),
        (dict(prime=True), "prime"),
        (dict(trials=True), "trials"),
        (dict(seed=True), "seed"),
        (dict(threads=True), "threads"),
        (dict(levels=[1]), "levels"),
        (dict(shape=[1]), "shape"),
        (dict(mode="isotropic", levels=(1,), shape=(5,)), "shape"),
        (dict(output=["x"]), "output"),
        (dict(output=b"x"), "output"),
        (dict(shape=("a",)), "shape"),
        (dict(shape=(True,)), "shape"),
        (dict(shape=(1.0,)), "shape"),
        (dict(mode="montecarlo", shape=("a",)), "shape"),
    ],
)
def test_config_validation(overrides, fragment):
    with pytest.raises(UsageError, match=fragment):
        config(**overrides)


def test_fraction_decimal_is_twelve_significant_digits():
    assert fraction_decimal(Fraction(1, 4)) == "0.25"
    assert fraction_decimal(Fraction(1, 12)) == "0.0833333333333"
    assert fraction_decimal(Fraction(1, 3)) == "0.333333333333"
    assert fraction_decimal(Fraction(2, 3)) == "0.666666666667"
    assert fraction_decimal(Fraction(11, 12)) == "0.916666666667"
    assert fraction_decimal(Fraction(4)) == "4"
    # half-even at the 12th digit: 0.0833333333333|5 rounds to even
    assert fraction_decimal(Fraction(16666666666670, 2 * 10**14)) == "0.0833333333334"


def test_float_sci_format():
    assert float_sci(0.5) == "5.00000000000e-01"
    assert float_sci(0.0) == "0.00000000000e+00"


def parse_args(*argv):
    return make_parser().parse_args(argv)


def test_build_config_from_flags():
    c = build_config(
        parse_args(
            "--mode",
            "montecarlo",
            "--prime",
            "5",
            "--levels",
            "1,2,3",
            "--trials",
            "77",
            "--seed",
            "9",
            "--output",
            "res",
            "--format",
            "both",
            "--threads",
            "4",
        )
    )
    assert c == ExperimentConfig(
        mode="montecarlo",
        prime=5,
        levels=(1, 2, 3),
        output="res",
        trials=77,
        seed=9,
        format="both",
        threads=4,
    )


def test_build_config_requires_core_fields():
    with pytest.raises(UsageError, match="mode is required"):
        build_config(parse_args("--prime", "3", "--levels", "1", "--output", "x"))
    with pytest.raises(UsageError, match="levels is required"):
        build_config(parse_args("--mode", "count", "--prime", "3", "--output", "x"))


def test_build_config_rejects_bad_level_list():
    with pytest.raises(UsageError, match="levels"):
        build_config(
            parse_args(
                "--mode", "count", "--prime", "3", "--levels", "1,two", "--output", "x"
            )
        )


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


def test_config_file_roundtrip(tmp_path):
    path = write_config(
        tmp_path,
        """
        # collision experiment
        mode = montecarlo
        prime = 3
        levels = 1,2
        trials = 123
        seed = 5
        output = report
        format = json
        threads = 2
        """,
    )
    c = build_config(parse_args("--config", path))
    assert c == ExperimentConfig(
        mode="montecarlo",
        prime=3,
        levels=(1, 2),
        output="report",
        trials=123,
        seed=5,
        format="json",
        threads=2,
    )


def test_flags_override_config_file(tmp_path):
    path = write_config(
        tmp_path, "mode=count\nprime=3\nlevels=1,2\noutput=report\nseed=5\n"
    )
    c = build_config(parse_args("--config", path, "--seed", "11", "--levels", "3"))
    assert c.seed == 11
    assert c.levels == (3,)
    assert c.prime == 3


def test_config_file_errors(tmp_path):
    bad_key = write_config(tmp_path, "mode=count\ncolour=red\n")
    with pytest.raises(UsageError, match=r"exp\.cfg:2.*colour"):
        build_config(parse_args("--config", bad_key))
    bad_line = write_config(tmp_path, "mode count\n")
    with pytest.raises(UsageError, match=r"exp\.cfg:1"):
        build_config(parse_args("--config", bad_line))
    bad_int = write_config(tmp_path, "mode=count\nprime=three\n")
    with pytest.raises(UsageError, match="prime"):
        build_config(parse_args("--config", bad_int))


def test_config_file_repeated_key_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x"
    path = write_config(
        tmp_path, f"mode=count\nprime=3\nlevels=1\nprime=5\noutput={out}\n"
    )
    message = r"exp\.cfg:4: key 'prime' is already set on line 2"
    with pytest.raises(UsageError, match=message):
        build_config(parse_args("--config", path))
    assert run_main(tmp_path, "--config", path) == EXIT_USAGE
    assert "key 'prime' is already set on line 2" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["exp.cfg"]


def test_config_file_not_utf8_is_usage_error(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"mode=count\nprime=3\xff\nlevels=1\n")
    with pytest.raises(UsageError, match=r"exp\.cfg.*UTF-8"):
        build_config(parse_args("--config", str(path)))
    assert run_main(tmp_path, "--config", str(path), "--output", "x") == EXIT_USAGE
    assert f"usage error: {path}" in capsys.readouterr().err


def test_parser_is_built_once():
    # every run of main parses with the same parser
    assert make_parser() is make_parser()


def test_flags_are_the_config_fields():
    options = {
        opt
        for action in make_parser()._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt not in ("--help", "--config")
    }
    assert options == {f"--{f.name}" for f in fields(ExperimentConfig)}


@pytest.mark.parametrize(
    "key, text, message",
    [
        ("prime", "x", "prime: expected an integer, got 'x'"),
        ("trials", "1e3", "trials: expected an integer, got '1e3'"),
        ("levels", "1,two", "levels: expected comma-separated integers, got '1,two'"),
        ("mode", "walk", "mode must be one of count, exhaustive, montecarlo, "
                         "tower, isotropic, got 'walk'"),
        ("format", "xml", "format must be one of csv, json, both, got 'xml'"),
        ("prime", "4", "prime: "),
    ],
    ids=["prime-x", "trials-1e3", "levels-1,two", "mode-walk", "format-xml", "prime-4"],
)
def test_bad_value_same_usage_error_from_flag_and_file(
    tmp_path, capsys, key, text, message
):
    settings = dict(mode="count", prime="3", levels="1", output=str(tmp_path / "x"))
    settings[key] = text
    flags = [arg for k, v in settings.items() for arg in (f"--{k}", v)]
    assert run_main(tmp_path, *flags) == EXIT_USAGE
    from_flag = capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
    assert run_main(tmp_path, "--config", str(cfg)) == EXIT_USAGE
    from_file = capsys.readouterr().err
    assert from_flag == from_file
    assert from_flag.startswith(f"usage error: {message}")
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_count_rows():
    report = run(config(mode="count", levels=(1, 2, 3)))
    assert [row.exact for row in report.rows] == [Fraction(4), Fraction(12), Fraction(36)]
    assert report.rows[0].extra == "generators=8;enumerated=4"
    assert report.rows[1].extra == "generators=72;enumerated=12"
    assert report.rows[2].extra == "generators=648;enumerated=36"
    assert all(row.empirical is None for row in report.rows)
    # 9,506 forms at (97, 2) are within the enumeration bound, 922,082 at
    # (97, 3) are not
    beyond = run(config(mode="count", prime=97, levels=(2, 3))).rows
    assert [row.extra.split(";")[1] for row in beyond] == [
        "enumerated=9506",
        "enumerated=skipped",
    ]


def test_exhaustive_rows():
    report = run(config(mode="exhaustive", levels=(1, 2)))
    assert [row.exact for row in report.rows] == [Fraction(1, 4), Fraction(1, 12)]
    assert report.rows[0].extra == "verified=true;bound=3/4"
    assert report.rows[1].extra == "verified=true;bound=11/12"


def test_montecarlo_rows_match_library():
    report = run(config(mode="montecarlo", levels=(2,), trials=500, seed=42))
    res = monte_carlo(3, 2, 500, RngSpec(42))
    (row,) = report.rows
    assert row.exact == res.exact
    assert row.empirical == res.frequency
    assert row.stderr == res.stderr
    assert row.trials == 500
    assert f"collisions={res.collisions}" in row.extra
    assert f"delta={float_sci(res.delta)}" in row.extra


def test_tower_rows_match_library():
    report = run(config(mode="tower", levels=(2,), trials=400, seed=7))
    res = tower_experiment(3, 2, 400, RngSpec(7))
    (row,) = report.rows
    assert row.empirical == Fraction(res.collisions, 400)
    assert row.empirical == res.frequency
    assert row.stderr == res.stderr
    assert f"collisions={res.collisions}" in row.extra


def _extra_counts(extra: dict, prefix: str) -> dict:
    return {
        int(key[len(prefix):]): int(count)
        for key, count in extra.items()
        if key.startswith(prefix) and key[len(prefix):].isdigit()
    }


@pytest.mark.parametrize(
    "prime, level, trials, seed",
    [(3, 1, 300, 0), (3, 2, 2000, 7), (3, 4, 3000, 11), (5, 3, 1000, 2**64 - 1)],
)
def test_tower_rows_relabel_montecarlo_rows(prime, level, trials, seed):
    """Both modes render one histogram of v at the same (p, level, trials,
    seed): the tower keeps the v below the level and labels each with the
    level n0 = v + 1 from which its pair's intersection stabilizes."""
    rows = {}
    for mode in ("montecarlo", "tower"):
        report = run(
            config(mode=mode, prime=prime, levels=(level,), trials=trials, seed=seed)
        )
        (rows[mode],) = csv.DictReader(io.StringIO(render_csv(report)))
    mc, tower = rows["montecarlo"], rows["tower"]
    for cell in ("exact_num", "exact_den", "exact_decimal", "empirical", "stderr",
                 "trials", "seed"):
        assert tower[cell] == mc[cell], cell
    mc_extra, tower_extra = (
        dict(part.split("=") for part in row["extra"].split(";")) for row in (mc, tower)
    )
    assert tower_extra["collisions"] == mc_extra["collisions"]
    mc_v = _extra_counts(mc_extra, "v")
    assert int(mc_extra["collisions"]) == mc_v.get(level, 0)
    tower_v = _extra_counts(tower_extra, "v")
    assert tower_v == {v: c for v, c in mc_v.items() if v < level}
    n0 = _extra_counts(tower_extra, "n0_")
    assert n0 and all(count == mc_v[level0 - 1] for level0, count in n0.items())
    assert n0.keys() == {v + 1 for v in tower_v}
    assert set(tower_extra) == {
        "collisions", *(f"v{v}" for v in tower_v), *(f"n0_{k}" for k in n0)
    }


def test_isotropic_rows():
    report = run(config(mode="isotropic", levels=(1,), shape=(1,)))
    (row,) = report.rows
    assert row.exact == Fraction(40)
    assert "dim=4" in row.extra
    assert "splits_true=" in row.extra and "splits_false=" in row.extra


@pytest.mark.parametrize(
    "levels, shape, row, splits",
    [
        # T = 0: the count is a closed form
        ("1", "1,1", b",1120,1,1120,", b"splits_true=160;splits_false=960"),
        # T acts on the rank block, then on the torsion block
        ("3", "1", b",184,1,184,", b"splits_true=48;splits_false=136"),
        ("1", "3", b",184,1,184,", b"splits_true=64;splits_false=120"),
        # T acts on both blocks
        ("3", "3", b",4720,1,4720,", b"splits_true=192;splits_false=4528"),
        # the split count also searches the torsion shape (3, 3, (1,))
        ("1", "3,1", b",5440,1,5440,", b"splits_true=736;splits_false=4704"),
    ],
    ids=["level-one", "rank-level-3", "torsion-level-3", "both-level-3", "torsion-3-1"],
)
def test_isotropic_csv_row_equals_one_built_by_enumeration(
    tmp_path, monkeypatch, levels, shape, row, splits
):
    # the CLI counts; a row built from the enumeration's reports is the same
    argv = ["--mode", "isotropic", "--prime", "3", "--levels", levels, "--shape", shape]
    assert cli.main(argv + ["--output", str(tmp_path / "count")]) == EXIT_OK

    def enumerated(shape):
        reports = list(pairing.enumerate_maximal_isotropic(shape))
        return len(reports), sum(r.splits for r in reports)

    monkeypatch.setattr(pairing, "count_maximal_isotropic", enumerated)
    assert cli.main(argv + ["--output", str(tmp_path / "enumerated")]) == EXIT_OK
    counted = (tmp_path / "count.csv").read_bytes()
    assert counted == (tmp_path / "enumerated.csv").read_bytes()
    assert row in counted and splits in counted


def test_isotropic_bad_shape_is_usage_error():
    with pytest.raises(UsageError, match="^shape: "):
        run(config(mode="isotropic", levels=(1,), shape=(5,)))


def test_isotropic_bad_level_is_a_levels_error():
    with pytest.raises(UsageError, match="^levels: level 2 is not a power of 3$"):
        run(config(mode="isotropic", levels=(2,), shape=()))


def test_csv_shape_and_runtime_blank():
    report = run(config(mode="montecarlo", levels=(1, 2), trials=300))
    text = render_csv(report)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert list(rows[0]) == list(CSV_COLUMNS)
    assert len(rows) == 2
    assert all(row["runtime_ms"] == "" for row in rows)
    assert rows[0]["exact_num"] == "1" and rows[0]["exact_den"] == "4"
    assert rows[1]["exact_decimal"] == "0.0833333333333"
    assert text.endswith("\n") and "\r" not in text


def test_csv_bytes_stable_across_threads_and_runs():
    base = config(mode="montecarlo", levels=(1, 2), trials=600, seed=3, threads=1)
    first = render_csv(run(base))
    again = render_csv(run(base))
    threaded = render_csv(
        run(config(mode="montecarlo", levels=(1, 2), trials=600, seed=3, threads=8))
    )
    assert first == again == threaded


def test_json_round_trip():
    report = run(config(mode="exhaustive", levels=(1, 2), format="json"))
    data = json.loads(render_json(report))
    assert data == report_to_dict(report)
    assert data["config"]["mode"] == "exhaustive"
    assert data["config"]["levels"] == [1, 2]
    assert data["metadata"]["library"] == "fpmods"
    assert data["metadata"]["timestamp"] == report.timestamp
    assert data["metadata"]["python"] == platform.python_version()
    assert data["metadata"]["numpy"] == np.__version__
    assert data["metadata"]["platform"] == platform.platform()
    assert data["metadata"]["cpu_count"] == os.cpu_count()
    assert data["metadata"]["argv"] is None
    assert [row["runtime_ms"] for row in data["rows"]] == [
        row.runtime_ms for row in report.rows
    ]
    assert all(isinstance(row["runtime_ms"], int) for row in data["rows"])


def _reference_json(report) -> str:
    """The JSON text built from dataclasses.asdict and one dict per row, key
    by key, as render_json built it before it shared the CSV's cells."""
    settings = dataclasses.asdict(report.config)
    settings["levels"], settings["shape"] = list(report.config.levels), list(report.config.shape)
    rows = [
        {
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
            "runtime_ms": row.runtime_ms,
            "extra": row.extra,
        }
        for row in report.rows
    ]
    metadata = report_to_dict(report)["metadata"]
    return json.dumps({"config": settings, "rows": rows, "metadata": metadata}, indent=2) + "\n"


@pytest.mark.parametrize(
    "overrides",
    [
        dict(mode="count", levels=(1, 2, 3)),
        dict(mode="exhaustive", levels=(1, 2)),
        dict(mode="montecarlo", levels=(1, 3), trials=500, seed=42),
        dict(mode="tower", levels=(2,), trials=400, seed=7),
        dict(mode="isotropic", levels=(3,), shape=(1,)),
    ],
    ids=lambda overrides: overrides["mode"],
)
def test_render_json_equals_the_asdict_reference(overrides):
    report = run(config(format="json", **overrides), ("--mode", overrides["mode"]))
    assert render_json(report) == _reference_json(report)


def run_main(tmp_path, *argv):
    return cli.main(list(argv))


def test_main_writes_both_formats(tmp_path, capsys):
    out = str(tmp_path / "rep")
    code = run_main(
        tmp_path,
        "--mode",
        "count",
        "--prime",
        "3",
        "--levels",
        "1,2",
        "--output",
        out,
        "--format",
        "both",
    )
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert f"wrote {out}.csv" in captured.out
    assert f"wrote {out}.json" in captured.out
    assert "\x1b[" not in captured.out
    with open(out + ".csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["exact_num"] for row in rows] == ["4", "12"]
    with open(out + ".json") as fh:
        data = json.load(fh)
    assert [row["exact_num"] for row in data["rows"]] == [4, 12]
    assert data["metadata"]["argv"] == [
        "--mode", "count", "--prime", "3", "--levels", "1,2",
        "--output", out, "--format", "both",
    ]
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".fpmods-")]


def test_main_records_process_argv_when_called_without_argv(tmp_path, monkeypatch):
    out = str(tmp_path / "rep")
    argv = ["--mode", "count", "--prime", "3", "--levels", "1", "--output", out,
            "--format", "json"]
    monkeypatch.setattr(sys, "argv", ["fpmods", *argv])
    assert cli.main() == EXIT_OK
    with open(out + ".json") as fh:
        assert json.load(fh)["metadata"]["argv"] == argv


def test_provenance_leaves_csv_bytes_unchanged():
    report = run(config(mode="exhaustive", levels=(1, 2)))
    with_argv = run(config(mode="exhaustive", levels=(1, 2)), ("--mode", "exhaustive"))
    assert render_csv(report) == render_csv(with_argv)


def test_main_csv_identical_for_thread_counts(tmp_path):
    # both sampled modes; --threads changes no CSV byte
    for args in (
        "--mode montecarlo --prime 3 --levels 1,2 --trials 500 --seed 12",
        "--mode tower --prime 3 --levels 4 --trials 20000 --seed 42",
    ):
        outputs = []
        for threads in (1, 2, 8):
            out = tmp_path / f"t{threads}"
            argv = [*args.split(), "--threads", str(threads), "--output", str(out)]
            assert run_main(tmp_path, *argv) == EXIT_OK
            outputs.append((tmp_path / f"t{threads}.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], args


def test_main_usage_error_exit(tmp_path, capsys):
    code = run_main(
        tmp_path,
        "--mode",
        "count",
        "--prime",
        "4",
        "--levels",
        "1",
        "--output",
        str(tmp_path / "x"),
    )
    assert code == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_main_resource_bound_exit(tmp_path, capsys):
    code = run_main(
        tmp_path,
        "--mode",
        "exhaustive",
        "--prime",
        "97",
        "--levels",
        "3",
        "--output",
        str(tmp_path / "x"),
    )
    assert code == EXIT_RESOURCE
    assert "resource bound" in capsys.readouterr().err


@pytest.mark.parametrize("prime, code", [(19, EXIT_OK), (23, EXIT_RESOURCE)])
def test_main_exhaustive_census_boundary(tmp_path, capsys, prime, code):
    # the census walks enumerate_maximal, bounded at 10,000 forms: 7,220 at
    # (19, 3), 12,696 at (23, 3)
    argv = ("--mode", "exhaustive", "--prime", str(prime), "--levels", "3")
    assert run_main(tmp_path, *argv, "--output", str(tmp_path / "x")) == code
    assert ("enumeration bound" in capsys.readouterr().err) == (code == EXIT_RESOURCE)


# One op per mode; montecarlo and tower re-check classes with v > 0, and
# isotropic builds the Gram matrix of a level-3 block.
NO_SERIES_OPS = {
    "count": "--prime 3 --levels 1,2,3",
    "exhaustive": "--prime 3 --levels 1,2,3",
    "montecarlo": "--prime 3 --levels 1,3 --trials 2000",
    "tower": "--prime 5 --levels 1,2,7 --trials 500",
    "isotropic": "--prime 3 --levels 3 --shape 1",
}


@pytest.mark.parametrize("mode", NO_SERIES_OPS)
def test_no_mode_builds_a_series(tmp_path, monkeypatch, mode):
    # every mode computes on canonical digits and integer matrices: with
    # TruncatedSeries unconstructible it still writes the same CSV bytes
    argv = ["--mode", mode, *NO_SERIES_OPS[mode].split()]

    def csv_bytes(name: str) -> bytes:
        assert cli.main([*argv, "--output", str(tmp_path / name)]) == EXIT_OK
        return (tmp_path / f"{name}.csv").read_bytes()

    want = csv_bytes("plain")
    pairing._block_gram.cache_clear()
    pairing.gram_matrix.cache_clear()

    def refuse(self, *args, **kwargs):
        raise RuntimeError(f"{mode} built a TruncatedSeries")

    monkeypatch.setattr(TruncatedSeries, "__init__", refuse)
    assert csv_bytes("patched") == want


# The sha256 of the CSV bytes of one op per case, keyed by case; each mode's
# first case is named after it. A change that alters the draws or any
# reported figure on purpose updates these digests.
CSV_DIGESTS = {
    "count": (
        "--mode count --prime 3 --levels 1,2,3,4",
        "d815753c64175185e750b9bbb50155f13df987ea6c0d28c871c95e4d5b3720a7",
    ),
    "exhaustive": (
        "--mode exhaustive --prime 5 --levels 1,2,3",
        "1c8cc703a42ca26eb853c1a5227da76d3ef8c9d915ea85d7b1010a7e78d5fef4",
    ),
    "montecarlo": (
        "--mode montecarlo --prime 3 --levels 1,3,12 --trials 40000 --seed 42",
        "dabfd92a93a7d7102261df34bbcddcd0aaf1c866e0ffce6724c90dcb9cef4ea3",
    ),
    "montecarlo-p97": (
        "--mode montecarlo --prime 97 --levels 1,2,12 --trials 20000 --seed 3",
        "1865168c296c66837b8714a9b724e695437de5edfd5997236ce2062b9638f15c",
    ),
    "tower": (
        "--mode tower --prime 5 --levels 6 --trials 33000 --seed 7",
        "aceb87d336b1fe13fc82ff6f282d4c9a2444e1faefa409f367810c472ab6e407",
    ),
    "tower-n12": (
        "--mode tower --prime 3 --levels 12 --trials 20000 --seed 11",
        "6c6f0b1b92bbb4aae6571ecfedde71c80abb075f94d915262443297402ea69d9",
    ),
    "isotropic": (
        "--mode isotropic --prime 3 --levels 3 --shape 1",
        "d300d917d4850bab7ebc4891919f041951b935df811c86cc14921a9b6adbc091",
    ),
}


@pytest.mark.parametrize("case", CSV_DIGESTS)
def test_csv_bytes_are_pinned(tmp_path, case):
    args, digest = CSV_DIGESTS[case]
    out = tmp_path / "pinned"
    assert cli.main([*args.split(), "--output", str(out)]) == EXIT_OK
    data = (tmp_path / "pinned.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest, data.decode()


def test_no_mode_imports_numpy_ma(tmp_path):
    # a plain np.unique(x) imports numpy.ma, 1.3-1.6 MB of peak RSS in a
    # fresh interpreter; no mode may pay that
    ops = [
        ["--mode", mode, *args.split(), "--format", "both",
         "--output", str(tmp_path / mode)]
        for mode, args in NO_SERIES_OPS.items()
    ]
    script = (
        "import sys\n"
        "from fpmods.cli import main\n"
        f"codes = [main(argv) for argv in {ops!r}]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"{[EXIT_OK] * len(ops)} False"


def test_exact_modes_never_import_numpy(tmp_path):
    """count and exhaustive compute with Python ints and Fractions only. A
    module-level numpy import anywhere on their path costs every fresh run
    about 90 ms of start-up (Python 3.11, numpy 2.4, 2-vCPU host), most of
    an exact run, for no numpy call. The JSON still names the numpy version,
    read without importlib.metadata, which would cost about 20 ms more."""
    ops = [
        ["--mode", mode, *NO_SERIES_OPS[mode].split(), "--format", "both",
         "--output", str(tmp_path / mode)]
        for mode in ("count", "exhaustive")
    ]
    script = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from fpmods.cli import main\n"
        f"ops = {ops!r}\n"
        "codes = [main(argv) for argv in ops]\n"
        "loaded = [m for m in ('numpy', 'importlib.metadata') if m in sys.modules]\n"
        "versions = [json.loads(Path(argv[-1] + '.json').read_text())\n"
        "            ['metadata']['numpy'] for argv in ops]\n"
        "print(codes, loaded, versions)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    want = f"{[EXIT_OK] * len(ops)} [] {[np.__version__] * len(ops)}"
    assert result.stdout.splitlines()[-1] == want


def test_numpy_version_reads_the_one_dist_info_name(monkeypatch, tmp_path):
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy-9.8.7.dist-info").mkdir()
    (tmp_path / "numpy_other-1.0.dist-info").mkdir()
    spec = SimpleNamespace(origin=str(tmp_path / "numpy" / "__init__.py"))
    monkeypatch.setattr(cli.importlib.util, "find_spec", lambda name: spec)
    monkeypatch.setitem(sys.modules, "numpy", None)  # unloaded, and unimportable
    assert cli._numpy_version() == "9.8.7"
    # two candidates: it imports numpy instead of guessing
    (tmp_path / "numpy-9.9.0.dist-info").mkdir()
    with pytest.raises(ImportError):
        cli._numpy_version()


def test_main_io_error_exit(tmp_path, capsys):
    code = run_main(
        tmp_path,
        "--mode",
        "count",
        "--prime",
        "3",
        "--levels",
        "1",
        "--output",
        str(tmp_path / "missing" / "deep" / "x"),
    )
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert "i/o error" in err
    assert "x.csv" in err and ".fpmods-" not in err


def test_main_invariant_exit(tmp_path, capsys, monkeypatch):
    from fpmods import probability

    original = probability._pair_exponents

    def wrong_v(p, n, keys):
        # label trial 9 a mixed pair of exponent n, a class of its own
        kinds, v = original(p, n, keys)
        kinds, v = kinds.copy(), v.copy()
        kinds[9], v[9] = 1, n
        return kinds, v

    monkeypatch.setattr(probability, "_pair_exponents", wrong_v)
    code = run_main(
        tmp_path,
        "--mode",
        "montecarlo",
        "--prime",
        "3",
        "--levels",
        "3",
        "--trials",
        "50",
        "--seed",
        "8675309",
        "--output",
        str(tmp_path / "x"),
    )
    assert code == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "internal invariant violated" in err
    assert "seed=8675309" in err
    assert "trial=9" in err
    assert not os.path.exists(tmp_path / "x.csv")


def test_main_projection_fault_exit(tmp_path, capsys, monkeypatch):
    # a projection that swaps the kind of level-1 forms changes a stage
    # exponent of the first class checked: exit 5, not a traceback
    from fpmods import CyclicSubmodule, probability

    original = probability.project

    def kind_swapped(sub, m):
        if m > 1:
            return original(sub, m)
        if sub.kind == "A":
            return CyclicSubmodule(sub.p, 1, "B", ())
        return CyclicSubmodule(sub.p, 1, "A", (0,))

    monkeypatch.setattr(probability, "project", kind_swapped)
    argv = "--mode montecarlo --prime 3 --levels 3 --trials 100 --seed 41".split()
    code = run_main(tmp_path, *argv, "--output", str(tmp_path / "x"))
    assert code == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "internal invariant violated" in err
    assert "seed=41" in err
    assert "trial=2" in err
    assert not os.path.exists(tmp_path / "x.csv")


def test_main_with_config_file(tmp_path, capsys):
    out = str(tmp_path / "cfgrun")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"mode=exhaustive\nprime=3\nlevels=1,2\noutput={out}\nformat=csv\n"
    )
    code = run_main(tmp_path, "--config", str(cfg))
    assert code == EXIT_OK
    with open(out + ".csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[1]["extra"] == "verified=true;bound=11/12"


def test_main_reads_a_config_file_with_a_byte_order_mark(tmp_path):
    outputs = {}
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        out = tmp_path / name
        cfg = tmp_path / f"{name}.cfg"
        text = f"mode=exhaustive\nprime=3\nlevels=1,2\noutput={out}\nformat=csv\n"
        cfg.write_bytes(bom + text.encode("utf-8"))
        assert run_main(tmp_path, "--config", str(cfg)) == EXIT_OK
        outputs[name] = (tmp_path / f"{name}.csv").read_bytes()
    assert outputs["bom"] == outputs["plain"]


def test_main_census_mismatch_is_invariant_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "collision_probability_census", lambda p, n: Fraction(1, 2))
    out = tmp_path / "x"
    code = run_main(
        tmp_path, "--mode", "exhaustive", "--prime", "3", "--levels", "2",
        "--output", str(out),
    )
    assert code == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "internal invariant violated: census 1/2 disagrees" in err
    assert "(p=3, n=2)" in err
    assert not os.path.exists(str(out) + ".csv")


def test_main_count_mismatch_is_invariant_exit(tmp_path, capsys, monkeypatch):
    # an enumeration that drops one form must not be reported as a count
    original = cli.enumerate_maximal
    monkeypatch.setattr(cli, "enumerate_maximal", lambda p, n: list(original(p, n))[1:])
    out = tmp_path / "x"
    code = run_main(
        tmp_path, "--mode", "count", "--prime", "3", "--levels", "2",
        "--output", str(out),
    )
    assert code == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "internal invariant violated: enumeration found 11 forms, closed form 12" in err
    assert "(p=3, n=2)" in err
    assert not os.path.exists(str(out) + ".csv")


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_reports_get_umask_default_mode(tmp_path, umask):
    old = os.umask(umask)
    try:
        out = str(tmp_path / "rep")
        code = run_main(
            tmp_path, "--mode", "count", "--prime", "3", "--levels", "1",
            "--output", out, "--format", "both",
        )
    finally:
        os.umask(old)
    assert code == EXIT_OK
    for ext in ("csv", "json"):
        assert os.stat(f"{out}.{ext}").st_mode & 0o777 == 0o666 & ~umask


def test_staging_never_touches_the_umask(tmp_path, monkeypatch):
    def forbidden(mask):
        raise AssertionError("staging changed the process umask")

    umask = 0o027
    old = os.umask(umask)
    try:
        with monkeypatch.context() as patched:
            patched.setattr(cli.os, "umask", forbidden)
            out = str(tmp_path / "rep")
            code = run_main(
                tmp_path, "--mode", "count", "--prime", "3", "--levels", "1",
                "--output", out, "--format", "both",
            )
    finally:
        os.umask(old)
    assert code == EXIT_OK
    for ext in ("csv", "json"):
        assert os.stat(f"{out}.{ext}").st_mode & 0o777 == 0o666 & ~umask


def test_emit_both_writes_nothing_when_a_render_fails(tmp_path, monkeypatch):
    report = run(config(format="both", output=str(tmp_path / "rep")))

    def broken(report):
        raise ValueError("render failed")

    monkeypatch.setattr(cli, "render_json", broken)
    with pytest.raises(ValueError, match="render failed"):
        emit(report)
    assert os.listdir(tmp_path) == []


def test_emit_both_writes_nothing_when_staging_the_second_fails(
    tmp_path, monkeypatch, capsys
):
    real_fdopen = os.fdopen
    opened = []

    def fdopen_failing_second(fd, *args, **kwargs):
        opened.append(fd)
        if len(opened) == 2:
            os.close(fd)
            raise OSError(28, "No space left on device")
        return real_fdopen(fd, *args, **kwargs)

    monkeypatch.setattr(cli.os, "fdopen", fdopen_failing_second)
    code = run_main(
        tmp_path, "--mode", "count", "--prime", "3", "--levels", "1",
        "--output", str(tmp_path / "rep"), "--format", "both",
    )
    assert code == EXIT_IO
    assert len(opened) == 2
    assert os.listdir(tmp_path) == []
    err = capsys.readouterr().err
    assert "No space left on device" in err and "rep.json" in err


def test_emit_both_writes_nothing_when_the_second_rename_fails(
    tmp_path, monkeypatch, capsys
):
    real_replace = os.replace
    renamed = []

    def replace_failing_second(src, dst):
        renamed.append(dst)
        if len(renamed) == 2:
            raise OSError(18, "Invalid cross-device link")
        return real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", replace_failing_second)
    code = run_main(
        tmp_path, "--mode", "count", "--prime", "3", "--levels", "1",
        "--output", str(tmp_path / "rep"), "--format", "both",
    )
    assert code == EXIT_IO
    assert renamed == [str(tmp_path / "rep.csv"), str(tmp_path / "rep.json")]
    assert os.listdir(tmp_path) == []
    err = capsys.readouterr().err
    assert "rep.json" in err and ".fpmods-" not in err


@pytest.mark.parametrize("levels, shape", [("3", "1"), ("1", "3")])
def test_main_isotropic_child_out_of_echelon_form_exit(
    tmp_path, capsys, monkeypatch, levels, shape
):
    # the count's twin of the enumeration's echelon test: an identity
    # "kernel" offers w nonzero on the state's pivots; T acts on both
    # shapes, so the count searches
    monkeypatch.setattr(
        pairing,
        "_socle_kernels",
        lambda shape, bases, pivots: np.array([np.eye(shape.dim, dtype=np.int64) for _ in bases]),
    )
    code = run_main(
        tmp_path, "--mode", "isotropic", "--prime", "3", "--levels", levels,
        "--shape", shape, "--output", str(tmp_path / "iso"), "--format", "both",
    )
    assert code == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "internal invariant violated" in err and "socle extension" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("prime, shape", [("97", "1"), ("13", "1,1")])
def test_main_isotropic_vector_bound_exit(tmp_path, capsys, prime, shape):
    code = run_main(
        tmp_path, "--mode", "isotropic", "--prime", prime, "--levels", "1",
        "--shape", shape, "--output", str(tmp_path / "iso"), "--format", "both",
    )
    assert code == EXIT_RESOURCE
    assert "member vectors exceed 2000000" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
