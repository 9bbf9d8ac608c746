"""Every ```python block of README.md runs as written, and so does every CLI
command of its ```sh blocks.

A CLI command is a line that starts with `fpmods` or `python -m fpmods.cli`,
once `\\` continuation lines are joined and a leading `VAR=value` is dropped;
every other command, such as `pip install` or `python -m pytest`, is skipped.
Each CLI command runs through `fpmods.cli.main` in its own temporary
directory, next to the `experiment.cfg` that the README shows."""

import re
import shlex
from pathlib import Path

import pytest

from fpmods import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()


def fenced(language=r"\w*"):
    return re.findall(rf"^```{language}\n(.*?)^```", TEXT, re.S | re.M)


def cli_commands() -> dict[str, list[str]]:
    """The argv of each CLI command, keyed by the command as run."""
    commands = {}
    for block in fenced("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and re.fullmatch(r"[A-Za-z_]\w*=\S*", words[0]):
                words = words[1:]
            if words[:1] == ["fpmods"]:
                commands[" ".join(words)] = words[1:]
            elif words[:3] == ["python", "-m", "fpmods.cli"]:
                commands[" ".join(words)] = words[3:]
    return commands


COMMANDS = cli_commands()
(CONFIG,) = [block for block in fenced() if block.startswith("# experiment.cfg\n")]


def test_readme_python_blocks_run():
    blocks = fenced("python")
    assert blocks
    for number, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {number}", "exec"), {})


def test_readme_shows_every_mode_and_the_config_example():
    shown = {argv[argv.index("--mode") + 1] for argv in COMMANDS.values() if "--mode" in argv}
    assert shown == set(cli.MODES)
    assert "fpmods --config experiment.cfg --seed 7" in COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_cli_command_runs(command, tmp_path, monkeypatch):
    argv = COMMANDS[command]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "experiment.cfg").write_text(CONFIG)
    assert cli.main(argv) == cli.EXIT_OK
    config = cli.build_config(cli.make_parser().parse_args(argv))
    formats = ("csv", "json") if config.format == "both" else (config.format,)
    for ext in formats:
        report = Path(f"{config.output}.{ext}").resolve()
        assert report.is_file() and report.parent == tmp_path.resolve(), report
