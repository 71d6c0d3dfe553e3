"""The README's library quick start, its example CLI config and its command lines run as written."""

import json
import re
from pathlib import Path

import pytest

from dysonflow import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "the quick start has no python block"
    exec(compile(block.group(1), f"{README}:quick start", "exec"), {})


def example_config(tmp_path):
    """The README's example config, written to tmp_path with its out_path moved there; returns (path, config)."""
    section = README.read_text(encoding="utf-8").split("Example config:", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL)
    assert block is not None, "the command line section has no example config"
    config = {**json.loads(block.group(1)), "out_path": str(tmp_path / "out")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path, config


def command_line(verb):
    """The argv after ``dysonflow`` of the README's command line for ``verb``, its comment and [optional] flags dropped."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert block is not None, "the command line section has no sh block"
    lines = [re.sub(r"#.*|\[.*?\]", "", line).split() for line in block.group(1).splitlines()]
    [argv] = [line[1:] for line in lines if line[:2] == ["dysonflow", verb]]
    return argv


def test_command_line_example_config_verifies(tmp_path):
    path, _ = example_config(tmp_path)
    assert cli.main(["verify", str(path)]) == 0
    assert not (tmp_path / "out").exists()  # verify writes nothing


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_command_line_examples_write_the_files_they_name(verb, tmp_path, capsys):
    # the README's run and sweep lines on its example config
    path, config = example_config(tmp_path)
    argv = [str(path) if arg == "config.json" else arg for arg in command_line(verb)]
    assert cli.main(argv) == 0
    out = Path(config["out_path"])
    if verb == "run":
        names = [f"{name}.{config['format']}" for name in config["outputs"]] + ["report.json"]
    else:
        names = [f"sweep_{argv[argv.index('--param') + 1]}.{config['format']}"]
    wrote = [line.removeprefix("wrote ") for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    assert wrote == [str(out / name) for name in names]
    assert sorted(path.name for path in out.iterdir()) == sorted(names)
