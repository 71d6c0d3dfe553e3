"""The README's library quick start and its example CLI config run as written."""

import json
import re
from pathlib import Path

from dysonflow import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "the quick start has no python block"
    exec(compile(block.group(1), f"{README}:quick start", "exec"), {})


def test_command_line_example_config_verifies(tmp_path):
    section = README.read_text(encoding="utf-8").split("Example config:", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL)
    assert block is not None, "the command line section has no example config"
    config = {**json.loads(block.group(1)), "out_path": str(tmp_path / "out")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 0
    assert not (tmp_path / "out").exists()  # verify writes nothing
