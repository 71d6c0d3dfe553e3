"""The README's library quick start runs as written against the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "the quick start has no python block"
    exec(compile(block.group(1), f"{README}:quick start", "exec"), {})
