"""Every ```python block of README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for number, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {number}", "exec"), {})
