"""The README's Python examples run as written.

Every ```python block is executed in order in one shared namespace,
because the one-liner block reuses sf, op and plus from the quickstart.
"""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                    flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run():
    assert len(BLOCKS) >= 3
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for i, block in enumerate(BLOCKS):
            exec(compile(block, f"README.md python block {i}", "exec"),
                 namespace)
