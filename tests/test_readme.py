"""The README's Python examples run as written, and its command table
names the flags the CLI takes.

Every ```python block is executed in order in one shared namespace,
because the one-liner block reuses sf, op and plus from the quickstart.
"""
import contextlib
import io
import re
from pathlib import Path

from skewflow.cli import COMMANDS

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


def command_table():
    """{command: its own flags} from the README's command table: the
    --flags named in the third column of each row."""
    rows = re.findall(r"^\| `([a-z-]+)` \|(.*)$", README.read_text(),
                      flags=re.MULTILINE)
    table = {}
    for name, rest in rows:
        cells = re.split(r"(?<!\\)\|", rest)
        table[name] = set(re.findall(r"--[a-z][a-z0-9-]*", cells[1]))
    return table


def test_readme_command_table_names_each_commands_flags():
    table = command_table()
    assert table.keys() == COMMANDS.keys()
    for name, (_, _, own) in COMMANDS.items():
        assert table[name] == set(own), name
