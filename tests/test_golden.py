"""Golden-report gate: every CLI command on fixed descriptors reproduces
the stored report.json.

tests/golden/cases.json lists each invocation (command, descriptor,
flags, exit code); tests/golden/reports/<name>.json is its stored report.
Keys, strings, bools and integers must match exactly. Floats must match
within 1e-9 relative plus 1e-12 absolute, so a different BLAS build that
moves the last bits still passes while any change of meaning fails.
"""
import json
import math
import re
import runpy
import subprocess
from pathlib import Path

import pytest

from skewflow.cli import main

ROOT = Path(__file__).parents[1]
GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
RTOL, ATOL = 1e-9, 1e-12
GOLDEN_DIFF = runpy.run_path(str(ROOT / "scripts" / "golden_diff.py"))


class _Tolerant(GOLDEN_DIFF["Deviation"]):
    """golden_diff.py's walk, with each float pair outside the tolerance
    recorded as a change."""

    def number(self, a, b, where):
        if not math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL):
            self.changes.append(f"{where}: {a!r} != {b!r}")


def mismatches(got, want, where="report"):
    """Paths at which got differs from want, under the float tolerance."""
    dev = _Tolerant()
    dev.json(got, want, where)
    return dev.changes


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_report_matches_golden(tmp_path, case):
    out = tmp_path / "out"
    argv = [case["command"], "--out", str(out), *case["flags"]]
    if case["input"] is not None:
        argv += ["--input", str(GOLDEN / f"{case['input']}.json")]
    assert main(argv) == case["exit"]
    got = json.loads((out / "report.json").read_text())
    want = json.loads((GOLDEN / "reports" / f"{case['name']}.json").read_text())
    assert mismatches(got, want) == []


def test_mismatches_applies_the_float_tolerance_only_to_numbers():
    assert mismatches({"x": 1.0, "n": 2}, {"x": 1.0 + 1e-12, "n": 2}) == []
    assert mismatches({"x": 1}, {"x": 1.0 + 1e-12}) == []
    assert mismatches({"x": 1.0}, {"x": 1.0 + 1e-6}) != []
    assert mismatches({"n": 3}, {"n": 2}) != []
    assert mismatches({"p": 1}, {"p": True}) != []
    assert mismatches({"s": "a"}, {"s": "b"}) != []
    assert mismatches({"a": [1.0]}, {"a": [1.0, 2.0]}) != []
    assert mismatches({"a": 1}, {"b": 1}) != []


def test_golden_diff_script_finds_what_moved(tmp_path, capsys, monkeypatch):
    script = runpy.run_path(str(ROOT / "scripts" / "golden_diff.py"))["main"]
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert script(["dump", str(out), "analyze-weighted",
                       "evolve-rotation"]) == 0
    capsys.readouterr()
    assert script(["diff", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "analyze-weighted/report.json: identical",
        "evolve-rotation/report.json: identical",
        "evolve-rotation/trajectory.csv: identical",
        "exits.json: identical",
    ]

    # a doctored float and a doctored CSV cell are reported with their
    # places; floats alone do not fail the diff
    path = b / "analyze-weighted" / "report.json"
    report = json.loads(path.read_text())
    report["skew"]["max_defect"] = 1e-3
    path.write_text(json.dumps(report))
    path = b / "evolve-rotation" / "trajectory.csv"
    rows = path.read_text().splitlines()
    cells = rows[3].split(",")
    cells[3] = "2"
    rows[3] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")
    assert script(["diff", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "at $.skew.max_defect" in lines[0]
    assert "at row 3 c1" in lines[2]

    # a changed key fails it
    path = b / "evolve-rotation" / "report.json"
    report = json.loads(path.read_text())
    report["steps"] = report.pop("nsteps")
    path.write_text(json.dumps(report))
    assert script(["diff", str(a), str(b)]) == 1
    assert "keys" in capsys.readouterr().out.splitlines()[1]


def test_golden_diff_gate_compares_a_revision_with_the_tree(capsys):
    # REV = HEAD: both sides dump two golden cases and the gate-only
    # verify at n = 256 in fresh processes (about 3.3 s on 2 shared
    # cores, 1.1 s of it the gate-only case), and the temporary worktree
    # is gone after
    script = GOLDEN_DIFF["main"]

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True).stdout

    worktrees = git("worktree", "list", "--porcelain")
    assert script(["gate", "HEAD", "analyze-weighted", "evolve-rotation",
                   "verify-minimal-256"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert git("worktree", "list", "--porcelain") == worktrees
    files = ["analyze-weighted/report.json", "evolve-rotation/report.json",
             "evolve-rotation/trajectory.csv", "exits.json",
             "verify-minimal-256/report.json",
             "verify-minimal-256/residuals.csv"]
    compared = [line for line in lines if line.split(":")[0] in files]
    assert [line.split(":")[0] for line in compared] == files
    unchanged = not subprocess.run(["git", "-C", str(ROOT), "diff",
                                    "--quiet", "HEAD", "--", "src"]).returncode
    if unchanged:
        assert all(line.endswith(": identical") for line in compared)
    count = re.fullmatch(r"src/skewflow/\*\.py: (\d+) -> (\d+) lines "
                         r"\(([+-]\d+)\)", lines[-1])
    before, after, net = map(int, count.groups())
    assert after == GOLDEN_DIFF["source_lines"](ROOT)
    assert net == after - before
    # the settable values of both sides: CLI option slots plus defaulted
    # parameters of public functions and methods
    settable = re.fullmatch(r"settable values: (\d+) -> (\d+)", lines[-2])
    before, after = map(int, settable.groups())
    assert after == GOLDEN_DIFF["settable_values"]() > 0
    if unchanged:
        assert before == after

    assert script(["gate", "no-such-revision"]) == 1
    assert "cannot check out no-such-revision" in capsys.readouterr().err


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path):
    pkg = tmp_path / "src" / "skewflow"
    pkg.mkdir(parents=True)
    (pkg / "m.py").write_text(
        '"""Module\ndoc."""\nimport os\n\n# a note\n\nclass A:\n'
        '    """One."""\n\n    def f(self):\n        """Two\n        lines."""\n'
        '        return os.sep  # why\n')
    # import, class, def and return
    assert GOLDEN_DIFF["code_lines"](tmp_path) == 4
    assert GOLDEN_DIFF["source_lines"](tmp_path) == 13
