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
from pathlib import Path

import pytest

from skewflow.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
RTOL, ATOL = 1e-9, 1e-12


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def mismatches(got, want, where="report"):
    """Paths at which got differs from want, under the float tolerance."""
    if _is_number(got) and _is_number(want):
        # canonical_json writes a whole float like an int, so a float on
        # either side makes the pair a float comparison
        if isinstance(got, int) and isinstance(want, int):
            same = got == want
        else:
            same = math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)
    elif type(got) is not type(want):
        same = False
    elif isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want
                for m in mismatches(got[k], want[k], f"{where}.{k}")]
    elif isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    else:
        same = got == want
    return [] if same else [f"{where}: {got!r} != {want!r}"]


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
