#!/usr/bin/env python3
"""Dump the golden CLI outputs of a source tree, and compare two dumps.

    golden_diff.py dump DIR [CASE ...]
    golden_diff.py diff A B
    golden_diff.py gate REV [CASE ...]

dump runs every case of tests/golden/cases.json (or the named ones), each
in a fresh process with SKEWFLOW_THREADS=1, and writes each case's
report.json and CSVs to DIR/<case>/ and the exit codes to DIR/exits.json.
The skewflow that runs is the one on PYTHONPATH (this tree's src/ when it
is unset), so the output of another checkout comes from

    PYTHONPATH=<checkout>/src python3 scripts/golden_diff.py dump DIR

diff prints one line per file of either dump: "identical" when the bytes
agree, else the largest absolute and relative deviation of a float with
its JSON path or CSV cell, and every change of a key, string, bool, int,
length or file. It exits 1 on any such change, and 0 when at most floats
moved.

gate checks REV out with `git worktree add` into a temporary directory,
dumps the cases there and in this working tree (both with this tree's
cases and inputs), together with the gate-only invocations of
GATE_CASES, prints the diff of the two dumps, the code lines of
src/skewflow/*.py (code_lines: docstrings, comments and blank lines
excluded), the settable-value count of both sides (settable_values) and
the net line count of src/skewflow/*.py (as `wc -l` counts them),
removes the worktree, and exits as diff does. Named cases may be golden
or gate-only ones. It needs only the local repository.
"""
import argparse
import ast
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def _pinned_ring(n: int, pins, seed: int) -> dict:
    """A matrix descriptor: the W-skew weighted ring W^-1 K (K periodic,
    antisymmetric and bidiagonal) with seeded weights and coefficients,
    on the explicit unit columns of every coordinate except pins."""
    rng = np.random.default_rng(seed)
    w, c = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)
    j = np.arange(n)
    K = np.zeros((n, n))
    K[j, (j + 1) % n] = -c
    K[(j + 1) % n, j] = c
    return {"label": f"weighted-ring-codim{len(pins)}",
            "operator": {"kind": "matrix", "data": (K / w[:, None]).tolist()},
            "space": {"weights": w.tolist()},
            "domain": {"mode": "columns",
                       "columns": np.delete(np.eye(n), pins, 0).tolist()}}


# the golden 16^2 stream's periodic operator as a descriptor
PERIODIC_STREAM = {"operator": {"kind": "transport",
                                "stream": str(GOLDEN / "stream.csv"),
                                "mode": "periodic_full"}}

# invocations that only gate runs, on both sides like the golden cases,
# with no stored report; each input is the descriptor itself, naming a
# stream file by its absolute path
GATE_CASES = [
    # the dense Schur fill at the benchmark's size: 2001 Cayley rows at
    # n = 256, four mirrored windows of up to 511 rows
    {"name": "verify-minimal-256", "command": "verify",
     "input": {"operator": {"kind": "minimal_derivative", "n": 256}},
     "flags": []},
    # sparse Cayley steps with |S|_inf = 0.0022 < 1 (K = 6) on the golden
    # 16^2 stream's interior -M_s: a route rule that compares the cap K
    # with nnz(L + U) solves them by SuperLU, the rule from measured
    # products by certified Neumann attempts, so the two differ at
    # rounding level
    {"name": "verify-interior-16", "command": "verify",
     "input": {"operator": {"kind": "transport",
                            "stream": str(GOLDEN / "stream.csv"),
                            "mode": "interior_domain"}},
     "flags": ["--dt", "0.02"]},
    # check_m_dissipative on the same stream's -extend(op, 0.5), whose
    # sym(G) is nonzero on fewer rows than n: the form and the Cholesky
    # certificate read that support block
    {"name": "extend-interior-16", "command": "extend",
     "input": {"operator": {"kind": "transport",
                            "stream": str(GOLDEN / "stream.csv"),
                            "mode": "interior_domain"}},
     "flags": ["--theta", "0.5"]},
    # sparse Cayley steps on the golden 16^2 periodic stream at dt = 0.04:
    # |S|_inf = 0.0089 (K = 7), above the q of a few 1e-3 below which
    # one product certifies a start extrapolated from the ring of Schur
    # images. The 9 steps from b take 6 products each and the 41
    # ring-started steps 4 each, above K/2 = 3.5, so step 18 builds the
    # factor, and the cost comparison keeps the attempts and releases it
    {"name": "evolve-transport-dt04", "command": "evolve",
     "input": PERIODIC_STREAM,
     "flags": ["--dt", "0.04"]},
    # the same stream over 36 steps at dt = 0.28: q = 0.430 (K = 44), and
    # the third attempt runs to the cap, so SuperLU solves from there on
    {"name": "evolve-transport-dt028", "command": "evolve",
     "input": PERIODIC_STREAM,
     "flags": ["--dt", "0.28", "--horizon", "10"]},
    # 33 steps at dt = 0.3: q = 0.512 >= 1/2, so SuperLU solves every
    # step with no attempt
    {"name": "evolve-transport-dt03", "command": "evolve",
     "input": PERIODIC_STREAM,
     "flags": ["--dt", "0.3", "--horizon", "10"]},
    # 20 steps at dt = 0.5: q = 1.39, SuperLU from the start
    {"name": "evolve-transport-dt05", "command": "evolve",
     "input": PERIODIC_STREAM,
     "flags": ["--dt", "0.5", "--horizon", "10"]},
    # explicit columns of codim 3: past the DC column the defect basis is
    # completed by a turn that depends on the constraint columns L (at
    # codim 2 it is fixed up to sign), so a change of L's complement
    # beyond rounding shows in the recovered coupling
    {"name": "extend-weighted-codim3", "command": "extend",
     "input": _pinned_ring(14, [2, 7, 11], seed=3),
     "flags": ["--theta", "0.5"]},
]


def dump(out_dir: Path, names, src=None, extra=()) -> int:
    """Run the golden cases, then those of extra (whose inputs are paths),
    into out_dir with the skewflow under src, else the one on PYTHONPATH
    (this tree's src/ when it is unset)."""
    cases = [*json.loads((GOLDEN / "cases.json").read_text()), *extra]
    unknown = set(names) - {c["name"] for c in cases}
    if unknown:
        print(f"unknown case(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    env = {**os.environ, "SKEWFLOW_THREADS": "1"}
    if src is None:
        env.setdefault("PYTHONPATH", str(ROOT / "src"))
    else:
        env["PYTHONPATH"] = str(src)
    exits = {}
    for case in cases:
        if names and case["name"] not in names:
            continue
        argv = [sys.executable, "-m", "skewflow.cli", case["command"],
                "--out", str(out_dir / case["name"]), *case["flags"]]
        if isinstance(case["input"], Path):
            argv += ["--input", str(case["input"])]
        elif case["input"] is not None:
            argv += ["--input", str(GOLDEN / f"{case['input']}.json")]
        run = subprocess.run(argv, env=env, capture_output=True, text=True)
        exits[case["name"]] = run.returncode
        print(f"{case['name']}: exit {run.returncode}")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "exits.json").write_text(json.dumps(exits, indent=1,
                                                   sort_keys=True) + "\n")
    return 0


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


class Deviation:
    """The largest float deviations of one file, and its other changes."""

    def __init__(self):
        self.abs = self.rel = (0.0, None)
        self.changes = []

    def number(self, a: float, b: float, where: str):
        d = abs(a - b)
        r = d / max(abs(a), abs(b)) if d else 0.0
        if d > self.abs[0]:
            self.abs = (d, where)
        if r > self.rel[0]:
            self.rel = (r, where)

    def json(self, a, b, where: str):
        if (_is_number(a) and _is_number(b)
                and not (isinstance(a, int) and isinstance(b, int))):
            # reports write a whole float like an int, so one float side
            # makes the pair a float
            self.number(float(a), float(b), where)
        elif type(a) is not type(b):
            self.changes.append(f"{where}: {a!r} -> {b!r}")
        elif isinstance(a, dict):
            if a.keys() != b.keys():
                self.changes.append(f"{where}: keys {sorted(a)} -> {sorted(b)}")
            for k in a.keys() & b.keys():
                self.json(a[k], b[k], f"{where}.{k}")
        elif isinstance(a, list):
            if len(a) != len(b):
                self.changes.append(f"{where}: length {len(a)} -> {len(b)}")
            for i, (x, y) in enumerate(zip(a, b)):
                self.json(x, y, f"{where}[{i}]")
        elif a != b:
            self.changes.append(f"{where}: {a!r} -> {b!r}")

    def csv(self, a: str, b: str):
        (ha, *ra), (hb, *rb) = a.splitlines(), b.splitlines()
        if ha != hb:
            self.changes.append("header changed")
            return
        if len(ra) != len(rb):
            self.changes.append(f"rows {len(ra)} -> {len(rb)}")
        cols = ha.split(",")
        for i, (x, y) in enumerate(zip(ra, rb), start=1):
            xs, ys = x.split(","), y.split(",")
            if len(xs) != len(ys):
                self.changes.append(f"row {i}: cells {len(xs)} -> {len(ys)}")
                continue
            for col, u, v in zip(cols, xs, ys):
                try:
                    fu, fv = float(u), float(v)
                except ValueError:
                    fu = fv = math.nan
                if math.isfinite(fu) and math.isfinite(fv):
                    self.number(fu, fv, f"row {i} {col}")
                elif u != v:
                    self.changes.append(f"row {i} {col}: {u!r} -> {v!r}")

    def summary(self) -> str:
        parts = []
        if self.abs[1] is not None:
            parts.append(f"max abs {self.abs[0]:.3e} at {self.abs[1]}, "
                         f"max rel {self.rel[0]:.3e} at {self.rel[1]}")
        parts += self.changes
        return "; ".join(parts) or "equal values, different bytes"


def compare(a: Path, b: Path, rel: str) -> tuple[str, bool]:
    """(the line diff prints for file rel of dumps a and b, whether
    anything but floats changed)."""
    for x, y in ((a, b), (b, a)):
        if not (y / rel).is_file():
            return f"only in {x}", True
    ta, tb = (a / rel).read_bytes(), (b / rel).read_bytes()
    if ta == tb:
        return "identical", False
    dev = Deviation()
    if rel.endswith(".json"):
        dev.json(json.loads(ta), json.loads(tb), "$")
    elif rel.endswith(".csv"):
        dev.csv(ta.decode(), tb.decode())
    else:
        dev.changes.append("bytes differ")
    return dev.summary(), bool(dev.changes)


def diff(a: Path, b: Path) -> int:
    files = sorted({p.relative_to(d).as_posix()
                    for d in (a, b) for p in d.rglob("*") if p.is_file()})
    changed = False
    for rel in files:
        line, structural = compare(a, b, rel)
        changed |= structural
        print(f"{rel}: {line}")
    return 1 if changed else 0


def source_lines(root: Path) -> int:
    """The lines of root/src/skewflow/*.py, counted as `wc -l` does."""
    return sum(p.read_bytes().count(b"\n")
               for p in (root / "src" / "skewflow").glob("*.py"))


def code_lines(root: Path) -> int:
    """The lines of root/src/skewflow/*.py that are code: not blank, not
    a comment alone, and not part of a module, class or function
    docstring."""
    count = 0
    for path in (root / "src" / "skewflow").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        doc = set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                first = node.body[0]
                doc.update(range(first.lineno, first.end_lineno + 1))
        count += sum(1 for i, line in enumerate(text.splitlines(), start=1)
                     if line.strip() and not line.lstrip().startswith("#")
                     and i not in doc)
    return count


def _defaulted(func) -> int:
    return sum(p.default is not p.empty
               for p in inspect.signature(func).parameters.values())


def settable_values() -> int:
    """The values a user of the importable skewflow can set: the option
    slots of skewflow.cli.build_parser() (every option of every
    subcommand, -h excluded), plus the parameters with a default of the
    public functions of skewflow's modules and of the methods (public
    ones and __init__) of their public classes."""
    import skewflow
    from skewflow.cli import build_parser

    parsers = [build_parser()]
    for action in parsers[0]._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers += action.choices.values()
    count = sum(bool(a.option_strings)
                and not isinstance(a, argparse._HelpAction)
                for p in parsers for a in p._actions)
    for info in pkgutil.iter_modules(skewflow.__path__):
        module = importlib.import_module(f"skewflow.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            if inspect.isfunction(obj):
                count += _defaulted(obj)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if ((attr == "__init__" or not attr.startswith("_"))
                            and inspect.isfunction(member)):
                        count += _defaulted(member)
    return count


def _settable_values_of(src: Path) -> int:
    """settable_values() of the skewflow under src, in a fresh process."""
    code = ("import runpy, sys; "
            "print(runpy.run_path(sys.argv[1])['settable_values']())")
    run = subprocess.run([sys.executable, "-c", code, __file__],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    return int(run.stdout)


def gate(rev: str, names) -> int:
    git = ["git", "-C", str(ROOT), "worktree"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        extra = []
        for case in GATE_CASES:
            path = tmp / f"{case['name']}.json"
            path.write_text(json.dumps(case["input"]))
            extra.append({**case, "input": path})
        checkout = tmp / "rev"
        add = subprocess.run([*git, "add", "--detach", "--quiet",
                              str(checkout), rev],
                             capture_output=True, text=True)
        if add.returncode:
            print(f"cannot check out {rev}: {add.stderr.strip()}",
                  file=sys.stderr)
            return 1
        try:
            settable = []
            for side, src in (("rev", checkout / "src"),
                              ("tree", ROOT / "src")):
                if dump(tmp / f"dump-{side}", names, src, extra):
                    return 1
                settable.append(_settable_values_of(src))
            before, after = source_lines(checkout), source_lines(ROOT)
            code_before, code_after = code_lines(checkout), code_lines(ROOT)
        finally:
            subprocess.run([*git, "remove", "--force", str(checkout)],
                           check=True)
        code = diff(tmp / "dump-rev", tmp / "dump-tree")
    print(f"src/skewflow/*.py code lines (no docstrings, comments or blank "
          f"lines): {code_before} -> {code_after} "
          f"({code_after - code_before:+d})")
    print("settable values: {} -> {}".format(*settable))
    print(f"src/skewflow/*.py: {before} -> {after} lines "
          f"({after - before:+d})")
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="run the golden cases into DIR")
    d.add_argument("dir", type=Path)
    d.add_argument("cases", nargs="*", help="case names (default: all)")
    c = sub.add_parser("diff", help="compare two dumps")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    g = sub.add_parser("gate", help="compare REV's dump with this tree's")
    g.add_argument("rev")
    g.add_argument("cases", nargs="*", help="case names (default: all)")
    args = ap.parse_args(argv)
    if args.command == "dump":
        return dump(args.dir, args.cases)
    if args.command == "gate":
        return gate(args.rev, args.cases)
    return diff(args.a, args.b)


if __name__ == "__main__":
    raise SystemExit(main())
