"""Self-tests of the benchmark harness.

Run with `python3 perfbench/selftest.py` or
`python3 -m pytest perfbench/selftest.py`. They need numpy but not a
working skewflow: the program failures they simulate come from a fake
package written to a temporary directory.
"""
from __future__ import annotations

import json
import sys
import tempfile
import textwrap
from pathlib import Path

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import harness as hz  # noqa: E402


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------

def test_tail_percentile_from_sample_count():
    assert hz.tail_percentile(10) is None
    assert hz.tail_percentile(11) == 9
    assert hz.tail_percentile(20) == 50
    assert hz.tail_percentile(21) == 52
    assert hz.tail_percentile(100) == 90
    assert hz.tail_percentile(1000) == 99
    assert hz.tail_percentile(200, beyond=20) == 90


def test_tail_percentile_leaves_ten_samples_beyond():
    last = -1
    for n in range(11, 400):
        p = hz.tail_percentile(n)
        xs = list(range(n))
        cut = hz.percentile(xs, p)
        assert sum(x > cut for x in xs) >= 10, n
        assert p >= last  # more samples never lower the tail
        last = p


def test_percentile_matches_linear_rule():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert hz.percentile(xs, 0) == 1.0
    assert hz.percentile(xs, 100) == 4.0
    assert hz.percentile(xs, 50) == 2.5


# ---------------------------------------------------------------------------
# failures
# ---------------------------------------------------------------------------

def _ok(tr):
    return 1


def _raises(tr):
    def fake_deficiency():
        raise ValueError("extension domain not dense\nmore detail")
    return tr.call("operators.deficiency", fake_deficiency)


def test_raising_op_and_failed_check_count_as_failures():
    ops = [
        hz.Op("ok", "spaces", _ok, lambda out, _: [], work=2.0),
        hz.Op("raises", "spaces", _raises, lambda out, _: []),
        hz.Op("bad output", "evolution", _ok,
              lambda out, _: [("transport", "energy drift 1e-3")]),
        hz.Op("check crashes", "oracles", _ok, lambda out, _: out["missing"]),
    ]
    for tracer in (hz.NullTracer(), hz.Tracer()):
        res = hz.run_pass(ops, tracer)
        got = [(f.op, f.module, f.message) for f in res.failures]
        assert got[0] == ("raises", "operators",
                          "ValueError: extension domain not dense")
        assert got[1] == ("bad output", "transport", "energy drift 1e-3")
        assert got[2][:2] == ("check crashes", "oracles")
        assert list(res.op_s) == ["ok"] and res.work == 2.0
        assert set(res.outputs) == {op.label for op in ops}


def test_checks_see_every_output_of_the_pass():
    ops = [
        hz.Op("fine", "spaces", lambda tr: 8.0,
              lambda out, outs: [] if outs["coarse"] / out >= 3 else
              [("spaces", "ratio")]),
        hz.Op("coarse", "spaces", lambda tr: 32.0, lambda out, outs: []),
    ]
    res = hz.run_pass(ops, hz.NullTracer())
    assert not res.failures and res.outputs == {"fine": 8.0, "coarse": 32.0}


def test_reference_times_frame_each_op_and_stay_out_of_the_wall():
    import time

    def reference():
        t0 = time.perf_counter()
        time.sleep(0.002)
        return time.perf_counter() - t0

    ops = [hz.Op(f"op{i}", "spaces", _ok, lambda out, _: []) for i in range(3)]
    ops.append(hz.Op("raises", "spaces", _raises, lambda out, _: []))
    res = hz.run_pass(ops, hz.NullTracer(), reference=reference)
    assert len(res.ref_s) == len(ops) + 1
    assert list(res.op_ref) == ["op0", "op1", "op2"]
    for i, label in enumerate(res.op_ref):
        frame = 0.5 * (res.ref_s[i] + res.ref_s[i + 1])
        assert res.op_ref[label] == res.op_s[label] / frame
    assert 0.0 <= res.wall_s < sum(res.ref_s)  # the sleeps are not in it
    assert res.wall_ref == sum(res.op_ref.values())


# ---------------------------------------------------------------------------
# cli-verify: a program that cannot import
# ---------------------------------------------------------------------------

def _fake_program(root: Path) -> Path:
    """A skewflow whose cli import dies in weak, like numpy 2's np.trapz."""
    pkg = root / "src" / "skewflow"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "weak.py").write_text(textwrap.dedent("""\
        import numpy as np
        _trapz = getattr(np, "trapezoid", np.no_such_function)
        """))
    (pkg / "cli.py").write_text("from .weak import _trapz\n")
    return root / "src"


def _bare_cli_workload(tmp: Path):
    from workloads import CliVerify

    wl = CliVerify()
    wl.dir, wl.seed, wl.theta, wl.reports, wl._cli = tmp, 0, 0.5, {}, None
    wl.env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(_fake_program(tmp))}
    return wl


def test_cli_import_failure_counts_as_failed_ops():
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        wl = _bare_cli_workload(tmp)
        desc = tmp / "minimal.json"
        desc.write_text(json.dumps({"operator": {"kind": "minimal_derivative",
                                                 "n": 64}}))
        ops = [wl._command("verify", desc, "minimal", ()),
               wl._command("oracle-check", None, None, ())]
        res = hz.run_pass(ops, hz.NullTracer())
        assert [f.module for f in res.failures] == ["weak", "weak"]
        for f in res.failures:
            assert f.message.startswith("exit 1: AttributeError:"), f.message
            assert "no_such_function" in f.message
        assert res.op_s == {}


def test_in_process_cli_import_failure_is_counted_not_raised():
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        wl = _bare_cli_workload(tmp)
        saved = {k: v for k, v in sys.modules.items()
                 if k == "skewflow" or k.startswith("skewflow.")}
        for k in saved:
            del sys.modules[k]
        sys.path.insert(0, wl.env["PYTHONPATH"])
        try:
            tracer = hz.Tracer()
            wl._import_cli(tracer)
            res = hz.run_pass([wl._command("analyze", tmp / "m.json", "matrix",
                                           ())], tracer)
        finally:
            sys.path.remove(wl.env["PYTHONPATH"])
            for k in [k for k in sys.modules
                      if k == "skewflow" or k.startswith("skewflow.")]:
                del sys.modules[k]
            sys.modules.update(saved)
        assert len(res.failures) == 1
        f = res.failures[0]
        assert f.module == "weak" and f.message.startswith("AttributeError:")
        assert "cli.main.analyze" not in {s.name for s in tracer.spans}


def test_child_failure_keeps_the_error_line():
    from workloads import ChildFailure

    stderr = textwrap.dedent("""\
        Traceback (most recent call last):
          File "/x/src/skewflow/cli.py", line 57, in <module>
            from .weak import (
          File "/x/src/skewflow/weak.py", line 36, in <module>
            _trapz = getattr(np, "trapezoid", np.trapz)
        AttributeError: module 'numpy' has no attribute 'trapz'
        """)
    exc = ChildFailure(1, stderr)
    assert str(exc) == ("exit 1: AttributeError: module 'numpy' has no "
                        "attribute 'trapz'")
    assert hz.module_of(exc, "cli") == "weak"
    assert hz.module_of(ChildFailure(2, "verify: fail\n"), "x") == "cli"


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tr = hz.Tracer(run_id="r", clock=clock)

    def leaf(dt):
        clock.t += dt

    def middle():
        clock.t += 1.0
        tr.call("inner", leaf, 1.0)
        clock.t += 2.0

    with tr.span("outer"):
        clock.t += 1.0
        tr.call("leaf", leaf, 3.0, counts={"steps": 5})
        clock.t += 1.0
        tr.call("middle", middle)
        tr.call("leaf", leaf, 0.5, counts={"steps": 2})
    st = hz.self_times(tr.spans)
    by_name = {}
    for s in tr.spans:
        by_name.setdefault(s.name, []).append(st[s.id])
    assert by_name == {"outer": [2.0], "leaf": [3.0, 0.5], "middle": [3.0],
                       "inner": [1.0]}
    assert all(s.run == "r" for s in tr.spans)
    assert tr.spans[0].parent is None and tr.spans[1].parent == 0
    totals = hz.layer_totals(tr.spans)
    assert totals["leaf.s"] == 3.5 and totals["leaf.calls"] == 2
    assert totals["leaf.steps"] == 7 and totals["outer.s"] == 2.0


def test_self_time_counts_overlapping_children_once():
    spans = [hz.Span(0, "p", 0.0, 10.0, None, "r"),
             hz.Span(1, "a", 1.0, 4.0, 0, "r"),
             hz.Span(2, "b", 3.0, 6.0, 0, "r"),
             hz.Span(3, "c", 8.0, 12.0, 0, "r")]  # clipped at the parent's end
    assert hz.self_times(spans)[0] == 10.0 - 5.0 - 2.0


def test_failed_call_still_closes_its_span():
    tr = hz.Tracer()

    def boom():
        raise KeyError("x")

    try:
        tr.call("weak.gs_residual", boom)
    except KeyError as exc:
        assert exc.perfbench_span == "weak.gs_residual"
    assert tr.spans[0].end >= tr.spans[0].start and not tr._stack


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the harness
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    import run
    from workloads import WORKLOADS

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer = hz.per_layer_metric_units()
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(not WORKLOADS[w["name"]].cli_layers for w in spec["workloads"])
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == layer[m["name"]]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    for w in spec["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items())
             if k.startswith("test_") and callable(v)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except Exception as exc:  # report every test, then fail
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    sys.exit(1 if failed else 0)
