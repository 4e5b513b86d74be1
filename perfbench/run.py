"""Seeded benchmark for skewflow.

Run one workload, as BENCHMARK.json's command does:

    python3 perfbench/run.py --workload defect-scan --seed 1 --seconds 30 --trace 0

or every workload (or a comma-separated subset), each untraced and then
traced, with one command:

    python3 perfbench/run.py --seed 1 [--workload rotation,wrapped-flow]

A run prints every metric with its unit, then as its last line one JSON
object with the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones. The exit
code is nonzero only when the benchmark itself breaks; failed program
operations are counted, not fatal. See perfbench/README.md.
"""
from __future__ import annotations

import os

# BLAS runs on one thread for every measured process and child; this has
# to happen before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SKEWFLOW_THREADS"] = "1"

import argparse
import dataclasses
import importlib
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import harness as hz

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("defect-scan", "wrapped-flow", "rotation", "cli-verify")

# End-to-end metrics of the result line (BENCHMARK.json). Operation and
# pass times are given in units of the reference kernel timed around them
# ("ref"): on a shared machine whose speed drifts by tens of percent over
# minutes, that ratio stays put while raw seconds do not. Raw seconds are
# printed and recorded as well (RAW_UNITS).
END_TO_END_UNITS = {
    "setup_s": "s", "wall_ref": "ref", "op_ref.p50": "ref",
    "op_ref.tail": "ref", "work_per_ref": "1/ref", "peak_rss_mb": "MB",
    "oracle_error": "1",
}
RAW_UNITS = {"wall_s": "s", "op_s.p50": "s", "op_s.tail": "s",
             "work_per_s": "1/s", "ref_s": "s"}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (exit code 2, no result line)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _check_program() -> None:
    if not (SRC / "skewflow" / "__init__.py").is_file():
        raise BenchmarkError(f"program source not found under {SRC.name}/")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("skewflow")
    if Path(pkg.__file__).resolve().parent != SRC / "skewflow":
        raise BenchmarkError("skewflow was imported from outside this checkout")


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters, median
# ---------------------------------------------------------------------------

def setup_probe(name: str, seed: int) -> int:
    """Child side: import, set up, say 'ready <import_s>', exit."""
    t0 = time.perf_counter()
    _check_program()
    from workloads import WORKLOADS  # imports numpy
    wl = WORKLOADS[name]()
    for m in wl.modules:
        importlib.import_module(f"skewflow.{m}")
    import_s = time.perf_counter() - t0
    try:
        wl.setup(seed, hz.NullTracer())
        print(f"ready {import_s!r}", flush=True)
    finally:
        wl.close()
    return 0


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """(setup_s, import_s) of one fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.startswith("ready "):
        tail = (err.strip().splitlines() or ["no output"])[-1]
        raise BenchmarkError(f"set-up of {name} failed: {tail}")
    return setup_s, float(line.split()[1])


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------

def _peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def environment(seed: int, wl) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        blas = "unknown"
    return {
        "git_sha": _git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cache_bytes": _cache_sizes(), "machine": platform.machine(),
        "seed": seed, "workload": wl.name, "sizes": wl.sizes(),
    }


def _cache_sizes() -> dict:
    """L1d/L2/L3 sizes in bytes as getconf reports them (None if unknown)."""
    keys = {"LEVEL1_DCACHE_SIZE": "l1d", "LEVEL2_CACHE_SIZE": "l2",
            "LEVEL3_CACHE_SIZE": "l3"}
    out = dict.fromkeys(keys.values())
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True,
                              text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return out
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in keys and parts[1].isdigit():
            out[keys[parts[0]]] = int(parts[1])
    return out


def _git_sha() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def _type_medians(passes, attr: str) -> list:
    """Each operation's median time over the passes, one value per
    operation of the list. Every operation runs once per pass, so
    percentiles over these are percentiles of the operation mix; unlike
    percentiles over all samples they do not jump between two operations
    as the number of passes changes."""
    by_op: dict = {}
    for r in passes:
        for label, t in getattr(r, attr).items():
            by_op.setdefault(label, []).append(t)
    return [hz.median(ts) for ts in by_op.values()]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    _check_program()
    from workloads import WORKLOADS

    # Set-up probes are spread over the run (one before it, one after each
    # round of passes, the rest at the end) so that their median sees the
    # machine in the same states as the passes do.
    probes = [measure_setup(name, seed)]
    wl = WORKLOADS[name]()
    tracer = hz.Tracer(run_id=f"{name}-seed{seed}-{os.getpid()}")
    null = hz.NullTracer()
    try:
        wl.setup(seed, tracer if trace else null)
        setup_spans = list(tracer.spans)
        ops = wl.ops()
        kinds = (null, tracer) if trace else (null,)
        min_rounds = max(1, -(-wl.min_passes // len(kinds)))
        passes, oracle, elapsed = [], None, 0.0
        while True:
            t0 = time.perf_counter()
            for tr in kinds:
                res = hz.run_pass(ops, tr, reference=hz.reference_kernel)
                got = wl.oracle_error(res.outputs)
                oracle = got if got is not None else oracle
                res.outputs = None  # free the trajectories before the next pass
                passes.append((tr.enabled, res))
            elapsed += time.perf_counter() - t0
            rounds = len(passes) // len(kinds)
            if len(probes) < SETUP_PROBES:
                probes.append(measure_setup(name, seed))
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
                break
        while len(probes) < SETUP_PROBES:
            probes.append(measure_setup(name, seed))
        extras = wl.layer_extras() if trace else {}
        env = environment(seed, wl)
        ops_per_pass = len(ops)
    finally:
        wl.close()

    plain = [r for traced, r in passes if not traced]
    traced = [r for traced, r in passes if traced]
    attempted = ops_per_pass * len(passes)
    failures = [f for _, r in passes for f in r.failures]
    op_s, op_ref = _type_medians(plain, "op_s"), _type_medians(plain, "op_ref")
    tail_p = hz.tail_percentile(ops_per_pass * wl.min_passes)
    work = sum(r.work for r in plain)

    e2e = {"setup_s": hz.median(p[0] for p in probes)}
    raw = {"ref_s": hz.median(t for r in plain for t in r.ref_s)}
    if op_s:
        e2e["wall_ref"] = hz.median(r.wall_ref for r in plain)
        e2e["op_ref.p50"] = hz.percentile(op_ref, 50)
        e2e["op_ref.tail"] = hz.percentile(op_ref, tail_p)
        e2e["work_per_ref"] = work / sum(t for r in plain
                                         for t in r.op_ref.values())
        raw["wall_s"] = hz.median(r.wall_s for r in plain)
        raw["op_s.p50"] = hz.percentile(op_s, 50)
        raw["op_s.tail"] = hz.percentile(op_s, tail_p)
        raw["work_per_s"] = work / sum(t for r in plain
                                       for t in r.op_s.values())
    e2e["peak_rss_mb"] = _peak_rss_mb(wl.peak_rss_children)
    if oracle is not None:
        e2e["oracle_error"] = oracle

    layer = {}
    if trace:
        setup_totals = hz.layer_totals(setup_spans)
        per_pass = [hz.layer_totals(r.spans) for r in traced]
        units = hz.per_layer_metric_units(wl.cli_layers)
        for key, (unit, _) in units.items():
            value = setup_totals.get(key, 0) + (
                hz.median(t.get(key, 0) for t in per_pass) if per_pass else 0)
            if key.endswith(".fails"):
                value = sum(f"{f.module}.fails" == key for f in failures)
            layer[key] = int(value) if unit == "count" else float(value)
        layer["setup.import_s"] = hz.median(p[1] for p in probes)
        for key, value in extras.items():
            layer[key] = layer[key] + value if key.endswith(".fails") else value
        layer["trace.overhead_share"] = (
            hz.median(r.wall_s for r in traced)
            / hz.median(r.wall_s for r in plain) - 1.0)

    return {
        "workload": wl, "env": env, "trace": trace, "e2e": e2e, "raw": raw,
        "layer": layer,
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "passes": (len(plain), len(traced)),
        "op_samples": sum(len(r.op_s) for r in plain),
        "tail_percentile": tail_p, "spans": tracer.spans if trace else [],
        "pass_log": [{"traced": t, "wall_s": r.wall_s, "op_s": r.op_s,
                      "ref_s": r.ref_s} for t, r in passes],
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def report(res: dict) -> dict:
    """Print the human-readable lines; return the result-line object."""
    wl, e2e, layer = res["workload"], res["e2e"], res["layer"]
    attempted, failed = res["attempted"], res["failed"]
    print(f"perfbench {wl.name} seed={res['env']['seed']} "
          f"trace={int(res['trace'])} passes={res['passes'][0]} untraced"
          f" + {res['passes'][1]} traced")
    tail = (f"p{res['tail_percentile']} of {res['op_samples']} ops (fixed "
            f"from {wl.min_passes} passes x {len(wl.ops())} ops)")
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh-interpreter set-ups",
        "wall_ref": "median over passes of the summed op_ref",
        "op_ref.tail": tail, "op_s.tail": tail,
        "work_per_ref": f"{wl.work_unit} per reference kernel time",
        "oracle_error": wl.oracle_name or "",
        "wall_s": "median wall time of one pass",
        "work_per_s": f"{wl.work_unit}_per_s",
        "ref_s": "median reference kernel time",
    }
    if not res["trace"]:
        units = {**END_TO_END_UNITS, **RAW_UNITS}
        for key, value in [*e2e.items(), *res["raw"].items()]:
            print(f"  {key:<14} {_fmt(value)} {units[key]}"
                  f"   {notes.get(key, '')}".rstrip())
        if "oracle_error" in e2e:
            print(f"  {wl.oracle_name:<14} {e2e['oracle_error']!r} 1")
    print(f"  {'fail_share':<14} {failed / attempted!r} 1   "
          f"{failed} of {attempted} operations")
    seen = {}
    for f in res["failures"]:
        seen.setdefault((f.module, f.message), []).append(f.op)
    for (module, message), ops in seen.items():
        print(f"  FAILED x{len(ops)} [{module}] {ops[0]}: {message}")
    units = hz.per_layer_metric_units(wl.cli_layers)
    for key, value in layer.items():
        print(f"  {key:<52} {_fmt(value)} {units[key][0]}")
    print("env: " + json.dumps(res["env"], sort_keys=True))

    metrics = layer if res["trace"] else e2e
    unit_of = (lambda k: units[k][0]) if res["trace"] else END_TO_END_UNITS.get
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in metrics.items()}}
    _write_record(res, result)
    return result


def _write_record(res: dict, result: dict) -> None:
    OUT.mkdir(exist_ok=True)
    name = res["workload"].name
    record = {
        "result": result, "env": res["env"], "end_to_end": res["e2e"],
        "raw": res["raw"],
        "per_layer": res["layer"], "tail_percentile": res["tail_percentile"],
        "op_samples": res["op_samples"], "passes": res["pass_log"],
        "failures": [vars(f) for f in res["failures"]],
        "spans": [dataclasses.asdict(s) for s in res["spans"]],
    }
    path = OUT / f"{name}-seed{res['env']['seed']}-trace{int(res['trace'])}.json"
    path.write_text(json.dumps(record, indent=1))


# ---------------------------------------------------------------------------
# several workloads: one child per (workload, trace)
# ---------------------------------------------------------------------------

def run_many(names, seed: int, seconds: float, traces) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    broken = []
    for name in names:
        for trace in traces:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                    cwd=ROOT)
            last = ""
            for line in proc.stdout:
                print(line, end="", flush=True)
                last = line
            if proc.wait() != 0:
                broken.append(f"{name} trace={trace}")
                continue
            res = json.loads(last)
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            for key, value in res["metrics"].items():
                combined["metrics"][f"{name}/trace{trace}/{key}"] = value
    if broken:
        print("benchmark broke on: " + ", ".join(broken), file=sys.stderr)
        return 2
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default=",".join(WORKLOAD_NAMES),
                   help="a workload name or a comma-separated list "
                        f"(default: all of {', '.join(WORKLOAD_NAMES)})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="one run of one workload, untraced (0) or traced "
                        "(1); without it each workload runs both ways")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    names = [n for n in args.workload.split(",") if n]
    unknown = [n for n in names if n not in WORKLOAD_NAMES]
    if unknown or not names:
        p.error(f"unknown workload {', '.join(unknown)}")
    try:
        if args.setup_probe:
            return setup_probe(names[0], args.seed)
        if args.trace is None or len(names) > 1:
            traces = (0, 1) if args.trace is None else (args.trace,)
            return run_many(names, args.seed, args.seconds, traces)
        result = report(run_workload(names[0], args.seed, args.seconds,
                                     bool(args.trace)))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
