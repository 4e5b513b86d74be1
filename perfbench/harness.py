"""Measurement core of the skewflow benchmark.

It provides the statistics the benchmark reports (medians, the tail
percentile), the span recorder used by traced runs and the self-time
arithmetic over nested spans, and the pass runner that times a
workload's operations, runs their correctness checks outside the timed
region and counts failures. Only the module names below are specific to
skewflow; nothing here imports it.
"""
from __future__ import annotations

import contextlib
import math
import statistics
import time
import traceback
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

PACKAGE = "skewflow"
MODULES = ("spaces", "operators", "oracles", "evolution", "weak",
           "transport", "cli")

CLI_COMMANDS = ("analyze", "extend", "evolve", "verify", "witness",
                "multiplicity", "transport-run", "oracle-check")

# Span names reported as per-layer metrics, with the work counts each
# span carries. Every traced run reports all library spans; a layer a
# workload never calls reads 0. The cli and weak spans are reported only
# by the workload that drives the CLI.
LIBRARY_SPANS = (
    ("oracles.minimal_derivative_operator", ()),
    ("operators.RestrictedOperator", ()),
    ("transport.build_transport_operator.interior", ()),
    ("transport.build_transport_operator.periodic", ()),
    ("transport.field_from_stream", ()),
    ("operators.check_skew_symmetry", ()),
    ("operators.check_m_dissipative", ()),
    ("operators.deficiency", ("dim",)),
    ("operators.extend", ()),
    ("operators.extension_coupling", ()),
    ("operators.cayley", ()),
    ("operators.seam_extension", ()),
    ("spaces.subspace_angle", ()),
    ("evolution.adjoint_generator", ()),
    ("evolution.evolve_exact.skew", ("samples",)),
    ("evolution.evolve_exact.nonskew", ("samples",)),
    ("evolution.evolve_cayley.dense", ("steps",)),
    ("evolution.evolve_cayley.sparse", ("steps",)),
    ("transport.rotation_benchmark", ("steps",)),
)
CLI_SPANS = (
    ("weak.gs_residual", ("samples",)),
    ("weak.witness_nonuniqueness", ()),
    ("weak.splice", ()),
    ("weak.semigroup_multiplicity_demo", ()),
    *((f"cli.main.{c}", ()) for c in CLI_COMMANDS),
)


def per_layer_metric_units(cli: bool = False) -> dict:
    """Every per-layer metric name -> (unit, better); with cli=True also
    the cli and weak layers."""
    out = {}
    for name, counts in LIBRARY_SPANS + (CLI_SPANS if cli else ()):
        out[f"{name}.s"] = ("s", "lower")
        out[f"{name}.calls"] = ("count", "lower")
        for c in counts:
            out[f"{name}.{c}"] = ("count", "higher")
    out["setup.import_s"] = ("s", "lower")
    if cli:
        out["cli.import_s"] = ("s", "lower")
    for m in MODULES:
        if cli or m not in ("weak", "cli"):
            out[f"{m}.fails"] = ("count", "lower")
    out["trace.overhead_share"] = ("1", "lower")
    return out


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(n_samples: int, beyond: int = 10) -> Optional[int]:
    """Highest whole percentile with at least `beyond` samples above it.

    The sample at percentile p has n * (1 - p/100) samples beyond it, so
    the answer is floor(100 * (n - beyond) / n). None when there are not
    more than `beyond` samples.
    """
    if n_samples <= beyond:
        return None
    return int(math.floor(100.0 * (n_samples - beyond) / n_samples))


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str
    counts: dict = field(default_factory=dict)


def _tag(exc: BaseException, name: str) -> None:
    """Remember the innermost span an exception escaped from."""
    if not hasattr(exc, "perfbench_span"):
        exc.perfbench_span = name


class NullTracer:
    """Untraced runs: calls go straight through; only the innermost call
    an exception escapes from is remembered, to blame its module."""

    enabled = False

    def call(self, name: str, fn: Callable, *args, counts=None, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            _tag(exc, name)
            raise

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer(NullTracer):
    """Records one span per call: name, start, end, parent, run id and
    work counts. Spans stay in memory until the run writes them out."""

    enabled = True

    def __init__(self, run_id: Optional[str] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id or uuid.uuid4().hex
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, counts) -> Span:
        s = Span(id=len(self.spans), name=name, start=self.clock(), end=math.nan,
                 parent=self._stack[-1] if self._stack else None,
                 run=self.run_id, counts=dict(counts or {}))
        self.spans.append(s)
        self._stack.append(s.id)
        return s

    def _close(self, s: Span) -> None:
        s.end = self.clock()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, counts=None, **kwargs):
        s = self._open(name, counts)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            _tag(exc, name)
            raise
        finally:
            self._close(s)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block rather than a call."""
        s = self._open(name, None)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name: str, fn: Callable,
             counts_of: Optional[Callable] = None) -> Callable:
        """fn wrapped so every call through it records a span."""

        def traced(*args, **kwargs):
            counts = counts_of(*args, **kwargs) if counts_of else None
            return self.call(name, fn, *args, counts=counts, **kwargs)

        return traced


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_totals(spans) -> dict:
    """Per-layer metrics (self seconds, calls, work counts) over spans."""
    st = self_times(spans)
    out: dict = {}
    for s in spans:
        out[f"{s.name}.s"] = out.get(f"{s.name}.s", 0.0) + st[s.id]
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        for k, v in s.counts.items():
            out[f"{s.name}.{k}"] = out.get(f"{s.name}.{k}", 0) + v
    return out


# ---------------------------------------------------------------------------
# operations and passes
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One timed operation of a workload.

    run(tracer) does the work and returns its outputs; check(output,
    outputs) runs outside the timed region and returns a list of (module, message)
    problems, empty when every output is correct. work is the amount of
    the workload's work unit the operation completes.
    """

    label: str
    module: str
    run: Callable
    check: Callable
    work: float = 0.0


@dataclass
class Failure:
    op: str
    module: str
    message: str


@dataclass
class PassResult:
    wall_s: float
    op_s: dict          # label -> seconds, successful ops only
    work: float
    failures: list
    outputs: dict
    spans: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)    # reference kernel times
    op_ref: dict = field(default_factory=dict)   # label -> op time / ref
    wall_ref: float = math.nan


class ProgramFailure(RuntimeError):
    """A failure the program reported without raising in this process,
    such as a child exiting nonzero: message and blamed module."""

    def __init__(self, message: str, blame: str):
        super().__init__(message)
        self.blame = blame


def module_of(exc: BaseException, default: str) -> str:
    """The program module to blame for an exception: the one a
    ProgramFailure names, else the innermost frame inside the package,
    else the innermost traced call, else default."""
    if isinstance(exc, ProgramFailure):
        return exc.blame
    blamed = None
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename)
        if path.parent.name == PACKAGE and path.stem in MODULES:
            blamed = path.stem
    if blamed:
        return blamed
    head = getattr(exc, "perfbench_span", "").split(".", 1)[0]
    return head if head in MODULES else default


def first_line(exc: BaseException) -> str:
    """'ExcType: first line of the message' (just the message for a
    ProgramFailure, which already carries the program's error line)."""
    text = str(exc).strip().splitlines()
    if isinstance(exc, ProgramFailure):
        return text[0] if text else "program failure"
    return f"{type(exc).__name__}: {text[0]}" if text else type(exc).__name__


_REF: dict = {}


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of work that never touches the
    program, in the same mix as skewflow's own: an interpreter loop,
    small-vector numpy calls (the Gram-Schmidt pattern), two small dense
    factorizations and a 256x256 matrix product (the dense propagator
    pattern). Timed between operations, it tracks how fast the machine
    runs at that moment."""
    import numpy as np

    if not _REF:
        rng = np.random.default_rng(0)
        _REF["a"] = rng.standard_normal((100, 100))
        _REF["g"] = rng.standard_normal((256, 256))
        _REF["u"], _REF["v"], _REF["w"] = rng.standard_normal((3, 256))
    a, g, u, v, w = (_REF[k] for k in "aguvw")
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += i * 0.5
    for _ in range(1000):
        acc += float(np.dot(u * w, v))
    np.linalg.svd(a)
    np.linalg.solve(a, u[:100])
    g @ g @ g
    return time.perf_counter() - t0


def run_pass(ops, tracer, reference=None) -> PassResult:
    """Run every op once, timing each; then check every output.

    An op that raises, or whose output fails a check, is a failed op.
    Timing of failed ops is left out of op_s. outputs maps op labels to
    what the op returned (None when it raised). check(output, outputs)
    sees the whole pass, so one op may be checked against another.

    With a reference kernel, it is timed before every op and after the
    last one, outside the op timings and the pass wall time; op_ref gives
    each successful op's time in units of the mean of the reference
    times on either side of it, and wall_ref their sum over the pass.
    """
    timed, ref_s = [], []
    first_span = len(tracer.spans) if tracer.enabled else 0
    t_pass = time.perf_counter()
    with tracer.span("pass"):
        for op in ops:
            if reference is not None:
                ref_s.append(reference())
            t0 = time.perf_counter()
            try:
                with tracer.span(f"op:{op.label}"):
                    out, err = op.run(tracer), None
            except Exception as exc:  # a program failure, counted below
                out, err = None, exc
            timed.append((op, out, err, time.perf_counter() - t0))
    if reference is not None:
        ref_s.append(reference())
    wall = time.perf_counter() - t_pass - sum(ref_s)

    outputs = {op.label: out for op, out, _, _ in timed}
    failures, op_s, op_ref, work = [], {}, {}, 0.0
    for i, (op, out, err, dt) in enumerate(timed):
        if err is not None:
            failures.append(Failure(op.label, module_of(err, op.module),
                                    first_line(err)))
            continue
        try:
            problems = op.check(out, outputs)
        except Exception as exc:  # a malformed output fails its check
            problems = [(op.module, f"check raised {first_line(exc)}")]
        if problems:
            module, message = problems[0]
            failures.append(Failure(op.label, module, message))
            continue
        op_s[op.label] = dt
        if ref_s:
            op_ref[op.label] = dt / (0.5 * (ref_s[i] + ref_s[i + 1]))
        work += op.work
    spans = tracer.spans[first_span:] if tracer.enabled else []
    return PassResult(wall_s=wall, op_s=op_s, work=work, failures=failures,
                      outputs=outputs, spans=spans, ref_s=ref_s, op_ref=op_ref,
                      wall_ref=sum(op_ref.values()) if ref_s else math.nan)
