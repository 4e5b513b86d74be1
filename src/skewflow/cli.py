"""Command-line front door: ingest operator descriptors, run the standard
analyses and demos, emit machine-readable reports.

Every command reads one JSON operator descriptor, writes report.json (plus
trajectory.csv / separation.csv / residuals.csv where a time series or
residual matrix is produced) into --out, and exits 0 when all requested
checks passed, 2 on a verification failure, 1 on usage or format errors.
Reports are written with sorted keys and fixed 17-significant-digit
floats so identical (descriptor, options, seed) runs are byte-identical.
"""
from __future__ import annotations

import os


def _cap_threads():
    """Honor SKEWFLOW_THREADS before numpy/BLAS get a chance to spin up."""
    v = os.environ.get("SKEWFLOW_THREADS")
    if v:
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(name, v)


_cap_threads()

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .evolution import (_DENSE_EXP_LIMIT, adjoint_generator, evolve_cayley,
                        evolve_exact, steps_to_horizon)
from .operators import (
    PinnedDomain,
    RestrictedOperator,
    check_m_dissipative,
    check_skew_symmetry,
    deficiency,
    extension_coupling,
    restriction_defect,
)
from .oracles import (
    gaussian_profile,
    halfline_case,
    interval_shift_semigroup,
    minimal_derivative_operator,
)
from .spaces import Space, subspace_angle
from .transport import (
    START_BLOB,
    build_transport_operator,
    field_from_stream,
    gaussian_blob,
    read_stream_file,
)
from .weak import (
    GS_MIN_STEPS,
    coupled_extension,
    forward_generator,
    gs_residual,
    semigroup_multiplicity_demo,
    splice,
    witness_nonuniqueness,
)


class CliError(Exception):
    """Usage or input-format problem (exit code 1)."""


# restriction defects above this fail a check
_SKEW_TOL = 1e-10
# most floats one stored trajectory ((steps + 1) x dim) or one dense
# dim x dim action may hold: 256 MiB
_MAX_STATE_FLOATS = 2 ** 25


# ---------------------------------------------------------------------------
# canonical report rendering
# ---------------------------------------------------------------------------

def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise ValueError("non-finite value in report payload")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + canonical_json(v, indent + 1)
                           for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + canonical_json(v, indent + 1)
            for k, v in items
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot render {type(obj).__name__} into a report")


def write_report(out_dir: Path, payload: dict) -> Path:
    """Render payload first, so a payload canonical_json rejects writes
    nothing (CliError)."""
    try:
        text = canonical_json(payload) + "\n"
    except ValueError as exc:
        raise CliError(f"cannot write the report: {exc}")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    path.write_text(text, encoding="ascii")
    return path


def _write_csv(path: Path, header: str, rows) -> Path:
    """One header line, then each row's cells: a label as it is, a float
    at 17 significant digits."""
    with open(path, "w", encoding="ascii") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(v if isinstance(v, str) else format(v, ".17g")
                             for v in row) + "\n")
    return path


def write_trajectory_csv(out_dir: Path, traj) -> Path:
    """Time, norm and state of every (size // 512)-th sample (every one
    for short runs) plus the last: at most 1023 rows."""
    stride = max(1, traj.times.size // 512)
    idx = np.arange(0, traj.times.size, stride)
    if idx[-1] != traj.times.size - 1:
        idx = np.append(idx, traj.times.size - 1)
    norms = traj.norms()[idx]
    rows = np.column_stack([traj.times[idx], norms, traj.states[idx]])
    ncomp = traj.states.shape[1]
    header = "t,norm," + ",".join(f"c{j}" for j in range(ncomp))
    return _write_csv(out_dir / "trajectory.csv", header, rows)


def write_residuals_csv(out_dir: Path, report) -> Path:
    return _write_csv(out_dir / "residuals.csv",
                      "spatial," + ",".join(report.profile_labels),
                      ([lab, *row] for lab, row in
                       zip(report.spatial_labels, report.residuals)))


# ---------------------------------------------------------------------------
# descriptor ingestion
# ---------------------------------------------------------------------------

def _finite_array(value, name: str) -> np.ndarray:
    """value as a float array; CliError unless it is numeric and finite."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise CliError(f"{name} must be numeric")
    if not np.isfinite(a).all():
        raise CliError(f"{name} must be an array of finite numbers")
    return a


def parse_operator_descriptor(path: Path) -> RestrictedOperator:
    """Build the operator a JSON descriptor file describes.

    Layout: {"space": {...}?, "operator": {"kind": ...}, "domain": {...}?}
    with kinds "matrix" (row-major "data"), "minimal_derivative" ("n"),
    and "transport" ("stream" file path, "mode"). Domain modes: "full"
    (default for matrix/transport) or "columns" with basis vectors as
    rows. minimal_derivative carries its own restricted domain.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CliError(f"descriptor file not found: {path}")
    except OSError as exc:
        raise CliError(f"cannot read descriptor {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise CliError(f"descriptor is not UTF-8 text ({path}): {exc.reason}")
    except json.JSONDecodeError as exc:
        raise CliError(f"descriptor is not valid JSON ({path} line {exc.lineno}): "
                       f"{exc.msg}")
    if not isinstance(raw, dict) or "operator" not in raw:
        raise CliError('descriptor must be an object with an "operator" entry')
    for key in ("operator", "space", "domain"):
        if key in raw and not isinstance(raw[key], dict):
            raise CliError(f'descriptor entry "{key}" must be an object')
    label = raw.get("label", "matrix")
    if not isinstance(label, str):
        raise CliError('descriptor entry "label" must be a string')
    opdesc = raw["operator"]
    kind = opdesc.get("kind")

    if kind == "minimal_derivative":
        n = opdesc.get("n")
        if not isinstance(n, int) or n < 8:
            raise CliError('operator.n must be an integer >= 8 '
                           'for kind "minimal_derivative"')
        if n > _MAX_STATE_FLOATS:
            raise CliError(f"operator.n = {n} exceeds {_MAX_STATE_FLOATS}, "
                           "the most floats one state may hold")
        return minimal_derivative_operator(n)

    if kind == "transport":
        stream = opdesc.get("stream")
        if not isinstance(stream, str):
            raise CliError('operator.stream must name a stream file '
                           'for kind "transport"')
        stream_path = (Path(path).parent / stream).resolve()
        if not stream_path.exists():
            raise CliError(f"stream file not found: {stream_path}")
        try:
            grid, psi = read_stream_file(stream_path)
            fld = field_from_stream(grid, psi)
            return build_transport_operator(
                fld, mode=opdesc.get("mode", "periodic_full"))
        except OSError as exc:
            raise CliError(f"cannot read stream file {stream_path}: "
                           f"{exc.strerror}")
        except ValueError as exc:
            raise CliError(f"bad transport descriptor: {exc}")

    if kind == "matrix":
        M = _finite_array(opdesc.get("data"), "operator.data")
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
            raise CliError(f"operator.data must be square, got {M.shape}")
        n = M.shape[0]
        space_cfg = raw.get("space", {})
        if "weights" in space_cfg:
            w = _finite_array(space_cfg["weights"], "space.weights")
            if w.shape != (n,):
                raise CliError(f"space.weights must have length {n}")
        else:
            w = np.ones(n)
        dom_cfg = raw.get("domain", {"mode": "full"})
        mode = dom_cfg.get("mode", "full")
        if mode == "full":
            domain = None
        elif mode == "columns":
            cols = _finite_array(dom_cfg.get("columns"), "domain.columns")
            if cols.ndim != 2 or cols.shape[1] != n:
                raise CliError("domain.columns must be basis vectors of "
                               f"length {n} (one per row)")
            domain = cols.T
        else:
            raise CliError(f"unknown domain.mode {mode!r}")
        try:
            return RestrictedOperator(space=Space(dim=n, weights=w), action=M,
                                      domain=domain,
                                      label=label)
        except ValueError as exc:
            raise CliError(f"bad matrix descriptor: {exc}")

    raise CliError(f"unknown operator.kind {kind!r} "
                   "(expected matrix | minimal_derivative | transport)")


def _default_u0(op: RestrictedOperator, seed: int) -> np.ndarray:
    """Gaussian on the model grid when there is one, else a seeded unit
    vector — always deterministic for a given (descriptor, seed)."""
    meta = op.meta
    if meta.get("kind") == "minimal_derivative":
        u0 = gaussian_profile(meta["grid"])
    elif meta.get("kind") == "transport":
        u0 = gaussian_blob(meta["grid"], *START_BLOB)
    else:
        rng = np.random.default_rng(seed)
        u0 = rng.standard_normal(op.dim)
    return u0 / op.space.norm(u0)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _steps(args, dim: int, kept: int = 1) -> tuple[float, int]:
    """The step that lands on --horizon exactly and the step count
    (evolution.steps_to_horizon). A run whose kept trajectories of
    stored states would exceed _MAX_STATE_FLOATS is a usage error,
    raised before anything is built."""
    ratio = args.horizon / args.dt
    if kept * (ratio + 1.0) * dim > _MAX_STATE_FLOATS:
        held = f" in {kept} trajectories" if kept > 1 else ""
        raise CliError(f"--horizon / --dt = {ratio:.3g} steps of a "
                       f"{dim}-vector{held} exceeds {_MAX_STATE_FLOATS} "
                       "stored floats")
    return steps_to_horizon(args.horizon, args.dt)


def _weak_steps(args, op: RestrictedOperator, kept: int) -> tuple[float, int]:
    """_steps for the commands whose runs gs_residual checks, kept
    trajectories at a time, after _dense_size_guard on a restricted op
    whose forward generator is dense (_dense_generator). Fewer than
    weak.GS_MIN_STEPS steps is a usage error, raised before anything is
    built."""
    if not op.is_full_domain and _dense_generator(op):
        _dense_size_guard(args, op)
    dt, nsteps = _steps(args, op.dim, kept)
    if nsteps < GS_MIN_STEPS:
        raise CliError(f"--horizon / --dt gives {nsteps} step(s); the weak "
                       f"residual needs at least {GS_MIN_STEPS}")
    return dt, nsteps


def _dense_generator(op: RestrictedOperator) -> bool:
    """Whether forward_generator(op) is a dense action: on the seam route,
    on explicit-column domains and for a dense action; the skew
    completion of a sparse action on a pinned domain stays sparse."""
    return ("seam" in op.meta or not isinstance(op.domain, PinnedDomain)
            or isinstance(op.action, np.ndarray))


def _dense_size_guard(args, op: RestrictedOperator) -> None:
    """Refuse a command that builds a dense dim x dim action of more than
    _MAX_STATE_FLOATS floats, before anything is built."""
    if op.dim ** 2 > _MAX_STATE_FLOATS:
        raise CliError(f"{args.command} builds a dense {op.dim} x {op.dim} "
                       f"action, more than {_MAX_STATE_FLOATS} floats")


def cmd_analyze(args, op) -> tuple[int, dict]:
    skew = check_skew_symmetry(op)
    # defect counts exist only for an action that is skew on its domain;
    # a refusal by deficiency all the same goes into the report
    dd, message = None, None
    if skew.passed:
        try:
            dd = deficiency(op)
        except ValueError as exc:
            message = str(exc)
    # 32 seeded domain probes u: | |u + Mu| - |u - Mu| | / |u|
    rng = np.random.default_rng(args.seed)
    U = op.domain_vector(rng.standard_normal((32, op.domain_dim)).T)
    MU = op.action @ U
    norms = op.space.norms
    iso = float(np.max(np.abs(norms(U + MU) - norms(U - MU)) / norms(U)))
    payload = {
        "command": "analyze",
        "label": op.label,
        "dim": op.dim,
        "domain_dim": op.domain_dim,
        "skew": {"max_defect": skew.max_defect, "pass": skew.passed},
        "d_plus": dd.d_plus if dd else None,
        "d_minus": dd.d_minus if dd else None,
        "cayley_isometry_defect": iso,
        "pass": dd is not None,
    }
    if message:
        payload["message"] = message
    return (0 if payload["pass"] else 2), payload


def cmd_extend(args, op) -> tuple[int, dict]:
    _dense_size_guard(args, op)
    theta = args.theta
    ext, route = coupled_extension(op, theta)
    skew = check_skew_symmetry(ext)
    rdef = restriction_defect(ext, op) if not op.is_full_domain else 0.0
    neg = RestrictedOperator(space=ext.space, action=-ext.dense_action(),
                             domain=None, label=f"-({ext.label})")
    mdiss = check_m_dissipative(neg, seed=args.seed)
    payload = {
        "command": "extend",
        "label": ext.label,
        "route": route,
        "theta": theta,
        "full_domain": ext.is_full_domain,
        "skew": {"max_defect": skew.max_defect, "pass": skew.passed},
        "restriction_defect": rdef,
        "m_dissipative_negative": {"form_max": mdiss.form_max,
                                   "pass": mdiss.passed},
    }
    if not op.is_full_domain:
        V, leak = extension_coupling(op, ext)
        payload["coupling_matrix"] = V
        payload["coupling_subspace_defect"] = leak
    ok = (rdef <= _SKEW_TOL
          and (skew.passed if abs(abs(theta) - 1.0) < 1e-12 else mdiss.passed))
    payload["pass"] = bool(ok)
    return (0 if ok else 2), payload


def cmd_evolve(args, op) -> tuple[int, dict]:
    if not op.is_full_domain:
        raise CliError("evolve needs a full-domain generator — "
                       "extend the operator first")
    if args.method == "exact" and op.dim > _DENSE_EXP_LIMIT:
        raise CliError(f"evolve --method exact forms a dense {op.dim} x "
                       f"{op.dim} exponential; the limit is "
                       f"{_DENSE_EXP_LIMIT}")
    dt, nsteps = _steps(args, op.dim)
    u0 = _default_u0(op, args.seed)
    if args.method == "exact":
        traj = evolve_exact(op, u0, dt * np.arange(nsteps + 1))
    else:
        traj = evolve_cayley(op, u0, dt, nsteps)
    norms = traj.norms()
    drift = float(np.max(np.abs(norms - norms[0])) / norms[0])
    growth = float(np.max(norms) / norms[0])
    write_trajectory_csv(args.out, traj)
    payload = {
        "command": "evolve",
        "label": op.label,
        "method": traj.stepper_meta["method"],
        "dt": dt,
        "horizon": float(traj.times[-1]),
        "nsteps": traj.nsteps,
        "norm_initial": float(norms[0]),
        "norm_final": float(norms[-1]),
        "norm_drift": drift,
        "max_growth": growth,
        "contractive": bool(np.all(np.diff(norms) <= 1e-12 * norms[0])),
        "pass": True,
    }
    return 0, payload


def cmd_verify(args, op) -> tuple[int, dict]:
    dt, nsteps = _weak_steps(args, op, 1)
    gen = forward_generator(op)
    u0 = _default_u0(op, args.seed)
    traj = evolve_cayley(gen, u0, dt, nsteps)
    rep = gs_residual(traj, u0, op, tol=args.gs_tol, seed=args.seed)
    write_residuals_csv(args.out, rep)
    payload = {
        "command": "verify",
        "label": op.label,
        "generator": gen.label,
        "dt": float(dt),
        "horizon": float(args.horizon),
        "max_residual": rep.max_residual,
        "quadrature_error_estimate": rep.quadrature_error_estimate,
        "tol": rep.tol,
        "residuals": rep.residuals,
        "pass": bool(rep.passed),
    }
    return (0 if rep.passed else 2), payload


def cmd_witness(args, op) -> tuple[int, dict]:
    # the semigroup, witness and splice trajectories
    dt, nsteps = _weak_steps(args, op, 3)
    # an action that is not skew on its domain is refused here (an error
    # report), not reported unique below
    deficiency(op)
    try:
        wit = witness_nonuniqueness(op)
    except ValueError as exc:
        payload = {"command": "witness", "label": op.label,
                   "unique": True, "message": str(exc), "pass": False}
        return 2, payload
    gen = forward_generator(op)
    semi_traj = evolve_cayley(gen, wit.u0, dt, nsteps)
    wit_traj = wit.trajectory(semi_traj.times)
    rep_w = gs_residual(wit_traj, wit.u0, op, tol=args.gs_tol, seed=args.seed)
    rep_s = gs_residual(semi_traj, wit.u0, op, tol=args.gs_tol,
                        seed=args.seed)
    t_probe = min(1.0, args.horizon)
    d_at_1 = float(op.space.norm(wit_traj.sample(t_probe)
                                 - semi_traj.sample(t_probe)))
    spl_traj = splice(wit, gen, semi_traj, args.t0)
    d_splice = float(op.space.norm(spl_traj.final - wit_traj.final))
    write_trajectory_csv(args.out, wit_traj)
    ok = rep_w.passed and rep_s.passed
    payload = {
        "command": "witness",
        "label": op.label,
        "unique": False,
        "witness_residual": rep_w.max_residual,
        "semigroup_residual": rep_s.max_residual,
        "tol": args.gs_tol,
        "distance_at_t1": d_at_1,
        "splice_t0": args.t0,
        "splice_distance_at_horizon": d_splice,
        "pass": bool(ok),
    }
    return (0 if ok else 2), payload


def cmd_multiplicity(args, op) -> tuple[int, dict]:
    # the demo takes the same steps, and holds two branches and their
    # difference
    _weak_steps(args, op, 3)
    try:
        demo = semigroup_multiplicity_demo(op, horizon=args.horizon,
                                           dt=args.dt)
    except ValueError as exc:
        payload = {"command": "multiplicity", "label": op.label,
                   "message": str(exc), "pass": False}
        return 2, payload
    rep_p = gs_residual(demo.traj_plus, demo.u0, op, tol=args.gs_tol,
                        seed=args.seed)
    rep_m = gs_residual(demo.traj_minus, demo.u0, op, tol=args.gs_tol,
                        seed=args.seed)
    _write_csv(args.out / "separation.csv", "t,separation",
               np.column_stack([demo.traj_plus.times, demo.distances]))
    ok = demo.separation >= 0.1 and rep_p.passed and rep_m.passed
    payload = {
        "command": "multiplicity",
        "label": op.label,
        "branches": list(demo.labels),
        "separation": demo.separation,
        "residual_plus": rep_p.max_residual,
        "residual_minus": rep_m.max_residual,
        "tol": args.gs_tol,
        "pass": bool(ok),
    }
    return (0 if ok else 2), payload


def cmd_transport_run(args, op) -> tuple[int, dict]:
    if op.meta.get("kind") != "transport":
        raise CliError("transport-run expects an operator of kind transport")
    if not op.is_full_domain:
        raise CliError("transport-run drives the periodic_full mode")
    dt, nsteps = _steps(args, op.dim)
    gen = adjoint_generator(op)
    u0 = _default_u0(op, args.seed)
    traj = evolve_cayley(gen, u0, dt, nsteps)
    norms = traj.norms()
    drift = float(np.max(np.abs(norms - norms[0])) / norms[0])
    area = op.space.weights[0]
    mass = area * traj.states.sum(axis=1)
    mass_drift = float(np.max(np.abs(mass - mass[0])))
    write_trajectory_csv(args.out, traj)
    ok = drift <= 1e-8 and mass_drift <= 1e-8 * max(1.0, abs(float(mass[0])))
    payload = {
        "command": "transport-run",
        "label": op.label,
        "dt": float(dt),
        "horizon": float(args.horizon),
        "nsteps": nsteps,
        "energy_drift": drift,
        "mass_drift": mass_drift,
        "pass": bool(ok),
    }
    return (0 if ok else 2), payload


def cmd_oracle_check(args, op) -> tuple[int, dict]:
    checks = {}
    # twisted shifts: closed-form values at one full wrap
    n = 64
    x = np.arange(n) / n
    u0 = gaussian_profile(x)
    for theta, expect in ((1.0, u0), (-1.0, -u0), (0.0, np.zeros(n))):
        got = interval_shift_semigroup(theta, 1.0, u0)
        checks[f"shift_theta_{theta:+.0f}_defect"] = float(
            np.max(np.abs(got - expect)))
    # half-line defect counts and the witness identity
    right = halfline_case("right")
    left = halfline_case("left")
    checks["halfline_right_pair"] = [right.d_plus, right.d_minus]
    checks["halfline_left_pair"] = [left.d_plus, left.d_minus]
    wk = left.weak_identity_residual()
    checks["halfline_left_weak_identity"] = wk
    # defect-direction angles against the exponentials
    angles = {}
    for m in (32, 64, 128):
        model = minimal_derivative_operator(m)
        dd = deficiency(model)
        grid = model.meta["grid"]
        angles[str(m)] = {
            "n_minus_vs_exp": subspace_angle(dd.n_minus_basis[:, 0],
                                             np.exp(grid), model.space),
            "n_plus_vs_exp_neg": subspace_angle(dd.n_plus_basis[:, 0],
                                                np.exp(-grid), model.space),
        }
    checks["defect_angles"] = angles
    a32, a64, a128 = (max(a.values()) for a in angles.values())
    ok = (max(checks["shift_theta_+1_defect"],
              checks["shift_theta_-1_defect"],
              checks["shift_theta_+0_defect"]) <= 1e-12
          and checks["halfline_right_pair"] == [1, 0]
          and checks["halfline_left_pair"] == [0, 1]
          and wk <= 1e-6
          and a128 <= 0.1 and a128 < a64 < a32)
    payload = {"command": "oracle-check", "checks": checks, "pass": bool(ok)}
    return (0 if ok else 2), payload


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _number(cast, test, what: str):
    """argparse type: text cast to a finite number that passes test, else
    the refusal "'<text>' is not <what>"."""
    def parse(text: str):
        try:
            x = cast(text)
        except ValueError:
            x = math.nan
        # false for NaN, and exact for an int of any size
        if not (-math.inf < x < math.inf and test(x)):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return x
    return parse


_positive = _number(float, lambda x: x > 0, "a finite number > 0")

# argparse spec of every flag a command can take
_FLAGS = {
    "--input": dict(required=True, type=Path,
                    help="operator descriptor (JSON)"),
    "--out": dict(required=True, type=Path,
                  help="output directory for report.json and CSVs"),
    "--seed": dict(type=_number(int, lambda x: x >= 0, "an integer >= 0"),
                   default=0),
    "--gs-tol": dict(type=_positive, default=1e-5),
    "--dt": dict(type=_positive, default=1e-3),
    "--horizon": dict(type=_positive, default=2.0),
    "--method": dict(choices=("exact", "cayley"), default="cayley"),
    "--theta": dict(type=_number(float, lambda x: abs(x) <= 1, "in [-1, 1]"),
                    required=True, help="coupling parameter in [-1, 1]"),
    "--t0": dict(type=_number(float, lambda x: x >= 0, "a finite number >= 0"),
                 default=0.5,
                 help="splice time for the spliced witness (>= 0)"),
}

# command -> (handler, help, the flags it reads besides --input/--out/--seed)
COMMANDS = {
    "analyze": (cmd_analyze, "skewness, defect dimensions, isometry probe",
                ()),
    "extend": (cmd_extend, "build and check a coupled extension (--theta)",
               ("--theta",)),
    "evolve": (cmd_evolve, "time-step a full-domain generator",
               ("--dt", "--horizon", "--method")),
    "verify": (cmd_verify, "weak-identity residuals of the forward flow",
               ("--dt", "--horizon", "--gs-tol")),
    "witness": (cmd_witness,
                "exponential witness vs contractive flow (--t0 splice)",
                ("--dt", "--horizon", "--gs-tol", "--t0")),
    "multiplicity": (cmd_multiplicity,
                     "two maximal couplings from the same initial data",
                     ("--dt", "--horizon", "--gs-tol")),
    "transport-run": (cmd_transport_run,
                      "conservation run for a transport operator",
                      ("--dt", "--horizon")),
    "oracle-check": (cmd_oracle_check,
                     "closed-form self-checks (no operator needed)",
                     ()),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="skewflow",
        description=__doc__.splitlines()[0] if __doc__ else None,
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text, own) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        common = ("--out", "--seed")
        if name != "oracle-check":
            common = ("--input",) + common
        for flag in common + own:
            sp.add_argument(flag, **_FLAGS[flag])
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 2 for
        # verification failures, so remap
        return 0 if exc.code in (0, None) else 1

    handler = COMMANDS[args.command][0]
    try:
        # floating-point overflow and invalid results reach the verdict
        # as non-finite values, which the steppers name and a report
        # refuses to render, so numpy's warnings would only add stderr
        # lines before the one that says what went wrong
        with np.errstate(all="ignore"):
            op = (parse_operator_descriptor(args.input)
                  if "input" in args else None)
            try:
                args.out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise CliError(f"cannot use --out {args.out}: "
                               f"{exc.strerror}")
            code, payload = handler(args, op)
            payload["seed"] = args.seed
            write_report(args.out, payload)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        # verification-level failure surfaced as an exception
        payload = {"command": args.command, "error": str(exc), "pass": False}
        write_report(args.out, payload)
        print(f"{args.command}: fail — {exc}", file=sys.stderr)
        return 2

    status = "pass" if payload.get("pass", code == 0) else "fail"
    extra = payload.get("message", "")
    line = f"{args.command}: {status}"
    if extra:
        line += f" — {extra}"
    print(line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
