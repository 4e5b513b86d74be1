"""The benchmark's workloads: seeded inputs, the timed operations, and
the checks each operation's outputs must pass.

Every workload draws all of its inputs from np.random.default_rng(seed)
during set-up. The seed changes values only, never problem sizes or the
order of operations, so runs with different seeds do the same work and
allocate memory in the same pattern. Every call the
benchmark makes into skewflow goes through tracer.call, which records a
span in traced runs and is a plain call otherwise.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from harness import Op, ProgramFailure, first_line, module_of

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

RATIO_TOL = 1.0 + 1e-12     # per-step norm ratio bound (README)
DRIFT_TOL = 1e-10           # norm drift bound for |theta| = 1 flows
SKEW_TOL = 1e-10            # skewness and restriction-defect bound
SHIFT_TOL = 0.05            # twisted-shift mismatch at n = 128 (acceptance 10)
REFINE_MIN = 3.0            # rotation error ratio when the size doubles


def sf(module: str):
    return importlib.import_module(f"skewflow.{module}")


def _norm_problems(traj, module: str, exact_norm: bool) -> list:
    norms = traj.norms()
    ratio = float(np.max(norms[1:] / norms[:-1]))
    if not ratio <= RATIO_TOL:
        return [(module, f"per-step norm ratio {ratio:.17g} > 1 + 1e-12")]
    drift = float(np.max(np.abs(norms - norms[0])) / norms[0])
    if exact_norm and not drift <= DRIFT_TOL:
        return [(module, f"norm drift {drift:.3e} > {DRIFT_TOL:g}")]
    return []


def _skew_ok(report, label: str, exact: bool = False) -> list:
    if exact and report.max_defect != 0.0:
        return [("operators", f"{label}: max_defect {report.max_defect!r} != 0.0")]
    if not report.max_defect <= SKEW_TOL:
        return [("operators", f"{label}: max_defect {report.max_defect:.3e}")]
    return []


def _weighted_ring(weights, coeff):
    """W^{-1} K for the periodic antisymmetric bidiagonal K with the given
    couplings: a W-skew matrix for the diagonal Gram W = diag(weights)."""
    n = weights.size
    j = np.arange(n)
    K = np.zeros((n, n))
    K[j, (j + 1) % n] = -coeff
    K[(j + 1) % n, j] = coeff
    return K / weights[:, None]


def _coordinate_columns(n, pins):
    """Unit columns for every coordinate except the pinned ones."""
    keep = np.setdiff1d(np.arange(n), pins)
    columns = np.zeros((n, keep.size))
    columns[keep, np.arange(keep.size)] = 1.0
    return columns


def _negative(ops_mod, tr, ext):
    """-ext as a full-domain generator (dissipative for a contraction)."""
    return tr.call("operators.RestrictedOperator", ops_mod.RestrictedOperator,
                   space=ext.space, action=-ext.dense_action())


class Workload:
    """A fixed, seeded list of operations run pass after pass.

    min_passes passes are always run, so every run has at least
    min_passes * len(ops) timed operations; the reported tail percentile
    is chosen from that guaranteed count. work_unit names what op.work
    counts; oracle_name names the accuracy metric oracle_error stands
    for (None when the workload has none).
    """

    name = ""
    why = ""
    modules: tuple = ()
    min_passes = 3
    work_unit = ""
    oracle_name = None
    peak_rss_children = False
    cli_layers = False      # report the cli and weak per-layer metrics

    def setup(self, seed: int, tr) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def oracle_error(self, outputs: dict):
        return None

    def layer_extras(self) -> dict:
        """Per-layer numbers measured outside the passes (traced runs)."""
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# defect-scan
# ---------------------------------------------------------------------------

class DefectScan(Workload):
    name = "defect-scan"
    why = ("Python MGS construction and dense-SVD deficiency do nearly all "
           "the work over a seeded mix of restricted operators; nothing is "
           "time-stepped.")
    modules = ("spaces", "operators", "oracles", "transport")
    work_unit = "dim"
    oracle_name = "defect_angle"

    WRAPPED = (256, 384, 512)
    INTERIOR = (16, 20, 24)
    EXPLICIT = (320, 3)  # (n, pinned coordinates) of the weighted operator

    def sizes(self):
        return {"wrapped_n": list(self.WRAPPED),
                "interior_cells": [f"{m}x{m}" for m in self.INTERIOR],
                "explicit_columns_n": self.EXPLICIT[0],
                "explicit_columns_codim": self.EXPLICIT[1],
                "cayley_n": min(self.WRAPPED)}

    def setup(self, seed, tr):
        self.O, self.R = sf("operators"), sf("oracles")
        self.S, self.T = sf("spaces"), sf("transport")
        rng = np.random.default_rng(seed)
        ops = []
        for n in self.WRAPPED:
            ops.append(self._wrapped_op(n, float(rng.uniform(-0.9, 0.9)),
                                        with_cayley=n == min(self.WRAPPED)))
        n, k = self.EXPLICIT
        weights = rng.uniform(0.5, 1.5, n)
        coeff = rng.uniform(0.5, 1.5, n)
        pins = rng.choice(n, size=k, replace=False)
        ops.append(self._explicit_op(weights, coeff, pins,
                                     float(rng.uniform(-0.9, 0.9))))
        for m in self.INTERIOR:
            a = rng.standard_normal((3, 3))
            xs = np.linspace(0.0, 1.0, m + 1)
            kk = np.arange(1, 4)
            sx = np.sin(np.pi * kk[:, None] * xs[None, :])   # (3, m+1)
            scale = 1.0 / (kk[:, None] ** 2 + kk[None, :] ** 2)
            psi = 0.1 * sx.T @ (a * scale) @ sx               # (m+1, m+1)
            ops.append(self._interior_op(m, psi, float(rng.uniform(-0.9, 0.9))))
        self._ops = ops

    def ops(self):
        return self._ops

    def _wrapped_op(self, n, v, with_cayley):
        O, R, S = self.O, self.R, self.S

        def run(tr):
            op = tr.call("oracles.minimal_derivative_operator",
                         R.minimal_derivative_operator, n)
            skew = tr.call("operators.check_skew_symmetry",
                           O.check_skew_symmetry, op)
            dd = tr.call("operators.deficiency", O.deficiency, op,
                         counts={"dim": n})
            ext = tr.call("operators.extend", O.extend, op, v)
            seams = {th: tr.call("operators.seam_extension",
                                 O.seam_extension, op, th)
                     for th in (1.0, -1.0)}
            couplings = {th: tr.call("operators.extension_coupling",
                                     O.extension_coupling, op, s)
                         for th, s in seams.items()}
            mdiss = tr.call("operators.check_m_dissipative",
                            O.check_m_dissipative, _negative(O, tr, ext))
            x = op.meta["grid"]
            angle = max(
                tr.call("spaces.subspace_angle", S.subspace_angle,
                        dd.n_minus_basis[:, 0], np.exp(x), op.space),
                tr.call("spaces.subspace_angle", S.subspace_angle,
                        dd.n_plus_basis[:, 0], np.exp(-x), op.space))
            cay = (tr.call("operators.cayley", O.cayley, op)
                   if with_cayley else None)
            return dict(op=op, skew=skew, dd=dd, ext=ext, seams=seams,
                        couplings=couplings, mdiss=mdiss, angle=angle, cay=cay)

        def check(r, _):
            op = r["op"]
            p = _skew_ok(r["skew"], "domain skewness")
            if (r["dd"].d_plus, r["dd"].d_minus) != (2, 2):
                p.append(("operators", f"defect pair "
                          f"{(r['dd'].d_plus, r['dd'].d_minus)} != (2, 2)"))
            if not r["ext"].meta["restriction_defect"] <= SKEW_TOL:
                p.append(("operators", "extend restriction defect "
                          f"{r['ext'].meta['restriction_defect']:.3e}"))
            for th, s in r["seams"].items():
                p += _skew_ok(O.check_skew_symmetry(s), f"seam {th:+g}",
                              exact=True)
                rd = O.restriction_defect(s, op)
                if not rd <= SKEW_TOL:
                    p.append(("operators", f"seam {th:+g} restriction "
                              f"defect {rd:.3e}"))
                V, leak = r["couplings"][th]
                orth = float(np.max(np.abs(V.T @ V - np.eye(V.shape[1]))))
                if not (leak <= 1e-10 and orth <= 1e-10):
                    p.append(("operators", f"seam {th:+g} coupling leak "
                              f"{leak:.2e}, orthogonality {orth:.2e}"))
            if not r["mdiss"].passed:
                p.append(("operators", "negative of extend(op, v) is not "
                          f"m-dissipative (form_max {r['mdiss'].form_max:.3e})"))
            if not r["angle"] <= 0.1:
                p.append(("operators", f"defect angle {r['angle']:.4f} > 0.1"))
            if r["cay"] is not None:
                Q, W = r["cay"].q_images, op.space.weights
                iso = float(np.max(np.abs(Q.T @ (W[:, None] * Q)
                                          - np.eye(Q.shape[1]))))
                if not iso <= SKEW_TOL:
                    p.append(("operators", f"cayley isometry defect {iso:.3e}"))
            return p

        label = f"wrapped n={n}" + (" +cayley" if with_cayley else "")
        return Op(label, "operators", run, check, work=n)

    def _explicit_op(self, weights, coeff, pins, v):
        O, S = self.O, self.S
        n = weights.size
        action = _weighted_ring(weights, coeff)
        columns = _coordinate_columns(n, pins)
        codim = pins.size

        def run(tr):
            space = tr.call("spaces.Space", S.Space, dim=n, weights=weights)
            op = tr.call("operators.RestrictedOperator", O.RestrictedOperator,
                         space=space, action=action, domain=columns)
            skew = tr.call("operators.check_skew_symmetry",
                           O.check_skew_symmetry, op)
            dd = tr.call("operators.deficiency", O.deficiency, op,
                         counts={"dim": n})
            ext = tr.call("operators.extend", O.extend, op, v)
            mdiss = tr.call("operators.check_m_dissipative",
                            O.check_m_dissipative, _negative(O, tr, ext))
            return dict(skew=skew, dd=dd, ext=ext, mdiss=mdiss)

        return Op(f"explicit-columns n={n}", "operators", run,
                  self._restricted_check(codim), work=n)

    def _interior_op(self, m, psi, v):
        O, T = self.O, self.T

        def run(tr):
            grid = tr.call("transport.Grid2D", T.Grid2D, m, m)
            fld = tr.call("transport.field_from_stream", T.field_from_stream,
                          grid, psi)
            op = tr.call("transport.build_transport_operator.interior",
                         T.build_transport_operator, fld,
                         mode="interior_domain")
            skew = tr.call("operators.check_skew_symmetry",
                           O.check_skew_symmetry, op)
            dd = tr.call("operators.deficiency", O.deficiency, op,
                         counts={"dim": m * m})
            ext = tr.call("operators.extend", O.extend, op, v)
            mdiss = tr.call("operators.check_m_dissipative",
                            O.check_m_dissipative, _negative(O, tr, ext))
            return dict(fld=fld, op=op, skew=skew, dd=dd, ext=ext,
                        mdiss=mdiss)

        base_check = self._restricted_check(None)

        def check(r, outputs):
            div = float(np.max(np.abs(r["fld"].divergence())))
            if not div <= 1e-12 * max(1.0, r["fld"].max_speed):
                return [("transport", f"divergence {div:.3e}")]
            return base_check(r, outputs)

        return Op(f"interior {m}x{m}", "transport", run, check, work=m * m)

    @staticmethod
    def _restricted_check(codim):
        def check(r, _):
            p = _skew_ok(r["skew"], "domain skewness")
            want = codim if codim is not None else r["op"].codim
            got = (r["dd"].d_plus, r["dd"].d_minus)
            if got != (want, want):
                p.append(("operators", f"defect pair {got} != ({want}, {want})"))
            if not r["ext"].meta["restriction_defect"] <= SKEW_TOL:
                p.append(("operators", "extend restriction defect "
                          f"{r['ext'].meta['restriction_defect']:.3e}"))
            if not r["mdiss"].passed:
                p.append(("operators", "negative of extend(op, v) is not "
                          f"m-dissipative (form_max {r['mdiss'].form_max:.3e})"))
            return p

        return check

    def oracle_error(self, outputs):
        out = outputs.get(f"wrapped n={max(self.WRAPPED)}")
        return None if out is None else float(out["angle"])


# ---------------------------------------------------------------------------
# wrapped-flow
# ---------------------------------------------------------------------------

class WrappedFlow(Workload):
    name = "wrapped-flow"
    why = ("Dense propagators dominate: skew and non-skew evolve_exact and "
           "10^4-step dense Cayley on the n=256 seam extensions; operators "
           "appear only as the closed-form seam extension.")
    modules = ("operators", "oracles", "evolution")
    work_unit = "samples"
    oracle_name = "shift_error"

    N, N_SHIFT = 256, 128
    EXACT_SAMPLES, NONSKEW_SAMPLES = 2001, 65
    CAYLEY_STEPS, SHIFT_STEPS, DT = 10_000, 2000, 1e-3
    SHIFT_TIMES = (0.5, 1.0, 1.5, 2.0)

    def sizes(self):
        return {"n": self.N, "shift_n": self.N_SHIFT,
                "exact_samples": self.EXACT_SAMPLES,
                "nonskew_samples": self.NONSKEW_SAMPLES,
                "cayley_steps": self.CAYLEY_STEPS,
                "shift_steps": self.SHIFT_STEPS, "dt": self.DT,
                "theta_lossy": self.theta}

    def setup(self, seed, tr):
        O, R = sf("operators"), sf("oracles")
        E = self.E = sf("evolution")
        self.R = R
        rng = np.random.default_rng(seed)
        self.theta = float(rng.uniform(-0.9, 0.9))
        thetas = (1.0, -1.0, self.theta)
        self.gens, self.u0 = {}, {}
        for n in (self.N, self.N_SHIFT):
            op = tr.call("oracles.minimal_derivative_operator",
                         R.minimal_derivative_operator, n)
            u0 = tr.call("oracles.gaussian_profile", R.gaussian_profile,
                         op.meta["grid"])
            self.u0[n] = u0 / op.space.norm(u0)
            for th in thetas:
                ext = tr.call("operators.seam_extension", O.seam_extension,
                              op, th)
                # |theta| = 1: the skew flow of A*; |theta| < 1: the
                # contractive flow of -ext (A* would pump energy in)
                self.gens[n, th] = (
                    tr.call("evolution.adjoint_generator",
                            E.adjoint_generator, ext)
                    if abs(th) == 1.0 else _negative(O, tr, ext))
        self.exact_times = np.linspace(0.0, 2.0, self.EXACT_SAMPLES)
        self.nonskew_times = np.linspace(0.0, 2.0, self.NONSKEW_SAMPLES)
        ops = [self._exact(th) for th in (1.0, -1.0)]
        ops.append(self._nonskew())
        ops += [self._cayley(self.N, th, self.CAYLEY_STEPS) for th in thetas]
        ops += [self._cayley(self.N_SHIFT, th, self.SHIFT_STEPS)
                for th in (1.0, -1.0)]
        self._ops = ops

    def ops(self):
        return self._ops

    def _exact(self, th):
        E, gen, u0 = self.E, self.gens[self.N, th], self.u0[self.N]
        times = self.exact_times

        def run(tr):
            return tr.call("evolution.evolve_exact.skew", E.evolve_exact,
                           gen, u0, times, counts={"samples": times.size})

        def check(traj, _):
            if not traj.stepper_meta.get("schur_rotation"):
                return [("evolution", "skew generator missed the Schur path")]
            return _norm_problems(traj, "evolution", exact_norm=True)

        return Op(f"exact theta={th:+g}", "evolution", run, check,
                  work=times.size)

    def _nonskew(self):
        E, gen = self.E, self.gens[self.N_SHIFT, self.theta]
        u0, times = self.u0[self.N_SHIFT], self.nonskew_times

        def run(tr):
            return tr.call("evolution.evolve_exact.nonskew", E.evolve_exact,
                           gen, u0, times, counts={"samples": times.size})

        def check(traj, _):
            p = _norm_problems(traj, "evolution", exact_norm=False)
            norms = traj.norms()
            if not p and not norms[-1] < norms[0]:
                p.append(("evolution", "lossy seam flow did not lose norm"))
            return p

        return Op("exact nonskew", "evolution", run, check, work=times.size)

    def _cayley(self, n, th, steps):
        E, gen, u0, dt = self.E, self.gens[n, th], self.u0[n], self.DT
        shift = n == self.N_SHIFT

        def run(tr):
            return tr.call("evolution.evolve_cayley.dense", E.evolve_cayley,
                           gen, u0, dt, steps, counts={"steps": steps})

        def check(traj, _):
            p = _norm_problems(traj, "evolution", exact_norm=abs(th) == 1.0)
            if shift and not p:
                err = self._shift_error(traj, th, u0)
                if not err <= SHIFT_TOL:
                    p.append(("evolution", f"twisted-shift mismatch "
                              f"{err:.4f} > {SHIFT_TOL}"))
            return p

        kind = "shift" if shift else "cayley"
        return Op(f"{kind} n={n} theta={th:+g}", "evolution", run, check,
                  work=steps + 1)

    def _shift_error(self, traj, th, u0):
        space = traj.space
        return max(space.norm(traj.sample(t)
                              - self.R.interval_shift_semigroup(th, t, u0))
                   for t in self.SHIFT_TIMES)

    def oracle_error(self, outputs):
        errs = []
        for th in (1.0, -1.0):
            traj = outputs.get(f"shift n={self.N_SHIFT} theta={th:+g}")
            if traj is None:
                return None
            errs.append(self._shift_error(traj, th, self.u0[self.N_SHIFT]))
        return float(max(errs))


# ---------------------------------------------------------------------------
# rotation
# ---------------------------------------------------------------------------

class Rotation(Workload):
    name = "rotation"
    why = ("Sparse LU and per-step solves dominate: rotation_benchmark at "
           "32 and 64 cells (dt halved) and state-storing sparse Cayley on "
           "a seeded 64^2 periodic stream; no deficiency work.")
    modules = ("operators", "evolution", "transport")
    min_passes = 10
    work_unit = "cell_steps"
    oracle_name = "rotation_error"

    SIZES = ((32, 1000), (64, 2000))   # (cells per side, steps per turn)
    STREAM_N, STREAM_STEPS = 64, 1000

    def sizes(self):
        return {"rotation": [{"n": n, "steps": s} for n, s in self.SIZES],
                "stream_cells": f"{self.STREAM_N}x{self.STREAM_N}",
                "stream_steps": self.STREAM_STEPS}

    def setup(self, seed, tr):
        self.T, self.E = T, E = sf("transport"), sf("evolution")
        rng = np.random.default_rng(seed)
        n = self.STREAM_N
        grid = tr.call("transport.Grid2D", T.Grid2D, n, n)
        xn, yn = grid.node_coords()
        psi = np.zeros((n + 1, n + 1))
        for k in (1, 2):
            for l in (1, 2):
                a = rng.standard_normal() / (k * k + l * l)
                px, py = rng.uniform(0.0, 2.0 * np.pi, 2)
                psi += 0.05 * a * np.outer(np.sin(2 * np.pi * k * xn + px),
                                           np.sin(2 * np.pi * l * yn + py))
        fld = tr.call("transport.field_from_stream", T.field_from_stream,
                      grid, psi)
        op = tr.call("transport.build_transport_operator.periodic",
                     T.build_transport_operator, fld, mode="periodic_full")
        self.gen = tr.call("evolution.adjoint_generator", E.adjoint_generator,
                           op)
        center = tuple(rng.uniform(0.35, 0.65, 2))
        self.u0 = tr.call("transport.gaussian_blob", T.gaussian_blob, grid,
                          center, 0.1)
        self.dt = 2.0 * np.pi / self.SIZES[-1][1]
        ops = [self._rotation(m, s) for m, s in self.SIZES]
        ops.append(self._stream())
        self._ops = ops

    def ops(self):
        return self._ops

    def _rotation(self, m, steps):
        T = self.T
        dt = 2.0 * np.pi / steps
        coarse = f"rotation n={self.SIZES[0][0]}"

        def run(tr):
            return tr.call("transport.rotation_benchmark",
                           T.rotation_benchmark, m, dt,
                           counts={"steps": steps})

        def check(r, outputs):
            if not r["energy_drift"] <= DRIFT_TOL:
                return [("transport", f"energy drift {r['energy_drift']:.3e}")]
            if m != self.SIZES[0][0]:
                c = outputs.get(coarse)
                if c is None:
                    return [("transport", "refinement ratio unavailable: "
                             f"{coarse} failed")]
                ratio = c["final_error"] / r["final_error"]
                if not ratio >= REFINE_MIN:
                    return [("transport", f"refinement ratio {ratio:.2f} < "
                             f"{REFINE_MIN}")]
            return []

        return Op(f"rotation n={m}", "transport", run, check,
                  work=m * m * steps)

    def _stream(self):
        E, gen, u0, dt, steps = (self.E, self.gen, self.u0, self.dt,
                                 self.STREAM_STEPS)

        def run(tr):
            return tr.call("evolution.evolve_cayley.sparse", E.evolve_cayley,
                           gen, u0, dt, steps, counts={"steps": steps})

        def check(traj, _):
            return _norm_problems(traj, "evolution", exact_norm=True)

        return Op(f"stream n={self.STREAM_N}", "evolution", run, check,
                  work=gen.dim * steps)

    def oracle_error(self, outputs):
        r = outputs.get(f"rotation n={self.SIZES[0][0]}")
        return None if r is None else float(r["final_error"])


# ---------------------------------------------------------------------------
# cli-verify
# ---------------------------------------------------------------------------

class CliVerify(Workload):
    name = "cli-verify"
    why = ("The only workload with the import floor, descriptor parsing, "
           "report writing and the weak layer on the critical path: "
           "fresh-process CLI commands, one at a time.")
    modules = ("transport",)
    min_passes = 2          # every command runs twice: reports must match
    work_unit = "commands"
    peak_rss_children = True
    cli_layers = True

    MINIMAL_N, MATRIX_N, STREAM_N = 64, 48, 32
    TIMEOUT_S = 120
    # (command, descriptor, extra flags), weighted toward verify, witness
    # and multiplicity. Commands that need the scalar +-1 coupling (the
    # forward generator of verify and witness, both multiplicity branches)
    # run on the wrapped model: on a generic restricted matrix that
    # coupling exists only for some domains (see README on extend(op, +1)).
    COMMANDS = (
        ("oracle-check", None, ()), ("analyze", "matrix", ()),
        ("extend", "matrix", ("--theta",)), ("evolve", "transport", ()),
        ("transport-run", "transport", ()),
        ("verify", "minimal", ()), ("verify", "transport", ()),
        ("witness", "minimal", ()), ("witness", "minimal", ("--t0", "1.25")),
        ("multiplicity", "minimal", ()),
        ("multiplicity", "minimal", ("--horizon", "1.0")),
    )

    def sizes(self):
        return {"minimal_n": self.MINIMAL_N, "matrix_n": self.MATRIX_N,
                "matrix_codim": 2,
                "stream_cells": f"{self.STREAM_N}x{self.STREAM_N}",
                "commands": [" ".join([c, d or "", *f]).strip()
                             for c, d, f in self.COMMANDS]}

    def setup(self, seed, tr):
        T = sf("transport")
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.dir = OUT / f"cli-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        desc = {}
        desc["minimal"] = self._write("minimal.json", {"operator": {
            "kind": "minimal_derivative", "n": self.MINIMAL_N}})
        n = self.MATRIX_N
        w = rng.uniform(0.5, 1.5, n)
        c = rng.uniform(0.5, 1.5, n)
        pins = rng.choice(n, size=2, replace=False)
        desc["matrix"] = self._write("matrix.json", {
            "operator": {"kind": "matrix",
                         "data": _weighted_ring(w, c).tolist()},
            "space": {"weights": w.tolist()},
            "domain": {"mode": "columns",    # one basis vector per row
                       "columns": _coordinate_columns(n, pins).T.tolist()},
            "label": "weighted-matrix"})
        m = self.STREAM_N
        grid = tr.call("transport.Grid2D", T.Grid2D, m, m)
        xn, yn = grid.node_coords()
        k, l = rng.integers(1, 3, 2)
        px, py = rng.uniform(0.0, 2.0 * np.pi, 2)
        psi = 0.05 * np.outer(np.sin(2 * np.pi * k * xn + px),
                              np.sin(2 * np.pi * l * yn + py))
        tr.call("transport.write_stream_file", T.write_stream_file,
                self.dir / "stream.csv", psi, grid)
        desc["transport"] = self._write("transport.json", {"operator": {
            "kind": "transport", "stream": "stream.csv",
            "mode": "periodic_full"}})
        self.theta = float(rng.uniform(-0.9, 0.9))
        self.env = dict(os.environ, SKEWFLOW_THREADS="1",
                        PYTHONPATH=str(SRC))
        self.reports: dict = {}
        self._ops = [self._command(cmd, desc.get(d), d, flags)
                     for cmd, d, flags in self.COMMANDS]
        self._cli = None
        if tr.enabled:
            self._import_cli(tr)

    def _write(self, name, obj):
        path = self.dir / name
        path.write_text(json.dumps(obj))
        return path

    def ops(self):
        return self._ops

    def _command(self, cmd, desc, dname, flags):
        if flags == ("--theta",):
            flags = ("--theta", repr(self.theta))
        key = " ".join([cmd, dname or "", *flags]).strip()
        out = self.dir / key.replace(" ", "_")
        argv = [cmd, "--out", str(out), "--seed", str(self.seed), *flags]
        if desc is not None:
            argv += ["--input", str(desc)]

        def run(tr):
            report = out / "report.json"
            if report.exists():
                report.unlink()
            if tr.enabled:
                code = self._in_process(tr, cmd, argv)
            else:
                code = self._fresh_process(argv)
            return code, report.read_bytes() if report.exists() else None

        def check(result, _):
            code, data = result
            if code != 0:
                return [("cli", f"exit {code}")]
            if data is None or json.loads(data).get("pass") is not True:
                return [("cli", "report.json missing or not passing")]
            seen = self.reports.setdefault(key, data)
            if seen != data:
                return [("cli", "report.json differs between repetitions")]
            return []

        return Op(key, "cli", run, check, work=1)

    def _fresh_process(self, argv):
        proc = subprocess.run([sys.executable, "-m", "skewflow.cli", *argv],
                              env=self.env, capture_output=True, text=True,
                              timeout=self.TIMEOUT_S, cwd=self.dir)
        if proc.returncode != 0:
            raise ChildFailure(proc.returncode, proc.stderr)
        return proc.returncode

    def _import_cli(self, tr):
        """Import skewflow.cli in this process and route the weak calls
        its commands make through spans. A failed import is kept and
        re-raised by every in-process command."""
        try:
            self._cli = tr.call("cli.import", importlib.import_module,
                                "skewflow.cli")
        except Exception as exc:  # the program's own import failure
            self._cli_error = ProgramFailure(first_line(exc),
                                             module_of(exc, "cli"))
            return
        self._saved = {}
        for fn in ("gs_residual", "witness_nonuniqueness", "splice",
                   "semigroup_multiplicity_demo"):
            orig = self._saved[fn] = getattr(self._cli, fn)
            counts_of = None
            if fn == "gs_residual":
                def counts_of(cand, *a, **k):
                    return {"samples": int(cand.times.size)}
            setattr(self._cli, fn, tr.wrap(f"weak.{fn}", orig, counts_of))

    def _in_process(self, tr, cmd, argv):
        if self._cli is None:
            raise ProgramFailure(str(self._cli_error), self._cli_error.blame)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = tr.call(f"cli.main.{cmd}", self._cli.main, argv)
        if code != 0:
            raise ChildFailure(code, sink.getvalue())
        return code

    def layer_extras(self):
        """cli.import_s: median fresh-process `import skewflow.cli`."""
        times, fails = [], 0
        for _ in range(3):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", "import skewflow.cli"],
                                  env=self.env, capture_output=True,
                                  timeout=self.TIMEOUT_S)
            if proc.returncode == 0:
                times.append(time.perf_counter() - t0)
            else:
                fails += 1
        return {"cli.import_s": float(np.median(times)) if times else 0.0,
                "cli.fails": fails}

    def close(self):
        cli = getattr(self, "_cli", None)
        for fn, orig in getattr(self, "_saved", {}).items():
            setattr(cli, fn, orig)
        if getattr(self, "dir", None) is not None:
            shutil.rmtree(self.dir, ignore_errors=True)


class ChildFailure(ProgramFailure):
    """A CLI command exited nonzero; the message is its error line."""

    def __init__(self, code: int, stderr: str):
        lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
        error = next((ln for ln in reversed(lines)
                      if not ln.startswith((" ", "Traceback"))), "")
        super().__init__(f"exit {code}: {error}" if error else f"exit {code}",
                         _blamed_module(stderr))


def _blamed_module(stderr: str) -> str:
    """Innermost skewflow module named in a child's traceback."""
    blamed = "cli"
    for ln in stderr.splitlines():
        ln = ln.strip()
        if ln.startswith('File "') and "/skewflow/" in ln:
            stem = ln.split('"')[1].rsplit("/", 1)[-1].removesuffix(".py")
            blamed = stem
    return blamed


WORKLOADS = {w.name: w for w in (DefectScan, WrappedFlow, Rotation, CliVerify)}
