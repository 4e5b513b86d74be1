"""Weak verification of candidate solutions, exponential witnesses, and
the non-uniqueness constructions.

A candidate trajectory u(t) is accepted as a generalized solution of the
forward problem attached to a restricted skew operator when, for every
test vector v in the operator's domain and every C^1 time profile phi
vanishing at the horizon,

    integral (u, v) phi' dt + integral (u, M v) phi dt + (u(0), v) phi(0)

is numerically zero. The first integral is evaluated as a Stieltjes sum
against the increments of phi (telescoping of the trapezoid sum against
phi'), which needs only phi values and kills the profile-derivative
amplification a naive quadrature of (u, v) phi' would suffer. Residuals
are normalized by the graph norm of the test vector, so they are
dimensionless and compare across families.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .evolution import Trajectory, evolve_cayley
from .operators import (
    RestrictedOperator,
    check_inclusion_in_adjoint,
    deficiency,
    extend,
    seam_extension,
)
from .oracles import gaussian_profile


# ---------------------------------------------------------------------------
# test function families
# ---------------------------------------------------------------------------

def _smoothstep(s):
    """C-infinity step: 0 for s <= 0, 1 for s >= 1, exp-flat in between."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s >= 1.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    a = np.exp(-1.0 / sm)
    b = np.exp(-1.0 / (1.0 - sm))
    out[mid] = a / (a + b)
    return out


def plateau_cutoff(t0: float, nu: float) -> Callable:
    """Profile equal to 1 up to t0 - 1/nu, easing smoothly to 0 at t0."""

    def phi(t):
        return _smoothstep((t0 - np.asarray(t, dtype=float)) * nu)

    return phi


def default_profiles(horizon: float) -> list:
    """Three polynomial arcs vanishing at the horizon plus three plateau
    cutoffs of increasing sharpness (transition widths T/4, T/16, T/64)."""
    T = float(horizon)

    def p1(t):
        tau = np.asarray(t, dtype=float) / T
        return (1.0 - tau) ** 2 * (1.0 + 2.0 * tau)

    def p2(t):
        tau = np.asarray(t, dtype=float) / T
        return 6.75 * tau * (1.0 - tau) ** 2

    def p3(t):
        tau = np.asarray(t, dtype=float) / T
        return 6.75 * tau ** 2 * (1.0 - tau)

    profiles = [("poly_fade", p1), ("poly_bump_early", p2),
                ("poly_bump_late", p3)]
    for nu_over_T in (4.0, 16.0, 64.0):
        nu = nu_over_T / T
        profiles.append((f"cutoff_nu{int(nu_over_T)}",
                         plateau_cutoff(0.9 * T, nu)))
    return profiles


@dataclass
class TestFunctionFamily:
    """Spatial test vectors (columns, inside the operator domain) paired
    with time profiles (label, callable) for the weak identity."""

    spatial: np.ndarray
    profiles: list
    spatial_labels: list = field(default_factory=list)

    def __post_init__(self):
        if self.spatial.ndim != 2 or self.spatial.shape[1] == 0:
            raise ValueError("need at least one spatial test vector")
        if not self.profiles:
            raise ValueError("need at least one time profile")
        if not self.spatial_labels:
            self.spatial_labels = [f"v{j}" for j in range(self.spatial.shape[1])]


def default_family(op: RestrictedOperator, horizon: float,
                   n_spatial: int = 6, seed: int = 0) -> TestFunctionFamily:
    """Half smooth low-frequency domain combinations, half seeded random
    ones, all unit W-norm. Smooth vectors keep the graph norms moderate;
    the random half guards against accidental orthogonality to the flow."""
    m = op.domain_dim
    rng = np.random.default_rng(seed)
    cols = []
    labels = []
    n_smooth = max(1, n_spatial // 2)
    idx = np.arange(1, m + 1) / (m + 1)
    for k in range(n_smooth):
        cols.append(op.domain_vector(np.sin(np.pi * (k + 1) * idx)))
        labels.append(f"sine{k + 1}")
    for k in range(n_spatial - n_smooth):
        cols.append(op.domain_vector(rng.standard_normal(m)))
        labels.append(f"rand{k}")
    V = np.column_stack(cols)
    for j in range(V.shape[1]):
        V[:, j] /= op.space.norm(V[:, j])
    return TestFunctionFamily(spatial=V, profiles=default_profiles(horizon),
                              spatial_labels=labels)


# ---------------------------------------------------------------------------
# the residual engine
# ---------------------------------------------------------------------------

@dataclass
class GsReport:
    """Residual matrix (spatial x temporal), its max, a Richardson-style
    quadrature error estimate from the half-resolution trajectory, and the
    verdict max_residual <= tol + quadrature_error_estimate."""

    residuals: np.ndarray
    max_residual: float
    quadrature_error_estimate: float
    passed: bool
    tol: float
    spatial_labels: list = field(default_factory=list)
    profile_labels: list = field(default_factory=list)


def _residual_matrix(times, states, u0, op, V, profiles, space,
                     check_horizon: bool = True):
    W = space.weights
    MV = op.action @ V
    G = states @ (W[:, None] * V)        # (u_k, v_j)
    Sm = states @ (W[:, None] * MV)      # (u_k, M v_j)
    gv0 = V.T @ (W * np.asarray(u0, dtype=float))
    u0n = space.norm(u0)
    if u0n == 0.0:
        raise ValueError("initial vector must be nonzero")
    graph = np.sqrt(np.einsum("ij,i,ij->j", V, W, V)
                    + np.einsum("ij,i,ij->j", MV, W, MV))

    m = V.shape[1]
    R = np.empty((m, len(profiles)))
    for p, (_, phi) in enumerate(profiles):
        vals = np.asarray(phi(times), dtype=float)
        pmax = float(np.max(np.abs(vals)))
        if pmax == 0.0:
            raise ValueError("profile vanishes identically on the grid")
        if check_horizon and abs(vals[-1]) > 1e-12 * pmax:
            raise ValueError("profiles must vanish at the trajectory horizon")
        dphi = np.diff(vals)
        stieltjes = ((G[:-1] + G[1:]) * 0.5 * dphi[:, None]).sum(axis=0)
        volume = np.trapezoid(Sm * vals[:, None], times, axis=0)
        raw = np.abs(stieltjes + volume + gv0 * vals[0])
        R[:, p] = raw / (u0n * graph * pmax)
    return R


def gs_residual(candidate: Trajectory, u0, op: RestrictedOperator,
                family: Optional[TestFunctionFamily] = None,
                tol: float = 1e-5, seed: int = 0) -> GsReport:
    """Normalized weak-identity residuals of a sampled candidate solution.

    The quadrature error estimate compares each residual against the one
    computed from every second sample: both discretizations converge at
    second order in the sample spacing, so a third of their gap estimates
    the fine-grid quadrature error. A candidate passes when its largest
    residual does not exceed tol plus that estimate.
    """
    if family is None:
        family = default_family(op, horizon=float(candidate.times[-1]),
                                seed=seed)
    V = family.spatial
    R = _residual_matrix(candidate.times, candidate.states, u0, op, V,
                         family.profiles, candidate.space)
    # Richardson-style estimate: rerun the same functional on every second
    # sample. With an odd step count both grids are truncated by one step so
    # they still integrate the identical window and their gap stays a pure
    # quadrature signal.
    K = candidate.times.size - 1
    if K % 2 == 0:
        fine_sl, coarse_sl = slice(None), slice(None, None, 2)
    else:
        fine_sl, coarse_sl = slice(None, K), slice(None, K, 2)
    Rf = R if K % 2 == 0 else _residual_matrix(
        candidate.times[fine_sl], candidate.states[fine_sl], u0, op, V,
        family.profiles, candidate.space, check_horizon=False)
    Rc = _residual_matrix(candidate.times[coarse_sl],
                          candidate.states[coarse_sl], u0, op, V,
                          family.profiles, candidate.space,
                          check_horizon=False)
    estimate = float(np.max(np.abs(Rf - Rc)) / 3.0)
    max_residual = float(np.max(R))
    return GsReport(
        residuals=R,
        max_residual=max_residual,
        quadrature_error_estimate=estimate,
        passed=max_residual <= tol + estimate,
        tol=tol,
        spatial_labels=list(family.spatial_labels),
        profile_labels=[lab for lab, _ in family.profiles],
    )


# ---------------------------------------------------------------------------
# non-uniqueness machinery
# ---------------------------------------------------------------------------

@dataclass
class ExponentialWitness:
    """A unit defect direction u0 with (u0, M v) = (u0, v) on the whole
    domain, so e^t u0 solves the forward problem exactly (the growth never
    sees the operator). trajectory() samples it on any time grid."""

    u0: np.ndarray
    op: RestrictedOperator

    def sample(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(t)[..., None] * self.u0

    def trajectory(self, times) -> Trajectory:
        times = np.asarray(times, dtype=float)
        return Trajectory(times=times, states=np.exp(times)[:, None] * self.u0,
                          space=self.op.space,
                          stepper_meta={"method": "exponential-witness"})


def witness_nonuniqueness(op: RestrictedOperator,
                          tol: float = 1e-8) -> ExponentialWitness:
    """Extract the smooth exponential witness from the minus defect space.

    Raises when the minus defect space is trivial — then every bounded
    generalized solution of the forward problem coincides with the
    (unique) contractive one and there is nothing to exhibit.
    """
    dd = deficiency(op, rank_tol=tol)
    if dd.d_minus == 0:
        raise ValueError(
            "forward problem unique: the minus defect space is trivial, "
            "so no exponential witness exists"
        )
    return ExponentialWitness(u0=dd.n_minus_basis[:, 0], op=op)


@dataclass
class SpliceSolution:
    """Exponential growth up to t0, then handed to the semigroup:

        u(t) = e^t u0            for 0 <= t <= t0,
        u(t) = e^{t0} T_{t-t0} u0  for t >= t0.

    Continuous at t0 by construction; each branch solves the weak identity
    on its own interval, so the whole curve is a generalized solution for
    every choice of t0 — one non-uniqueness witness per splice time."""

    witness: ExponentialWitness
    gen: RestrictedOperator
    t0: float

    def trajectory(self, times, dt: float = 1e-3) -> Trajectory:
        times = np.asarray(times, dtype=float)
        u0 = self.witness.u0
        states = np.exp(np.minimum(times, self.t0))[:, None] * u0
        tail = times[times > self.t0 + 1e-15]
        if tail.size:
            span = float(tail[-1] - self.t0)
            nsteps = max(1, int(round(span / dt)))
            semi = evolve_cayley(self.gen, u0, span / nsteps, nsteps)
            states[times > self.t0 + 1e-15] = (
                np.exp(self.t0) * semi.sample(tail - self.t0)
            )
        return Trajectory(times=times, states=states, space=self.gen.space,
                          stepper_meta={"method": "splice", "t0": self.t0,
                                        "dt": float(dt)})


def splice(witness: ExponentialWitness, gen: RestrictedOperator,
           t0: float) -> SpliceSolution:
    """Build the spliced solution, first checking that the generator really
    acts inside the weak adjoint pairing of the witness's operator (else
    the tail would not continue the weak identity)."""
    if t0 < 0:
        raise ValueError("splice time must be nonnegative")
    rep = check_inclusion_in_adjoint(gen, witness.op, tol=1e-8)
    if not rep.passed:
        raise ValueError(
            "generator does not act inside the weak adjoint pairing "
            f"(defect {rep.max_defect:.3e}); splice tail would break the identity"
        )
    return SpliceSolution(witness=witness, gen=gen, t0=float(t0))


# ---------------------------------------------------------------------------
# multiplicity of contractive solutions
# ---------------------------------------------------------------------------

@dataclass
class MultiplicityDemo:
    traj_plus: Trajectory
    traj_minus: Trajectory
    separation: float
    distances: np.ndarray
    u0: np.ndarray
    labels: tuple = ("theta=+1", "theta=-1")


def semigroup_multiplicity_demo(op: RestrictedOperator,
                                horizon: float = 2.0,
                                dt: float = 1e-3) -> MultiplicityDemo:
    """Run the two opposite maximal couplings from the same initial data.

    Operators carrying seam metadata get the closed-form seam couplings
    (theta = +1 and theta = -1), whose flows are the twisted shifts;
    otherwise the generic scalar couplings +1 and -1 through the defect
    pair are assembled. Both start from the unit-norm Gaussian on the
    model grid (else the first domain basis vector) and take the
    round(horizon / dt) steps that land on the horizon exactly.
    distances is the W-distance between the two trajectories at each
    stored time, relative to the initial norm, and separation its
    largest value — any clearly nonzero value exhibits two distinct
    contractive solutions of the same forward problem.
    """
    dd = deficiency(op)
    if dd.d_plus == 0 or dd.d_minus == 0:
        raise ValueError(
            "semigroup unique: a defect space is trivial, so there are no "
            "couplings to choose between"
        )
    if "seam" in op.meta:
        ext_p = seam_extension(op, +1.0)
        ext_m = seam_extension(op, -1.0)
    else:
        ext_p = extend(op, +1.0)
        ext_m = extend(op, -1.0)

    if "grid" in op.meta:
        u0 = gaussian_profile(op.meta["grid"])
    else:
        u0 = op.domain_basis()[:, 0]
    u0 = u0 / op.space.norm(u0)

    nsteps = max(1, int(round(horizon / dt)))
    dt = horizon / nsteps
    gens = []
    for ext in (ext_p, ext_m):
        gens.append(RestrictedOperator(space=ext.space, action=-ext.dense_action(),
                                       domain=None,
                                       label=f"-({ext.label})", meta=dict(ext.meta)))
    tp = evolve_cayley(gens[0], u0, dt, nsteps)
    tm = evolve_cayley(gens[1], u0, dt, nsteps)
    diff = tp.states - tm.states
    w = op.space.weights
    dists = np.sqrt(np.einsum("kj,j,kj->k", diff, w, diff))
    labels = (("theta=+1", "theta=-1") if "seam" in op.meta
              else ("coupling=+1", "coupling=-1"))
    return MultiplicityDemo(traj_plus=tp, traj_minus=tm,
                            separation=float(np.max(dists)), distances=dists,
                            u0=u0, labels=labels)
