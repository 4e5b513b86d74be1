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

from .evolution import (Trajectory, adjoint_generator, evolve_cayley,
                        steps_to_horizon)
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
    cutoffs of increasing sharpness (transition widths T/4, T/16, T/64).
    ValueError unless the horizon T is finite and positive."""
    T = float(horizon)
    if not (np.isfinite(T) and T > 0):
        raise ValueError("profiles need a finite positive horizon")

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


def _residual_matrix(times, G, Sm, gv0, Phi, scale):
    """Normalized residuals (spatial x profile) on one sample grid, from
    the projections G = (u_k, v_j) and Sm = (u_k, M v_j), the profile
    values Phi[k, p] = phi_p(t_k) on that grid, gv0 = (u0, v_j) and
    scale = |u0| times the graph norm of each v_j."""
    pmax = np.max(np.abs(Phi), axis=0)
    if not pmax.all():
        raise ValueError("profile vanishes identically on the grid")
    d = np.diff(times)[:, None]
    stieltjes = (0.5 * (G[:-1] + G[1:])).T @ np.diff(Phi, axis=0)
    volume = 0.5 * (Sm[:-1].T @ (d * Phi[:-1]) + Sm[1:].T @ (d * Phi[1:]))
    raw = np.abs(stieltjes + volume + gv0[:, None] * Phi[0])
    return raw / (scale[:, None] * pmax)


# the every-second-sample grid of a K-step candidate holds t_0, t_2, ...;
# below 3 steps it holds only t = 0 and the horizon, where every default
# profile is 0 or vanishes
GS_MIN_STEPS = 3


def gs_residual(candidate: Trajectory, u0, op: RestrictedOperator,
                family: Optional[TestFunctionFamily] = None,
                tol: float = 1e-5, seed: int = 0) -> GsReport:
    """Normalized weak-identity residuals of a sampled candidate solution.

    The quadrature error estimate compares each residual against the one
    computed from every second sample: both discretizations converge at
    second order in the sample spacing, so a third of their gap estimates
    the fine-grid quadrature error. A candidate passes when its largest
    residual does not exceed tol plus that estimate. The states are
    projected on the test vectors once; both grids are row slices of that
    projection. A candidate of fewer than GS_MIN_STEPS steps leaves the
    estimate no sample inside the horizon and raises ValueError.
    """
    if candidate.nsteps < GS_MIN_STEPS:
        raise ValueError(
            f"the weak residual needs a candidate of at least {GS_MIN_STEPS} "
            f"steps, so that every second sample still reaches inside the "
            f"horizon; this one has {candidate.nsteps}")
    times = candidate.times
    if family is None:
        family = default_family(op, horizon=float(times[-1]), seed=seed)
    V = family.spatial
    W = candidate.space.weights
    MV = op.action @ V
    G = candidate.states @ (W[:, None] * V)      # (u_k, v_j)
    Sm = candidate.states @ (W[:, None] * MV)    # (u_k, M v_j)
    gv0 = V.T @ (W * np.asarray(u0, dtype=float))
    u0n = candidate.space.norm(u0)
    if u0n == 0.0:
        raise ValueError("initial vector must be nonzero")
    scale = u0n * np.sqrt(np.einsum("ij,i,ij->j", V, W, V)
                          + np.einsum("ij,i,ij->j", MV, W, MV))
    Phi = np.column_stack([np.asarray(phi(times), dtype=float)
                           for _, phi in family.profiles])
    if np.any(np.abs(Phi[-1]) > 1e-12 * np.max(np.abs(Phi), axis=0)):
        raise ValueError("profiles must vanish at the trajectory horizon")

    def residuals(sl):
        return _residual_matrix(times[sl], G[sl], Sm[sl], gv0, Phi[sl], scale)

    # Richardson-style estimate: the same functional on every second
    # sample. With an odd step count both grids stop one step short, so
    # they integrate the identical window and their gap stays a pure
    # quadrature signal.
    K = times.size - 1
    end = K - K % 2
    R = residuals(slice(None))
    Rf = R if end == K else residuals(slice(None, end + 1))
    Rc = residuals(slice(None, end + 1, 2))
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


def splice(witness: ExponentialWitness, gen: RestrictedOperator,
           semigroup: Trajectory, t0: float) -> Trajectory:
    """Exponential growth up to t0, then handed to the semigroup, sampled
    on semigroup.times:

        u(t) = e^t u0              for 0 <= t <= t0,
        u(t) = e^{t0} T_{t-t0} u0  for t > t0,

    with T_s u0 read from semigroup, the run of gen from witness.u0: its
    stored states when t0 is a sample time, else Trajectory.sample.
    Continuous at t0 by construction; each branch solves the weak identity
    on its own interval, so the whole curve is a generalized solution for
    every choice of t0 — one non-uniqueness witness per splice time.
    ValueError unless t0 is finite and nonnegative, the semigroup starts
    at witness.u0, and gen acts inside the weak adjoint pairing of the
    witness's operator (else the tail would not continue the identity).
    """
    if not (np.isfinite(t0) and t0 >= 0):
        raise ValueError("splice time must be finite and nonnegative")
    if not np.array_equal(semigroup.states[0], witness.u0):
        raise ValueError("the semigroup run must start at the witness vector")
    rep = check_inclusion_in_adjoint(gen, witness.op, tol=1e-8)
    if not rep.passed:
        raise ValueError(
            "generator does not act inside the weak adjoint pairing "
            f"(defect {rep.max_defect:.3e}); splice tail would break the identity"
        )
    t0 = float(t0)
    times = semigroup.times
    k0 = int(np.searchsorted(times, t0))     # first sample at or after t0
    states = np.exp(np.minimum(times, t0))[:, None] * witness.u0
    if k0 < times.size and times[k0] == t0:
        states[k0:] = np.exp(t0) * semigroup.states[:times.size - k0]
    else:
        states[k0:] = np.exp(t0) * semigroup.sample(times[k0:] - t0)
    return Trajectory(times=times, states=states, space=gen.space,
                      stepper_meta={"method": "splice", "t0": t0})


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


def forward_generator(op: RestrictedOperator,
                      theta: float = 1.0) -> RestrictedOperator:
    """The contractive forward generator attached to op.

    A full-domain operator drives its own forward problem through the
    metric adjoint. A restricted operator is first extended with coupling
    theta: the closed-form seam extension when it carries seam metadata,
    the scalar coupling through the defect pair (extend) otherwise. The
    generator is then -A_ext, which is dissipative for every |theta| <= 1
    and acts inside the adjoint of op: (-A_ext u, v) = (u, Mv) for v in
    op's domain. At |theta| = 1 the extension is skew and -A_ext is its
    metric adjoint, which the label then names."""
    if op.is_full_domain:
        return adjoint_generator(op)
    ext = (seam_extension if "seam" in op.meta else extend)(op, theta)
    name = "adjoint" if abs(theta) == 1.0 else "-"
    return RestrictedOperator(space=ext.space, action=-ext.action,
                              domain=None, label=f"{name}({ext.label})",
                              meta=dict(ext.meta))


def semigroup_multiplicity_demo(op: RestrictedOperator,
                                horizon: float = 2.0,
                                dt: float = 1e-3) -> MultiplicityDemo:
    """Run the two opposite maximal couplings from the same initial data.

    The branches are driven by forward_generator(op, +1) and
    forward_generator(op, -1): the closed-form seam couplings, whose flows
    are the twisted shifts, for operators carrying seam metadata, else the
    generic scalar couplings through the defect pair. Both start from the
    unit-norm Gaussian on the model's 1-D grid (else the first domain
    basis vector) and take the round(horizon / dt) steps that land on the
    horizon exactly (evolution.steps_to_horizon; ValueError unless both
    are finite and positive). distances is the W-distance between the two
    trajectories at each stored time, relative to the initial norm, and
    separation its largest value — any clearly nonzero value exhibits two
    distinct contractive solutions of the same forward problem.
    """
    dt, nsteps = steps_to_horizon(horizon, dt)
    dd = deficiency(op)
    if dd.d_plus == 0 or dd.d_minus == 0:
        raise ValueError(
            "semigroup unique: a defect space is trivial, so there are no "
            "couplings to choose between"
        )
    gen_p, gen_m = forward_generator(op, +1.0), forward_generator(op, -1.0)
    if isinstance(op.meta.get("grid"), np.ndarray):
        u0 = gaussian_profile(op.meta["grid"])
    else:
        u0 = op.domain_vector(np.eye(op.domain_dim, 1)[:, 0])
    u0 = u0 / op.space.norm(u0)

    tp = evolve_cayley(gen_p, u0, dt, nsteps)
    tm = evolve_cayley(gen_m, u0, dt, nsteps)
    diff = tp.states - tm.states
    w = op.space.weights
    dists = np.sqrt(np.einsum("kj,j,kj->k", diff, w, diff))
    labels = (("theta=+1", "theta=-1") if "seam" in op.meta
              else ("coupling=+1", "coupling=-1"))
    return MultiplicityDemo(traj_plus=tp, traj_minus=tm,
                            separation=float(np.max(dists)), distances=dists,
                            u0=u0, labels=labels)
