import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from skewflow.cli import parse_operator_descriptor
from skewflow.evolution import Trajectory, adjoint_generator, evolve_cayley
from skewflow.operators import RestrictedOperator, extend, seam_extension
from skewflow.oracles import gaussian_profile, minimal_derivative_operator
from skewflow.spaces import Space
from skewflow.transport import (
    Grid2D,
    build_transport_operator,
    field_from_stream,
)
import skewflow.weak as weak
from skewflow.weak import (
    GS_MIN_STEPS,
    default_family,
    default_profiles,
    forward_generator,
    gs_residual,
    semigroup_multiplicity_demo,
    splice,
    witness_nonuniqueness,
)


GOLDEN = Path(__file__).parent / "golden"


def wrapped(n=64):
    op = minimal_derivative_operator(n)
    gen = adjoint_generator(seam_extension(op, 1.0))
    u0 = gaussian_profile(op.meta["grid"])
    return op, gen, u0 / op.space.norm(u0)


def reference_residual_matrix(times, states, u0, op, V, profiles, space):
    """The residual engine as a loop over profiles, each projecting the
    states on its own grid (no shared projection)."""
    W = space.weights
    MV = op.action @ V
    G = states @ (W[:, None] * V)
    Sm = states @ (W[:, None] * MV)
    gv0 = V.T @ (W * np.asarray(u0, dtype=float))
    u0n = space.norm(u0)
    graph = np.sqrt(np.einsum("ij,i,ij->j", V, W, V)
                    + np.einsum("ij,i,ij->j", MV, W, MV))
    R = np.empty((V.shape[1], len(profiles)))
    for p, (_, phi) in enumerate(profiles):
        vals = np.asarray(phi(times), dtype=float)
        pmax = float(np.max(np.abs(vals)))
        dphi = np.diff(vals)
        stieltjes = ((G[:-1] + G[1:]) * 0.5 * dphi[:, None]).sum(axis=0)
        volume = np.trapezoid(Sm * vals[:, None], times, axis=0)
        raw = np.abs(stieltjes + volume + gv0 * vals[0])
        R[:, p] = raw / (u0n * graph * pmax)
    return R


def reference_gs(traj, u0, op):
    """(residuals, quadrature estimate) with every grid recomputed from
    its own slice of the states."""
    fam = default_family(op, horizon=float(traj.times[-1]))
    K = traj.times.size - 1
    fine = slice(None) if K % 2 == 0 else slice(None, K)
    coarse = slice(None, None, 2) if K % 2 == 0 else slice(None, K, 2)

    def on(sl):
        return reference_residual_matrix(traj.times[sl], traj.states[sl], u0,
                                         op, fam.spatial, fam.profiles,
                                         traj.space)
    R = on(slice(None))
    return R, float(np.max(np.abs(on(fine) - on(coarse))) / 3.0)


# ---------------------------------------------------------------------------
# residual machinery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nsteps", [400, 399])
def test_residual_engine_matches_the_per_profile_loop(nsteps):
    op, gen, _ = wrapped(32)
    wit = witness_nonuniqueness(op)
    dt = 1.0 / nsteps
    demo = semigroup_multiplicity_demo(op, horizon=1.0, dt=dt)
    cases = [(wit.trajectory(dt * np.arange(nsteps + 1)), wit.u0),
             (evolve_cayley(gen, wit.u0, dt, nsteps), wit.u0),
             (demo.traj_plus, demo.u0), (demo.traj_minus, demo.u0)]
    for traj, u0 in cases:
        assert traj.nsteps == nsteps
        rep = gs_residual(traj, u0, op)
        R, estimate = reference_gs(traj, u0, op)
        assert np.max(np.abs(rep.residuals - R)) <= 1e-13
        assert abs(rep.quadrature_error_estimate - estimate) <= 1e-13


def test_residual_rejects_a_one_sample_candidate():
    op, gen, u0 = wrapped(32)
    traj = Trajectory(times=[0.0], states=u0[None, :], space=op.space)
    with pytest.raises(ValueError, match="horizon"):
        gs_residual(traj, u0, op)


@pytest.mark.parametrize("nsteps", [1, 2, 3])
def test_residual_names_the_step_minimum(nsteps):
    # below 3 steps the every-second-sample grid holds only t = 0 and the
    # horizon, where the default profiles are 0; it is refused as too short
    op, gen, u0 = wrapped(32)
    traj = evolve_cayley(gen, u0, 1.0 / nsteps, nsteps)
    if nsteps < GS_MIN_STEPS:
        with pytest.raises(ValueError, match=f"at least {GS_MIN_STEPS} steps"):
            gs_residual(traj, u0, op)
    else:
        assert np.isfinite(gs_residual(traj, u0, op).max_residual)


def test_constant_trajectory_of_zero_operator_is_exact():
    # u(t) = u0 solves u' = 0 against the zero pairing; every term of the
    # identity cancels up to rounding
    s = Space.euclidean(4)
    op = RestrictedOperator(space=s, action=np.zeros((4, 4)), domain=None)
    u0 = np.array([1.0, -0.5, 0.25, 0.0])
    times = np.linspace(0.0, 2.0, 201)
    traj = Trajectory(times=times, states=np.tile(u0, (201, 1)), space=s)
    rep = gs_residual(traj, u0, op, tol=1e-12)
    assert rep.passed
    assert rep.max_residual < 1e-13


def test_default_profiles_vanish_at_the_horizon():
    for label, profile in default_profiles(2.0):
        assert abs(profile(2.0)) < 1e-12, label
        # and they are O(1) somewhere inside
        grid = np.linspace(0.0, 2.0, 101)
        assert np.max(np.abs(profile(grid))) > 0.3


def test_family_spatial_vectors_are_normalized():
    op, _, _ = wrapped(32)
    fam = default_family(op, horizon=2.0)
    for k in range(fam.spatial.shape[1]):
        assert op.space.norm(fam.spatial[:, k]) == pytest.approx(1.0)


def test_semigroup_trajectory_passes_small_tolerance():
    op, gen, u0 = wrapped()
    traj = evolve_cayley(gen, u0, 1e-3, 2000)
    rep = gs_residual(traj, u0, op)
    assert rep.passed
    assert rep.max_residual < 5e-6
    assert rep.residuals.shape == (len(rep.spatial_labels),
                                   len(rep.profile_labels))


def test_residual_estimate_tracks_refinement():
    op, gen, u0 = wrapped(32)
    coarse = gs_residual(evolve_cayley(gen, u0, 4e-3, 500), u0, op)
    fine = gs_residual(evolve_cayley(gen, u0, 1e-3, 2000), u0, op)
    # second-order stepping: residual drops by roughly 16
    assert fine.max_residual < coarse.max_residual / 8


def test_residual_flags_wrong_dynamics():
    op, gen, u0 = wrapped(32)
    # evolve with the wrong sign: solves u' = +Mu instead of u' = -Mu
    wrong = evolve_cayley(adjoint_generator(gen), u0, 1e-3, 2000)
    rep = gs_residual(wrong, u0, op)
    assert not rep.passed
    assert rep.max_residual > 1e-2


def test_default_family_never_forms_a_dense_full_domain_basis():
    # 64^2 periodic transport: a dense n x n basis would be 128 MiB, the
    # six 4096-vectors of the family are 192 KiB
    g = Grid2D(nx=64, ny=64)
    op = build_transport_operator(field_from_stream(
        g, lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)))
    tracemalloc.start()
    try:
        fam = default_family(op, horizon=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fam.spatial.shape == (op.dim, 6)
    assert peak < 4 * 2**20
    np.testing.assert_allclose(op.space.norms(fam.spatial), 1.0, rtol=1e-12)


def test_residual_requires_vanishing_profile():
    op, gen, u0 = wrapped(32)
    traj = evolve_cayley(gen, u0, 1e-2, 100)  # horizon 1.0
    fam = default_family(op, horizon=2.0)     # profiles live on [0, 2]
    with pytest.raises(ValueError, match="horizon"):
        gs_residual(traj, u0, op, family=fam)


def test_residual_handles_odd_step_counts():
    op, gen, u0 = wrapped(32)
    traj = evolve_cayley(gen, u0, 2.0 / 1999, 1999)
    rep = gs_residual(traj, u0, op)
    assert rep.passed
    assert np.isfinite(rep.quadrature_error_estimate)


# ---------------------------------------------------------------------------
# exponential witness
# ---------------------------------------------------------------------------

def test_witness_solves_weakly_and_grows():
    op, gen, u0 = wrapped()
    wit = witness_nonuniqueness(op)
    times = np.linspace(0.0, 2.0, 2001)
    traj = wit.trajectory(times)
    rep = gs_residual(traj, wit.u0, op)
    assert rep.passed
    # exponential growth in norm, unlike any contraction semigroup
    norms = traj.norms()
    assert norms[-1] == pytest.approx(np.exp(2.0) * norms[0], rel=1e-6)


def test_witness_departs_from_the_semigroup():
    op, gen, _ = wrapped()
    wit = witness_nonuniqueness(op)
    semi = evolve_cayley(gen, wit.u0, 1e-3, 1000)
    d = op.space.norm(wit.trajectory([0.0, 1.0]).final - semi.sample(1.0))
    assert d > 1.5 * op.space.norm(wit.u0)


def test_witness_refuses_full_domain_operators():
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    op = RestrictedOperator(space=Space.euclidean(2), action=m, domain=None)
    with pytest.raises(ValueError, match="unique"):
        witness_nonuniqueness(op)


# ---------------------------------------------------------------------------
# splices
# ---------------------------------------------------------------------------

def test_splice_is_continuous_at_the_switch():
    op, gen, _ = wrapped()
    wit = witness_nonuniqueness(op)
    # the spliced state at the switch is exactly the witness state there
    times = np.linspace(0.0, 2.0, 801)
    traj = splice(wit, gen, evolve_cayley(gen, wit.u0, 2.0 / 800, 800), 0.5)
    k = np.searchsorted(times, 0.5)
    assert op.space.norm(traj.states[k]
                         - wit.trajectory([0.0, 0.5]).final) < 1e-10
    # and the increment across the switch shrinks linearly with the
    # sampling step, as it must for a continuous path (a jump would not)
    jumps = []
    for npts in (801, 1601, 3201):
        t = np.linspace(0.0, 2.0, npts)
        tr = splice(wit, gen, evolve_cayley(gen, wit.u0, 2.0 / (npts - 1),
                                            npts - 1), 0.5)
        j = np.searchsorted(t, 0.5)
        jumps.append(op.space.norm(tr.states[j + 1] - tr.states[j - 1]))
    assert jumps[2] < jumps[1] < jumps[0]
    assert jumps[0] / jumps[2] > 3.0


def test_splice_matches_witness_before_t0():
    op, gen, _ = wrapped()
    wit = witness_nonuniqueness(op)
    times = np.linspace(0.0, 2.0, 401)
    traj = splice(wit, gen, evolve_cayley(gen, wit.u0, 2.0 / 400, 400), 1.0)
    wt = wit.trajectory(times)
    half = times <= 1.0
    assert np.max(np.abs(traj.states[half] - wt.states[half])) < 1e-10


@pytest.mark.parametrize("t0", [0.5, 0.75])
def test_splice_at_a_sample_time_reuses_the_semigroup_states(t0):
    op, gen, _ = wrapped()
    wit = witness_nonuniqueness(op)
    semi = evolve_cayley(gen, wit.u0, 1e-3, 2000)
    k0 = int(round(t0 / 1e-3))
    assert semi.times[k0] == t0
    traj = splice(wit, gen, semi, t0)
    assert traj.times is semi.times
    np.testing.assert_array_equal(traj.states[k0:],
                                  np.exp(t0) * semi.states[:2001 - k0])
    np.testing.assert_array_equal(traj.states[:k0 + 1],
                                  wit.trajectory(semi.times[:k0 + 1]).states)


def test_splice_off_the_grid_interpolates_the_tail():
    op, gen, _ = wrapped(32)
    wit = witness_nonuniqueness(op)
    semi = evolve_cayley(gen, wit.u0, 1e-2, 100)
    t0 = 0.3337
    traj = splice(wit, gen, semi, t0)
    after = semi.times > t0
    np.testing.assert_array_equal(
        traj.states[after], np.exp(t0) * semi.sample(semi.times[after] - t0))
    np.testing.assert_array_equal(
        traj.states[~after], wit.trajectory(semi.times[~after]).states)


@pytest.mark.parametrize("t0", [np.nan, np.inf, -0.1])
def test_splice_rejects_bad_times(t0):
    op, gen, _ = wrapped(32)
    wit = witness_nonuniqueness(op)
    with pytest.raises(ValueError, match="splice time"):
        splice(wit, gen, evolve_cayley(gen, wit.u0, 0.1, 5), t0)


def test_splice_rejects_a_semigroup_from_other_data():
    op, gen, u0 = wrapped(32)
    wit = witness_nonuniqueness(op)
    with pytest.raises(ValueError, match="witness vector"):
        splice(wit, gen, evolve_cayley(gen, u0, 0.1, 5), 0.5)


def test_splice_rejects_foreign_generators():
    op, gen, _ = wrapped(32)
    wit = witness_nonuniqueness(op)
    rng = np.random.default_rng(1)
    stray = RestrictedOperator(space=op.space,
                               action=rng.standard_normal((32, 32)),
                               domain=None)
    with pytest.raises(ValueError, match="pairing"):
        splice(wit, stray, evolve_cayley(gen, wit.u0, 0.1, 5), 0.5)


def test_splices_separate_at_the_horizon():
    op, gen, _ = wrapped()
    wit = witness_nonuniqueness(op)
    semi = evolve_cayley(gen, wit.u0, 2.0 / 800, 800)
    finals = []
    for t0 in (0.0, 0.5, 1.0):
        traj = splice(wit, gen, semi, t0)
        finals.append(traj.final)
    n0 = op.space.norm(wit.u0)
    for i in range(3):
        for j in range(i + 1, 3):
            assert op.space.norm(finals[i] - finals[j]) > 0.05 * n0


# ---------------------------------------------------------------------------
# multiplicity demo
# ---------------------------------------------------------------------------

def test_multiplicity_demo_separates_branches():
    op, _, _ = wrapped()
    demo = semigroup_multiplicity_demo(op)
    assert demo.separation > 0.1
    assert demo.labels == ("theta=+1", "theta=-1")
    # both branches start identically
    np.testing.assert_allclose(demo.traj_plus.states[0],
                               demo.traj_minus.states[0], atol=1e-14)


def test_multiplicity_branches_both_solve_weakly():
    op, _, _ = wrapped()
    demo = semigroup_multiplicity_demo(op)
    for traj in (demo.traj_plus, demo.traj_minus):
        assert gs_residual(traj, demo.u0, op).passed


def test_multiplicity_demo_lands_on_the_horizon():
    # round(1.0 / 0.3) = 3 steps of 1/3, not of 0.3, so t ends at 1.0
    op, _, _ = wrapped(32)
    demo = semigroup_multiplicity_demo(op, horizon=1.0, dt=0.3)
    for traj in (demo.traj_plus, demo.traj_minus):
        assert traj.nsteps == 3
        assert traj.times[-1] == pytest.approx(1.0, rel=1e-15)


def test_multiplicity_demo_returns_the_separation_series():
    op, _, _ = wrapped(32)
    demo = semigroup_multiplicity_demo(op, horizon=0.5, dt=1e-2)
    diff = demo.traj_plus.states - demo.traj_minus.states
    ref = [op.space.norm(d) for d in diff]
    np.testing.assert_allclose(demo.distances, ref, rtol=1e-14, atol=0.0)
    assert demo.distances[0] == 0.0
    assert demo.separation == demo.distances.max()


def test_multiplicity_demo_requires_defects():
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    op = RestrictedOperator(space=Space.euclidean(2), action=m, domain=None)
    with pytest.raises(ValueError, match="unique"):
        semigroup_multiplicity_demo(op)


def test_multiplicity_generic_coupling_labels():
    # a codim-1 restriction without seam metadata takes the generic route
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    dom = np.array([[1.0], [0.0]])
    op = RestrictedOperator(space=Space.euclidean(2), action=m, domain=dom)
    # the +1 coupling is degenerate for this model, so the demo refuses
    with pytest.raises(ValueError, match="not dense"):
        semigroup_multiplicity_demo(op, horizon=1.0, dt=1e-2)


@pytest.mark.parametrize("horizon, dt", [(2.0, -1e-3), (2.0, 0.0),
                                         (np.inf, 1e-3)])
def test_multiplicity_demo_rejects_bad_step_data(horizon, dt):
    op, _, _ = wrapped(32)
    with pytest.raises(ValueError, match="finite and positive"):
        semigroup_multiplicity_demo(op, horizon=horizon, dt=dt)


def test_multiplicity_demo_runs_the_forward_generators(monkeypatch):
    op, _, _ = wrapped(32)
    gens = []

    def recording(gen, *args):
        gens.append(gen)
        return evolve_cayley(gen, *args)

    monkeypatch.setattr(weak, "evolve_cayley", recording)
    semigroup_multiplicity_demo(op, horizon=0.1, dt=1e-2)
    assert len(gens) == 2
    for gen, theta in zip(gens, (1.0, -1.0)):
        ref = forward_generator(op, theta)
        np.testing.assert_array_equal(gen.dense_action(), ref.dense_action())
        assert gen.label == ref.label


def test_forward_generator_routes():
    op, gen, _ = wrapped(32)
    np.testing.assert_array_equal(forward_generator(op).dense_action(),
                                  gen.dense_action())
    np.testing.assert_array_equal(
        forward_generator(op, -1.0).dense_action(),
        adjoint_generator(seam_extension(op, -1.0)).dense_action())
    full = RestrictedOperator(space=Space.euclidean(2),
                              action=np.array([[0.0, -1.0], [1.0, 0.0]]),
                              domain=None)
    np.testing.assert_array_equal(forward_generator(full).dense_action(),
                                  adjoint_generator(full).dense_action())
    # a restriction without seam metadata goes through extend
    ring = parse_operator_descriptor(GOLDEN / "weighted.json")
    for theta in (1.0, -1.0):
        np.testing.assert_array_equal(
            forward_generator(ring, theta).dense_action(),
            -extend(ring, theta).dense_action())


@pytest.mark.parametrize("theta", [1.0, -1.0])
def test_unit_seam_forward_generators_take_the_schur_route(theta):
    # the wrapped model is sparse, its seam extensions dense and skew, so
    # the Cayley flow turns Schur planes instead of stepping
    op = minimal_derivative_operator(64)
    gen = forward_generator(op, theta)
    assert type(gen.action) is np.ndarray
    u0 = gaussian_profile(op.meta["grid"])
    traj = evolve_cayley(gen, u0, 1e-2, 50)
    assert traj.stepper_meta["schur_rotation"] is True


@pytest.mark.parametrize("n", [32, 48, 64, 100])
def test_unit_seam_forward_generators_are_the_adjoints(n):
    op = minimal_derivative_operator(n)
    for theta in (1.0, -1.0):
        gen = forward_generator(op, theta)
        ref = adjoint_generator(seam_extension(op, theta))
        np.testing.assert_array_equal(gen.dense_action(), ref.dense_action())
        assert gen.label == ref.label


def test_lossy_seam_forward_generator_is_contractive():
    op, _, u0 = wrapped(64)
    gen = forward_generator(op, 0.5)
    norms = evolve_cayley(gen, u0, 5e-3, 400).norms()
    assert np.all(norms[1:] <= norms[:-1] * (1 + 1e-12))
    assert norms[-1] < norms[0]
