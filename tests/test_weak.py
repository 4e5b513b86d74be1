import tracemalloc

import numpy as np
import pytest

from skewflow.evolution import Trajectory, adjoint_generator, evolve_cayley
from skewflow.operators import RestrictedOperator, extend, seam_extension
from skewflow.oracles import gaussian_profile, minimal_derivative_operator
from skewflow.spaces import Space
from skewflow.transport import (
    Grid2D,
    build_transport_operator,
    field_from_stream,
)
from skewflow.weak import (
    compare_solutions,
    default_family,
    default_profiles,
    gs_residual,
    semigroup_multiplicity_demo,
    splice,
    witness_nonuniqueness,
)


def wrapped(n=64):
    op = minimal_derivative_operator(n)
    gen = adjoint_generator(seam_extension(op, 1.0))
    u0 = gaussian_profile(op.meta["grid"])
    return op, gen, u0 / op.space.norm(u0)


# ---------------------------------------------------------------------------
# residual machinery
# ---------------------------------------------------------------------------

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
    d = op.space.norm(wit.sample(1.0) - semi.sample(1.0))
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
    spl = splice(wit, gen, 0.5)
    # the spliced state at the switch is exactly the witness state there
    times = np.linspace(0.0, 2.0, 801)
    traj = spl.trajectory(times, dt=1e-3)
    k = np.searchsorted(times, 0.5)
    assert op.space.norm(traj.states[k] - wit.sample(0.5)) < 1e-10
    # and the increment across the switch shrinks linearly with the
    # sampling step, as it must for a continuous path (a jump would not)
    jumps = []
    for npts in (801, 1601, 3201):
        t = np.linspace(0.0, 2.0, npts)
        tr = spl.trajectory(t, dt=1e-3)
        j = np.searchsorted(t, 0.5)
        jumps.append(op.space.norm(tr.states[j + 1] - tr.states[j - 1]))
    assert jumps[2] < jumps[1] < jumps[0]
    assert jumps[0] / jumps[2] > 3.0


def test_splice_matches_witness_before_t0():
    op, gen, _ = wrapped()
    wit = witness_nonuniqueness(op)
    spl = splice(wit, gen, 1.0)
    times = np.linspace(0.0, 2.0, 401)
    traj = spl.trajectory(times, dt=1e-3)
    wt = wit.trajectory(times)
    half = times <= 1.0
    assert np.max(np.abs(traj.states[half] - wt.states[half])) < 1e-10


def test_splice_rejects_foreign_generators():
    op, gen, _ = wrapped(32)
    wit = witness_nonuniqueness(op)
    rng = np.random.default_rng(1)
    stray = RestrictedOperator(space=op.space,
                               action=rng.standard_normal((32, 32)),
                               domain=None)
    with pytest.raises(ValueError, match="pairing"):
        splice(wit, stray, 0.5)


def test_splices_separate_at_the_horizon():
    op, gen, _ = wrapped()
    wit = witness_nonuniqueness(op)
    times = np.linspace(0.0, 2.0, 801)
    finals = []
    for t0 in (0.0, 0.5, 1.0):
        traj = splice(wit, gen, t0).trajectory(times, dt=1e-3)
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


def test_compare_solutions_reports_distances():
    op, gen, u0 = wrapped(32)
    a = evolve_cayley(gen, u0, 1e-2, 100)
    b = evolve_cayley(gen, u0, 1e-2, 100)
    rep = compare_solutions(a, b, np.linspace(0.0, 1.0, 11))
    assert rep.max_distance < 1e-13
