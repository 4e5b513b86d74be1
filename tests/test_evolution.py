import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from skewflow.evolution import (
    _ROW_BLOCK,
    Trajectory,
    adjoint_generator,
    evolve_cayley,
    evolve_exact,
)
from skewflow.operators import RestrictedOperator, seam_extension
from skewflow.oracles import gaussian_profile, minimal_derivative_operator
from skewflow.spaces import Space
from skewflow.transport import (
    Grid2D,
    build_transport_operator,
    field_from_stream,
    gaussian_blob,
)


def rotation():
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    return RestrictedOperator(space=Space.euclidean(2), action=m, domain=None)


def wrapped_generator(n=64, theta=1.0):
    op = minimal_derivative_operator(n)
    gen = adjoint_generator(seam_extension(op, theta))
    u0 = gaussian_profile(op.meta["grid"])
    return op, gen, u0 / op.space.norm(u0)


def weighted_ring(n, seed):
    """W^{-1} K for a periodic antisymmetric K and random Gram weights W:
    skew in the weighted metric, not in the Euclidean one."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, n)
    j = np.arange(n)
    K = np.zeros((n, n))
    K[j, (j + 1) % n] = rng.uniform(0.5, 1.5, n)
    K -= K.T
    return RestrictedOperator(space=Space(dim=n, weights=w),
                              action=K / w[:, None], domain=None)


def odd_skew(n, seed):
    """A random antisymmetric matrix of odd size: it has a zero eigenvalue,
    so its real Schur form has a 1x1 block."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return RestrictedOperator(space=Space.euclidean(n), action=a - a.T,
                              domain=None)


def reference_exact(gen, u0, times):
    """The per-time formula e^{tS} = Z R(t) Z^T in the weighted coordinates,
    with R(t) assembled block by block from the real Schur form."""
    sw = np.sqrt(gen.space.weights)
    S = sw[:, None] * gen.dense_action() / sw[None, :]
    T, Z = sla.schur(S, output="real")
    n = S.shape[0]
    rows = []
    for t in times:
        R = np.eye(n)
        i = 0
        while i < n:
            if i + 1 < n and abs(T[i + 1, i]) > 0.0:
                ct, st = np.cos(T[i, i + 1] * t), np.sin(T[i, i + 1] * t)
                R[i:i + 2, i:i + 2] = [[ct, st], [-st, ct]]
                i += 2
            else:
                i += 1
        rows.append((Z @ R @ Z.T @ (sw * u0)) / sw)
    return np.array(rows)


def reference_cayley(gen, u0, dt, nsteps):
    """The dense Cayley loop through scipy's lu_solve."""
    B = gen.dense_action()
    lu = sla.lu_factor(np.eye(gen.dim) - (dt / 2.0) * B)
    half = (dt / 2.0) * B
    u, rows = np.asarray(u0, dtype=float), [u0]
    for _ in range(nsteps):
        u = sla.lu_solve(lu, u + half @ u)
        rows.append(u)
    return np.array(rows)


# ---------------------------------------------------------------------------
# Trajectory container
# ---------------------------------------------------------------------------

def test_trajectory_requires_zero_start():
    s = Space.euclidean(2)
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.5, 1.0]), states=np.zeros((2, 2)), space=s)


def test_trajectory_requires_increasing_times():
    s = Space.euclidean(2)
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0, 1.0]),
                   states=np.zeros((3, 2)), space=s)


def test_trajectory_sample_interpolates_and_clamps():
    s = Space.euclidean(1)
    tr = Trajectory(times=np.array([0.0, 1.0]),
                    states=np.array([[0.0], [2.0]]), space=s)
    assert tr.sample(0.5)[0] == pytest.approx(1.0)
    assert tr.sample(5.0)[0] == pytest.approx(2.0)  # clamped at the end
    got = tr.sample(np.array([0.25, 0.75]))
    np.testing.assert_allclose(got[:, 0], [0.5, 1.5])


# ---------------------------------------------------------------------------
# exact flow
# ---------------------------------------------------------------------------

def test_exact_rotation_matches_trig():
    t = np.array([0.3, 1.2, np.pi])
    traj = evolve_exact(rotation(), np.array([1.0, 0.0]), t)
    for k, tk in enumerate(traj.times):
        np.testing.assert_allclose(traj.states[k],
                                   [np.cos(tk), np.sin(tk)], atol=1e-12)
    assert traj.stepper_meta["schur_rotation"] is True


def test_exact_flow_keeps_norm_for_skew_generators():
    _, gen, u0 = wrapped_generator()
    traj = evolve_exact(gen, u0, [0.1, 1.0, 10.0])
    np.testing.assert_allclose(traj.norms(), 1.0, atol=1e-10)


@pytest.mark.parametrize("theta", [1.0, -1.0])
def test_exact_skew_path_matches_the_per_time_formula(theta):
    _, gen, u0 = wrapped_generator(n=256, theta=theta)
    traj = evolve_exact(gen, u0, np.linspace(0.0, 2.0, 41))
    assert traj.stepper_meta["schur_rotation"] is True
    ref = reference_exact(gen, u0, traj.times)
    assert np.max(np.abs(traj.states - ref)) <= 1e-13


@pytest.mark.parametrize("gen", [weighted_ring(48, seed=3),
                                 odd_skew(33, seed=4)],
                         ids=["weighted", "odd"])
def test_exact_skew_path_covers_weights_and_zero_modes(gen):
    u0 = np.random.default_rng(5).standard_normal(gen.dim)
    traj = evolve_exact(gen, u0, np.linspace(0.0, 3.0, 25))
    assert traj.stepper_meta["schur_rotation"] is True
    ref = reference_exact(gen, u0, traj.times)
    assert np.max(np.abs(traj.states - ref)) <= 1e-13


def test_exact_skew_path_sorts_dedups_and_spans_row_blocks():
    _, gen, u0 = wrapped_generator(n=32)
    grid = np.linspace(0.0, 4.0, 2 * _ROW_BLOCK + 7)
    times = np.random.default_rng(6).permutation(
        np.concatenate([grid, grid[::5]]))
    traj = evolve_exact(gen, u0, times)
    np.testing.assert_array_equal(traj.times, grid)
    ref = reference_exact(gen, u0, grid)
    assert np.max(np.abs(traj.states - ref)) <= 1e-13


def test_exact_flow_handles_nonskew_by_expm():
    b = RestrictedOperator(space=Space.euclidean(2),
                           action=np.array([[-1.0, 0.0], [0.0, -2.0]]),
                           domain=None)
    traj = evolve_exact(b, np.array([1.0, 1.0]), [1.0])
    np.testing.assert_allclose(traj.states[-1],
                               [np.exp(-1), np.exp(-2)], atol=1e-12)
    assert traj.stepper_meta["schur_rotation"] is False


@pytest.mark.parametrize("theta", [0.4, -0.9, 0.0])
def test_exact_nonskew_path_matches_per_time_expm(theta):
    # a dissipative seam flow sampled at shuffled, non-uniform times: the
    # interval-by-interval expm_multiply against one expm per time
    op = minimal_derivative_operator(33)
    ext = seam_extension(op, theta)
    gen = RestrictedOperator(space=ext.space, action=-ext.dense_action(),
                             domain=None)
    u0 = gaussian_profile(op.meta["grid"])
    u0 = u0 / op.space.norm(u0)
    rng = np.random.default_rng(7)
    times = np.concatenate([rng.uniform(0.0, 2.0, 40),
                            [1e-6, 3.0, 3.0 + 1e-9]])
    rng.shuffle(times)
    traj = evolve_exact(gen, u0, times)
    assert traj.stepper_meta["schur_rotation"] is False
    sw = np.sqrt(op.space.weights)
    S = sw[:, None] * gen.dense_action() / sw[None, :]
    ref = np.array([(sla.expm(t * S) @ (sw * u0)) / sw for t in traj.times])
    assert np.max(np.abs(traj.states - ref)) <= 1e-12
    norms = traj.norms()
    assert np.all(norms[1:] <= norms[:-1] * (1.0 + 1e-12))
    assert norms[-1] < 0.99 * norms[0]


@pytest.mark.parametrize("action", [[[0.0, -1.0], [1.0, 0.0]],
                                    [[-1.0, 0.0], [0.0, -2.0]]],
                         ids=["schur", "expm"])
def test_exact_flow_rejects_non_finite_initial_data(action):
    b = RestrictedOperator(space=Space.euclidean(2), action=np.array(action),
                           domain=None)
    with pytest.raises(ValueError, match="infs or NaNs"):
        evolve_exact(b, [np.nan, 1.0], [1.0])


def test_exact_flow_requires_full_domain():
    op = minimal_derivative_operator(16)
    with pytest.raises(ValueError, match="extend the operator first"):
        evolve_exact(op, np.ones(16), [1.0])


# ---------------------------------------------------------------------------
# trapezoidal stepping
# ---------------------------------------------------------------------------

def test_cayley_flow_is_norm_exact_for_skew():
    _, gen, u0 = wrapped_generator()
    traj = evolve_cayley(gen, u0, 1e-2, 500)
    norms = traj.norms()
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_cayley_second_order_in_time():
    # Richardson: halving dt should cut the endpoint error by about 4
    _, gen, u0 = wrapped_generator(n=32)
    ref = evolve_exact(gen, u0, [1.0]).final
    errs = []
    for nsteps in (100, 200):
        got = evolve_cayley(gen, u0, 1.0 / nsteps, nsteps).final
        errs.append(np.linalg.norm(got - ref))
    assert 3.3 < errs[0] / errs[1] < 4.7


def test_cayley_shapes_and_meta():
    _, gen, u0 = wrapped_generator(n=16)
    traj = evolve_cayley(gen, u0, 0.1, 7)
    assert traj.states.shape == (8, 16)
    assert traj.times[-1] == pytest.approx(0.7)
    assert traj.stepper_meta["method"] == "cayley"
    assert traj.stepper_meta["dt"] == pytest.approx(0.1)


def test_cayley_validates_inputs():
    _, gen, u0 = wrapped_generator(n=16)
    with pytest.raises(ValueError):
        evolve_cayley(gen, u0, -0.1, 10)
    with pytest.raises(ValueError):
        evolve_cayley(gen, u0, 0.1, 0)
    op = minimal_derivative_operator(16)
    with pytest.raises(ValueError, match="extend the operator first"):
        evolve_cayley(op, u0, 0.1, 10)


@pytest.mark.parametrize("theta", [1.0, 0.3])
def test_dense_cayley_is_bit_identical_to_lu_solve_loop(theta):
    op = minimal_derivative_operator(64)
    ext = seam_extension(op, theta)
    gen = (adjoint_generator(ext) if theta == 1.0 else
           RestrictedOperator(space=ext.space, action=-ext.dense_action(),
                              domain=None))
    u0 = gaussian_profile(op.meta["grid"])
    traj = evolve_cayley(gen, u0, 1e-2, 300)
    assert np.array_equal(traj.states, reference_cayley(gen, u0, 1e-2, 300))


def test_cayley_rejects_non_finite_input_and_singular_steps():
    _, gen, u0 = wrapped_generator(n=16)
    bad = u0.copy()
    bad[3] = np.nan
    sparse = RestrictedOperator(space=gen.space,
                                action=sp.csr_matrix(gen.dense_action()),
                                domain=None)
    for g in (gen, sparse):
        with pytest.raises(ValueError, match="infs or NaNs"):
            evolve_cayley(g, bad, 0.1, 5)
    # E - dt/2 B = diag(0, 0.75) is exactly singular for dt = 0.5
    b = RestrictedOperator(space=Space.euclidean(2),
                           action=np.diag([4.0, 1.0]), domain=None)
    with pytest.warns(sla.LinAlgWarning), \
            pytest.raises(ValueError, match="finite"):
        evolve_cayley(b, np.ones(2), 0.5, 1)


def test_sparse_cayley_matches_the_densified_stepper():
    # the SuperLU path (minimum-degree ordering) against dense LU on the
    # same seeded periodic stream: orderings differ only by rounding
    g = Grid2D(16, 16)
    rng = np.random.default_rng(3)
    xn, yn = g.node_coords()
    psi = sum(0.05 * rng.standard_normal()
              * np.outer(np.sin(2 * np.pi * k * xn + rng.uniform(0, 6)),
                         np.sin(2 * np.pi * l * yn + rng.uniform(0, 6)))
              for k in (1, 2) for l in (1, 2))
    gen = adjoint_generator(build_transport_operator(field_from_stream(g, psi)))
    dense = RestrictedOperator(space=gen.space, action=gen.dense_action(),
                               domain=None)
    u0 = gaussian_blob(g, (0.4, 0.6), 0.1)
    a = evolve_cayley(gen, u0, 2e-2, 200)
    b = evolve_cayley(dense, u0, 2e-2, 200)
    diff = np.sqrt(np.einsum("kj,j,kj->k", a.states - b.states,
                             gen.space.weights, a.states - b.states))
    assert np.max(diff / b.norms()) <= 1e-12
    assert np.max(np.abs(a.norms() - a.norms()[0])) <= 1e-12


@pytest.mark.parametrize("case", ["singular", "nan"])
def test_sparse_cayley_failures_are_value_errors(case):
    # E - dt/2 B = diag(0, 0.75) for dt = 0.5; SuperLU itself raises
    # RuntimeError for it, the dense path ValueError
    action = np.diag([4.0, 1.0])
    if case == "nan":
        action[0, 1] = np.nan
    b = RestrictedOperator(space=Space.euclidean(2),
                           action=sp.csr_matrix(action), domain=None)
    with pytest.raises(ValueError, match="singular"):
        evolve_cayley(b, np.ones(2), 0.5, 1)


def test_cayley_contracts_for_dissipative_generators():
    op = minimal_derivative_operator(32)
    ext = seam_extension(op, 0.0)  # fully absorbing seam
    gen = RestrictedOperator(space=ext.space, action=-ext.dense_action(),
                             domain=None)
    u0 = np.zeros(32)
    u0[0] = 1.0 / np.sqrt(op.space.weights[0])  # mass right on the seam
    traj = evolve_cayley(gen, u0, 1e-2, 200)
    norms = traj.norms()
    assert np.all(np.diff(norms) <= 1e-12)
    assert norms[-1] < 0.9 * norms[0]


# ---------------------------------------------------------------------------
# adjoint pairing
# ---------------------------------------------------------------------------

def test_adjoint_generator_negates_skew_actions():
    op = minimal_derivative_operator(32)
    ext = seam_extension(op, 1.0)
    gen = adjoint_generator(ext)
    np.testing.assert_allclose(gen.dense_action(), -ext.dense_action(),
                               atol=1e-13)


def test_adjoint_generator_uses_the_weights():
    w = np.array([1.0, 4.0])
    b = np.array([[0.0, 1.0], [0.5, 0.0]])
    op = RestrictedOperator(space=Space(dim=2, weights=w), action=b,
                            domain=None)
    adj = adjoint_generator(op).dense_action()
    # (W^{-1} B^T W)_{01} = w1/w0 * B_{10}
    assert adj[0, 1] == pytest.approx(4.0 * 0.5 / 1.0)
    assert adj[1, 0] == pytest.approx(1.0 / 4.0)
