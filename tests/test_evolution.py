import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from skewflow import evolution
from skewflow.evolution import (
    _ROW_BLOCK,
    Trajectory,
    _eliminated_nodes,
    _neumann_terms,
    adjoint_generator,
    evolve_cayley,
    evolve_exact,
    steps_to_horizon,
)
from skewflow.operators import (
    RestrictedOperator,
    _identity_coords,
    seam_extension,
    sparse_shifted_lu,
)
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
        rows.append((Z @ (R @ (Z.T @ (sw * u0)))) / sw)
    return np.array(rows)


def reference_schur_cayley(gen, u0, dt, nsteps):
    """The Schur route with its phases taken step by step: after k steps
    plane j has turned by k 2 atan(b_j dt/2), whose cos and sin are taken
    directly, and the rotated coordinates are scattered plane by plane."""
    sw = np.sqrt(gen.space.weights)
    S = sw[:, None] * gen.dense_action() / sw[None, :]
    T, Z = sla.schur(S, output="real")
    n = S.shape[0]
    first, i = [], 0
    while i < n:
        if i + 1 < n and abs(T[i + 1, i]) > 0.0:
            first.append(i)
            i += 2
        else:
            i += 1
    p = np.asarray(first, dtype=np.intp)
    c = Z.T @ (sw * u0)
    angle = (np.arange(nsteps + 1)[:, None]
             * (2.0 * np.arctan(0.5 * dt * T[p, p + 1]))[None, :])
    ct, st = np.cos(angle), np.sin(angle)
    Y = np.repeat(c[None, :], nsteps + 1, axis=0)
    Y[:, p] = ct * c[p] + st * c[p + 1]
    Y[:, p + 1] = ct * c[p + 1] - st * c[p]
    return (Y @ Z.T) / sw


def binary_phase_trig(k, phi):
    """cos and sin of k phi for the integers k, with no rounding of the
    phase: k phi is summed from the exact products 2^j phi over the set
    bits of k by the angle sum rule, so the error stays at a few eps
    however large k phi grows (a rounded k phi is off by up to
    ulp(k phi) / 2, 1.8e-12 at k phi = 3e4)."""
    cos = np.ones((k.size, phi.size))
    sin = np.zeros((k.size, phi.size))
    for j in range(int(k.max()).bit_length()):
        bit = (k >> j) & 1 == 1
        cj, sj = np.cos(2.0 ** j * phi), np.sin(2.0 ** j * phi)
        cos[bit], sin[bit] = (cos[bit] * cj - sin[bit] * sj,
                              sin[bit] * cj + cos[bit] * sj)
    return cos, sin


def reference_rotated_rows(gen, u0, phase, rows):
    """Row k = Z R(k phi) Z^T u0 in the weighted coordinates, plane by
    plane from the real Schur form, with phi = phase(b) for each plane of
    frequency b and the cos and sin of k phi from binary_phase_trig."""
    sw = np.sqrt(gen.space.weights)
    S = sw[:, None] * gen.dense_action() / sw[None, :]
    T, Z = sla.schur(S, output="real")
    n = S.shape[0]
    first, i = [], 0
    while i < n:
        if i + 1 < n and abs(T[i + 1, i]) > 0.0:
            first.append(i)
            i += 2
        else:
            i += 1
    p = np.asarray(first, dtype=np.intp)
    c = Z.T @ (sw * u0)
    ct, st = binary_phase_trig(np.arange(rows), phase(T[p, p + 1]))
    Y = np.repeat(c[None, :], rows, axis=0)
    Y[:, p] = ct * c[p] + st * c[p + 1]
    Y[:, p + 1] = ct * c[p + 1] - st * c[p]
    return (Y @ Z.T) / sw


def dissipative_ring(n, seed):
    """weighted_ring minus a positive diagonal: W-dissipative, not skew."""
    ring = weighted_ring(n, seed)
    d = np.random.default_rng(seed + 1).uniform(0.1, 1.0, n)
    return RestrictedOperator(space=ring.space,
                              action=ring.action - np.diag(d), domain=None)


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


def reference_sparse_cayley(gen, u0, dt, nsteps):
    """The sparse Cayley loop over the whole matrix: one SuperLU
    factorization of E - dt/2 B, then one product with B and one solve
    per step."""
    half = (dt / 2.0) * gen.action.tocsc()
    lu = sparse_shifted_lu(half)
    u, rows = np.asarray(u0, dtype=float), [u0]
    for _ in range(nsteps):
        u = lu.solve(u + half @ u)
        rows.append(u)
    return np.array(rows)


def rotation_stencil(n):
    """The forward generator of rigid rotation on the n^2 periodic grid:
    its diagonal is exactly zero."""
    g = Grid2D(n, n)
    fld = field_from_stream(
        g, lambda x, y: -0.5 * ((x - 0.5) ** 2 + (y - 0.5) ** 2))
    return (adjoint_generator(build_transport_operator(fld)),
            gaussian_blob(g, (0.65, 0.5), 0.12))


def cellular_stencil(n, seed):
    """The forward generator of a seeded sum of periodic cells on the n^2
    grid: its diagonal is rounding-level, not zero."""
    g = Grid2D(n, n)
    rng = np.random.default_rng(seed)
    xn, yn = g.node_coords()
    psi = sum(0.05 * rng.standard_normal()
              * np.outer(np.sin(2 * np.pi * k * xn + rng.uniform(0, 6)),
                         np.sin(2 * np.pi * l * yn + rng.uniform(0, 6)))
              for k in (1, 2) for l in (1, 2))
    gen = adjoint_generator(build_transport_operator(field_from_stream(g, psi)))
    return gen, gaussian_blob(g, (0.4, 0.6), 0.1)


def sparse_dissipative(n, seed):
    """The 24^2 rotation generator minus a seeded positive diagonal."""
    gen, u0 = rotation_stencil(n)
    d = np.random.default_rng(seed).uniform(0.1, 1.0, gen.dim)
    return (RestrictedOperator(space=gen.space,
                               action=(gen.action - sp.diags(d)).tocsr(),
                               domain=None), u0)


SPARSE_CASES = {
    "rotation-48": lambda: rotation_stencil(48),
    "rotation-33": lambda: rotation_stencil(33),
    "cellular-32": lambda: cellular_stencil(32, 5),
    "dissipative-24": lambda: sparse_dissipative(24, 7),
}


def max_relative_distance(gen, got, ref):
    """Largest W-norm of got[k] - ref[k] relative to that of ref[k]."""
    w = gen.space.weights
    d = got - ref
    return float(np.max(np.sqrt(np.einsum("kj,j,kj->k", d, w, d)
                                / np.einsum("kj,j,kj->k", ref, w, ref))))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_trajectory_rejects_non_finite_times(bad):
    s = Space.euclidean(2)
    with pytest.raises(ValueError, match="finite"):
        Trajectory(times=np.array([0.0, 1.0, bad]),
                   states=np.zeros((3, 2)), space=s)


def test_one_sample_trajectory_samples_its_only_state():
    u0 = np.array([1.0, -2.0])
    traj = evolve_exact(rotation(), u0, [0.0])
    assert traj.times.tolist() == [0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(traj.sample(0.0), u0)
        got = traj.sample(np.array([-1.0, 0.0, 3.0]))
    assert np.array_equal(got, np.repeat(u0[None, :], 3, axis=0))


def test_trajectory_sample_interpolates_and_clamps():
    s = Space.euclidean(1)
    tr = Trajectory(times=np.array([0.0, 1.0]),
                    states=np.array([[0.0], [2.0]]), space=s)
    assert tr.sample(0.5)[0] == pytest.approx(1.0)
    assert tr.sample(5.0)[0] == pytest.approx(2.0)  # clamped at the end
    got = tr.sample(np.array([0.25, 0.75]))
    np.testing.assert_allclose(got[:, 0], [0.5, 1.5])


def test_trajectory_sample_rejects_nan_and_clamps_infinities():
    s = Space.euclidean(1)
    tr = Trajectory(times=np.array([0.0, 1.0]),
                    states=np.array([[0.0], [2.0]]), space=s)
    for t in (np.nan, np.array([0.5, np.nan])):
        with pytest.raises(ValueError, match="NaN"):
            tr.sample(t)
    got = tr.sample(np.array([-np.inf, np.inf]))
    assert got[:, 0].tolist() == [0.0, 2.0]


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


@pytest.mark.parametrize("grid", ["linspace", "dt-multiples", "random"])
def test_exact_skew_path_on_uniform_and_random_grids(grid):
    # uniform grids (linspace as the benchmark samples, dt k as the CLI
    # does) take the phases k d b by the mirrored fill; random times keep
    # cos and sin of each t b
    _, gen, u0 = wrapped_generator(n=256)
    times = {"linspace": np.linspace(0.0, 2.0, 2001),
             "dt-multiples": 1e-3 * np.arange(2001),
             "random": np.random.default_rng(12).uniform(0.0, 2.0, 2000),
             }[grid]
    traj = evolve_exact(gen, u0, times)
    meta = traj.stepper_meta
    assert meta["route"] == "schur" and meta["schur_rotation"] is True
    if grid == "random":
        assert meta["uniform_step"] is None
    else:
        assert meta["uniform_step"] == pytest.approx(1e-3, rel=1e-15)
    assert np.array_equal(traj.states[0], u0)
    ref = reference_exact(gen, u0, traj.times)
    assert np.max(np.abs(traj.states - ref)) <= 1e-13


def lossy_seam(n, theta):
    """The contractive flow of minus the seam extension (|theta| < 1)
    and the normalized Gaussian on the n-point grid."""
    op = minimal_derivative_operator(n)
    ext = seam_extension(op, theta)
    gen = RestrictedOperator(space=ext.space, action=-ext.dense_action(),
                             domain=None)
    u0 = gaussian_profile(op.meta["grid"])
    return gen, u0 / op.space.norm(u0)


def reference_expm(gen, u0, times):
    """One dense exponential per time, in the identity coordinates."""
    sw = np.sqrt(gen.space.weights)
    S = sw[:, None] * gen.dense_action() / sw[None, :]
    return np.array([(sla.expm(t * S) @ (sw * u0)) / sw for t in times])


@pytest.mark.parametrize("theta", [0.4, -0.9, 0.0])
def test_exact_nonskew_uniform_grid_steps_one_exponential(theta):
    # 64 intervals at n = 128 (8 x 64 >= 128): P = e^{dB} once, then
    # powers of it, against one expm per time
    gen, u0 = lossy_seam(128, theta)
    traj = evolve_exact(gen, u0, np.linspace(0.0, 2.0, 65))
    meta = traj.stepper_meta
    assert meta["route"] == "step_matrix" and meta["schur_rotation"] is False
    assert meta["uniform_step"] == pytest.approx(2.0 / 64, rel=1e-15)
    assert np.array_equal(traj.states[0], u0)
    ref = reference_expm(gen, u0, traj.times)
    assert np.max(np.abs(traj.states - ref)) <= 1e-12
    norms = traj.norms()
    assert np.all(norms[1:] <= norms[:-1] * (1.0 + 1e-12))
    assert norms[-1] < 0.99 * norms[0]


@pytest.mark.parametrize("n,intervals,route", [
    (512, 2, "expm_multiply"), (128, 15, "expm_multiply"),
    (128, 16, "step_matrix")])
def test_exact_nonskew_uniform_grid_cost_rule(n, intervals, route):
    # one expm costs about n/8 expm_multiply calls: fewer intervals than
    # that stay on expm_multiply, on a uniform grid too
    gen, u0 = lossy_seam(n, 0.3)
    traj = evolve_exact(gen, u0, np.linspace(0.0, 1.0, intervals + 1))
    assert traj.stepper_meta["route"] == route
    assert traj.stepper_meta["uniform_step"] == pytest.approx(1.0 / intervals)
    ref = reference_expm(gen, u0, traj.times)
    assert np.max(np.abs(traj.states - ref)) <= 1e-12


def test_exact_step_matrix_overflow_names_the_first_bad_step():
    # e^{400} is finite, e^{800} is not: sample 2 of the grid overflows
    b = RestrictedOperator(space=Space.euclidean(2),
                           action=np.diag([800.0, -1.0]), domain=None)
    with pytest.raises(ValueError, match=r"^step 2 left the finite"):
        evolve_exact(b, np.ones(2), [0.5, 1.0])


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
    assert traj.stepper_meta["route"] == "expm_multiply"
    assert traj.stepper_meta["uniform_step"] is None
    ref = reference_expm(gen, u0, traj.times)
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


@pytest.mark.parametrize("times", [[np.inf], [np.nan], [1.0, np.nan]],
                         ids=["inf", "nan", "trailing-nan"])
@pytest.mark.parametrize("action", [[[0.0, -1.0], [1.0, 0.0]],
                                    [[-1.0, 0.0], [0.0, -2.0]]],
                         ids=["schur", "expm"])
def test_exact_flow_rejects_non_finite_times(action, times):
    b = RestrictedOperator(space=Space.euclidean(2), action=np.array(action),
                           domain=None)
    with pytest.raises(ValueError, match="sample times must be finite"):
        evolve_exact(b, [1.0, 0.0], times)


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


def bad_input_generators():
    _, skew, u0 = wrapped_generator(n=16)
    dissipative = RestrictedOperator(
        space=skew.space, action=skew.dense_action() - np.eye(16),
        domain=None)
    sparse = RestrictedOperator(space=skew.space,
                                action=sp.csr_matrix(skew.dense_action()),
                                domain=None)
    return {"schur": skew, "step-matrix": dissipative,
            "sparse": sparse}, u0


@pytest.mark.parametrize("route", ["schur", "step-matrix", "sparse"])
@pytest.mark.parametrize("bad", ["short", "column", "matrix"])
def test_steppers_name_a_u0_of_the_wrong_shape(route, bad):
    gens, u0 = bad_input_generators()
    u = {"short": u0[:7], "column": u0[:, None],
         "matrix": np.tile(u0, (16, 1))}[bad]
    with pytest.raises(ValueError, match="u0 must be a vector of length 16"):
        evolve_cayley(gens[route], u, 0.1, 3)
    if route != "sparse":
        with pytest.raises(ValueError,
                           match="u0 must be a vector of length 16"):
            evolve_exact(gens[route], u, [0.5, 1.0])


@pytest.mark.parametrize("route", ["schur", "step-matrix", "sparse"])
@pytest.mark.parametrize("nsteps", [2.5, np.nan, np.inf, "3", 0, -2])
def test_cayley_names_a_bad_step_count(route, nsteps):
    gens, u0 = bad_input_generators()
    with pytest.raises(ValueError, match="nsteps must be an integer >= 1"):
        evolve_cayley(gens[route], u0, 0.1, nsteps)


def test_cayley_accepts_numpy_integer_step_counts():
    gens, u0 = bad_input_generators()
    traj = evolve_cayley(gens["step-matrix"], u0, 0.1, np.int64(4))
    assert traj.states.shape == (5, 16)


def test_steps_to_horizon_lands_on_the_horizon():
    assert steps_to_horizon(1.0, 0.3) == (1.0 / 3, 3)
    assert steps_to_horizon(2.0, 1e-3) == (2.0 / 2000, 2000)
    # a dt beyond the horizon still takes one step
    assert steps_to_horizon(0.5, 4.0) == (0.5, 1)


@pytest.mark.parametrize("horizon, dt, message", [
    (1.0, 0.0, "dt must"), (1.0, -1e-3, "dt must"), (1.0, np.nan, "dt must"),
    (1.0, np.inf, "dt must"), (0.0, 0.1, "horizon"), (-1.0, 0.1, "horizon"),
    (np.inf, 0.1, "horizon"), (np.nan, 0.1, "horizon"),
    (1e300, 1e-300, "horizon / dt"),
])
def test_steps_to_horizon_rejects_bad_input(horizon, dt, message):
    with pytest.raises(ValueError, match=message):
        steps_to_horizon(horizon, dt)


@pytest.mark.parametrize("route", ["schur", "step-matrix", "sparse"])
@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
def test_cayley_rejects_non_finite_steps(route, dt):
    _, gen, u0 = wrapped_generator(n=16)
    if route == "step-matrix":
        gen = RestrictedOperator(space=gen.space,
                                 action=gen.dense_action() - np.eye(16),
                                 domain=None)
    elif route == "sparse":
        gen = RestrictedOperator(space=gen.space,
                                 action=sp.csr_matrix(gen.dense_action()),
                                 domain=None)
    with pytest.raises(ValueError, match="finite dt"):
        evolve_cayley(gen, u0, dt, 3)


@pytest.mark.parametrize("theta", [1.0, 0.3])
def test_dense_cayley_matches_the_lu_solve_loop(theta):
    # theta = 1: the skew generator takes the Schur rotations; theta = 0.3:
    # the dissipative one steps by the step matrix. Both agree with the
    # solve-per-step loop to rounding, and start exactly at u0.
    op = minimal_derivative_operator(64)
    ext = seam_extension(op, theta)
    gen = (adjoint_generator(ext) if theta == 1.0 else
           RestrictedOperator(space=ext.space, action=-ext.dense_action(),
                              domain=None))
    u0 = gaussian_profile(op.meta["grid"])
    traj = evolve_cayley(gen, u0, 1e-2, 300)
    assert traj.stepper_meta["schur_rotation"] is (theta == 1.0)
    assert np.array_equal(traj.states[0], u0)
    ref = reference_cayley(gen, u0, 1e-2, 300)
    assert max_relative_distance(gen, traj.states, ref) <= 1e-12


@pytest.mark.parametrize("name,dt", [("weighted", 1e-2), ("weighted", 2.0),
                                     ("odd", 0.5), ("wrapped", 2.0)])
def test_schur_cayley_matches_the_stepped_loop(name, dt):
    # non-uniform weights, a zero mode, and steps far beyond the
    # frequencies' scale, where each plane turns by 2 atan(b dt/2) < pi
    if name == "wrapped":
        _, gen, u0 = wrapped_generator(n=128)
    else:
        gen = weighted_ring(48, seed=3) if name == "weighted" else odd_skew(
            33, seed=4)
        u0 = np.random.default_rng(5).standard_normal(gen.dim)
    traj = evolve_cayley(gen, u0, dt, 200)
    assert traj.stepper_meta["schur_rotation"] is True
    ref = reference_cayley(gen, u0, dt, 200)
    assert max_relative_distance(gen, traj.states, ref) <= 1e-12


@pytest.mark.parametrize("nsteps", [1, 5, _ROW_BLOCK, 2 * _ROW_BLOCK + 7])
@pytest.mark.parametrize("dt", [1e-2, 2.0])
@pytest.mark.parametrize("name", ["weighted", "odd", "wrapped"])
def test_schur_cayley_phases_match_the_per_step_formula(name, dt, nsteps):
    # rows mirrored around block centres against cos and sin of k phi
    # taken directly for every step k
    if name == "wrapped":
        _, gen, u0 = wrapped_generator(n=128)
    else:
        gen = weighted_ring(48, seed=3) if name == "weighted" else odd_skew(
            33, seed=4)
        u0 = np.random.default_rng(5).standard_normal(gen.dim)
    traj = evolve_cayley(gen, u0, dt, nsteps)
    assert traj.stepper_meta["schur_rotation"] is True
    assert np.array_equal(traj.states[0], u0)
    ref = reference_schur_cayley(gen, u0, dt, nsteps)
    assert max_relative_distance(gen, traj.states, ref) <= 1e-13


def mirrored_fill(gen, u0, phi, rows):
    """The rows 0 .. rows-1 of the uniform-grid Schur fill with the plane
    angles k phi(b), as evolve_cayley and evolve_exact call it."""
    sw = np.sqrt(gen.space.weights)
    planes = evolution._schur_planes(
        gen, _identity_coords(gen.space, gen.dense_action()))
    out = np.empty((rows, gen.dim))
    evolution._skew_schur_states(planes, sw * u0, sw, out, phi(planes[2]))
    return out


R = _ROW_BLOCK


@pytest.mark.parametrize("rows", [1, 2, 3, R, 2 * R - 1, 2 * R, 2 * R + 1,
                                  4 * R + 3])
@pytest.mark.parametrize("name", ["weighted", "odd", "wrapped"])
def test_mirrored_fill_matches_the_per_row_rotation(name, rows):
    # rows c +- i around each centre c: whole groups of 2R - 1 rows, then
    # a last group of 1, 2, 3, R, none, 1, 2 or 5 rows centred in what is
    # left; odd has a zero mode, a plane of frequency 0
    if name == "wrapped":
        _, gen, u0 = wrapped_generator(n=128)
    else:
        gen = weighted_ring(48, seed=3) if name == "weighted" else odd_skew(
            33, seed=4)
        u0 = np.random.default_rng(5).standard_normal(gen.dim)

    def phase(b):
        return 2.0 * np.arctan(0.5e-2 * b)

    got = mirrored_fill(gen, u0, phase, rows)
    ref = reference_rotated_rows(gen, u0, phase, rows)
    assert max_relative_distance(gen, got, ref) <= 1e-13


def test_mirrored_fill_of_a_zero_generator_keeps_u0():
    # m = 0: no plane turns, and every row is the zero-mode row
    gen = RestrictedOperator(space=Space(dim=7, weights=np.arange(1.0, 8.0)),
                             action=np.zeros((7, 7)), domain=None)
    u0 = np.random.default_rng(8).standard_normal(7)
    for traj in (evolve_cayley(gen, u0, 0.1, 2 * R + 1),
                 evolve_exact(gen, u0, np.linspace(0.0, 1.0, 9)),
                 evolve_exact(gen, u0, [0.3, 0.7, 2.0])):
        assert traj.stepper_meta["schur_rotation"] is True
        assert np.max(np.abs(traj.states - u0)) <= 1e-15


@pytest.mark.parametrize("theta", [1.0, -1.0])
def test_schur_cayley_phases_stay_exact_where_phi_nears_pi(theta):
    # dt = 0.37 turns the fast planes by nearly pi a step, so after 10^4
    # steps the phases reach 3.1e4, where rounding k phi would cost up to
    # 1.8e-12; the fill forms them exactly
    _, gen, u0 = wrapped_generator(n=256, theta=theta)
    traj = evolve_cayley(gen, u0, 0.37, 10_000)
    assert traj.stepper_meta["schur_rotation"] is True
    ref = reference_rotated_rows(
        gen, u0, lambda b: 2.0 * np.arctan(0.185 * b), 10_001)
    assert max_relative_distance(gen, traj.states, ref) <= 1e-13
    norms = traj.norms()
    assert np.max(norms[1:] / norms[:-1]) <= 1.0 + 1e-12
    assert np.max(np.abs(norms - norms[0])) <= 1e-13 * norms[0]


def test_mirrored_fill_temporaries_do_not_grow_with_the_step_count():
    # n = 256, 10^4 steps: the 20 MB of states plus temporaries of a few
    # n x n; a table of cos and sin per step (10 MB) would break the bound
    _, gen, u0 = wrapped_generator(n=256)
    evolve_cayley(gen, u0, 1e-3, 1)
    tracemalloc.start()
    try:
        traj = evolve_cayley(gen, u0, 1e-3, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - traj.states.nbytes <= 8 * gen.dim ** 2 * 8


@pytest.mark.parametrize("times,bad", [([0.0, 1e307, 2e307], 2),
                                       ([0.0, 1e307, 2.5e307], 2),
                                       ([0.0, 1.0, 3e307], 2),
                                       ([0.0, 3e307], 1)],
                         ids=["uniform", "non-uniform", "late", "first"])
def test_exact_schur_overflow_names_the_first_bad_sample(times, bad):
    # the largest frequency of this generator is 16: 1e307 x 16 is
    # finite, 2e307 x 16 is not
    gen = seam_extension(minimal_derivative_operator(16), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=rf"^sample {bad} left the finite numbers"):
            evolve_exact(gen, np.ones(16), times)


def test_mirrored_fill_puts_no_centre_past_the_last_row():
    # 2R rows: one whole group and a last row that is its own centre; a
    # centre placed R - 1 rows past it would turn by 1.5 x the last
    # row's phase, which overflows here
    gen = seam_extension(minimal_derivative_operator(16), 1.0)
    top = float(np.max(np.abs(evolution._schur_planes(
        gen, _identity_coords(gen.space, gen.dense_action()))[2])))
    times = np.linspace(0.0, 0.9 * np.finfo(float).max / top, 2 * R)
    u0 = np.random.default_rng(9).standard_normal(16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve_exact(gen, u0, times)
    assert traj.stepper_meta["uniform_step"] is not None
    assert np.isfinite(traj.states).all()
    np.testing.assert_allclose(traj.norms(), gen.space.norm(u0), rtol=1e-13)


@pytest.mark.parametrize("nsteps", [1, 2, 3, 127, 128, 129, 263])
def test_doubled_step_powers_match_the_lu_solve_loop(nsteps):
    # n = 6: b doubles up to _ROW_BLOCK once nsteps >= log2(128) * 6 = 42,
    # so these counts end inside, on and just past doubled blocks
    gen = dissipative_ring(6, seed=8)
    u0 = np.random.default_rng(9).standard_normal(6)
    traj = evolve_cayley(gen, u0, 0.1, nsteps)
    assert traj.stepper_meta["schur_rotation"] is False
    assert np.array_equal(traj.states[0], u0)
    ref = reference_cayley(gen, u0, 0.1, nsteps)
    assert max_relative_distance(gen, traj.states, ref) <= 1e-12
    norms = traj.norms()
    assert np.all(norms[1:] <= norms[:-1] * (1.0 + 1e-12))


def test_short_runs_of_large_matrices_step_one_at_a_time():
    # log2(2) n > nsteps: a squaring would cost more than the products it
    # saves, so every row is the product of the previous one with C
    gen = dissipative_ring(64, seed=10)
    u0 = np.random.default_rng(11).standard_normal(64)
    traj = evolve_cayley(gen, u0, 0.1, 63)
    half = 0.05 * gen.dense_action()
    E = np.eye(64)
    C = sla.lu_solve(sla.lu_factor(E - half), E + half)
    rows = [u0[None, :]]
    for _ in range(63):
        rows.append(rows[-1] @ C.T)
    assert np.array_equal(traj.states, np.concatenate(rows))


@pytest.mark.parametrize("theta", [-0.9, 0.0])
def test_doubled_step_powers_follow_a_long_lossy_seam_flow(theta):
    op = minimal_derivative_operator(256)
    ext = seam_extension(op, theta)
    gen = RestrictedOperator(space=ext.space, action=-ext.dense_action(),
                             domain=None)
    u0 = gaussian_profile(op.meta["grid"])
    u0 = u0 / op.space.norm(u0)
    traj = evolve_cayley(gen, u0, 1e-3, 10_000)
    ref = reference_cayley(gen, u0, 1e-3, 10_000)
    if theta == 0.0:
        # the absorbing seam leaves 4e-5 of the norm after 10^4 steps; the
        # stepped loop with the step matrix is itself 3e-11 away from the
        # lu_solve loop relative to such a state, so measure against u0
        d = traj.states - ref
        gap = np.max(np.sqrt(np.einsum("kj,j,kj->k", d, gen.space.weights,
                                       d))) / gen.space.norm(u0)
    else:
        gap = max_relative_distance(gen, traj.states, ref)
    assert gap <= 1e-12
    norms = traj.norms()
    assert np.all(norms[1:] <= norms[:-1] * (1.0 + 1e-12))


def test_dense_step_matrix_holds_no_subnormal_entry(monkeypatch):
    # the lossy seam at n = 1024, dt = 1e-3: the solved step matrix holds
    # subnormal entries, which slow every product with it; the stepper
    # flushes them, and its states still match the lu_solve loop
    tiny = np.finfo(float).tiny
    gen, u0 = lossy_seam(1024, 0.3)
    half = 0.5e-3 * gen.dense_action()
    E = np.eye(1024)
    C = sla.lu_solve(sla.lu_factor(E - half), E + half)
    assert np.count_nonzero((C != 0.0) & (np.abs(C) < tiny)) > 0
    seen = []
    real = evolution._power_states
    monkeypatch.setattr(evolution, "_power_states",
                        lambda P, states: seen.append(P.copy())
                        or real(P, states))
    traj = evolve_cayley(gen, u0, 1e-3, 30)
    (P,) = seen
    assert not np.any((P != 0.0) & (np.abs(P) < tiny))
    ref = reference_cayley(gen, u0, 1e-3, 30)
    assert max_relative_distance(gen, traj.states, ref) <= 1e-13


def test_doubled_block_overflow_names_the_first_bad_step():
    # C = diag(79, 5/3): 79^163 is the first power beyond the largest
    # double; step 163 lies in the block 128..255 filled by C^128
    b = RestrictedOperator(space=Space.euclidean(2),
                           action=np.diag([3.9, 1.0]), domain=None)
    with pytest.raises(ValueError, match="Cayley step 163 left"):
        evolve_cayley(b, np.ones(2), 0.5, 300)


def test_overflowing_powers_stop_the_doubling():
    # C = diag(1e10, 0.5): C^32 overflows, yet (0, 1) never touches the
    # growing mode, so the stepped loop stays finite and so must this
    c = 1e10
    b = RestrictedOperator(space=Space.euclidean(2),
                           action=np.diag([4.0 * (c - 1.0) / (c + 1.0),
                                           -4.0 / 3.0]), domain=None)
    u0 = np.array([0.0, 1.0])
    traj = evolve_cayley(b, u0, 0.5, 300)
    assert np.isfinite(traj.states).all()
    ref = reference_cayley(b, u0, 0.5, 300)
    assert max_relative_distance(b, traj.states, ref) <= 1e-12


def test_schur_cayley_does_not_drift_over_many_steps():
    _, gen, u0 = wrapped_generator(n=256)
    traj = evolve_cayley(gen, u0, 1e-3, 10_000)
    norms = traj.norms()
    assert np.max(np.abs(norms - norms[0])) <= 1e-13 * norms[0]
    assert np.max(norms[1:] / norms[:-1]) <= 1.0 + 1e-12


def test_exact_and_cayley_share_one_schur_factorization(monkeypatch):
    calls = []
    real = sla.schur
    monkeypatch.setattr(sla, "schur",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    _, gen, u0 = wrapped_generator(n=32)
    exact = evolve_exact(gen, u0, [0.5])
    cayley = evolve_cayley(gen, u0, 1e-2, 50)
    evolve_cayley(gen, u0, 2e-2, 25)
    assert calls == [1]
    assert exact.stepper_meta["schur_rotation"] is True
    assert cayley.stepper_meta["schur_rotation"] is True


def test_a_cached_schur_generator_is_not_tested_again(monkeypatch):
    # the first dense skew run forms S and tests it; later exact and
    # Cayley runs take the cached factors, and a non-skew generator still
    # forms S on every run
    calls = []
    real = evolution._identity_coords
    monkeypatch.setattr(evolution, "_identity_coords",
                        lambda *a: calls.append(1) or real(*a))
    _, gen, u0 = wrapped_generator(n=32)
    first = evolve_exact(gen, u0, [0.5])
    again = evolve_exact(gen, u0, [0.5])
    evolve_cayley(gen, u0, 1e-2, 20)
    assert calls == [1]
    np.testing.assert_array_equal(first.states, again.states)
    lossy = seam_extension(minimal_derivative_operator(32), 0.5)
    for _ in range(2):
        assert not evolve_exact(lossy, u0, [0.5]).stepper_meta[
            "schur_rotation"]
        evolve_cayley(lossy, u0, 1e-2, 20)
    assert calls == [1] * 5 and lossy._schur is None


def test_schur_cache_is_not_inherited_or_compared():
    _, gen, u0 = wrapped_generator(n=16)
    twin = RestrictedOperator(space=gen.space, action=gen.action,
                              domain=None, label=gen.label, meta=gen.meta)
    evolve_cayley(gen, u0, 1e-2, 5)
    assert gen._schur is not None and twin._schur is None
    assert gen == twin
    # the adjoint (here -gen) copies meta but factorizes its own action
    adj = adjoint_generator(gen)
    assert adj._schur is None
    traj = evolve_cayley(adj, u0, 1e-2, 40)
    assert traj.stepper_meta["schur_rotation"] is True
    ref = reference_cayley(adj, u0, 1e-2, 40)
    assert max_relative_distance(adj, traj.states, ref) <= 1e-12


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


def test_sparse_cayley_keeps_its_ordering_at_large_steps(monkeypatch):
    # at dt = 2 entries of dt/2 B outgrow the unit diagonal of the 48^2
    # rotation stencil; row exchanges would spoil the minimum-degree
    # ordering (2.28M L+U nonzeros under SuperLU's default pivot
    # threshold, against 107k when the diagonal pivots are kept)
    fills = []
    real = spla.splu

    def splu(*args, **kwargs):
        lu = real(*args, **kwargs)
        fills.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(spla, "splu", splu)
    g = Grid2D(48, 48)
    fld = field_from_stream(
        g, lambda x, y: -0.5 * ((x - 0.5) ** 2 + (y - 0.5) ** 2))
    gen = adjoint_generator(build_transport_operator(fld))
    u0 = gaussian_blob(g, (0.65, 0.5), 0.12)
    traj = evolve_cayley(gen, u0, 2.0, 3)
    assert len(fills) == 1 and fills[0] < 200_000, fills
    norms = traj.norms()
    assert np.max(np.abs(norms - norms[0])) <= 1e-12 * norms[0]


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


@pytest.mark.parametrize("dt", [1e-3, 1e-2, 0.1, 2.0])
@pytest.mark.parametrize("case", sorted(SPARSE_CASES))
def test_sparse_cayley_matches_the_whole_matrix_loop(case, dt):
    # the half-size Schur complement with u <- 2x - u against one LU of
    # the whole E - dt/2 B and a product with B per step
    gen, u0 = SPARSE_CASES[case]()
    traj = evolve_cayley(gen, u0, dt, 40)
    assert np.array_equal(traj.states[0], u0)
    ref = reference_sparse_cayley(gen, u0, dt, 40)
    assert max_relative_distance(gen, traj.states, ref) <= 1e-12
    # every case takes the Neumann route at dt = 1e-3. At 1e-2 each has
    # |S|_inf < 1 too, but its 8 to 14 products cost more than the
    # triangular solves; at 0.1 and 2, |S|_inf >= 1 everywhere
    meta = traj.stepper_meta
    assert meta["sparse_solve"] == ("neumann" if dt == 1e-3 else "superlu")
    assert (meta["neumann_terms"] is None) == (meta["schur_norm_inf"] >= 1.0)
    if dt == 1e-3:
        assert 1 <= meta["neumann_terms"] <= 8
    if dt == 1e-2:
        assert meta["neumann_terms"] is not None


@pytest.mark.parametrize("q", [0.0, 1e-9, 6.5e-4, 9.2e-3, 0.5, 0.999])
def test_neumann_terms_is_the_smallest_count_within_half_eps(q):
    terms = _neumann_terms(q)
    tol = 0.5 * np.finfo(float).eps * (1.0 - q)
    assert q ** (terms + 1) <= tol
    assert terms == 0 or q ** terms > tol


@pytest.mark.parametrize("case", sorted(SPARSE_CASES))
def test_neumann_steps_solve_to_rounding(case):
    # x = (u_k + u_{k+1}) / 2 solves (E - dt/2 B) x = u_k; the truncated
    # series leaves at most eps/2 |b| of it, below the rounding. A rough
    # u0 makes |S^j b| come near q^j |b|, where smooth data would hide a
    # missing term
    gen, _ = SPARSE_CASES[case]()
    u0 = np.random.default_rng(5).standard_normal(gen.dim)
    dt = 1e-3
    traj = evolve_cayley(gen, u0, dt, 40)
    assert traj.stepper_meta["sparse_solve"] == "neumann"
    shifted = sp.identity(gen.dim, format="csr") - (dt / 2.0) * gen.action
    eps = np.finfo(float).eps
    for u, u_next in zip(traj.states[:-1], traj.states[1:]):
        r = shifted @ (0.5 * (u + u_next)) - u
        assert np.max(np.abs(r)) <= 4.0 * eps * np.max(np.abs(u))


@pytest.mark.parametrize("case", sorted(SPARSE_CASES))
def test_eliminated_nodes_are_independent(case):
    gen, _ = SPARSE_CASES[case]()
    half = 0.05 * gen.action.tocsr()
    elim = _eliminated_nodes(half)
    off = abs(half) + abs(half.T)
    off.setdiag(0.0)
    off.eliminate_zeros()
    assert not np.any(off[elim][:, elim].toarray())
    if case == "rotation-33":
        # odd torus: not bipartite, yet most of one colour survives
        assert 0.4 * gen.dim < elim.sum() < 0.5 * gen.dim
    else:
        assert elim.sum() == gen.dim // 2


def test_small_pivots_are_not_eliminated():
    # E - dt/2 B = diag(0, 0.75) for dt = 0.5: the zero pivot stays in
    # the factorized block, which SuperLU then reports as singular
    half = sp.csr_matrix(np.diag([1.0, 0.25]))
    assert _eliminated_nodes(half).tolist() == [False, True]
    # a pivot of 1e-6 is below 1e-3 of the 0.01 below it in its column
    half = sp.csr_matrix([[1.0 - 1e-6, 0.01], [-0.01, 0.0]])
    assert _eliminated_nodes(half).tolist() == [False, False]


@pytest.mark.parametrize("sparse", [False, True])
def test_cayley_overflow_names_the_first_bad_step(sparse):
    # one step multiplies the first coordinate by 1.95 / 0.05 = 39, and
    # 39^194 is the first power beyond the largest double
    action = np.diag([1.9, 0.5])
    b = RestrictedOperator(space=Space.euclidean(2),
                           action=sp.csr_matrix(action) if sparse else action,
                           domain=None)
    with pytest.raises(ValueError, match="Cayley step 194 left"):
        evolve_cayley(b, np.ones(2), 1.0, 400)


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
