import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from skewflow import evolution
from skewflow.evolution import (
    _HALF_WINDOW,
    _ROW_BLOCK,
    Trajectory,
    _csr_args,
    _eliminated_nodes,
    _neumann_sum,
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
    START_BLOB,
    Grid2D,
    build_transport_operator,
    field_from_stream,
    gaussian_blob,
    read_stream_file,
)
from skewflow.weak import forward_generator


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


@pytest.mark.parametrize("nsteps", [1, 5, _HALF_WINDOW // 2, _HALF_WINDOW,
                                    _HALF_WINDOW + 7, 2 * _HALF_WINDOW + 7])
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


W = _HALF_WINDOW


@pytest.mark.parametrize("rows", [1, 2, 3, W // 2, W - 1, W, W + 1, 2 * W - 1,
                                  2 * W, 2 * W + 1, 2 * W + 3, 4 * W + 3])
@pytest.mark.parametrize("name", ["weighted", "odd", "wrapped"])
def test_mirrored_fill_matches_the_per_row_rotation(name, rows):
    # rows c +- i around each centre c: whole groups of 2W - 1 rows, then
    # a last group centred in what is left. Up to W + 1 rows make one
    # group narrower than W, 2W - 1 one whole group, and 2W, 2W + 1,
    # 2W + 3 and 4W + 3 leave 1, 2, 4 and 5 rows after whole groups; odd
    # has a zero mode, a plane of frequency 0
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
    for traj in (evolve_cayley(gen, u0, 0.1, 2 * W + 1),
                 evolve_exact(gen, u0, np.linspace(0.0, 1.0, 9)),
                 evolve_exact(gen, u0, [0.3, 0.7, 2.0])):
        assert traj.stepper_meta["schur_rotation"] is True
        assert np.max(np.abs(traj.states - u0)) <= 1e-15


@pytest.mark.parametrize("rows", [1, 2, 17, W // 2 + 1, W])
@pytest.mark.parametrize("base", [np.pi, 1e3])
def test_turn_table_matches_the_exact_phases(base, rows):
    # the angle addition of two exact tables against each phase i rate
    # formed exactly (_turns): the addition adds a few ulp, not an error
    # that grows with i
    rate = base * (1.0 - 1e-3 * np.random.default_rng(3).random(300))
    got = evolution._turn_table(rows, rate)
    ref = evolution._turns(np.arange(rows)[:, None], rate)
    for x, y in zip(got, ref):
        assert x.shape == (rows, rate.size)
        assert np.max(np.abs(x - y)) <= 4 * np.finfo(float).eps


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
    # 2W rows: one whole group and a last row that is its own centre; a
    # centre placed W - 1 rows past it would turn by 1.5 x the last
    # row's phase, which overflows here
    gen = seam_extension(minimal_derivative_operator(16), 1.0)
    top = float(np.max(np.abs(evolution._schur_planes(
        gen, _identity_coords(gen.space, gen.dense_action()))[2])))
    times = np.linspace(0.0, 0.9 * np.finfo(float).max / top, 2 * W)
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
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
    # every case has |S|_inf < 1/2 at dt = 1e-3 and 1e-2 and takes the
    # Neumann attempts, whose measured products stay cheaper than the
    # triangular solves at both; at 0.1 and 2, |S|_inf >= 1/2 everywhere
    meta = traj.stepper_meta
    assert meta["sparse_solve"] == ("neumann" if dt <= 1e-2 else "superlu")
    assert (meta["neumann_terms"] is None) == (meta["schur_norm_inf"] >= 0.5)
    assert (meta["neumann_products_mean"] is None) == (dt > 1e-2)
    assert meta["switch_step"] is None
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


def warm_rows():
    """(weights, ages) per row of _WARM_TABLE: the row a step k with
    k % p = slot reads weighs ring row j, the image of step k - ages[j];
    its last entry weighs b."""
    p = evolution._WARM_DEPTH
    table = evolution._WARM_TABLE
    assert table.shape == (p, p + 1)
    assert np.all(table[:, p] == 1.0)
    return [(table[slot, :p], (slot - np.arange(p) - 1) % p + 1)
            for slot in range(p)]


def test_the_warm_start_is_exact_on_polynomials_of_degree_7():
    # the extrapolated image is the value at age 0 of any polynomial of
    # degree <= 7 through the ring's images, to rounding
    rng = np.random.default_rng(3)
    for weights, ages in warm_rows():
        assert sorted(ages) == list(range(1, ages.size + 1))
        for degree in range(8):
            f = np.polynomial.Polynomial(rng.standard_normal(degree + 1),
                                         domain=[0, ages.size])
            values = f(-ages.astype(float))
            err = abs(weights @ values - f(0.0))
            assert err <= 8 * np.finfo(float).eps * (
                np.sum(abs(weights)) * np.max(abs(values)))


def test_the_warm_start_weighs_the_alternating_mode_to_zero():
    # W(-1) = 0: the mode (-1)^age, which the ring's fed-back errors
    # would otherwise amplify by sum |w|, is not passed on at all; the
    # weights are dyadic, so the sum is exact
    for weights, ages in warm_rows():
        assert weights @ (-1.0) ** ages == 0.0


def test_the_warm_start_gain_stays_below_107_on_the_unit_circle():
    # the ring's errors are fed back through W(z) = sum_i w_i z^age_i and
    # one product with S, so they shrink while q max |W| < 1; the binomial
    # extrapolation 1 - (1 - z)^8 peaks at 255 on z = -1
    theta = np.linspace(0.0, 2.0 * np.pi, 1 << 16, endpoint=False)
    z = np.exp(1j * theta)
    for weights, ages in warm_rows():
        gain = np.abs(z[:, None] ** ages @ weights)
        assert np.max(gain) <= 107.0


def neumann_system(q, m=300, seed=11):
    """A seeded sparse S with |S|_inf = q (as the _csr_args _neumann_sum
    takes), a right-hand side b, and the solve of (E - S) x = b, refined
    once so that its own rounding stays below eps."""
    rng = np.random.default_rng(seed)
    S = sp.random(m, m, density=0.04, format="csr", random_state=rng,
                  data_rvs=rng.standard_normal)
    S = sp.csr_array(S * (q / np.max(abs(S) @ np.ones(m))))
    b = rng.standard_normal(m)
    A = np.eye(m) - S.toarray()
    exact = np.linalg.solve(A, b)
    exact += np.linalg.solve(A, b - A @ exact)
    return _csr_args(S), b, exact


@pytest.mark.parametrize("q", [0.01, 0.05, 0.3, 0.6])
def test_neumann_sum_stops_at_the_first_count_whose_rest_is_below_rounding(q):
    # after j products the rest of the series is at most
    # q/(1 - q) |x_j - x_{j-1}|_inf; the sum stops at the first j at which
    # that is below eps/2 |b|_inf, and misses the solve by at most
    # eps/2 |b|_inf plus the sums' own rounding
    S, b, exact = neumann_system(q)
    m = b.size
    terms = _neumann_terms(q)
    x, used, certified = _neumann_sum(S, q, terms, b, b, np.empty(m),
                                      np.empty(m), np.empty(m))
    eps = np.finfo(float).eps
    # the iterates as the sum forms them, each product alone and then b
    # added, so that both round alike; passes lists every count whose
    # rest is below rounding
    iterates, passes = [b.copy()], []
    for j in range(1, terms + 1):
        image = np.zeros(m)
        evolution.csr_matvec(*S, iterates[-1], image)
        iterates.append(image + b)
        if q * np.max(np.abs(iterates[-1] - iterates[-2])) <= (
                0.5 * eps * (1 - q) * np.max(np.abs(b))):
            passes.append(j)
    stop = passes[0]
    assert used == stop < terms
    assert certified
    assert np.array_equal(x, iterates[stop])
    tol = 4 * eps * np.max(np.abs(b))
    assert np.max(np.abs(x - exact)) <= tol
    # a cap reached before the test passes is reported uncertified, from
    # b too
    x, used, certified = _neumann_sum(S, q, stop - 1, b, b, np.empty(m),
                                      np.empty(m), np.empty(m))
    assert (used, certified) == (stop - 1, False)
    assert np.array_equal(x, iterates[stop - 1])


def test_neumann_sum_with_no_terms_certifies_b_alone():
    # K = 0 means q/(1 - q) <= eps/2, the test on b as the first iterate
    # from zero: b is the answer with no product, and any other start is
    # uncertified
    S, b, _ = neumann_system(1e-17)
    m = b.size
    assert _neumann_terms(1e-17) == _neumann_terms(0.0) == 0
    x, used, certified = _neumann_sum(S, 1e-17, 0, b, b, np.empty(m),
                                      np.empty(m), np.empty(m))
    assert (used, certified) == (0, True) and np.array_equal(x, b)
    assert _neumann_sum(S, 1e-17, 0, b, b.copy(), np.empty(m),
                        np.empty(m), np.empty(m))[1:] == (0, False)


# starts for the Neumann sum, from the system's b and refined solve
NEUMANN_STARTS = {
    "solve": lambda b, exact, rng: exact.copy(),
    "near": lambda b, exact, rng: exact + 1e-14 * rng.standard_normal(b.size),
    "zero": lambda b, exact, rng: np.zeros(b.size),
    "noise": lambda b, exact, rng: rng.standard_normal(b.size),
    "huge": lambda b, exact, rng: 1e300 * rng.standard_normal(b.size),
    "edge": lambda b, exact, rng: 1e307 * rng.standard_normal(b.size),
    "inf": lambda b, exact, rng: np.where(np.arange(b.size) == 7, np.inf,
                                          exact),
    "nan": lambda b, exact, rng: np.where(np.arange(b.size) == 7, np.nan,
                                          exact),
}


@pytest.mark.parametrize("q", [0.01, 0.3])
@pytest.mark.parametrize("start", sorted(NEUMANN_STARTS))
def test_neumann_sum_from_any_start_is_certified_or_says_not(start, q):
    # x_j - x* = S (x_{j-1} - x*), so from any start x_j misses the solve
    # by at most q/(1 - q) |x_j - x_{j-1}|_inf (Banach's a-posteriori
    # bound): a certified sum is within eps/2 |b|_inf of the refined solve
    # (plus the sums' own rounding), and one that is not says so
    S, b, exact = neumann_system(q)
    m = b.size
    terms = _neumann_terms(q)
    guess = NEUMANN_STARTS[start](b, exact, np.random.default_rng(3))
    kept = guess.copy()
    x, used, certified = _neumann_sum(S, q, terms, b, guess, np.empty(m),
                                      np.empty(m), np.empty(m))
    assert np.array_equal(guess, kept, equal_nan=True)
    if certified:
        tol = 4 * np.finfo(float).eps * np.max(np.abs(b))
        assert np.max(np.abs(x - exact)) <= tol
        assert 1 <= used <= terms
    cold = _neumann_sum(S, q, terms, b, b, np.empty(m), np.empty(m),
                        np.empty(m))[1]
    if start in ("solve", "near"):
        # a start near rounding of the solve is certified in fewer
        # products than b
        assert certified and used < cold
    elif start == "huge":
        # q^K 1e300 stays far above eps/2 |b|_inf
        assert not certified and used == terms
    elif start in ("edge", "inf", "nan"):
        # no product can mend a non-finite start, and the NaN it would
        # spread could hide from the stop test: refused at once, and so
        # is a finite one whose |entries| sum beyond the largest double
        assert not certified and used == 0


def spy_on_superlu_solves(monkeypatch, events):
    """Append "factor" to events when sparse_shifted_lu factorizes for the
    sparse Cayley steps, and "solve" at each solve with that factor."""
    real_lu = evolution.sparse_shifted_lu

    def factor(A):
        events.append("factor")
        return Factor(real_lu(A))

    class Factor:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz

        def solve(self, b):
            events.append("solve")
            return self.lu.solve(b)

    monkeypatch.setattr(evolution, "sparse_shifted_lu", factor)


def assert_steps_solve_to_rounding(gen, traj, dt):
    """x = (u_k + u_{k+1}) / 2 solves (E - dt/2 B) x = u_k to within a few
    eps |u_k|_inf at every step."""
    shifted = sp.identity(gen.dim, format="csr") - (dt / 2.0) * gen.action
    eps = np.finfo(float).eps
    for u, u_next in zip(traj.states[:-1], traj.states[1:]):
        r = shifted @ (0.5 * (u + u_next)) - u
        assert np.max(np.abs(r)) <= 4.0 * eps * np.max(np.abs(u))


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
    # rough data keep |S^j b| near q^j |b|, so the steps that start from
    # b (the first _WARM_DEPTH) take the cap K; the cellular stencil's
    # rows sum to a third of q = |S|_inf at the median, and there they
    # stop one product short of it. The later steps start from the
    # extrapolation of the previous solves and take fewer
    meta = traj.stepper_meta
    short = 1 if case == "cellular-32" else 0
    assert meta["neumann_products"] == meta["neumann_terms"] - short
    assert 1 <= meta["neumann_products_mean"] < meta["neumann_products"]
    assert_steps_solve_to_rounding(gen, traj, dt)


def spy_on_attempts(monkeypatch, events):
    """Append whether it was certified to events after each attempt of
    the sparse Cayley steps."""
    real_sum = evolution._neumann_sum

    def attempt(*args):
        out = real_sum(*args)
        events.append(out[2])
        return out

    monkeypatch.setattr(evolution, "_neumann_sum", attempt)


def assert_one_hand_over(events, meta, nsteps):
    """Certified attempts up to the first dropped one, then one
    factorization and a SuperLU solve for that step and every later one,
    with no attempt; switch_step is the dropped step's index + 1. Returns
    that index."""
    drop = events.index(False)
    assert events == ([True] * drop + [False, "factor"]
                      + ["solve"] * (nsteps - drop))
    assert meta["switch_step"] == drop + 1
    return drop


def golden_stream_run(dt, horizon=10.0):
    """(gen, u0, dt, nsteps) of `evolve` on the golden 16^2 periodic
    stream: the operator itself from the unit-norm start blob, at the
    step that lands on the horizon."""
    grid, psi = read_stream_file(Path(__file__).parent / "golden"
                                 / "stream.csv")
    gen = build_transport_operator(field_from_stream(grid, psi))
    u0 = gaussian_blob(grid, *START_BLOB)
    return (gen, u0 / gen.space.norm(u0), *steps_to_horizon(horizon, dt))


@pytest.mark.parametrize("case", ["off", "overflow", "cap"])
def test_uncertified_attempts_fall_back_to_superlu(case, monkeypatch):
    # the first attempt the test does not certify hands the run to
    # SuperLU for good: tripled weights (b's among them) leave the first
    # ring start about 2 |x| off, which rough data do not shed in K
    # products; at 1e307 the |entries| of b sum past the largest double,
    # so b itself is refused; and a cap K = 2 below what rough data need
    # leaves the first step from b uncertified (trusted a priori, that
    # cap missed the solve by 7e4 eps)
    gen, _ = rotation_stencil(48)
    u0 = np.random.default_rng(5).standard_normal(gen.dim)
    dt = 1e-3
    if case == "off":
        monkeypatch.setattr(evolution, "_WARM_TABLE",
                            3.0 * evolution._WARM_TABLE)
    elif case == "overflow":
        u0 = u0 * (1e307 / np.max(np.abs(u0)))
    else:
        monkeypatch.setattr(evolution, "_neumann_terms", lambda q: 2)
    events = []
    spy_on_attempts(monkeypatch, events)
    spy_on_superlu_solves(monkeypatch, events)
    nsteps = 30
    traj = evolve_cayley(gen, u0, dt, nsteps)
    meta = traj.stepper_meta
    assert meta["sparse_solve"] == "neumann"
    drop = assert_one_hand_over(events, meta, nsteps)
    products = (meta["neumann_terms"], meta["neumann_products"],
                meta["neumann_products_mean"])
    if case == "off":
        # every step from b is certified in K products, and the first
        # ring start runs to the cap
        assert drop == evolution._WARM_DEPTH
        assert products == (4, 4, 4.0)
    else:
        assert drop == 0
        assert products == ((2, 2, 2.0) if case == "cap"
                            else (products[0], 0, 0.0))
    scale = np.max(np.abs(u0))
    ref = reference_sparse_cayley(gen, u0 / scale, dt, nsteps)
    assert max_relative_distance(gen, traj.states / scale, ref) <= 1e-12
    assert_steps_solve_to_rounding(gen, traj, dt)


@pytest.mark.parametrize("case", ["smooth", "capped"])
def test_the_ring_holds_the_image_of_each_last_start(case, monkeypatch):
    # a certified attempt leaves S y in its ring row, y the start of its
    # last product, formed alone (into zeros) as csr_matvec forms it. The
    # smooth blob certifies every attempt. On the golden 16^2 stream at
    # dt = 0.26 (q = 0.386, K = 39) the steps from b and the first ring
    # starts are certified, until one runs to the cap K: that is the
    # last attempt, and SuperLU solves its b and every later step
    if case == "smooth":
        gen, u0 = rotation_stencil(64)
        dt, nsteps = 2 * np.pi / 2000, 40
    else:
        gen, u0, dt, nsteps = golden_stream_run(0.26)
    attempts, solves = [], []
    real_sum, real_lu = evolution._neumann_sum, evolution.sparse_shifted_lu

    def attempt(S, q, terms, b, start, x, y, p):
        if attempts:
            # the previous step's row is final once the next step begins
            attempts[-1]["row"] = attempts[-1]["p"].copy()
        record = {"S": S, "b": b.copy(), "start": start.copy(), "p": p}
        out = real_sum(S, q, terms, b, start, x, y, p)
        record.update(used=out[1], certified=out[2])
        attempts.append(record)
        return out

    class Factor:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz

        def solve(self, b):
            solves.append(b.copy())
            return self.lu.solve(b)

    monkeypatch.setattr(evolution, "_neumann_sum", attempt)
    monkeypatch.setattr(evolution, "sparse_shifted_lu",
                        lambda A: Factor(real_lu(A)))
    traj = evolve_cayley(gen, u0, dt, nsteps)
    switch = traj.stepper_meta["switch_step"]
    certified = [a for a in attempts if a["certified"]]
    if case == "smooth":
        assert switch is None and not solves
        assert len(certified) == nsteps
        attempts[-1]["row"] = attempts[-1]["p"].copy()
    else:
        last = attempts.pop()
        assert not last["certified"] and len(certified) == len(attempts)
        assert switch == len(attempts) + 1
        assert len(solves) == nsteps - len(attempts)
        assert np.array_equal(solves[0], last["b"])
        assert len(attempts) > evolution._WARM_DEPTH
    for a in certified:
        last = a["start"]
        for _ in range(a["used"] - 1):
            image = np.zeros(last.size)
            evolution.csr_matvec(*a["S"], last, image)
            last = image + a["b"]
        image = np.zeros(last.size)
        evolution.csr_matvec(*a["S"], last, image)
        assert a["used"] >= 1
        assert np.array_equal(a["row"], image)


def test_a_mid_run_drop_hands_over_to_superlu_once(monkeypatch):
    # golden_diff.py's gate case evolve-transport-dt028: on the golden
    # 16^2 stream at dt = 0.28 (36 steps, q = 0.430, K = 44) the first two
    # steps from b are certified and the third runs to the cap; SuperLU
    # solves it and the 33 steps after it
    events = []
    spy_on_attempts(monkeypatch, events)
    spy_on_superlu_solves(monkeypatch, events)
    gen, u0, dt, nsteps = golden_stream_run(0.28)
    assert nsteps == 36
    traj = evolve_cayley(gen, u0, dt, nsteps)
    meta = traj.stepper_meta
    assert meta["sparse_solve"] == "neumann"
    assert 0.42 < meta["schur_norm_inf"] < 0.44
    assert meta["neumann_terms"] == meta["neumann_products"] == 44
    assert assert_one_hand_over(events, meta, nsteps) == 2
    assert meta["neumann_products_mean"] < 44
    ref = reference_sparse_cayley(gen, u0, dt, nsteps)
    assert max_relative_distance(gen, traj.states, ref) <= 1e-12


def test_from_q_one_half_superlu_solves_every_step(monkeypatch):
    # golden_diff.py's gate case evolve-transport-dt03: at q = 0.512 < 1,
    # Banach's test would certify only an iterate that has all but
    # stopped, so no attempt is made; one factorization up front, then a
    # solve a step
    events = []
    spy_on_attempts(monkeypatch, events)
    spy_on_superlu_solves(monkeypatch, events)
    gen, u0, dt, nsteps = golden_stream_run(0.3)
    traj = evolve_cayley(gen, u0, dt, nsteps)
    meta = traj.stepper_meta
    assert 0.5 <= meta["schur_norm_inf"] < 0.52
    assert meta["sparse_solve"] == "superlu"
    assert (meta["neumann_terms"], meta["neumann_products"],
            meta["neumann_products_mean"], meta["switch_step"]) == (
                None, None, None, None)
    assert events == ["factor"] + ["solve"] * nsteps
    ref = reference_sparse_cayley(gen, u0, dt, nsteps)
    assert max_relative_distance(gen, traj.states, ref) <= 1e-12


def test_a_factor_that_loses_the_comparison_is_released(monkeypatch):
    # golden_diff.py's gate case evolve-transport-dt04: on the golden
    # 16^2 stream at dt = 0.04 (K = 7) the ring-started steps 9 .. 17
    # take 4 products each, above K/2, so step 18 builds the factor; its
    # nnz(L + U) is above 4 nnz(S), so the attempts go on and the factor
    # is let go at once, with no solve
    events = []
    spy_on_superlu_solves(monkeypatch, events)
    factors = []
    real = evolution.sparse_shifted_lu
    monkeypatch.setattr(evolution, "sparse_shifted_lu",
                        lambda A: factors.append(real(A)) or factors[-1])
    gen, u0, dt, nsteps = golden_stream_run(0.04, horizon=2.0)
    order, steps, route = evolution._cayley_steps(gen, u0, dt, nsteps)
    warm = evolution._WARM_DEPTH
    alive = None
    for k, _ in enumerate(steps):
        if k == 2 * warm:
            assert len(factors) == 1
            alive = weakref.ref(factors.pop())
        if k > 2 * warm:
            assert alive() is None
    assert events == ["factor"] and alive is not None
    assert route["neumann_terms"] == 7 and route["switch_step"] is None
    assert route["neumann_products_mean"] > 3.5


def test_rough_steps_switch_to_superlu_at_the_checkpoint(monkeypatch):
    # white noise on the 64^2 rotation stencil at dt = 2 pi / 400 (q = 0.23,
    # K = 25): every attempt is certified, but the ring-started steps
    # 9 .. 17 take about 20 products, more than K/2, so the factor is built
    # at step 18; their cost, about 20 nnz(S) a step, is above the solve
    # pair's nnz(L + U), so SuperLU solves every later step, with no attempt
    events = []
    spy_on_superlu_solves(monkeypatch, events)
    gen, _ = rotation_stencil(64)
    u0 = np.random.default_rng(5).standard_normal(gen.dim)
    dt, nsteps = 2 * np.pi / 400, 40
    traj = evolve_cayley(gen, u0, dt, nsteps)
    meta = traj.stepper_meta
    warm = evolution._WARM_DEPTH
    assert meta["sparse_solve"] == "neumann"
    assert meta["switch_step"] == 2 * warm
    assert meta["neumann_products_mean"] > meta["neumann_terms"] / 2
    assert events == ["factor"] + ["solve"] * (nsteps - 2 * warm)
    ref = reference_sparse_cayley(gen, u0, dt, nsteps)
    assert max_relative_distance(gen, traj.states, ref) <= 1e-12


def test_smooth_steps_build_no_factor(monkeypatch):
    # the rotating blob on 64^2 at dt = 2 pi / 2000 (K = 7) certifies every
    # attempt, one or two products a step from the extrapolated images,
    # below K/2 at the checkpoint: no step needs the SuperLU factor, and
    # none is built
    events = []
    spy_on_superlu_solves(monkeypatch, events)
    gen, u0 = rotation_stencil(64)
    traj = evolve_cayley(gen, u0, 2 * np.pi / 2000, 1000)
    meta = traj.stepper_meta
    assert events == []
    assert meta["sparse_solve"] == "neumann" and meta["switch_step"] is None
    assert meta["neumann_products_mean"] <= meta["neumann_terms"] / 2


def test_interior_golden_stream_steps_by_neumann_attempts():
    # golden_diff.py's gate case verify-interior-16: the interior -M_s of
    # the golden 16^2 stream at dt = 0.02 has q = 0.0022 < 1 (K = 6). Its
    # steps take the certified attempts with no switch, and stay within
    # 1e-12 of the whole-matrix loop
    stream = Path(__file__).parent / "golden" / "stream.csv"
    grid, psi = read_stream_file(stream)
    op = build_transport_operator(field_from_stream(grid, psi),
                                  mode="interior_domain")
    gen = forward_generator(op)
    u0 = gaussian_blob(grid, (0.65, 0.5), 0.12)
    dt, nsteps = 0.02, 100
    traj = evolve_cayley(gen, u0, dt, nsteps)
    meta = traj.stepper_meta
    assert meta["sparse_solve"] == "neumann" and meta["switch_step"] is None
    assert meta["neumann_terms"] == 6
    ref = reference_sparse_cayley(gen, u0, dt, nsteps)
    assert max_relative_distance(gen, traj.states, ref) <= 1e-12


def test_sparse_steps_with_every_node_eliminated():
    # a diagonal action has no off-diagonal pattern, so every node is
    # eliminated and the rest R is empty: q = 0 and K = 0, and each step is
    # the diagonal solve alone, u <- (1 + h d) / (1 - h d) u
    d = np.array([1.9, 0.5, -0.7])
    gen = RestrictedOperator(space=Space.euclidean(3),
                             action=sp.diags(d).tocsr(), domain=None)
    u0 = np.array([1.0, -2.0, 0.5])
    dt, nsteps = 0.1, 12
    traj = evolve_cayley(gen, u0, dt, nsteps)
    meta = traj.stepper_meta
    assert meta["sparse_solve"] == "neumann"
    assert (meta["schur_norm_inf"], meta["neumann_terms"]) == (0.0, 0)
    assert (meta["neumann_products"], meta["neumann_products_mean"],
            meta["switch_step"]) == (0, 0.0, None)
    ratio = (1 + dt / 2 * d) / (1 - dt / 2 * d)
    exact = ratio ** np.arange(nsteps + 1)[:, None] * u0
    np.testing.assert_allclose(traj.states, exact, rtol=1e-14)


def test_a_zero_schur_term_steps_exactly(monkeypatch):
    # B maps the odd nodes of a path into the even ones only, so the even
    # nodes are eliminated and S = 0 on the odd ones: q = 0 gives K = 0,
    # and every step starts from b, which the test certifies with no
    # product and no SuperLU solve (an extrapolated start could not be
    # certified without a product). So x_R = b exactly, and the odd
    # entries never move
    solves = []
    spy_on_superlu_solves(monkeypatch, solves)
    n = 41
    rng = np.random.default_rng(2)
    even = np.arange(0, n, 2)
    B = sp.lil_matrix((n, n))
    B[even[1:], even[1:] - 1] = rng.standard_normal(even.size - 1)
    B[even[:-1], even[:-1] + 1] = rng.standard_normal(even.size - 1)
    gen = RestrictedOperator(space=Space.euclidean(n), action=B.tocsr(),
                             domain=None)
    u0 = rng.standard_normal(n)
    dt = 0.1
    traj = evolve_cayley(gen, u0, dt, 20)
    meta = traj.stepper_meta
    assert meta["sparse_solve"] == "neumann"
    assert (meta["schur_norm_inf"], meta["neumann_terms"]) == (0.0, 0)
    assert (meta["neumann_products"], meta["neumann_products_mean"]) == (
        0, 0.0)
    assert solves == []
    assert np.array_equal(traj.states[:, 1::2],
                          np.broadcast_to(u0[1::2], (21, n // 2)))
    ref = reference_sparse_cayley(gen, u0, dt, 20)
    assert max_relative_distance(gen, traj.states, ref) <= 1e-12


@pytest.mark.parametrize("scale", [1e-160, 1e160, 2.0 ** -531, 2.0 ** 531])
def test_neumann_steps_stop_alike_at_any_scale(scale):
    # the stop test squares nothing: far from unit scale a smooth state
    # takes the same products and comes out scaled, exactly so for a
    # power of two
    gen, u0 = rotation_stencil(48)
    ref = evolve_cayley(gen, u0, 1e-3, 30)
    got = evolve_cayley(gen, scale * u0, 1e-3, 30)
    meta = ref.stepper_meta
    assert meta["sparse_solve"] == "neumann"
    assert meta["neumann_products"] < meta["neumann_terms"]
    if np.log2(scale).is_integer():
        assert got.stepper_meta == meta
        assert np.array_equal(got.states, scale * ref.states)
    else:
        err = np.max(np.abs(got.states / scale - ref.states))
        assert err <= 1e-13 * np.max(np.abs(ref.states))


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


def reference_eliminated_nodes(half):
    """_eliminated_nodes as scipy sparse-matrix operations: the off-diagonal
    pattern by setdiag / eliminate_zeros / abs, the graph as off + off.T,
    the edge test as a product with the even nodes and the column maxima
    by off.max(axis=0)."""
    from scipy.sparse import csgraph

    off = half.tocsr(copy=True)
    off.setdiag(0.0)
    off.eliminate_zeros()
    off = abs(off)
    adj = (off + off.T).tocsr()
    _, component = csgraph.connected_components(adj, directed=False)
    roots = np.unique(component, return_index=True)[1]
    depth = csgraph.dijkstra(adj, directed=False, indices=roots,
                             unweighted=True, min_only=True)
    even = depth % 2 == 0
    pivot = np.abs(1.0 - half.diagonal())
    with np.errstate(invalid="ignore"):
        column = off.max(axis=0).toarray().ravel()
    return even & (adj @ even.astype(float) == 0) & (pivot > 1e-3 * column)


@pytest.mark.parametrize("dt", [1e-3, 0.05, 0.3, 2.0])
@pytest.mark.parametrize("case", sorted(SPARSE_CASES))
def test_eliminated_nodes_match_the_matrix_reference(case, dt):
    gen, _ = SPARSE_CASES[case]()
    half = (dt / 2.0) * gen.action.tocsr()
    assert np.array_equal(_eliminated_nodes(half),
                          reference_eliminated_nodes(half))


def symmetric_pattern(seed):
    """A seeded structurally symmetric matrix: cycles of odd and even
    length, chords that may join them, isolated nodes, stored zeros and a
    diagonal whose pivots 1 - h_ii fall on both sides of 1e-3 of their
    column's largest off-diagonal entry."""
    rng = np.random.default_rng(seed)
    rows, cols, start = [], [], 0
    for length in rng.integers(1, 12, size=rng.integers(2, 6)):
        ring = start + np.arange(length)
        if length > 1:
            rows += [ring, np.roll(ring, -1)]
            cols += [np.roll(ring, -1), ring]
        start += length
    n = start + int(rng.integers(0, 4))          # isolated nodes
    chords = rng.integers(0, start, size=(2, rng.integers(0, 4)))
    rows += [chords[0], chords[1]]
    cols += [chords[1], chords[0]]
    r, c = np.concatenate(rows), np.concatenate(cols)
    data = rng.standard_normal(r.size) * 10.0 ** rng.integers(-3, 3, r.size)
    data[rng.random(r.size) < 0.15] = 0.0         # stored zeros
    column = np.zeros(n)
    np.maximum.at(column, c, np.abs(data))
    # pivots 1 - h_ii of 1e-4, 1e-2 or 1 times the column maximum, or a
    # stored zero diagonal
    pick = rng.integers(0, 4, n)
    factor = np.array([1e-4, 1e-2, 1.0, 0.0])[pick]
    diag = np.where(pick == 3, 0.0,
                    1.0 - factor * column * rng.choice([-1.0, 1.0], n))
    # COO to CSR sums the chords into the ring entries they repeat and
    # keeps the stored zeros
    nodes = np.arange(n)
    return sp.csr_matrix((np.concatenate([data, diag]),
                          (np.concatenate([r, nodes]),
                           np.concatenate([c, nodes]))), shape=(n, n))


@pytest.mark.parametrize("seed", range(40))
def test_eliminated_nodes_match_the_reference_on_seeded_patterns(seed):
    half = symmetric_pattern(seed)
    assert np.array_equal(_eliminated_nodes(half),
                          reference_eliminated_nodes(half))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eliminated_nodes_rule_out_non_finite_entries_silently(bad):
    # a 6-ring whose even nodes 0, 2 and 4 are its colour; a non-finite
    # entry in row 0 and one in column 2 rule those two out
    ring = np.arange(6)
    half = sp.csr_matrix((np.ones(12), (np.r_[ring, (ring + 1) % 6],
                                        np.r_[(ring + 1) % 6, ring])))
    assert _eliminated_nodes(half).tolist() == [True, False] * 3
    half[0, 1] = half[3, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        elim = _eliminated_nodes(half)
    assert elim.tolist() == [False] * 4 + [True, False]
    assert np.array_equal(elim, reference_eliminated_nodes(half))


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


def test_sparse_cayley_keeps_finite_states_whose_sum_overflows():
    # every entry stays near 1e308, so the sum of a state's |entries|
    # overflows at each step although none is infinite: the entries are
    # then read, and no step is refused
    d = np.array([-0.1, -0.2, -0.3])
    gen = RestrictedOperator(space=Space.euclidean(3),
                             action=sp.diags(d).tocsr(), domain=None)
    u0 = np.full(3, 1e308)
    dt, nsteps = 0.1, 12
    traj = evolve_cayley(gen, u0, dt, nsteps)
    assert all(np.isinf(evolution._dasum(u)) for u in traj.states)
    ratio = (1 + dt / 2 * d) / (1 - dt / 2 * d)
    exact = ratio ** np.arange(nsteps + 1)[:, None] * u0
    np.testing.assert_allclose(traj.states, exact, rtol=1e-14)


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


def adjoint_case(fmt, weights, seed):
    """A seeded 40 x 40 sparse action in format fmt with stored zeros,
    subnormal entries and entries near 1e-300 and 1e300, and Gram weights
    that are uniform or spread over 1e-20 .. 1e20, so that some scaled
    products underflow to 0 and some overflow."""
    rng = np.random.default_rng(seed)
    n = 40
    A = sp.random(n, n, density=0.2, format="coo", random_state=rng)
    A.data = rng.standard_normal(A.nnz) * rng.choice(
        [1e-320, 1e-300, 1.0, 1e300], A.nnz)
    A.data[rng.random(A.nnz) < 0.2] = 0.0
    w = (np.full(n, 0.37) if weights == "uniform"
         else 10.0 ** rng.uniform(-20, 20, n))
    return RestrictedOperator(space=Space(dim=n, weights=w),
                              action=A.asformat(fmt), domain=None)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("weights", ["uniform", "seeded"])
@pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
def test_sparse_adjoint_generator_matches_the_diagonal_products(fmt, weights,
                                                                seed):
    gen = adjoint_case(fmt, weights, seed)
    w = gen.space.weights
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = adjoint_generator(gen).action
    ref = sp.diags(1.0 / w) @ gen.action.T @ sp.diags(w)
    assert got.format == "csr" and type(got) is type(ref)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    # the case has what it is meant to test: stored zeros, which are
    # dropped, and, with spread weights, products that underflow to 0 and
    # products that overflow
    assert np.count_nonzero(gen.action.data == 0.0) > 0
    assert np.count_nonzero(got.data == 0.0) == 0
    if weights == "seeded":
        assert got.nnz < np.count_nonzero(gen.action.data)
        assert np.isinf(got.data).any()


def test_sparse_adjoint_generator_leaves_the_action_alone():
    gen = adjoint_case("csc", "seeded", 0)
    before = [a.copy() for a in (gen.action.indptr, gen.action.indices,
                                 gen.action.data)]
    adjoint_generator(gen)
    assert all(np.array_equal(a, b) for a, b in zip(
        before, (gen.action.indptr, gen.action.indices, gen.action.data)))

