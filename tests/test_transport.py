import contextlib
import runpy
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from skewflow import evolution, transport
from skewflow.evolution import (_cayley_steps, adjoint_generator,
                                evolve_cayley, steps_to_horizon)
from skewflow.operators import check_skew_symmetry, deficiency
from skewflow.transport import (
    Grid2D,
    build_transport_operator,
    field_from_stream,
    gaussian_blob,
    read_stream_file,
    rotation_benchmark,
    write_stream_file,
)
from skewflow.weak import default_family, gs_residual

RIGID = lambda x, y: -((x - 0.5) ** 2 + (y - 0.5) ** 2) / 2.0
CELLULAR = lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)


def hat(x, y):
    # piecewise-linear stream with a kink along x = 0.5
    return np.minimum(x, 1.0 - x) * np.sin(2 * np.pi * y)


def reference_stencil(fld):
    """The per-cell assembly loop: five (row, col, value) entries per cell
    in cell-major order, then the interior cells at ring distance >= 2."""
    grid = fld.grid
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    rows, cols, vals = [], [], []
    for i in range(nx):
        for j in range(ny):
            k = grid.cell_index(i, j)
            aL, aR = fld.ax[i, j], fld.ax[i + 1, j]
            aB, aT = fld.ay[i, j], fld.ay[i, j + 1]
            rows += [k, k, k, k, k]
            cols += [grid.cell_index(i + 1, j), grid.cell_index(i - 1, j),
                     grid.cell_index(i, j + 1), grid.cell_index(i, j - 1), k]
            vals += [-aR / (2 * hx), +aL / (2 * hx),
                     -aT / (2 * hy), +aB / (2 * hy),
                     (aL - aR) / (2 * hx) + (aB - aT) / (2 * hy)]
    A = sp.csr_matrix((vals, (rows, cols)), shape=(grid.ncells, grid.ncells))
    A.sum_duplicates()
    keep = [grid.cell_index(i, j) for i in range(nx) for j in range(ny)
            if min(i, nx - 1 - i, j, ny - 1 - j) >= 2]
    return A, np.asarray(keep, dtype=int)


def assert_same_csr(got, ref):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------------------
# grids and fields
# ---------------------------------------------------------------------------

def test_grid_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        Grid2D(nx=1, ny=8)
    with pytest.raises(ValueError):
        Grid2D(nx=8, ny=8, lx=0.0)


def test_cell_index_wraps_periodically():
    g = Grid2D(nx=4, ny=3)
    assert g.cell_index(4, 0) == g.cell_index(0, 0)
    assert g.cell_index(-1, -1) == g.cell_index(3, 2)


@pytest.mark.parametrize("psi", [RIGID, CELLULAR, hat],
                         ids=["rigid", "cellular", "hat"])
def test_face_fields_have_telescoping_divergence(psi):
    # the four corner samples cancel algebraically, so all that remains
    # is the rounding of their floating-point differences
    g = Grid2D(nx=17, ny=23)  # deliberately unequal and odd
    fld = field_from_stream(g, psi)
    assert np.max(np.abs(fld.divergence())) < 1e-13 * max(1.0, fld.max_speed)


def test_field_accepts_nodal_arrays():
    g = Grid2D(nx=8, ny=8)
    xn, yn = g.node_coords()
    P = RIGID(xn[:, None], yn[None, :])
    fld = field_from_stream(g, P)
    np.testing.assert_allclose(fld.psi, P)
    with pytest.raises(ValueError):
        field_from_stream(g, P[:-1])


# ---------------------------------------------------------------------------
# the transport stencil
# ---------------------------------------------------------------------------

def test_periodic_transport_is_skew_to_rounding():
    g = Grid2D(nx=16, ny=16)
    op = build_transport_operator(field_from_stream(g, CELLULAR))
    rep = check_skew_symmetry(op)
    assert rep.passed
    assert rep.max_defect < 1e-12


def test_transport_annihilates_constants():
    g = Grid2D(nx=12, ny=10)
    op = build_transport_operator(field_from_stream(g, CELLULAR))
    ones = np.ones(g.ncells)
    # row sums reduce to the (telescoping) cell divergence
    assert np.max(np.abs(op.action @ ones)) < 1e-13


def test_transport_conserves_mass_and_energy():
    g = Grid2D(nx=32, ny=32)
    op = build_transport_operator(field_from_stream(g, RIGID))
    gen = adjoint_generator(op)
    u0 = gaussian_blob(g, (0.65, 0.5), 0.12)
    traj = evolve_cayley(gen, u0, 5e-3, 200)
    norms = traj.norms()
    assert np.max(np.abs(norms - norms[0])) < 1e-12
    area = op.space.weights[0]
    mass = area * traj.states.sum(axis=1)
    assert np.max(np.abs(mass - mass[0])) < 1e-13


def test_nonperiodic_stream_is_rejected_for_the_wrapped_mode():
    g = Grid2D(nx=8, ny=8)
    fld = field_from_stream(g, lambda x, y: x * y)  # wrap faces disagree
    with pytest.raises(ValueError, match="close periodically"):
        build_transport_operator(fld)
    # but the interior restriction never touches the seam
    op = build_transport_operator(fld, mode="interior_domain")
    assert op.domain is not None


def test_interior_domain_codimension():
    g = Grid2D(nx=10, ny=10)
    op = build_transport_operator(field_from_stream(g, CELLULAR),
                                  mode="interior_domain")
    # two-cell rim all around: interior is (10-4)^2 of 100 cells
    assert op.domain_dim == 36
    assert op.codim == 64
    dd = deficiency(op)
    assert dd.d_plus == dd.d_minus  # balanced, as for every real skew pairing


@pytest.mark.parametrize("shape", [(2, 3), (4, 4), (7, 5)])
def test_vectorized_stencil_is_byte_equal_to_the_cell_loop(shape):
    # lx != ly and a seeded periodic stream; on the 2-cell side both
    # neighbours are the same cell and their entries are summed
    g = Grid2D(*shape, lx=1.3, ly=0.7)
    c = np.random.default_rng(sum(shape)).uniform(0.0, 2.0 * np.pi, 2)
    fld = field_from_stream(
        g, lambda x, y: (np.sin(2 * np.pi * x / 1.3 + c[0])
                         * np.sin(2 * np.pi * y / 0.7 + c[1])))
    ref, _ = reference_stencil(fld)
    assert_same_csr(build_transport_operator(fld).action, ref)


@pytest.mark.parametrize("shape", [(7, 5), (9, 8)])
def test_vectorized_interior_build_matches_the_cell_loop(shape):
    g = Grid2D(*shape)
    psi = np.random.default_rng(shape[0]).standard_normal((g.nx + 1, g.ny + 1))
    fld = field_from_stream(g, psi)
    op = build_transport_operator(fld, mode="interior_domain")
    ref, keep = reference_stencil(fld)
    assert_same_csr(op.action, ref)
    cells = op.meta["interior_cells"]
    assert cells.dtype == keep.dtype and np.array_equal(cells, keep)


def test_unknown_mode_is_rejected():
    g = Grid2D(nx=8, ny=8)
    with pytest.raises(ValueError, match="mode"):
        build_transport_operator(field_from_stream(g, CELLULAR), mode="free")


def test_gaussian_blob_is_unit_normalized():
    g = Grid2D(nx=24, ny=24)
    u = gaussian_blob(g, (0.5, 0.5), 0.1)
    area = g.hx * g.hy
    assert np.sqrt(area * np.dot(u, u)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# residual hookup and the rigid-rotation benchmark
# ---------------------------------------------------------------------------

def test_transport_flow_passes_the_weak_identity():
    g = Grid2D(nx=24, ny=24)
    op = build_transport_operator(field_from_stream(g, RIGID))
    gen = adjoint_generator(op)
    u0 = gaussian_blob(g, (0.6, 0.5), 0.14)
    traj = evolve_cayley(gen, u0, 2e-3, 500)
    rep = gs_residual(traj, u0, op, tol=1e-4, family=default_family(
        op, horizon=float(traj.times[-1]), n_spatial=8))
    assert rep.passed


def test_rotation_benchmark_smoke():
    res = rotation_benchmark(16, 2 * np.pi / 200)
    assert res["energy_drift"] < 1e-10
    assert res["steps"] == 200
    # coarse grid, coarse step: the blob survives but imperfectly
    assert 0.0 < res["final_error"] < 1.0


def test_rotation_benchmark_takes_the_shared_step_rule():
    for dt in (0.3, 2 * np.pi / 200, 1e3):
        res = rotation_benchmark(8, dt)
        assert (res["dt"], res["steps"]) == steps_to_horizon(2 * np.pi, dt)


@pytest.mark.parametrize("n, steps", [(32, 1000), (64, 2000)])
def test_rotation_blobs_stop_the_neumann_sum_before_its_cap(n, steps,
                                                            monkeypatch):
    # the smooth blob's steps need fewer products than the a-priori count
    # K from |S|_inf, and stay isometric to rounding; from the
    # extrapolated images of the previous starts one product certifies
    # nearly every step, so no step needs the SuperLU factor, and none is
    # built
    def refuse(A):
        raise AssertionError("the SuperLU factor was built")
    monkeypatch.setattr(evolution, "sparse_shifted_lu", refuse)
    dt = 2 * np.pi / steps
    res = rotation_benchmark(n, dt)
    op = build_transport_operator(field_from_stream(Grid2D(n, n), RIGID),
                                  mode="periodic_full")
    _, _, route = _cayley_steps(adjoint_generator(op), np.zeros(n * n), dt, 0)
    assert route["sparse_solve"] == "neumann"
    assert 1 <= res["neumann_products"] < route["neumann_terms"]
    assert 1 <= res["neumann_products_mean"] <= 1.1
    assert res["energy_drift"] <= 1e-12


@pytest.mark.parametrize("bad", [None, 129, 200])
def test_rotation_benchmark_checks_its_steps_block_by_block(bad,
                                                             monkeypatch):
    # the norms are checked and reduced once per _ROW_BLOCK steps: the
    # drift is the per-step reduction bit for bit, and a step that leaves
    # the finite numbers (NaN at 200, an |entry| whose square overflows at
    # 129, the first step of the second block) is named as the first; the
    # overflow's warning is not silenced
    seen = []
    real = transport._cayley_steps

    def steps(gen, u, dt, nsteps):
        order, run, route = real(gen, u, dt, nsteps)

        def spoiled():
            for k, v in enumerate(run, start=1):
                if k == bad:
                    v[3] = np.nan if bad == 200 else 1e200
                seen.append(v.copy())
                yield v
        return order, spoiled(), route

    monkeypatch.setattr(transport, "_cayley_steps", steps)
    dt = 2 * np.pi / 300
    if bad is not None:
        warns = (pytest.warns(RuntimeWarning, match="overflow") if bad == 129
                 else contextlib.nullcontext())
        with pytest.raises(ValueError, match=f"Cayley step {bad} left"), \
                warns:
            rotation_benchmark(8, dt)
        return
    res = rotation_benchmark(8, dt)
    assert len(seen) == res["steps"] == 300
    grid = Grid2D(8, 8)
    area = grid.hx * grid.hy
    u0 = gaussian_blob(grid, *transport.START_BLOB)
    norm0 = float(np.sqrt(area * np.dot(u0, u0)))
    drift = 0.0
    for u in seen:
        drift = max(drift, abs(float(np.sqrt(area * np.dot(u, u))) - norm0))
    assert res["energy_drift"] == drift / norm0


def test_rotation_benchmark_validates_arguments():
    with pytest.raises(ValueError):
        rotation_benchmark(16, -0.1)
    with pytest.raises(ValueError):
        rotation_benchmark(1, 0.1)
    for dt in (np.inf, np.nan):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            rotation_benchmark(16, dt)


# ---------------------------------------------------------------------------
# stream files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_stream_file_roundtrip(tmp_path, fmt):
    g = Grid2D(nx=12, ny=9, lx=2.0, ly=1.5)
    path = tmp_path / f"psi.{fmt}"
    write_stream_file(path, CELLULAR, g, fmt=fmt)
    g2, p2 = read_stream_file(path)
    assert (g2.nx, g2.ny, g2.lx, g2.ly) == (12, 9, 2.0, 1.5)
    xn, yn = g.node_coords()
    np.testing.assert_array_equal(p2, CELLULAR(xn[:, None], yn[None, :]))


def test_stream_file_rejects_bad_header(tmp_path):
    path = tmp_path / "psi.csv"
    path.write_text("not json\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_stream_file(path)


def test_stream_file_rejects_truncated_binary(tmp_path):
    g = Grid2D(nx=8, ny=8)
    path = tmp_path / "psi.bin"
    write_stream_file(path, CELLULAR, g, fmt="binary")
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ValueError):
        read_stream_file(path)


def test_stream_file_rejects_wrong_shape(tmp_path):
    g = Grid2D(nx=8, ny=8)
    with pytest.raises(ValueError):
        write_stream_file(tmp_path / "x.csv", np.zeros((3, 3)), g)


def test_forward_flow_carries_data_against_the_face_velocity():
    # psi = y gives the face velocity ax = dpsi/dy = 1; the forward flow
    # (metric adjoint of the stencil) carries u0 to u0(x + t), so the blob
    # moves towards smaller x
    grid = Grid2D(32, 32)
    fld = field_from_stream(grid, lambda x, y: y + 0.0 * x)
    np.testing.assert_allclose(fld.ax, 1.0, rtol=1e-12)
    op = build_transport_operator(fld)
    u0 = gaussian_blob(grid, (0.65, 0.5), 0.1)
    traj = evolve_cayley(adjoint_generator(op), u0, 0.25 / 64, 64)
    x, _ = grid.cell_centers()
    peak_x = lambda u: x[np.argmax(u.reshape(grid.nx, grid.ny).max(axis=1))]
    assert peak_x(u0) == pytest.approx(0.65, abs=grid.hx)
    assert peak_x(traj.final) == pytest.approx(0.40, abs=grid.hx)


def test_rotation_script_prints_one_row_per_grid(capsys):
    # 8^2 at 500 steps and 16^2 at 1000 both solve by the Neumann sum
    script = Path(__file__).parents[1] / "scripts" / "rotation_benchmark.py"
    main = runpy.run_path(str(script))["main"]
    assert main(["--n", "8", "16", "--steps", "500"]) == 0
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert header.split() == ["n", "steps", "final", "error", "drift",
                              "products", "mean", "ratio"]
    assert [r.split()[:2] for r in rows] == [["8", "500"], ["16", "1000"]]
    for r in rows:
        assert float(r.split()[3]) < 1e-10
    for r, (n, steps) in zip(rows, [(8, 500), (16, 1000)]):
        res = rotation_benchmark(n, 2 * np.pi / steps)
        products, mean = res["neumann_products"], res["neumann_products_mean"]
        assert r.split()[4:6] == [str(products), f"{mean:.2f}"]
        assert 1 <= mean <= products
