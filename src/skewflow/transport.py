"""Discrete transport by exactly divergence-free planar fields.

The velocity never appears directly: a stream function sampled at cell
nodes is differenced onto face midpoints, which makes the discrete
divergence of every cell vanish identically (it telescopes around the
four corners). The centered flux-form stencil built from those face
values is then exactly skew for the uniform cell-area Gram, so transport
inherits the whole extension/semigroup toolchain: the forward flow is
driven by the metric adjoint and conserves both mass and energy.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
import scipy.sparse as sp

from .evolution import _cayley_steps, adjoint_generator
from .operators import PinnedDomain, RestrictedOperator
from .spaces import Space


@dataclass(frozen=True)
class Grid2D:
    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("need at least 2x2 cells")
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError("box lengths must be positive")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def ncells(self) -> int:
        return self.nx * self.ny

    def node_coords(self):
        return (np.linspace(0.0, self.lx, self.nx + 1),
                np.linspace(0.0, self.ly, self.ny + 1))

    def cell_centers(self):
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return x, y

    def cell_index(self, i: int, j: int) -> int:
        return (i % self.nx) * self.ny + (j % self.ny)


@dataclass
class StreamField:
    """Face-midpoint velocities produced from nodal stream samples.

    ax[i, j] is the x-velocity on the face between cells (i-1, j) and
    (i, j); ay[i, j] the y-velocity between cells (i, j-1) and (i, j).
    Both come from single differences of psi, so the per-cell divergence
    (ax difference over hx plus ay difference over hy) cancels exactly.
    ax = dpsi/dy and ay = -dpsi/dx; the forward flow of the transport
    operator built from them carries u0 to u0(x + a t), i.e. against
    this velocity.
    """

    grid: Grid2D
    psi: np.ndarray
    ax: np.ndarray
    ay: np.ndarray

    @property
    def max_speed(self) -> float:
        m = 0.0
        if self.ax.size:
            m = max(m, float(np.max(np.abs(self.ax))))
        if self.ay.size:
            m = max(m, float(np.max(np.abs(self.ay))))
        return m

    def divergence(self) -> np.ndarray:
        gx = (self.ax[1:, :] - self.ax[:-1, :]) / self.grid.hx
        gy = (self.ay[:, 1:] - self.ay[:, :-1]) / self.grid.hy
        return gx + gy


def field_from_stream(grid: Grid2D,
                      psi: Union[np.ndarray, Callable]) -> StreamField:
    """Sample (or accept) nodal psi and difference it onto the faces.

    psi may be a callable psi(x, y) evaluated on the node tensor grid or
    an (nx+1, ny+1) array. Any psi works — including piecewise-linear
    profiles with kinks, whose faces simply pick up one-sided slopes —
    because divergence-freeness comes from the telescoping alone.
    """
    if callable(psi):
        xn, yn = grid.node_coords()
        P = np.asarray(psi(xn[:, None], yn[None, :]), dtype=float)
    else:
        P = np.asarray(psi, dtype=float)
    if P.shape != (grid.nx + 1, grid.ny + 1):
        raise ValueError(
            f"psi shape {P.shape} != node shape ({grid.nx + 1}, {grid.ny + 1})"
        )
    ax = (P[:, 1:] - P[:, :-1]) / grid.hy
    ay = -(P[1:, :] - P[:-1, :]) / grid.hx
    return StreamField(grid=grid, psi=P, ax=ax, ay=ay)


def build_transport_operator(fld: StreamField,
                             mode: str = "periodic_full") -> RestrictedOperator:
    """Centered flux-form transport stencil as a restricted skew operator.

    Row k averages each face flux between the two cells it separates,
    which is what makes the matrix exactly skew for the cell-area Gram
    (each face contributes an antisymmetric pair). mode selects the
    domain: "periodic_full" wraps the box and uses the whole space (the
    wrap faces must then agree side to side, else the seam rows would
    break skewness and the build refuses); "interior_domain" restricts to
    cells at distance >= 2 from the boundary ring of cells (a PinnedDomain
    pinning the two outer rings), giving a properly restricted operator
    whose defect dimensions both equal the number of excluded cells.

    Sign: the stencil approximates -a . grad, so the forward flow driven
    by its metric adjoint (+a . grad) carries u0 to u0(x + a t); data
    moves against the face velocity a = (ax, ay) = (dpsi/dy, -dpsi/dx).
    """
    grid = fld.grid
    nx, ny = grid.nx, grid.ny
    hx, hy = grid.hx, grid.hy
    ax, ay = fld.ax, fld.ay

    if mode not in ("periodic_full", "interior_domain"):
        raise ValueError(f"unknown transport mode {mode!r}")

    if mode == "periodic_full":
        # the seam rows pair faces from opposite sides; skewness of the
        # wrapped matrix needs those faces to agree
        tol_seam = 1e-12 * max(1.0, fld.max_speed)
        if (np.max(np.abs(ax[0, :] - ax[-1, :])) > tol_seam
                or np.max(np.abs(ay[:, 0] - ay[:, -1])) > tol_seam):
            raise ValueError(
                "stream function does not close periodically: "
                "wrap faces disagree"
            )

    # five entries per cell (east, west, north, south neighbour, then the
    # cell itself), cells in row-major (i, j) order; on a 2-cell side the
    # two neighbours coincide and sum_duplicates adds their entries
    I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    k = I * ny + J
    cols = np.stack([((I + 1) % nx) * ny + J, ((I - 1) % nx) * ny + J,
                     I * ny + (J + 1) % ny, I * ny + (J - 1) % ny, k],
                    axis=-1).ravel()
    rows = np.repeat(k.ravel(), 5)
    aL, aR = ax[:-1, :], ax[1:, :]
    aB, aT = ay[:, :-1], ay[:, 1:]
    vals = np.stack([-aR / (2 * hx), +aL / (2 * hx),
                     -aT / (2 * hy), +aB / (2 * hy),
                     (aL - aR) / (2 * hx) + (aB - aT) / (2 * hy)],
                    axis=-1).ravel()
    A = sp.csr_matrix((vals, (rows, cols)), shape=(grid.ncells, grid.ncells))
    A.sum_duplicates()

    area = hx * hy
    space = Space.uniform(grid.ncells, area)
    meta = {"kind": "transport", "grid": grid, "mode": mode,
            "max_speed": fld.max_speed}

    if mode == "periodic_full":
        return RestrictedOperator(space=space, action=A, domain=None,
                                  label=f"transport({nx}x{ny},periodic)",
                                  meta=meta)

    ring_dist = np.minimum(np.minimum(I, nx - 1 - I),
                           np.minimum(J, ny - 1 - J))
    keep = k[ring_dist >= 2]
    if keep.size == 0:
        raise ValueError("grid too small: interior domain is empty")
    meta["interior_cells"] = keep
    return RestrictedOperator(space=space, action=A,
                              domain=PinnedDomain(k[ring_dist < 2]),
                              label=f"transport({nx}x{ny},interior)",
                              meta=meta)


def transport_gs_residual(candidate, u0, op: RestrictedOperator,
                          family=None, tol: float = 1e-4, seed: int = 0,
                          n_spatial: int = 8):
    """Weak-identity residual for transport trajectories (cell Gram).

    Thin adapter over the generic residual engine: transport flows are
    driven by the metric adjoint of the skew stencil, which is exactly
    the orientation the weak identity integrates against, so the only
    transport-specific part is the default family size on cell space.
    """
    from .weak import default_family, gs_residual

    if family is None:
        family = default_family(op, horizon=float(candidate.times[-1]),
                                n_spatial=n_spatial, seed=seed)
    return gs_residual(candidate, u0, op, family=family, tol=tol, seed=seed)


def gaussian_blob(grid: Grid2D, center, sigma: float) -> np.ndarray:
    """Unit-normalized Gaussian bump sampled at cell centers (flat vector)."""
    cx, cy = center
    x, y = grid.cell_centers()
    X, Y = np.meshgrid(x, y, indexing="ij")
    u = np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * sigma ** 2))
    u = u.reshape(-1)
    area = grid.hx * grid.hy
    return u / np.sqrt(area * np.sum(u * u))


def rotation_benchmark(n: int, dt: float) -> dict:
    """Rigid rotation of a Gaussian blob (sigma 0.12, centred at
    (0.65, 0.5)) through one full revolution.

    The stream function -r^2/2 about the box center rotates everything at
    unit angular speed, so after time 2*pi the exact solution is the
    initial blob again; final_error is the relative cell-Gram distance to
    it and energy_drift the worst norm deviation along the way (the
    trapezoidal step keeps it at roundoff). States are not stored — only
    running norms and the final state — so large n stays cheap in memory.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = Grid2D(n, n)

    def psi(x, y):
        return -0.5 * ((x - 0.5) ** 2 + (y - 0.5) ** 2)

    fld = field_from_stream(grid, psi)
    op = build_transport_operator(fld, mode="periodic_full")
    gen = adjoint_generator(op)

    u0 = gaussian_blob(grid, (0.65, 0.5), 0.12)
    horizon = 2.0 * np.pi
    nsteps = max(1, int(round(horizon / dt)))
    dt_eff = horizon / nsteps

    area = grid.hx * grid.hy
    norm0 = float(np.sqrt(area * np.dot(u0, u0)))
    drift = 0.0
    for u in _cayley_steps(gen, u0, dt_eff, nsteps):
        drift = max(drift, abs(float(np.sqrt(area * np.dot(u, u))) - norm0))
    final_error = float(np.sqrt(area * np.dot(u - u0, u - u0))) / norm0
    return {
        "final_error": final_error,
        "energy_drift": drift / norm0,
        "n": int(n),
        "dt": float(dt_eff),
        "steps": int(nsteps),
    }


# ---------------------------------------------------------------------------
# stream-file format: one JSON header line, then nodal psi as CSV or
# little-endian row-major float64 binary
# ---------------------------------------------------------------------------

def write_stream_file(path, psi_nodes, grid: Grid2D,
                      fmt: str = "csv") -> None:
    if callable(psi_nodes):
        xn, yn = grid.node_coords()
        psi_nodes = psi_nodes(xn[:, None], yn[None, :])
    P = np.asarray(psi_nodes, dtype=float)
    if P.shape != (grid.nx + 1, grid.ny + 1):
        raise ValueError("psi shape does not match the grid nodes")
    if fmt not in ("csv", "binary"):
        raise ValueError("fmt must be 'csv' or 'binary'")
    header = json.dumps({"nx": grid.nx, "ny": grid.ny,
                         "lx": grid.lx, "ly": grid.ly,
                         "format": fmt}, sort_keys=True)
    with open(path, "wb") as f:
        f.write(header.encode("ascii") + b"\n")
        if fmt == "csv":
            lines = "\n".join(
                ",".join(format(v, ".17g") for v in row) for row in P
            )
            f.write(lines.encode("ascii") + b"\n")
        else:
            f.write(P.astype("<f8").tobytes(order="C"))


def read_stream_file(path):
    """Return (grid, psi_nodes) from a stream file written by
    write_stream_file (or assembled by hand to the same layout)."""
    with open(path, "rb") as f:
        header_line = f.readline()
        try:
            header = json.loads(header_line.decode("ascii"))
            nx, ny = int(header["nx"]), int(header["ny"])
            lx = float(header.get("lx", 1.0))
            ly = float(header.get("ly", 1.0))
            fmt = header.get("format", "csv")
        except (ValueError, KeyError) as exc:
            raise ValueError(f"malformed stream-file header: {exc}") from exc
        body = f.read()
    shape = (nx + 1, ny + 1)
    if fmt == "binary":
        expected = shape[0] * shape[1] * 8
        if len(body) != expected:
            raise ValueError(
                f"binary psi payload has {len(body)} bytes, expected {expected}"
            )
        P = np.frombuffer(body, dtype="<f8").reshape(shape).copy()
    elif fmt == "csv":
        rows = [r for r in body.decode("ascii").strip().splitlines() if r]
        if len(rows) != shape[0]:
            raise ValueError(f"csv psi has {len(rows)} rows, expected {shape[0]}")
        P = np.array([[float(v) for v in r.split(",")] for r in rows])
        if P.shape != shape:
            raise ValueError(f"csv psi shape {P.shape}, expected {shape}")
    else:
        raise ValueError(f"unknown stream format {fmt!r}")
    return Grid2D(nx, ny, lx, ly), P
