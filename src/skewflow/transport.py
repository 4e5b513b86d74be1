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

from .evolution import (_ROW_BLOCK, _cayley_steps, _left_finite,
                        adjoint_generator, steps_to_horizon)
from .operators import PinnedDomain, RestrictedOperator
from .spaces import Space


@dataclass(frozen=True)
class Grid2D:
    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        for n in (self.nx, self.ny):
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise ValueError(f"cell counts must be integers, got {n!r}")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("need at least 2x2 cells")
        # written so that NaN fails too
        if not (0 < self.lx < np.inf and 0 < self.ly < np.inf):
            raise ValueError("box lengths must be positive and finite")

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
    if not np.isfinite(P).all():
        raise ValueError("psi has non-finite node values")
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
    # cell itself), cells in row-major (i, j) order, so row k holds entries
    # 5k .. 5k+4; sum_duplicates sorts each row and, on a 2-cell side,
    # where the two neighbours coincide, adds their entries
    I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    k = I * ny + J
    cols = np.stack([((I + 1) % nx) * ny + J, ((I - 1) % nx) * ny + J,
                     I * ny + (J + 1) % ny, I * ny + (J - 1) % ny, k],
                    axis=-1).ravel()
    aL, aR = ax[:-1, :], ax[1:, :]
    aB, aT = ay[:, :-1], ay[:, 1:]
    vals = np.stack([-aR / (2 * hx), +aL / (2 * hx),
                     -aT / (2 * hy), +aB / (2 * hy),
                     (aL - aR) / (2 * hx) + (aB - aT) / (2 * hy)],
                    axis=-1).ravel()
    A = sp.csr_matrix((vals, cols, np.arange(0, cols.size + 1, 5)),
                      shape=(grid.ncells, grid.ncells))
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


# (center, sigma) of the blob rotation_benchmark and CLI flows start from
START_BLOB = ((0.65, 0.5), 0.12)


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
    """Rigid rotation of the START_BLOB Gaussian through one revolution.

    The stream function -r^2/2 about the box center rotates everything at
    unit angular speed, so after time 2*pi the exact solution is the
    initial blob again; final_error is the relative cell-Gram distance to
    it and energy_drift the worst norm deviation along the way (the
    trapezoidal step keeps it at roundoff). neumann_products is the most
    Neumann products any step took and neumann_products_mean their mean
    per attempt (both None when |S|_inf >= 1/2 puts every step on SuperLU;
    see evolution._cayley_steps). States are not stored — only the
    squared norms of up to _ROW_BLOCK steps, checked and reduced once a
    block, and the final state — so large n stays cheap in memory. A step
    that leaves the finite numbers is named when its block is checked,
    after the block's remaining steps have run.
    """
    dt_eff, nsteps = steps_to_horizon(2.0 * np.pi, dt)
    grid = Grid2D(n, n)

    def psi(x, y):
        return -0.5 * ((x - 0.5) ** 2 + (y - 0.5) ** 2)

    fld = field_from_stream(grid, psi)
    op = build_transport_operator(fld, mode="periodic_full")
    gen = adjoint_generator(op)

    u0 = gaussian_blob(grid, *START_BLOB)
    area = grid.hx * grid.hy
    norm0 = float(np.sqrt(area * np.dot(u0, u0)))
    order, steps, route = _cayley_steps(gen, u0, dt_eff, nsteps)
    # the squared norms of steps lo .., checked for non-finite values and
    # reduced once a block
    sq = np.empty(min(_ROW_BLOCK, nsteps))
    drift, lo = 0.0, 1
    for k, u in enumerate(steps, start=1):
        sq[k - lo] = np.dot(u, u)
        if k - lo + 1 == sq.size or k == nsteps:
            norms = np.sqrt(area * sq[:k - lo + 1])
            finite = np.isfinite(norms)
            if not finite.all():
                raise _left_finite(lo + int(np.argmin(finite)))
            drift = max(drift, float(np.max(np.abs(norms - norm0))))
            lo = k + 1
    e = u - u0[order]
    final_error = float(np.sqrt(area * np.dot(e, e))) / norm0
    return {
        "final_error": final_error,
        "energy_drift": drift / norm0,
        "n": int(n),
        "dt": float(dt_eff),
        "steps": int(nsteps),
        "neumann_products": route["neumann_products"],
        "neumann_products_mean": route["neumann_products_mean"],
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
            nx, ny = header["nx"], header["ny"]
            lx = float(header.get("lx", 1.0))
            ly = float(header.get("ly", 1.0))
            fmt = header.get("format", "csv")
            grid = Grid2D(nx, ny, lx, ly)
        except (ValueError, KeyError, TypeError) as exc:
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
    return grid, P
