"""Finite-dimensional weighted inner-product spaces and basis utilities.

Everything downstream works relative to a diagonal Gram matrix: grid
functions carry quadrature weights, transport states carry cell areas.
Keeping the weights explicit lets the same code treat plain Euclidean
vectors (weights == 1) and discretized L2 spaces uniformly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Space:
    """A real inner-product space R^dim with diagonal Gram matrix.

    inner(u, v) = sum_i weights[i] * u[i] * v[i], weights > 0.
    """

    dim: int
    weights: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.dim,):
            raise ValueError(f"weights shape {w.shape} != ({self.dim},)")
        if not np.all(w > 0):
            raise ValueError("Gram weights must be strictly positive")
        object.__setattr__(self, "weights", w)

    @classmethod
    def euclidean(cls, dim: int, label: str = "") -> "Space":
        return cls(dim=dim, weights=np.ones(dim), label=label)

    @classmethod
    def uniform(cls, dim: int, h: float, label: str = "") -> "Space":
        """Uniform quadrature weight h on every node (wrapped-grid rule)."""
        return cls(dim=dim, weights=np.full(dim, float(h)), label=label)

    def inner(self, u, v) -> float:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return float(np.dot(u * self.weights, v))

    def norm(self, u) -> float:
        u = np.asarray(u, dtype=float)
        return float(np.sqrt(np.dot(u * self.weights, u)))

    def norms(self, columns) -> np.ndarray:
        """W-norm of each column of an (dim x k) array."""
        a = np.asarray(columns, dtype=float)
        return np.sqrt(np.einsum("ij,i,ij->j", a, self.weights, a))

    def gram_apply(self, u):
        """Return W u (useful for assembling adjoints and projections)."""
        return np.asarray(u, dtype=float) * self.weights

    def sqrt_scale(self, columns):
        """Map a vector or a stack of columns into coordinates where the
        Gram is the identity."""
        a = np.asarray(columns, dtype=float)
        s = np.sqrt(self.weights)
        return s * a if a.ndim == 1 else s[:, None] * a

    def unsqrt_scale(self, columns):
        a = np.asarray(columns, dtype=float)
        s = np.sqrt(self.weights)
        return a / s if a.ndim == 1 else a / s[:, None]


def orthonormalize(columns, space: Space, tol: float = 1e-10,
                   return_coeffs: bool = False):
    """First-come pivoted block Gram-Schmidt (CGS2) in the space's metric.

    Input columns are visited in order; a column whose residual after
    projection is <= tol * its original norm is dropped (first-come
    pivoting: earlier columns always win). Each column is projected
    against the whole basis built so far in one block product, twice,
    which keeps the result orthonormal to ~1e-14 even for badly scaled
    inputs (Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 2005).

    With return_coeffs=True also returns C with Q = columns @ C, so the
    same linear combinations can be replayed against a second family
    (paired orthonormalization).
    """
    X = np.atleast_2d(np.asarray(columns, dtype=float))
    if X.ndim != 2:
        raise ValueError("expected a 2-d array of columns")
    n, m = X.shape
    w = space.weights
    Q = np.empty((n, m))
    C = np.zeros((m, m))
    k = 0
    for j in range(m):
        v = X[:, j].copy()
        nrm0 = space.norm(v)
        if nrm0 == 0.0:
            continue
        c = np.zeros(m)
        c[j] = 1.0
        for _ in range(2):  # re-orthogonalization pass
            r = Q[:, :k].T @ (w * v)
            v -= Q[:, :k] @ r
            c -= C[:, :k] @ r
        nrm = space.norm(v)
        if nrm <= tol * nrm0:
            continue
        Q[:, k] = v / nrm
        C[:, k] = c / nrm
        k += 1
    if return_coeffs:
        return Q[:, :k], C[:, :k]
    return Q[:, :k]


def rank_from_singular_values(s: np.ndarray, rank_tol: float) -> int:
    """Numerical rank: singular values above rank_tol * s_max."""
    s = np.asarray(s, dtype=float)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def complement_basis(columns, space: Space, rank_tol: float = 1e-8,
                     return_info: bool = False):
    """Orthonormal basis (in the space metric) of span(columns)^perp.

    Works through the isometry u -> W^{1/2} u so a plain SVD decides the
    rank; the returned columns satisfy N^T W N = I and N^T W columns = 0.
    """
    X = np.asarray(columns, dtype=float)
    if X.size == 0:
        X = X.reshape(space.dim, 0)
    if X.shape[0] != space.dim:
        raise ValueError("column length does not match space dimension")
    U, s, _ = np.linalg.svd(space.sqrt_scale(X), full_matrices=True)
    r = rank_from_singular_values(s, rank_tol)
    N = space.unsqrt_scale(U[:, r:])
    if return_info:
        return N, {"rank": r, "singular_values": s}
    return N


def subspace_angle(u, v, space: Space) -> float:
    """Principal angle in [0, pi/2] between the lines through u and v."""
    nu, nv = space.norm(u), space.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("angle with the zero vector is undefined")
    c = abs(space.inner(u, v)) / (nu * nv)
    return float(np.arccos(min(1.0, c)))


def project_onto(columns, u, space: Space):
    """Projection of u onto span(columns); columns assumed W-orthonormal."""
    X = np.asarray(columns, dtype=float)
    if X.size == 0:
        return np.zeros_like(np.asarray(u, dtype=float))
    coeff = X.T @ space.gram_apply(u)
    return X @ coeff
