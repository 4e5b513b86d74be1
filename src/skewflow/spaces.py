"""Finite-dimensional weighted inner-product spaces and basis utilities.

Everything downstream works relative to a diagonal Gram matrix: grid
functions carry quadrature weights, transport states carry cell areas.
Keeping the weights explicit lets the same code treat plain Euclidean
vectors (weights == 1) and discretized L2 spaces uniformly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla


@dataclass(frozen=True)
class Space:
    """A real inner-product space R^dim with diagonal Gram matrix.

    inner(u, v) = sum_i weights[i] * u[i] * v[i], weights finite and > 0.
    """

    dim: int
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.dim,):
            raise ValueError(f"weights shape {w.shape} != ({self.dim},)")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("Gram weights must be finite and strictly "
                             "positive")
        object.__setattr__(self, "weights", w)

    @classmethod
    def euclidean(cls, dim: int) -> "Space":
        return cls(dim=dim, weights=np.ones(dim))

    @classmethod
    def uniform(cls, dim: int, h: float) -> "Space":
        """Uniform quadrature weight h on every node (wrapped-grid rule)."""
        return cls(dim=dim, weights=np.full(dim, float(h)))

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

    def sqrt_scale(self, columns):
        """Map a vector or a stack of columns into coordinates where the
        Gram is the identity."""
        a = np.asarray(columns, dtype=float)
        s = np.sqrt(self.weights)
        return s * a if a.ndim == 1 else s[:, None] * a


# A Householder pivot must clear the drop threshold by this factor for
# the block to keep its column; pivots below it are re-measured by the
# CGS2 loop, whose residual differs from |R_jj| by rounding only.
_PIVOT_MARGIN = 100.0


def orthonormalize(columns, space: Space, tol: float = 1e-10,
                   return_coeffs: bool = False):
    """W-orthonormal basis of span(columns), with first-come pivoting.

    Input columns are visited in order; a column whose residual after
    projection onto the earlier columns is <= tol * its own W-norm is
    dropped (earlier columns always win).

    Algorithm. In identity coordinates A = W^{1/2} X, one Householder QR
    (LAPACK's blocked geqrf) factors the first min(n, m) columns. Its
    pivot |R_jj| is the residual of column j against the columns before
    it, so the prefix of columns whose pivots exceed _PIVOT_MARGIN * tol
    * ||x_j||_W is kept as a block; flipping signs so that diag R > 0
    makes Q the Gram-Schmidt Q (Householder QR is backward stable column
    by column: N. J. Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., SIAM 2002, ch. 19). The columns from the first
    flagged one on -- dependent, zero, near the threshold, or beyond n --
    go through a column loop against the basis kept so far: classical
    Gram-Schmidt with two block passes (CGS2), which stays orthonormal
    to ~1e-14 even for badly scaled inputs (Giraud, Langou & Rozloznik,
    Comput. Math. Appl. 50, 2005). The loop alone decides every column
    that is near the threshold, so the kept set never depends on which
    path measured a pivot.

    Cost. Full-rank input with m <= n: one QR, O(n m^2) flops as BLAS-3.
    Otherwise the QR plus the loop over the columns from the first
    flagged one, four matrix-vector products with the kept basis per
    column and no update of C. The worst case is a zero or dependent
    column at the front: the QR is wasted and every column runs through
    the loop.

    With return_coeffs=True also returns C with Q = columns @ C, so the
    same linear combinations can be replayed against a second family
    (paired orthonormalization). C is the inverse of the triangular
    factor R of the kept columns, placed on their rows (zero on the rows
    of dropped columns), from one triangular solve; it is formed only
    when asked for.

    ValueError for input that is not a 2-d array with space.dim rows or
    that holds a non-finite entry.
    """
    X = np.asarray(columns, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d array of columns, got {X.ndim}-d")
    if X.shape[0] != space.dim:
        raise ValueError(f"columns have {X.shape[0]} rows, the space has "
                         f"dimension {space.dim}")
    _require_finite_columns(X)
    n, m = X.shape
    A = space.sqrt_scale(X)
    norms0 = space.norms(X)
    p = min(n, m)
    Qh, Rh = sla.qr(A[:, :p], mode="economic", check_finite=False)
    d = np.diag(Rh)
    flagged = np.abs(d) <= _PIVOT_MARGIN * tol * norms0[:p]
    k = int(np.argmax(flagged)) if flagged.any() else p
    sign = np.where(d[:k] < 0.0, -1.0, 1.0)
    Q = Qh[:, :k] * sign
    R = Rh[:k, :k] * sign[:, None]
    if k < m:
        Q, R, kept = _cgs2_tail(A, norms0, Q, R, tol)
    else:
        kept = list(range(k))
    Q /= np.sqrt(space.weights)[:, None]
    if not return_coeffs:
        return Q
    C = np.zeros((m, len(kept)))
    C[kept] = sla.solve_triangular(R, np.eye(len(kept)))
    return Q, C


def _require_finite_columns(X: np.ndarray) -> None:
    """ValueError naming the first column of X that holds a non-finite
    entry."""
    bad = np.flatnonzero(~np.isfinite(X).all(axis=0))
    if bad.size:
        raise ValueError(f"column {bad[0]} holds a non-finite entry")


def _cgs2_tail(A, norms0, Q0, R0, tol):
    """Continue a QR of the identity-coordinate columns A from the kept
    prefix (Q0, R0) of its first k columns, one column at a time: two
    block projections against the basis so far, then the drop test.
    Returns Q, the triangular R with A[:, kept] = Q R, and kept."""
    n, m = A.shape
    k = Q0.shape[1]
    cap = min(n, m)
    Q = np.empty((n, cap))
    Q[:, :k] = Q0
    R = np.zeros((cap, cap))
    R[:k, :k] = R0
    kept = list(range(k))
    for j in range(k, m):
        if k == n:
            break  # the basis spans the space: every later column drops
        if norms0[j] == 0.0:
            continue
        v = A[:, j].copy()
        r = np.zeros(k)
        for _ in range(2):  # re-orthogonalization pass
            h = Q[:, :k].T @ v
            v -= Q[:, :k] @ h
            r += h
        nrm = np.linalg.norm(v)
        if nrm <= tol * norms0[j]:
            continue
        Q[:, k] = v / nrm
        R[:k, k] = r
        R[k, k] = nrm
        kept.append(j)
        k += 1
    return Q[:, :k], R[:k, :k], kept


def subspace_angle(u, v, space: Space) -> float:
    """Principal angle in [0, pi/2] between the lines through u and v.

    ValueError for a zero vector and for a non-finite entry in either.
    """
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("angle with a non-finite vector is undefined")
    nu, nv = space.norm(u), space.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("angle with the zero vector is undefined")
    c = abs(space.inner(u, v)) / (nu * nv)
    return float(np.arccos(min(1.0, c)))
