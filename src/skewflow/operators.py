"""Restricted skew-symmetric operators and their extension calculus.

The central object is a matrix acting on a weighted space together with a
distinguished (possibly proper) domain subspace. On the domain the matrix
is required to be skew with respect to the Gram form; the module measures
how far the ranges of E -+ M fall short of the whole space, builds the
isometric Cayley pairing between those ranges, and assembles enlarged
skew or dissipative operators from contractive couplings between the two
defect subspaces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dormqr, dpotrf, dtrtri

from .spaces import Space, orthonormalize

# the sum of a vector's |entries|, one BLAS pass; NaN and overflow make it
# non-finite
_dasum = sla.blas.dasum


def _dense(action) -> np.ndarray:
    if sp.issparse(action):
        return np.asarray(action.todense(), dtype=float)
    return np.asarray(action, dtype=float)


@dataclass(frozen=True, eq=False)
class PinnedDomain:
    """The coordinate subspace {u : u[p] = 0 for every pinned p}.

    pins lists the pinned coordinates; the constructor stores them
    sorted, without repeats, as a read-only integer array.
    """

    pins: np.ndarray

    def __post_init__(self):
        pins = np.unique(np.asarray(self.pins, dtype=np.intp).ravel())
        pins.flags.writeable = False
        object.__setattr__(self, "pins", pins)


@dataclass
class RestrictedOperator:
    """A matrix action together with the subspace it is considered on.

    domain takes one of three forms:

    - None: the operator is defined on the whole space;
    - a PinnedDomain: every coordinate except a pinned set. A mask with
      no pins is the whole space and is stored as None;
    - an (dim x m) array of basis columns, which the constructor
      replaces with a W-orthonormal basis of the same span. Columns that
      span the whole space are stored as None too.

    Every form is stored as one W-orthonormal domain basis U, which the
    domain checks all read: the orthonormalized columns themselves, or
    for full and pinned domains a sparse CSC matrix holding e_j /
    sqrt(w_j) for each free coordinate j (one entry per column, so
    nothing dense is formed; domain_basis() densifies it on request).
    Every form is also a set of constraint columns L with domain =
    {u : L^T u = 0} (constraint_columns()); the defect spaces and the
    extensions are computed from those k = codim columns alone.

    The action may be dense or scipy sparse. meta carries model-specific
    data (grids, seam indices) that higher-level helpers can exploit;
    nothing in this module requires any particular key. deficiency(),
    constraint_columns(), check_skew_symmetry() and the skew propagators
    of the evolution module cache their results on the operator (never in
    meta, which derived operators copy), so action and domain must not be
    modified after construction.
    """

    space: Space
    action: Union[np.ndarray, sp.spmatrix]
    domain: Union[None, PinnedDomain, np.ndarray] = None
    label: str = ""
    meta: dict = field(default_factory=dict)
    # W-orthonormal domain basis U: dense columns or sparse scaled units
    _basis: Union[np.ndarray, sp.csc_matrix] = field(
        init=False, repr=False, compare=False, default=None)
    # DeficiencyData, filled by deficiency()
    _deficiency: Optional[DeficiencyData] = field(init=False, repr=False,
                                                  compare=False, default=None)
    # constraint columns L, filled by constraint_columns()
    _constraints: Optional[sp.csc_matrix] = field(init=False, repr=False,
                                                  compare=False, default=None)
    # SkewReport, filled by check_skew_symmetry() or deficiency()
    _skew: Optional[SkewReport] = field(init=False, repr=False,
                                        compare=False, default=None)
    # max|M U|, filled with _skew: the scale of extend's restriction check
    _image_scale: Optional[float] = field(init=False, repr=False,
                                          compare=False, default=None)
    # real Schur factors (Z, plane starts, frequencies) of a W-skew
    # full-domain action, filled by the evolution module's skew paths
    _schur: Optional[tuple] = field(init=False, repr=False, compare=False,
                                    default=None)

    def __post_init__(self):
        n = self.space.dim
        if self.action.shape != (n, n):
            raise ValueError(f"action shape {self.action.shape} != ({n}, {n})")
        free = np.arange(n)
        if isinstance(self.domain, PinnedDomain):
            pins = self.domain.pins
            if pins.size and (pins[0] < 0 or pins[-1] >= n):
                raise ValueError("pinned coordinates outside the space")
            if pins.size == n:
                raise ValueError("domain has no nonzero directions")
            if pins.size == 0:
                self.domain = None
            free = np.setdiff1d(free, pins)
        elif self.domain is not None:
            D = np.atleast_2d(np.asarray(self.domain, dtype=float))
            if D.shape[0] != n:
                raise ValueError("domain columns do not match space dimension")
            Q = orthonormalize(D, self.space, tol=1e-12)
            if Q.shape[1] == 0:
                raise ValueError("domain has no nonzero directions")
            if Q.shape[1] < n:
                self.domain = self._basis = Q
                return
            self.domain = None
        self._basis = sp.csc_matrix(
            (1.0 / np.sqrt(self.space.weights[free]), free,
             np.arange(free.size + 1)), shape=(n, free.size))

    # -- structure ---------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def is_full_domain(self) -> bool:
        return self.domain is None

    @property
    def domain_dim(self) -> int:
        return self._basis.shape[1]

    @property
    def codim(self) -> int:
        return self.dim - self.domain_dim

    def domain_basis(self) -> np.ndarray:
        """The W-orthonormal domain basis as dense columns (formed on each
        call for full and pinned domains)."""
        return _dense(self._basis)

    def domain_vector(self, coords: np.ndarray) -> np.ndarray:
        """domain_basis() @ coords for a coordinate vector or an (m x k)
        block of coordinate columns, without densifying the basis."""
        return self._basis @ np.asarray(coords, dtype=float)

    def constraint_columns(self) -> sp.csc_matrix:
        """Sparse (dim x codim) columns L with domain = {u : L^T u = 0},
        computed once: the unit columns e_p of the pins, no columns for the
        full domain, and for explicit domain columns U an orthonormal
        basis of ker(U^T) (see _constraint_columns)."""
        if self._constraints is None:
            self._constraints = _constraint_columns(self)
        return self._constraints

    def dense_action(self) -> np.ndarray:
        return _dense(self.action)

    def random_domain_vector(self, rng: np.random.Generator) -> np.ndarray:
        u = self.domain_vector(rng.standard_normal(self.domain_dim))
        return u / self.space.norm(u)


def _constraint_columns(op: RestrictedOperator) -> sp.csc_matrix:
    """The unit columns e_p of the pins (none for the full domain), or for
    explicit columns U (n x m, k = n - m >= 1) the last k columns of the
    complete Q of U = QR: the reflectors of one QR applied to the k unit
    columns e_m+1, ..., e_n (dormqr), so no n x n Q is formed."""
    n, k, U = op.dim, op.codim, op._basis
    if not sp.issparse(U):
        (qr, tau), _ = sla.qr(U, mode="raw", check_finite=False)
        tail = np.zeros((n, k), order="F")
        tail[n - k:] = np.eye(k)
        lwork = int(dormqr("L", "N", qr, tau, tail, -1)[1][0])
        return sp.csc_matrix(dormqr("L", "N", qr, tau, tail, lwork,
                                    overwrite_c=1)[0])
    pins = getattr(op.domain, "pins", np.arange(0))
    return sp.csc_matrix((np.ones(k), pins, np.arange(k + 1)), shape=(n, k))


# ---------------------------------------------------------------------------
# skewness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SkewReport:
    max_defect: float
    passed: bool


def _scaled(A, s: np.ndarray, axis: int):
    """A with its rows (axis 0) or columns (axis 1) multiplied by s, in
    place: a dense array, or a CSR matrix whose stored entries are."""
    if sp.issparse(A):
        A.data *= s[A.indices] if axis else np.repeat(s, np.diff(A.indptr))
    else:
        A *= s if axis else s[:, None]
    return A


def _image(A, U):
    """A U for a domain basis U. The sparse scaled-unit basis of a full or
    pinned domain is read in place: the free columns of A (U.indices),
    dense or CSR, column j times r_j = 1 / sqrt(w_j) (U.data), the one
    product per entry that A @ U forms, so the values are the same."""
    if not sp.issparse(U):
        return A @ U
    if sp.issparse(A):
        cols = sp.csr_matrix(A, dtype=float)[:, U.indices]
    else:
        # take copies whole rows; A[:, cols] gathers entry by entry
        cols = np.asarray(A, dtype=float).take(U.indices, 1)
    return _scaled(cols, U.data, 1)


def _identity_coords(space: Space, action):
    """G = sqrt(W) M sqrt(W)^-1, the action in coordinates where the Gram
    is the identity. M is W-skew iff G + G^T = 0. A sparse action gives a
    CSR copy, each entry times sqrt(w) of its row, then times 1 / sqrt(w)
    of its column, as the diagonal matrix products would multiply it."""
    sw = np.sqrt(space.weights)
    if sp.issparse(action):
        G = sp.csr_matrix(action, dtype=float, copy=True)
        return _scaled(_scaled(G, sw, 0), 1.0 / sw, 1)
    # one n x n temporary: the product, then divided in place
    G = np.multiply(action, sw[:, None])
    G /= sw
    return G


def _max_abs(A) -> float:
    if sp.issparse(A):
        return float(np.max(np.abs(A.data))) if A.nnz else 0.0
    return float(np.max(np.abs(A), initial=0.0))


# rows and columns per tile of a dense G + G^T (_symmetrize, _skew_defect)
_SYM_TILE = 128


def _tile_pairs(n: int):
    """(rows, cols) slices of the _SYM_TILE tiles of an n x n matrix on
    and above its diagonal."""
    for i in range(0, n, _SYM_TILE):
        for j in range(i, n, _SYM_TILE):
            yield slice(i, i + _SYM_TILE), slice(j, j + _SYM_TILE)


def _symmetrize(G: np.ndarray) -> np.ndarray:
    """G += G^T in place, tile by tile, and return G: numpy would copy
    the whole overlapping transpose first, this copies at most one
    diagonal tile at a time."""
    for rows, cols in _tile_pairs(G.shape[0]):
        upper = G[rows, cols]
        upper += G[cols, rows].T
        if rows != cols:
            G[cols, rows] = upper.T
    return G


def _skew_defect(G) -> tuple[float, float]:
    """(max|G + G^T|, that over max(1, max|G|)): the W-skew defect of an
    action in identity coordinates or of a domain Gram, and the ratio
    _is_skew cuts at 1e-12. A dense G + G^T is formed tile by tile and
    only on and above the diagonal, so no n x n sum is allocated."""
    if sp.issparse(G):
        defect = _max_abs(G + G.T)
    else:
        # np.max keeps a NaN that the builtin max would drop
        defect = float(np.max([_max_abs(G[r, c] + G[c, r].T)
                               for r, c in _tile_pairs(G.shape[0])],
                              initial=0.0))
    return defect, defect / max(1.0, _max_abs(G))


def _is_skew(G) -> bool:
    """Whether G + G^T vanishes to 1e-12 of max(1, max|G|): the W-skew
    test for an action in identity coordinates (dense or sparse)."""
    return _skew_defect(G)[1] <= 1e-12


def _domain_gram(op: RestrictedOperator):
    """(B, S) with B = M U and the domain Gram S = U^T W B on the
    W-orthonormal domain basis U: (Mu, v) for domain vectors u = U a,
    v = U b is b^T S a. On full and pinned domains U is the sparse
    scaled-unit basis, read in place: with r = 1 / sqrt(w) on the free
    coordinates, B = M[:, free] r (_image) and S = (W B)[free] r, each
    entry multiplied in the order of the products U^T (W (M U)), in the
    action's storage. The first call also caches op's skew report
    (_skew_report of S) and max|B|."""
    U, w = op._basis, op.space.weights
    B = _image(op.action, U)
    if sp.issparse(U):
        S = _scaled(_scaled(B[U.indices], w[U.indices], 0), U.data, 0)
    else:
        S = U.T @ (w[:, None] * B)
    if op._skew is None:
        op._skew, op._image_scale = _skew_report(S), _max_abs(B)
    return B, S


def _skew_report(S) -> SkewReport:
    """The skewness verdict on a domain Gram S: max|S + S^T|, passed by
    the ratio of _skew_defect, as _is_skew."""
    defect, ratio = _skew_defect(S)
    return SkewReport(max_defect=defect, passed=ratio <= 1e-12)


def _skew_action(op: RestrictedOperator):
    """(M_s, ratio): a W-skew action M_s that agrees with op's on the
    domain, and the _skew_defect ratio of the branch that gave it;
    ValueError naming max|S + S^T| when op fails check_skew_symmetry,
    whose verdict on the domain Gram S (_domain_gram) is formed here when
    no earlier check has cached it.

    M_s is the first that applies, in this order:

    - the action itself, when the whole matrix is W-skew;
    - on a pinned domain, the action with its pinned x pinned block, which
      never acts on a domain vector, replaced by that block's W-skew part
      (M_PP - W_P^-1 M_PP^T W_P) / 2. An interior transport stencil whose
      stream does not close periodically is W-skew up to that block (its
      wrapped outer-ring entries);
    - the completion from the domain alone. With B = M U,
      M_s = (B U^T - U B^T - U skew(S) U^T) W is W-skew, and M_s U = B -
      U sym(S) is M on the domain when S is skew. A sparse action on a
      full or pinned domain stays sparse.

    ratio is that of the whole matrix in the first two branches and of S
    in the third; deficiency reports it as completion_residual.
    """
    S = None
    if op._skew is None:
        B, S = _domain_gram(op)
    if not op._skew.passed:
        raise ValueError("the action is not skew on its domain (max|S + "
                         f"S^T| = {op._skew.max_defect:.3e})")
    M = op.action
    ratio = _skew_defect(_identity_coords(op.space, M))[1]
    if ratio > 1e-12 and isinstance(op.domain, PinnedDomain):
        L = op.constraint_columns()
        w = op.space.weights[op.domain.pins]
        M_pp = L.T @ M @ L
        sym = 0.5 * (M_pp + sp.diags(1.0 / w) @ M_pp.T @ sp.diags(w))
        M_s = M - L @ sym @ L.T
        ratio = _skew_defect(_identity_coords(op.space, M_s))[1]
        M = M_s if ratio <= 1e-12 else M
    if ratio > 1e-12:
        if S is None:
            B, S = _domain_gram(op)
        U, W = op._basis, sp.diags(op.space.weights)
        ratio = _skew_defect(S)[1]
        M = (B @ U.T - U @ B.T - U @ (0.5 * (S - S.T)) @ U.T) @ W
        M = M.tocsr() if sp.issparse(M) else M
    return M, ratio


def check_skew_symmetry(op: RestrictedOperator) -> SkewReport:
    """Largest violation of (Mu, v) + (u, Mv) = 0 over the domain.

    Evaluated exactly on the W-orthonormal domain basis U, which bounds
    the defect for arbitrary unit domain vectors: the largest entry of
    S + S^T for the domain Gram S = U^T W M U (_domain_gram). Its
    diagonal doubles as the check that (Mu, u) vanishes. It passes by
    _is_skew, max|S + S^T| <= 1e-12 max(1, max|S|), and the report is
    cached on op: deficiency (_skew_action) accepts or refuses op by the
    same report, so a passed check comes with defect counts and a failed
    one without.
    """
    if op._skew is None:
        _domain_gram(op)
    return op._skew


# ---------------------------------------------------------------------------
# deficiency data
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DeficiencyData:
    """Codimensions of Im(E -+ M) on the domain, and the k x k boundary
    data from which the defect bases and every extension are formed.

    With A = E - M_s (M_s the W-skew completion, see _skew_action) and
    the k = codim constraint columns L, the defect spaces are spanned by
    X+ = A^-1 W^-1 L and X- = W^-1 A^-T L. F = L^T A^-1 W^-1 L is L^T
    X+, and L^T X- = F^T. Both Grams X+-^T W X+- equal G = (F + F^T) / 2,
    because (E - M_s^2)^-1 is the mean of (E - M_s)^-1 and (E +
    M_s)^-1. F, c_plus and c_minus are read-only.

    n_plus_basis spans the W-orthogonal complement of Im(E + M)
    restricted to the domain, n_minus_basis that of Im(E - M); each has
    codim W-orthonormal columns. C+- start from the Cholesky inverse of
    G, so X+ C+ and X- C- are W-orthonormal to about eps cond(G). When
    the complement contains any of the constant vector, C+- are turned
    so that the first column is that projection (the subspace's own DC
    mode) and smooth representatives come first. Each column is signed
    to a positive W-mean or, when the mean vanishes (below 1e-12), to a
    positive largest entry of L^T N (F C+ for N+, F^T C- for N-). The
    bases are formed on first read as N = X+- C+- by one block solve
    with the factorization held here, followed by one Cholesky-QR step N
    <- N R^-1 with N^T W N = R^T R (O(n k^2)), which brings them to
    W-orthonormality at rounding level. R is within about eps cond(G)
    of E and upper triangular, so the DC column keeps its direction and
    no column changes sign; the bases are then cached read-only.

    skew_completion is that M_s, which extend and extension_coupling
    read, and completion_residual is the _skew_defect ratio of the
    branch _skew_action took (at most 1e-12).
    """

    d_plus: int
    d_minus: int
    F: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray
    skew_completion: Union[np.ndarray, sp.spmatrix] = field(repr=False)
    completion_residual: float
    # solve(b, trans) for E - M_s (None on the full domain), the
    # constraint columns and the weights: what the bases are formed from
    _solve: Optional[Callable] = field(repr=False)
    _constraints: sp.csc_matrix = field(repr=False)
    _weights: np.ndarray = field(repr=False)

    @cached_property
    def n_plus_basis(self) -> np.ndarray:
        """N+ = A^-1 (W^-1 L C+)."""
        return self._basis(self.c_plus, trans=False)

    @cached_property
    def n_minus_basis(self) -> np.ndarray:
        """N- = W^-1 A^-T (L C-)."""
        return self._basis(self.c_minus, trans=True)

    def _basis(self, C: np.ndarray, trans: bool) -> np.ndarray:
        w = self._weights[:, None]
        if C.shape[1] == 0:
            N = np.zeros((w.size, 0))
        else:
            if trans:
                N = self._solve(self._constraints @ C, True) / w
            else:
                N = self._solve(self._constraints @ C / w, False)
            # one Cholesky-QR step: N^T W N = R^T R, N <- N R^-1
            N = N @ dtrtri(sla.cholesky(N.T @ (w * N)))[0]
        N.flags.writeable = False
        return N


def _dc_frame(C: np.ndarray, m: np.ndarray, LX: np.ndarray,
              one_norm: float) -> np.ndarray:
    """Coordinates C of a W-orthonormal defect basis N = X C, turned so
    that column 0 is the subspace's DC mode, and signed.

    m = X^T W 1, so c = C^T m holds the coordinates of the W-projection
    of the constant vector. Unless that projection is below 1e-10 of
    |1|_W (one_norm), one Householder reflection of the coordinate space
    maps the first axis onto the line of c, so column 0 of N becomes the
    normalized projection and N stays W-orthonormal. Each column is then
    flipped to a positive W-mean, or, when the mean vanishes (below
    1e-12: the columns are W-unit), to a positive largest entry of L^T N
    = LX C.
    """
    c = C.T @ m
    r = float(np.linalg.norm(c))
    if r > 1e-10 * one_norm:
        v = c / r
        v[0] += 1.0 if v[0] >= 0.0 else -1.0
        C = C - np.outer(C @ v, v * (2.0 / (v @ v)))
    mean = C.T @ m
    P = LX @ C
    peak = P[np.argmax(np.abs(P), axis=0), np.arange(P.shape[1])]
    s = np.where(np.abs(mean) > 1e-12, mean, peak)
    return C * np.where(s < 0.0, -1.0, 1.0)


def sparse_shifted_lu(A) -> spla.SuperLU:
    """SuperLU factorization of E - A for a sparse square A.

    Symmetric mode: minimum-degree ordering on A^T + A (every sparse
    action skewflow builds is structurally symmetric) and diagonal pivots
    throughout (threshold 0; SuperLU still exchanges rows for an exactly
    zero diagonal). For W-skew A, or a positive multiple of one, E - A is
    a diagonal similarity of a matrix whose symmetric part is E, and a
    matrix with a positive definite symmetric part has an LU factorization
    without pivoting (G. H. Golub and C. Van Loan, "Unsymmetric positive
    definite linear systems", Linear Algebra Appl. 28, 1979). Any nonzero
    threshold makes row exchanges as soon as an entry of A outgrows the
    diagonal by its inverse, and they destroy the ordering: at large
    steps, or on stencils whose entries grow with n, the fill of L + U
    then grows by orders of magnitude. A non-finite entry, or a
    factorization that fails (E - A singular), raises ValueError.
    """
    A = sp.csc_matrix(A)
    if not np.isfinite(A.data).all():
        raise ValueError("sparse action has non-finite entries "
                         "(is the shifted matrix E - A singular?)")
    try:
        return spla.splu((sp.identity(A.shape[0], format="csc") - A).tocsc(),
                         permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise ValueError(f"sparse LU failed: {exc} "
                         "(is the shifted matrix E - A singular?)") from exc


def _shifted_lu(action):
    """Factorize E - M once; returns solve(b, trans) for E - M (trans
    False) and its transpose (trans True). Dense actions use LAPACK getrf
    on E - M built once in Fortran order, so it factors in place; sparse
    ones use sparse_shifted_lu."""
    if sp.issparse(action):
        lu = sparse_shifted_lu(action)
        return lambda b, trans: lu.solve(b, trans="T" if trans else "N")
    shifted = np.negative(action, order="F")
    shifted.flat[::shifted.shape[0] + 1] += 1.0
    lu = sla.lu_factor(shifted, overwrite_a=True)
    return lambda b, trans: sla.lu_solve(lu, b, trans=int(trans))


# columns per block of solves for F: bounds the n x block right-hand side
_SOLVE_BLOCK = 256


def deficiency(op: RestrictedOperator) -> DeficiencyData:
    """Defect dimensions and boundary data for the pair of shifted ranges.

    d_plus = codim Im(E + M)|_domain, d_minus = codim Im(E - M)|_domain.
    The result is computed once per operator, cached on it and returned
    with read-only bases on later calls.

    The action is first completed to a W-skew M_s that agrees with it on
    the domain (_skew_action, which raises ValueError when the action is
    not skew there). A vector z is W-orthogonal to (E - M)u for every
    domain vector u = {L^T u = 0} iff (E - M_s)^T W z lies in span L, so
    N- = W^-1 A^-T L with A = E - M_s; skewness gives (E + M_s)^T W = W
    A, hence N+ = A^-1 W^-1 L. Since |(E -+ M)u| >= |u|, both have
    exactly k = codim independent columns: the counts are exact, both
    the codimension, with no rank decision to make.

    One LU factorization of E - M_s gives F = L^T A^-1 W^-1 L by k solves
    in blocks of _SOLVE_BLOCK columns, of which only L^T X is kept, and
    the DC data by two more: X+^T W 1 = L^T W^-1 A^-T W 1 and X-^T W 1 =
    L^T A^-1 1. C+- then come from the Cholesky inverse of G = (F +
    F^T)/2 and the DC turn (_dc_frame), all k x k. Nothing n x k is kept;
    the bases are formed when first read (see DeficiencyData). The full
    domain (k = 0) factorizes nothing.
    """
    if op._deficiency is None:
        op._deficiency = _deficiency(op)
    return op._deficiency


def _deficiency(op: RestrictedOperator) -> DeficiencyData:
    M_s, residual = _skew_action(op)
    L, w = op.constraint_columns(), op.space.weights
    n, k = L.shape
    solve, F = None, np.zeros((0, 0))
    Cp = Cm = F
    if k:
        solve, Lt = _shifted_lu(M_s), L.T.tocsr()
        F = np.empty((k, k))
        for lo in range(0, k, _SOLVE_BLOCK):
            cols = L[:, lo:lo + _SOLVE_BLOCK].toarray() / w[:, None]
            F[:, lo:lo + cols.shape[1]] = Lt @ solve(cols, False)
        # G = R^T R, C = R^-1: C^T G C = E
        C = dtrtri(sla.cholesky(0.5 * (F + F.T)))[0]
        one_norm = float(np.sqrt(w.sum()))
        Cp = _dc_frame(C, Lt @ (solve(w, True) / w), F, one_norm)
        Cm = _dc_frame(C, Lt @ solve(np.ones(n), False), F.T, one_norm)
    for a in (F, Cp, Cm):
        a.flags.writeable = False
    return DeficiencyData(
        d_plus=k, d_minus=k, F=F, c_plus=Cp, c_minus=Cm,
        skew_completion=M_s, completion_residual=residual,
        _solve=solve, _constraints=L, _weights=w)


# ---------------------------------------------------------------------------
# Cayley pairing
# ---------------------------------------------------------------------------

@dataclass
class CayleyData:
    """Isometry data between the two shifted ranges.

    h_minus_basis is a W-orthonormal basis of Im(E - M)|_domain, and
    q_images holds the images of exactly the same domain combinations
    under E + M, so column k of q_images is the isometric image of column
    k of h_minus_basis: the Cayley map sends h_minus_basis @ a to
    q_images @ a.
    """

    h_minus_basis: np.ndarray
    q_images: np.ndarray


def cayley(op: RestrictedOperator) -> CayleyData:
    U = op.domain_basis()
    MU = op.action @ U
    Hm = U - MU
    Hp = U + MU
    Q, C = orthonormalize(Hm, op.space, tol=1e-12, return_coeffs=True)
    if Q.shape[1] != Hm.shape[1]:
        raise ValueError(
            "E - M lost rank on the domain; the operator is not skew there"
        )
    return CayleyData(h_minus_basis=Q, q_images=Hp @ C)


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------

def _coupling_matrix(coupling, k: int) -> np.ndarray:
    """The k x k matrix V of a coupling: a number (a 0-d array too) v
    stands for v times the identity. ValueError for a non-finite entry,
    a shape other than (k, k) and a largest singular value above 1 +
    1e-10: |v| for a number, no SVD taken, and 0 for an empty V."""
    V = np.asarray(coupling, dtype=float)
    if not np.isfinite(V).all():
        raise ValueError("coupling has non-finite entries")
    if V.ndim == 0:
        smax = abs(float(V))
        V = V * np.eye(k)
    elif V.shape != (k, k):
        raise ValueError(f"coupling shape {V.shape} != (codim, codim) = "
                         f"({k}, {k})")
    else:
        smax = np.linalg.svd(V, compute_uv=False).max(initial=0.0)
    if not smax <= 1.0 + 1e-10:
        raise ValueError(f"coupling must be a contraction (sigma_max={smax:.3e})")
    return V


def extend(op: RestrictedOperator,
           coupling: Union[float, np.ndarray]) -> RestrictedOperator:
    """Enlarge the domain along the defect coupling and solve for the action.

    coupling is a contraction V between the two defect spaces: a number
    v with |v| <= 1 (v times the identity) or a (codim x codim) matrix
    with largest singular value <= 1; _coupling_matrix refuses anything
    else with ValueError. Column i of V gives the N- coordinates
    attached to the i-th N+ direction: the added domain directions are
    z_i = N+_i + sum_j V[j, i] N-_j, with action z_i |-> N+_i - sum_j
    V[j, i] N-_j.

    The new operator agrees with op on op's domain (enforced to within
    1e-10 relative), acts on each added direction as prescribed by the
    coupling, and is skew exactly when the coupling is inner (singular
    values all 1); strict contractions yield operators whose negative is
    dissipative.
    The result is always a full-domain operator: the old domain and the
    codim added directions make up the whole space. Raises ValueError
    when the action is not skew on the domain (see deficiency) and when
    the added directions fail to enlarge the domain ("extension domain
    not dense") — for some models particular couplings are genuinely
    degenerate and no extension exists along them.

    With the constraint columns L of the domain (k = codim of them), the
    W-skew completion M_s that deficiency holds (skew_completion) and
    the added directions Z = N+ + N- V with images T = N+ - N- V, the
    action is the rank-k update A_ext = M_s + R L^T with R = (T - M_s
    Z)(L^T Z)^-1: it leaves M_s, which is M there, on {L^T u = 0} and
    sends Z to T. Since M_s X+ = X+ - W^-1 L and M_s X- = W^-1 L - X-,
    T - M_s Z = W^-1 L (C+ - C- V) and L^T Z = F C+ + F^T C- V, so

        A_ext = M_s + W^-1 L Y L^T,  Y = (C+ - C- V)(F C+ + F^T C- V)^-1,

    with F and C+- the k x k data of deficiency: no n x k array is formed
    or read. Only L^T Z is decomposed; the ratio of its extreme singular
    values decides density (at most 1e-10 is refused) and is recorded as
    meta["density_ratio"]. One inverse X = (L^T Z)^-1 then gives Y = (C+
    - C- V) X and P = X^T (E - V^T V) X below by k x k products. Y is
    accurate to about eps / density_ratio relative.

    How accurate it came out is recorded as meta["dissipation_defect"],
    also from k x k data. M_s is W-skew, so the symmetric part of W A_ext
    is L sym(Y) L^T, and the coupling prescribes (A_ext Z a, Z a) = |a|^2
    - |V a|^2, i.e. sym(Y) = P = (L^T Z)^-T (E - V^T V)(L^T Z)^-1 (P = 0
    for an inner coupling). The record is max|sym(Y) - P| relative to
    max(|Y|, |P|) (0 when both vanish): about eps / density_ratio, so
    rounding level for a well-conditioned L^T Z.

    On a pinned domain W^-1 L = L W_P^-1, so the result is M_s + L W_P^-1
    Y L^T in M_s's own storage: a sparse action stays sparse (the stencil
    plus a k x k block on the pins) and a dense one is copied once.
    Explicit-column domains get the dense n x n rank-k update.
    """
    dd = deficiency(op)
    k = dd.d_plus
    V = _coupling_matrix(coupling, k)
    if k == 0:
        return op  # already maximal: nothing to couple

    CmV = dd.c_minus @ V
    LZ = dd.F @ dd.c_plus + dd.F.T @ CmV
    sv = np.linalg.svd(LZ, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise ValueError("extension domain not dense")
    # one inverse, its conditioning checked above, serves Y and P
    X = np.linalg.inv(LZ)
    Y = (dd.c_plus - CmV) @ X
    P = X.T @ ((np.eye(k) - V.T @ V) @ X)
    scale = max(_max_abs(Y), _max_abs(P))
    dissipation = _max_abs(0.5 * (Y + Y.T) - P) / scale if scale else 0.0

    M, w = dd.skew_completion, op.space.weights
    if isinstance(op.domain, PinnedDomain):
        pins = op.domain.pins
        action = _pinned_block_update(M, pins, Y / w[pins, None])
    else:
        L = op.constraint_columns()
        action = _dense(M) + ((L @ Y) / w[:, None]) @ L.T
    ext = RestrictedOperator(
        space=op.space,
        action=action,
        label=f"extend({op.label})" if op.label else "extend",
        meta={"coupling": V, "density_ratio": float(sv[-1] / sv[0]),
              "dissipation_defect": dissipation},
    )
    rdef = restriction_defect(ext, op)
    # max|M U|, cached by the skew check that deficiency ran
    if rdef > 1e-10 * (1.0 + op._image_scale):
        raise ArithmeticError(
            f"assembled extension failed its restriction check ({rdef:.3e})"
        )
    ext.meta["restriction_defect"] = rdef
    return ext


def _pinned_block_update(M, pins: np.ndarray, block: np.ndarray):
    """M + L block L^T for the unit columns L of the pins, in M's
    storage."""
    k = pins.size
    if sp.issparse(M):
        return M + sp.csr_matrix(
            (block.ravel(), (np.repeat(pins, k), np.tile(pins, k))),
            shape=M.shape)
    A = np.array(M, dtype=float)
    A[np.ix_(pins, pins)] += block
    return A


def extension_coupling(op: RestrictedOperator, ext: RestrictedOperator):
    """Recover the defect coupling a full-domain extension realizes.

    For each n_plus basis direction z the vector g = (E + A_ext)^{-1} z is
    half of the added domain direction, and (E - A_ext) g lands back in
    the n_minus subspace with coordinates equal to the coupling column.
    Returns (V, defect) where defect measures how far those images leak
    out of the n_minus subspace: nonzero for an extension whose images
    leave N-, such as a rank-k extension not of von Neumann form. An ext
    that does not extend op at all is refused (ValueError, below).

    Nothing is factorized: E + A_ext is read through its k boundary
    columns with what deficiency holds, the W-skew completion M_s
    (skew_completion) and the factorization of E - M_s. So H = (E +
    M_s)^-1 = W^-1 (E - M_s)^-T W is one transpose solve.
    An extension agrees with M_s on {L^T u = 0}, so E + A_ext = E + M_s +
    D L^T with D = (A_ext - M_s) L (the pin columns of the difference on
    a pinned domain), and by Sherman-Morrison-Woodbury

        G = (E + A_ext)^-1 N+ = H N+ - H D (E_k + L^T H D)^-1 L^T H N+,

    one k x k LU. One step of iterative refinement against the true
    A_ext follows, G += (the same solve of) N+ - (E + A_ext) G. A
    residual |N+ - (E + A_ext) G|_W above 1e-10 of 1 + |A_ext G|_W
    after it raises ValueError: ext does not agree with op on op's
    domain, or E + A_ext is singular. A full-domain op (k = 0) returns
    an empty V and defect 0.0 without solving.
    """
    if not ext.is_full_domain:
        raise ValueError("coupling recovery expects a full-domain extension")
    dd = deficiency(op)
    k = dd.d_plus
    if k == 0:
        return np.zeros((0, 0)), 0.0
    Np, Nm = dd.n_plus_basis, dd.n_minus_basis
    A, w = ext.action, op.space.weights[:, None]
    L = op.constraint_columns()
    Ld = L.toarray()

    def H(b):
        return dd._solve(w * b, True) / w

    HN, HD = np.hsplit(H(np.hstack([Np, A @ Ld - dd.skew_completion @ Ld])),
                       [k])
    lu = sla.lu_factor(np.eye(k) + L.T @ HD)

    def woodbury(Hb):
        return Hb - HD @ sla.lu_solve(lu, L.T @ Hb)

    G = woodbury(HN)
    G += woodbury(H(Np - G - A @ G))
    AG = A @ G
    res = float(np.max(op.space.norms(Np - G - AG)))
    scale = 1.0 + float(np.max(op.space.norms(AG)))
    if not res <= 1e-10 * scale:
        raise ValueError(f"residual {res:.3e} of (E + A_ext) G = N+ "
                         f"exceeds 1e-10 x {scale:.3e}: ext does not agree "
                         "with op on op's domain")
    Y = G - AG
    V = Nm.T @ (w * Y)
    leak = op.space.norms(Y - Nm @ V)
    return V, float(np.max(leak, initial=0.0))


def seam_extension(op: RestrictedOperator, theta: float) -> RestrictedOperator:
    """Full-domain extension coupling the two seam nodes of a wrapped grid.

    Requires op.meta to carry "seam" = (i0, i1) and "seam_scale"; the
    returned action adds theta-weighted transfer between the seam nodes.
    theta = +1 reproduces the fully wrapped difference matrix, theta = -1
    flips the sign of whatever crosses the seam, and |theta| < 1 adds the
    matching absorption on the seam diagonal so that the negative of the
    result is strictly dissipative there. Values |theta| > 1 would pump
    energy in and are rejected (ValueError), as is a NaN theta.

    The result is dense whatever op's storage: the wrapped flows run the
    dense routes (the Schur rotations of evolve_exact and evolve_cayley,
    and evolve_cayley's doubled step matrix) on it. A sparse action is
    densified once; a dense one is copied.
    """
    if "seam" not in op.meta or "seam_scale" not in op.meta:
        raise ValueError("operator carries no seam metadata")
    # written so that NaN fails too
    if not abs(theta) <= 1.0 + 1e-12:
        raise ValueError("theta must be a finite number in [-1, 1]")
    i0, i1 = op.meta["seam"]
    scale = float(op.meta["seam_scale"])
    A = (op.action.toarray() if sp.issparse(op.action)
         else np.array(op.action, dtype=float))
    A[i0, i1] += (theta - 1.0) * scale
    A[i1, i0] -= (theta - 1.0) * scale
    if abs(theta) < 1.0:
        absorb = 0.5 * (1.0 - theta * theta) * scale
        A[i0, i0] += absorb
        A[i1, i1] += absorb
    return RestrictedOperator(
        space=op.space,
        action=A,
        domain=None,
        label=f"seam_extension({op.label}, theta={theta:g})",
        meta={**op.meta, "theta": float(theta)},
    )


# ---------------------------------------------------------------------------
# generator checks
# ---------------------------------------------------------------------------

@dataclass
class MDissipativityReport:
    form_max: float
    ranks: dict
    passed: bool


# the step sizes h whose resolvents (E - hB)^-1 check_m_dissipative
# requires, and its form bound relative to max(1, max|G|)
_RESOLVENT_STEPS = (0.5, 1.0, 2.0)
_FORM_TOL = 1e-12


def _resolvents_certified(sym: np.ndarray, n: int, g_max: float,
                          w: np.ndarray, h_max: float) -> bool:
    """Whether one Cholesky factorization shows E - hB invertible and well
    conditioned for every 0 < h <= h_max, given sym, the block of G + G^T
    (G = sqrt(W) B sqrt(W)^-1, n x n) on its support P, the rows where G +
    G^T has an entry other than exactly zero (sym is overwritten), and
    g_max = max|G|.

    With delta = 1 / (2 h_max), a positive definite delta E - (G + G^T)/2
    gives ((E - hG)u, u) >= (1 - h delta)|u|^2 >= |u|^2 / 2, so
    sigma_min(E - hG) >= 1/2 and cond_2(E - hB) <= (1 + h_max |G|_2) 2
    (max w / min w), with |G|_2 <= n g_max. While that bound stays below
    1 / (2 n eps), matrix_rank's SVD counts all n singular values. Above
    it, or when dpotrf meets a nonpositive pivot, the answer is False and
    the caller ranks each h.

    Off P, delta E - (G + G^T)/2 is delta E, so it is positive definite
    iff its P x P block delta E - sym/2 is: dpotrf factors that block in
    place, and an empty P is certified.
    """
    cond = (1.0 + h_max * n * g_max) * 2.0 * (w.max() / w.min())
    if not cond * 2.0 * n * np.finfo(float).eps < 1.0:
        return False
    if sym.size == 0:
        return True
    sym *= -0.5
    sym.flat[::sym.shape[0] + 1] += 0.5 / h_max
    # symmetric, so the transpose is the same matrix in Fortran order and
    # dpotrf factors it in place
    _, info = dpotrf(sym.T, lower=1, clean=0, overwrite_a=1)
    return info == 0


def check_m_dissipative(gen: RestrictedOperator,
                        seed: int = 0) -> MDissipativityReport:
    """Dissipativity form bound plus surjectivity of E - hB for each h.

    form_max is the largest Rayleigh value (Bu, u)/(u, u) over 64 probes
    seeded by seed. It passes when form_max <= 1e-12 max(1, max|G|), with
    G = sqrt(W) B sqrt(W)^-1: the scale rule of the skewness test, so
    that probe rounding on a large generator is not read as growth. The
    rank of E - hB must equal the space dimension for h = 0.5, 1 and 2
    (_RESOLVENT_STEPS) for the resolvent at 1/h to exist, which at desk
    scale is the whole m-dissipativity story.

    Both read sym(G) = G + G^T, formed once in place on G (_symmetrize),
    on its support: the rows P where it has an entry other than exactly
    zero. The probes are one n x 64 standard normal block drawn from
    default_rng(seed) as before, since the denominators |u|_W^2 need
    every row, and with u~ = sqrt(W) u each form is (Bu, u) = u~^T G u~
    = u~_P^T sym(G)_PP u~_P / 2: the skew part, which cancels, is never
    summed, and form_max is exactly 0.0 when sym(G) vanishes.

    The ranks come from one Cholesky certificate first
    (_resolvents_certified) of the same P x P block: when delta E -
    sym(G)/2 with delta = 1 / (2 max h) is positive definite and a
    condition bound rules out a numerically singular E - hB, every rank
    is n and no SVD runs. Otherwise each rank is matrix_rank's SVD count
    of E - hB. Raises ValueError for a restricted or non-finite
    generator: one dasum pass over B, read entry by entry only when that
    sum is not finite (a NaN or inf entry, or an overflowing sum).
    """
    if not gen.is_full_domain:
        raise ValueError("m-dissipativity applies to full-domain generators")
    B = gen.dense_action()
    if (not math.isfinite(_dasum(B.ravel(order="K")))
            and not np.isfinite(B).all()):
        raise ValueError("generator action has non-finite entries")
    n, W = gen.dim, gen.space.weights
    G = _identity_coords(gen.space, B)
    g_max = max(float(G.max()), -float(G.min()))
    P = np.flatnonzero(_symmetrize(G).any(axis=1))
    sym = G if P.size == n else G[np.ix_(P, P)]
    del G                       # free the full sym(G) before any per-h SVD
    probes = np.random.default_rng(seed).standard_normal((n, 64))
    den = np.einsum("ij,ij->j", probes * W[:, None], probes)
    up = probes[P] * np.sqrt(W[P])[:, None]
    num = 0.5 * np.einsum("ij,ij->j", up, sym @ up)
    form_max = float(np.max(num / den))
    ok = form_max <= _FORM_TOL * max(1.0, g_max)

    certified = _resolvents_certified(sym, n, g_max, W, max(_RESOLVENT_STEPS))
    del sym
    if certified:
        ranks = dict.fromkeys(_RESOLVENT_STEPS, n)
    else:
        E = np.eye(n)
        ranks = {h: int(np.linalg.matrix_rank(E - h * B))
                 for h in _RESOLVENT_STEPS}
    ok = ok and all(r == n for r in ranks.values())
    return MDissipativityReport(form_max=form_max, ranks=ranks, passed=ok)


@dataclass
class InclusionReport:
    max_defect: float
    passed: bool


# the largest inclusion defect check_inclusion_in_adjoint passes
_INCLUSION_TOL = 1e-8


def check_inclusion_in_adjoint(gen: RestrictedOperator,
                               op: RestrictedOperator) -> InclusionReport:
    """Verify (B u, v) = (u, M v) for all v in op's domain, u arbitrary.

    This is the weak statement that B acts inside the adjoint of op; it is
    checked on 32 unit probes u (seed 0) against the full W-orthonormal
    domain basis, so the reported defect bounds the bilinear identity on
    unit pairs. It passes when that defect is at most _INCLUSION_TOL.
    """
    n = gen.dim
    if op.space.dim != n:
        raise ValueError("generator and operator live on different spaces")
    probes = np.random.default_rng(0).standard_normal((n, 32))
    probes /= gen.space.norms(probes)
    # row blocks of 32 probes first, so no n x n product is formed
    U, W = op._basis, gen.space.weights[:, None]
    lhs = (W * (gen.action @ probes)).T @ U        # (Bu, v)
    rhs = ((W * probes).T @ op.action) @ U         # (u, Mv)
    max_defect = _max_abs(lhs - rhs)
    return InclusionReport(max_defect=max_defect,
                           passed=max_defect <= _INCLUSION_TOL)


def restriction_defect(ext: RestrictedOperator, op: RestrictedOperator) -> float:
    """Largest W-norm of (A_ext - M) applied to op's domain basis columns
    (on a full or pinned domain: to e_j / sqrt(w_j), j free, read in
    place by _image). When both actions are stored alike this is one
    product (A_ext - M) U, which stays sparse when both are sparse; a
    sparse action beside a dense one gives A_ext U - M U, both
    densified."""
    U, A, M = op._basis, ext.action, op.action
    if sp.issparse(A) == sp.issparse(M):
        D = _image(A - M, U)
    else:
        D = _dense(_image(A, U)) - _dense(_image(M, U))
    if sp.issparse(D):
        return float(np.sqrt(np.max(D.multiply(D).T @ op.space.weights,
                                    initial=0.0)))
    return float(np.max(op.space.norms(D)))
