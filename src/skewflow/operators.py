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

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgecon, dgetrf

from .spaces import Space, complement_basis, orthonormalize


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
      replaces with a W-orthonormal basis of the same span.

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
    constraint_columns() and the skew propagators of the evolution module
    cache their results on the operator (never in meta, which derived
    operators copy), so action and domain must not be modified after
    construction.
    """

    space: Space
    action: Union[np.ndarray, sp.spmatrix]
    domain: Union[None, PinnedDomain, np.ndarray] = None
    label: str = ""
    meta: dict = field(default_factory=dict)
    # W-orthonormal domain basis U: dense columns or sparse scaled units
    _basis: Union[np.ndarray, sp.csc_matrix] = field(
        init=False, repr=False, compare=False, default=None)
    # DeficiencyData per rank_tol, filled by deficiency()
    _deficiency: dict = field(init=False, repr=False, compare=False,
                              default_factory=dict)
    # constraint columns L, filled by constraint_columns()
    _constraints: Optional[sp.csc_matrix] = field(init=False, repr=False,
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
            self.domain = self._basis = orthonormalize(D, self.space,
                                                       tol=1e-12)
            if self.domain.shape[1] == 0:
                raise ValueError("domain has no nonzero directions")
            return
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
        basis of ker(U^T) (the complete QR of U)."""
        if self._constraints is None:
            self._constraints = _constraint_columns(self)
        return self._constraints

    def dense_action(self) -> np.ndarray:
        return _dense(self.action)

    def random_domain_vector(self, rng: np.random.Generator) -> np.ndarray:
        u = self.domain_vector(rng.standard_normal(self.domain_dim))
        return u / self.space.norm(u)


def _constraint_columns(op: RestrictedOperator) -> sp.csc_matrix:
    n, k, U = op.dim, op.codim, op._basis
    if not sp.issparse(U):
        Q = np.linalg.qr(U, mode="complete")[0]
        return sp.csc_matrix(Q[:, n - k:])
    pins = np.setdiff1d(np.arange(n), U.indices)
    return sp.csc_matrix((np.ones(k), (pins, np.arange(k))), shape=(n, k))


# ---------------------------------------------------------------------------
# skewness
# ---------------------------------------------------------------------------

@dataclass
class SkewReport:
    max_defect: float
    passed: bool
    tol: float


def _identity_coords(space: Space, action):
    """G = sqrt(W) M sqrt(W)^-1, the action in coordinates where the Gram
    is the identity (sparse stays sparse). M is W-skew iff G + G^T = 0."""
    sw = np.sqrt(space.weights)
    if sp.issparse(action):
        return (sp.diags(sw) @ action @ sp.diags(1.0 / sw)).tocsr()
    return sw[:, None] * action / sw[None, :]


def _max_abs(A) -> float:
    if sp.issparse(A):
        return float(np.max(np.abs(A.data))) if A.nnz else 0.0
    return float(np.max(np.abs(A), initial=0.0))


def _is_skew(G) -> bool:
    """Whether G + G^T vanishes to 1e-12 of max(1, max|G|): the W-skew
    test for an action in identity coordinates (dense or sparse)."""
    return _max_abs(G + G.T) <= 1e-12 * max(1.0, _max_abs(G))


def _skew_action(op: RestrictedOperator):
    """A W-skew action that agrees with op's on the domain, or None.

    That is the action itself when the whole matrix is W-skew. On a
    pinned domain the pinned x pinned block never acts on a domain
    vector, so it may be replaced by its W-skew part, (M_PP - W_P^-1
    M_PP^T W_P) / 2, without changing Im(E -+ M) on the domain or either
    defect space. An interior transport stencil whose stream does not
    close periodically is W-skew up to that block (its wrapped outer-ring
    entries), so this keeps it on the one-LU path.
    """
    M = op.action
    if _is_skew(_identity_coords(op.space, M)):
        return M
    if not isinstance(op.domain, PinnedDomain):
        return None
    L = op.constraint_columns()
    w = op.space.weights[op.domain.pins]
    M_pp = L.T @ M @ L
    sym = 0.5 * (M_pp + sp.diags(1.0 / w) @ M_pp.T @ sp.diags(w))
    M = M - L @ sym @ L.T
    return M if _is_skew(_identity_coords(op.space, M)) else None


def check_skew_symmetry(op: RestrictedOperator, tol: float = 1e-10) -> SkewReport:
    """Largest violation of (Mu, v) + (u, Mv) = 0 over the domain.

    Evaluated exactly on the W-orthonormal domain basis U, which bounds
    the defect for arbitrary unit domain vectors: the largest entry of
    G + G^T with G = U^T W M U. Its diagonal doubles as the check that
    (Mu, u) vanishes. A sparse action on a full or pinned domain keeps G
    sparse.
    """
    U = op._basis
    G = U.T @ (sp.diags(op.space.weights) @ (op.action @ U))
    max_defect = _max_abs(G + G.T)
    return SkewReport(max_defect=max_defect, passed=max_defect <= tol, tol=tol)


# ---------------------------------------------------------------------------
# deficiency data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeficiencyData:
    """Codimensions of Im(E -+ M) on the domain, with aligned defect bases.

    n_plus_basis spans the orthogonal complement of Im(E + M) restricted to
    the domain, n_minus_basis the complement of Im(E - M). Both bases are
    W-orthonormal and read-only (the result is cached on the operator).
    When the complement contains any of the constant vector, the first
    basis column is rotated onto that projection (the subspace's own DC
    mode) so that reported directions are reproducible and smooth
    representatives come first; remaining columns complete the subspace.
    """

    d_plus: int
    d_minus: int
    n_plus_basis: np.ndarray
    n_minus_basis: np.ndarray
    tol_used: float
    ill_conditioned: bool = False


def _sign_fix(N: np.ndarray, space: Space) -> np.ndarray:
    """Flip columns so each has a positive W-mean, or, when the mean
    vanishes (below 1e-12 of the column's norm), a positive largest
    entry."""
    mean = N.T @ space.weights
    peak = N[np.argmax(np.abs(N), axis=0), np.arange(N.shape[1])]
    s = np.where(np.abs(mean) > 1e-12 * space.norms(N), mean, peak)
    return N * np.where(s < 0.0, -1.0, 1.0)


def _dc_align(N: np.ndarray, space: Space) -> np.ndarray:
    """Rotate a W-orthonormal subspace basis so column 0 is its DC mode.

    c = N^T W 1 holds the coordinates of the W-projection of the constant
    vector. One Householder reflection of the coordinate space maps the
    first axis onto the line of c, so column 0 becomes that projection
    (normalized) and the basis stays W-orthonormal.
    """
    if N.shape[1] == 0:
        return N
    c = N.T @ space.weights
    r = float(np.linalg.norm(c))  # the W-norm of the projection N c
    if r <= 1e-10 * space.norm(np.ones(space.dim)):
        return _sign_fix(N, space)
    v = c / r
    v[0] += 1.0 if v[0] >= 0.0 else -1.0
    return _sign_fix(N - np.outer(N @ v, v * (2.0 / (v @ v))), space)


def _w_orthonormal(Z: np.ndarray, space: Space) -> np.ndarray:
    """W-orthonormal basis of the span of full-rank columns Z (QR)."""
    sw = np.sqrt(space.weights)[:, None]
    return np.linalg.qr(sw * Z)[0] / sw


def sparse_shifted_lu(A) -> spla.SuperLU:
    """SuperLU factorization of E - A for a sparse square A.

    Symmetric mode: minimum-degree ordering on A^T + A (every sparse
    action skewflow builds is structurally symmetric) and a diagonal pivot
    kept unless it is below 1e-3 of its column. For W-skew A, or a
    positive multiple of one, E - A is a diagonal similarity of a matrix
    whose symmetric part is E, so elimination needs no row exchanges;
    SuperLU's default threshold (1.0) makes them as soon as an entry of A
    outgrows the unit diagonal, which destroys the ordering: on the 48^2
    rotation stencil at dt = 2 it costs 2.28M L+U nonzeros instead of
    107k. A non-finite entry, or a factorization that fails (E - A
    singular), raises ValueError.
    """
    A = sp.csc_matrix(A)
    if not np.isfinite(A.data).all():
        raise ValueError("sparse action has non-finite entries "
                         "(is the shifted matrix E - A singular?)")
    try:
        return spla.splu((sp.identity(A.shape[0], format="csc") - A).tocsc(),
                         permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise ValueError(f"sparse LU failed: {exc} "
                         "(is the shifted matrix E - A singular?)") from exc


def _shifted_lu(action):
    """Factorize E - M once; returns solve(b, trans) for E - M (trans
    False) and its transpose (trans True). Dense actions use LAPACK getrf,
    sparse ones sparse_shifted_lu."""
    if sp.issparse(action):
        lu = sparse_shifted_lu(action)
        return lambda b, trans: lu.solve(b, trans="T" if trans else "N")
    lu = sla.lu_factor(np.eye(action.shape[0]) - action)
    return lambda b, trans: sla.lu_solve(lu, b, trans=int(trans))


def _defect_bases(op: RestrictedOperator, action):
    """Both defect spaces of the domain {u : L^T u = 0} (L the constraint
    columns) under a W-skew action M that agrees with op's on the domain
    (_skew_action).

    A vector z is W-orthogonal to (E - M)u for every domain vector u iff
    (E - M)^T W z lies in span L, so N- = W^-1 (E - M)^-T L. Skewness
    gives (E + M)^T W = W (E - M), hence N+ = (E - M)^-1 W^-1 L: both from
    one factorization. Since |(E -+ M)u| >= |u|, both have exactly k =
    codim independent columns; the full domain (k = 0) factorizes
    nothing.
    """
    L = op.constraint_columns().toarray()
    if L.shape[1] == 0:
        return L, L
    w = op.space.weights[:, None]
    solve = _shifted_lu(action)
    n_plus = solve(L / w, False)
    n_minus = solve(L, True) / w
    return (_w_orthonormal(n_plus, op.space),
            _w_orthonormal(n_minus, op.space))


def deficiency(op: RestrictedOperator, rank_tol: float = 1e-8) -> DeficiencyData:
    """Defect dimensions and bases for the pair of shifted ranges.

    d_plus = codim Im(E + M)|_domain, d_minus = codim Im(E - M)|_domain.
    The result is computed once per (operator, rank_tol), cached on the
    operator and returned with read-only bases on later calls.

    Any domain with a W-skew action M (the whole matrix, not only its
    domain part; on a pinned domain after the pinned x pinned block, which
    never acts on the domain, is replaced by its W-skew part, see
    _skew_action): von Neumann's characterization gives both defect
    spaces from one LU factorization of E - M and two solves per
    constraint column (see _defect_bases). The counts are exact — both
    equal the codimension, zero on the full domain — so rank_tol has no
    meaning there (it is only recorded) and ill_conditioned is always
    false.

    Any other action decides ranks from singular values of
    the domain images (E -+ M)U relative to the largest one; the report
    is flagged ill_conditioned when any singular value falls within a
    factor of 10 of the rank threshold on either side, i.e. when the
    counts could plausibly move under a different tolerance.
    """
    key = float(rank_tol)
    dd = op._deficiency.get(key)
    if dd is None:
        dd = op._deficiency[key] = _deficiency(op, key)
    return dd


def _deficiency(op: RestrictedOperator, rank_tol: float) -> DeficiencyData:
    flagged = False
    action = _skew_action(op)
    if action is not None:
        Np, Nm = _defect_bases(op, action)
    else:
        U = op.domain_basis()
        MU = op.action @ U
        Nm, im = complement_basis(U - MU, op.space, rank_tol=rank_tol,
                                  return_info=True)
        Np, ip = complement_basis(U + MU, op.space, rank_tol=rank_tol,
                                  return_info=True)
        for info in (im, ip):
            s = info["singular_values"]
            if s.size == 0:
                continue
            thr = rank_tol * s[0]
            if np.any((s >= 0.1 * thr) & (s <= 10.0 * thr)):
                flagged = True

    Nm = _dc_align(Nm, op.space)
    Np = _dc_align(Np, op.space)
    Nm.flags.writeable = False
    Np.flags.writeable = False
    return DeficiencyData(
        d_plus=Np.shape[1],
        d_minus=Nm.shape[1],
        n_plus_basis=Np,
        n_minus_basis=Nm,
        tol_used=rank_tol,
        ill_conditioned=flagged,
    )


# ---------------------------------------------------------------------------
# Cayley pairing
# ---------------------------------------------------------------------------

@dataclass
class CayleyData:
    """Isometry data between the two shifted ranges.

    h_minus_basis is a W-orthonormal basis of Im(E - M)|_domain, and
    q_images holds the images of exactly the same domain combinations
    under E + M, so column k of q_images is the isometric image of column
    k of h_minus_basis. operator packages the map as a restricted operator
    whose action sends span(h_minus_basis) onto span(q_images).
    """

    operator: RestrictedOperator
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
    q_images = Hp @ C
    # matrix realization: h |-> q_images (coords of h in the Q basis)
    A_Q = q_images @ (Q.T * op.space.weights[None, :])
    cay_op = RestrictedOperator(
        space=op.space,
        action=A_Q,
        domain=Q,
        label=f"cayley({op.label})" if op.label else "cayley",
    )
    return CayleyData(operator=cay_op, h_minus_basis=Q, q_images=q_images)


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------

@dataclass
class ExtensionPlan:
    """A contraction coupling the two defect subspaces.

    coupling is either a scalar v with |v| <= 1 (shorthand for v times the
    identity, requiring equal defect dimensions) or a (d_minus x d_plus)
    matrix V with largest singular value <= 1. Column i of V gives the
    n_minus coordinates attached to the i-th n_plus direction: the added
    domain directions are w_i = n_plus_i + sum_k V[k, i] n_minus_k with
    action w_i |-> n_plus_i - sum_k V[k, i] n_minus_k. Couplings with
    top singular value exactly 1 keep the result skew in the directions
    they saturate; strict contractions absorb energy there.
    """

    coupling: Union[float, np.ndarray]

    def matrix(self, d_plus: int, d_minus: int) -> np.ndarray:
        c = self.coupling
        if np.isscalar(c):
            if d_plus != d_minus:
                raise ValueError(
                    "scalar coupling requires equal defect dimensions; "
                    f"got ({d_plus}, {d_minus})"
                )
            return float(c) * np.eye(d_minus, d_plus)
        V = np.asarray(c, dtype=float)
        if V.ndim != 2 or V.shape != (d_minus, d_plus):
            raise ValueError(
                f"coupling shape {V.shape} != (d_minus, d_plus) = "
                f"({d_minus}, {d_plus})"
            )
        return V


def extend(op: RestrictedOperator,
           plan: Union[ExtensionPlan, float, np.ndarray],
           rank_tol: float = 1e-8) -> RestrictedOperator:
    """Enlarge the domain along the defect coupling and solve for the action.

    The new operator agrees with op on op's domain (enforced to within
    1e-10 relative), acts on each added direction as prescribed by the
    coupling, and is skew exactly when the coupling is inner (singular
    values all 1); strict contractions yield operators whose negative is
    dissipative.
    The result is always a full-domain operator: the old domain and the
    d_plus added directions must make up the whole space, and a defect
    pair with more directions than that (E + M not injective on the
    domain) raises ValueError. Also raises when the added directions fail
    to enlarge the domain ("extension domain not dense") — for some
    models particular couplings are genuinely degenerate and no extension
    exists along them.

    With the constraint columns L of the domain (k = codim of them) and
    the added directions Z = N+ + N- V with images T = N+ - N- V, the
    action is the rank-k update A_ext = M + (T - M Z)(L^T Z)^-1 L^T: it
    leaves M on {L^T u = 0} and sends Z to T. Only the k x k matrix L^T Z
    is decomposed (its singular values decide density). Besides the dense
    n x n output and its restriction check, the work is the product M Z,
    the update R L^T (R = (T - M Z)(L^T Z)^-1) and O(nk^2) for the small
    factors; on a pinned domain L has one nonzero per column, so with a
    sparse action both products are O(nk) and the update touches only
    the pinned columns.
    """
    if not isinstance(plan, ExtensionPlan):
        plan = ExtensionPlan(coupling=plan)
    dd = deficiency(op, rank_tol=rank_tol)
    d_p, d_m = dd.d_plus, dd.d_minus
    if d_p == 0 and d_m == 0:
        return op  # already maximal: nothing to couple
    V = plan.matrix(d_p, d_m)
    smax = np.linalg.svd(V, compute_uv=False)[0] if V.size else 0.0
    if smax > 1.0 + 1e-10:
        raise ValueError(f"coupling must be a contraction (sigma_max={smax:.3e})")
    if d_p != op.codim:
        raise ValueError(
            f"defect pair ({d_p}, {d_m}) gives {op.domain_dim + d_p} domain "
            f"directions in dimension {op.dim}; E + M is not injective on "
            "the domain"
        )

    Np, Nm = dd.n_plus_basis, dd.n_minus_basis
    Z, T = Np + Nm @ V, Np - Nm @ V
    L = op.constraint_columns()
    LZ = L.T @ Z
    sv = np.linalg.svd(LZ, compute_uv=False)
    if sv.size and sv[-1] <= 1e-10 * sv[0]:
        raise ValueError("extension domain not dense")

    R = np.linalg.solve(LZ.T, (T - op.action @ Z).T).T
    ext = RestrictedOperator(
        space=op.space,
        action=op.dense_action() + R @ L.T,
        label=f"extend({op.label})" if op.label else "extend",
        meta={"coupling": V, "base_label": op.label},
    )
    rdef = restriction_defect(ext, op)
    if rdef > 1e-10 * (1.0 + _max_abs(_domain_columns(op, op.action))):
        raise ArithmeticError(
            f"assembled extension failed its restriction check ({rdef:.3e})"
        )
    ext.meta["restriction_defect"] = rdef
    return ext


def extension_coupling(op: RestrictedOperator,
                       ext: RestrictedOperator,
                       rank_tol: float = 1e-8):
    """Recover the defect coupling a full-domain extension realizes.

    For each n_plus basis direction z the vector g = (E + A_ext)^{-1} z is
    half of the added domain direction, and (E - A_ext) g lands back in
    the n_minus subspace with coordinates equal to the coupling column.
    Returns (V, defect) where defect measures how far those images leak
    out of the n_minus subspace (nonzero leak means ext does not extend op
    through the defect pair at all).
    """
    if not ext.is_full_domain:
        raise ValueError("coupling recovery expects a full-domain extension")
    dd = deficiency(op, rank_tol=rank_tol)
    Np, Nm = dd.n_plus_basis, dd.n_minus_basis
    A = ext.dense_action()
    G = np.linalg.solve(np.eye(op.dim) + A, Np)
    Y = G - A @ G
    V = Nm.T @ (op.space.weights[:, None] * Y)
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
    """
    if "seam" not in op.meta or "seam_scale" not in op.meta:
        raise ValueError("operator carries no seam metadata")
    # written so that NaN fails too
    if not abs(theta) <= 1.0 + 1e-12:
        raise ValueError("theta must be a finite number in [-1, 1]")
    i0, i1 = op.meta["seam"]
    scale = float(op.meta["seam_scale"])
    A = op.dense_action().copy()
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
    dim: int
    passed: bool
    tol: float


def _rank(A: np.ndarray) -> int:
    """Rank of a square matrix: its size when one LU factorization and
    LAPACK's 1-norm estimate rcond show it far from singular, else
    matrix_rank's SVD count.

    matrix_rank counts A as singular when sigma_min <= n eps sigma_max,
    i.e. kappa_2 >= 1/(n eps). Since kappa_2 <= n kappa_1 and the
    estimate of |A^-1|_1 is rarely low by more than a factor 10,
    rcond >= 10 n^2 eps keeps A clear of that cut. getrf is called
    directly, so an exactly singular A (info > 0) reaches the SVD
    without a LinAlgWarning.
    """
    n = A.shape[0]
    anorm = float(np.max(np.sum(np.abs(A), axis=0)))
    lu, _, info = dgetrf(A)
    if info == 0:
        rcond, info = dgecon(lu, anorm, norm="1")
        if info == 0 and rcond >= 10.0 * n * n * np.finfo(float).eps:
            return n
    return int(np.linalg.matrix_rank(A))


def check_m_dissipative(gen: RestrictedOperator,
                        h_list=(0.5, 1.0, 2.0),
                        tol: float = 1e-12,
                        seed: int = 0) -> MDissipativityReport:
    """Dissipativity form bound plus surjectivity of E - hB for each h.

    form_max is the largest Rayleigh value (Bu, u)/(u, u) over 64 seeded
    probes (should be <= tol for a dissipative B); the rank of E - hB must
    equal the space dimension for every h in h_list for the resolvent at
    1/h to exist, which at desk scale is the whole m-dissipativity story.
    Each rank costs one LU factorization unless E - hB is close enough to
    singular to need the SVD (see _rank).
    """
    if not gen.is_full_domain:
        raise ValueError("m-dissipativity applies to full-domain generators")
    B = gen.dense_action()
    n = gen.dim
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((n, 64))
    BP = B @ probes
    W = gen.space.weights
    num = np.einsum("ij,ij->j", probes * W[:, None], BP)
    den = np.einsum("ij,ij->j", probes * W[:, None], probes)
    form_max = float(np.max(num / den))

    ranks = {}
    ok = form_max <= tol
    E = np.eye(n)
    for h in h_list:
        r = _rank(E - h * B)
        ranks[float(h)] = r
        ok = ok and (r == n)
    return MDissipativityReport(form_max=form_max, ranks=ranks, dim=n,
                                passed=ok, tol=tol)


@dataclass
class InclusionReport:
    max_defect: float
    passed: bool
    tol: float


def check_inclusion_in_adjoint(gen: RestrictedOperator,
                               op: RestrictedOperator,
                               tol: float = 1e-10) -> InclusionReport:
    """Verify (B u, v) = (u, M v) for all v in op's domain, u arbitrary.

    This is the weak statement that B acts inside the adjoint of op; it is
    checked on 32 unit probes u (seed 0) against the full W-orthonormal
    domain basis, so the reported defect bounds the bilinear identity on
    unit pairs.
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
                           passed=max_defect <= tol, tol=tol)


def _domain_columns(op: RestrictedOperator, A) -> np.ndarray:
    """A applied to op's W-orthonormal domain basis, as dense columns."""
    return _dense(A @ op._basis)


def restriction_defect(ext: RestrictedOperator, op: RestrictedOperator) -> float:
    """Largest W-norm of (A_ext - M) applied to op's domain basis columns
    (on a full or pinned domain: to e_j / sqrt(w_j), j free)."""
    D = _domain_columns(op, ext.action) - _domain_columns(op, op.action)
    return float(np.max(op.space.norms(D)))
