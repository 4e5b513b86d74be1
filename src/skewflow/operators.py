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
import scipy.sparse as sp

from .spaces import Space, complement_basis, orthonormalize, project_onto


def _dense(action) -> np.ndarray:
    if sp.issparse(action):
        return np.asarray(action.todense(), dtype=float)
    return np.asarray(action, dtype=float)


@dataclass
class RestrictedOperator:
    """A matrix action together with the subspace it is considered on.

    domain is either None (the operator is defined on the whole space) or
    an (dim x m) array of basis columns; the constructor replaces it with
    a W-orthonormal basis of the same span. The action may be dense or
    scipy sparse. meta carries model-specific data (grids, seam indices)
    that higher-level helpers can exploit; nothing in this module requires
    any particular key.
    """

    space: Space
    action: Union[np.ndarray, sp.spmatrix]
    domain: Optional[np.ndarray] = None
    label: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.space.dim
        if self.action.shape != (n, n):
            raise ValueError(f"action shape {self.action.shape} != ({n}, {n})")
        if self.domain is not None:
            D = np.atleast_2d(np.asarray(self.domain, dtype=float))
            if D.shape[0] != n:
                raise ValueError("domain columns do not match space dimension")
            self.domain = orthonormalize(D, self.space, tol=1e-12)
            if self.domain.shape[1] == 0:
                raise ValueError("domain has no nonzero directions")

    # -- structure ---------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def is_full_domain(self) -> bool:
        return self.domain is None

    @property
    def domain_dim(self) -> int:
        return self.dim if self.domain is None else self.domain.shape[1]

    @property
    def codim(self) -> int:
        return self.dim - self.domain_dim

    def domain_basis(self) -> np.ndarray:
        """W-orthonormal columns spanning the domain (identity-like if full)."""
        if self.domain is not None:
            return self.domain
        return np.diag(1.0 / np.sqrt(self.space.weights))

    def domain_vector(self, coords: np.ndarray) -> np.ndarray:
        """domain_basis() @ coords, without forming the basis if full."""
        if self.domain is not None:
            return self.domain @ coords
        return coords * (1.0 / np.sqrt(self.space.weights))

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.action @ u

    def dense_action(self) -> np.ndarray:
        return _dense(self.action)

    def random_domain_vector(self, rng: np.random.Generator) -> np.ndarray:
        u = self.domain_vector(rng.standard_normal(self.domain_dim))
        return u / self.space.norm(u)


# ---------------------------------------------------------------------------
# skewness
# ---------------------------------------------------------------------------

@dataclass
class SkewReport:
    max_defect: float
    passed: bool
    tol: float


def check_skew_symmetry(op: RestrictedOperator, tol: float = 1e-10) -> SkewReport:
    """Largest violation of (Mu, v) + (u, Mv) = 0 over the domain.

    Evaluated exactly on a W-orthonormal domain basis, which bounds the
    defect for arbitrary unit domain vectors; the diagonal of the defect
    matrix doubles as the check that (Mu, u) vanishes.
    """
    if op.is_full_domain:
        # defect in identity coordinates: sqrt(W) M sqrt(W)^-1 + transpose
        sw = np.sqrt(op.space.weights)
        if sp.issparse(op.action):
            G = sp.diags(sw) @ op.action @ sp.diags(1.0 / sw)
            D = (G + G.T).tocoo()
            max_defect = float(np.max(np.abs(D.data))) if D.nnz else 0.0
        else:
            G = sw[:, None] * op.action / sw[None, :]
            max_defect = float(np.max(np.abs(G + G.T)))
    else:
        U = op.domain_basis()
        MU = op.apply(U)
        G = U.T @ (op.space.weights[:, None] * MU)
        max_defect = float(np.max(np.abs(G + G.T)))
    return SkewReport(max_defect=max_defect, passed=max_defect <= tol, tol=tol)


# ---------------------------------------------------------------------------
# deficiency data
# ---------------------------------------------------------------------------

@dataclass
class DeficiencyData:
    """Codimensions of Im(E -+ M) on the domain, with aligned defect bases.

    n_plus_basis spans the orthogonal complement of Im(E + M) restricted to
    the domain, n_minus_basis the complement of Im(E - M). Both bases are
    W-orthonormal. When the complement contains any of the constant vector,
    the first basis column is rotated onto that projection (the subspace's
    own DC mode) so that reported directions are reproducible and smooth
    representatives come first; remaining columns complete the subspace.
    """

    d_plus: int
    d_minus: int
    n_plus_basis: np.ndarray
    n_minus_basis: np.ndarray
    tol_used: float
    ill_conditioned: bool = False
    notes: str = ""


def _sign_fix(N: np.ndarray, space: Space) -> np.ndarray:
    out = N.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        m = space.inner(col, np.ones(space.dim))
        if abs(m) > 1e-12 * space.norm(col):
            s = np.sign(m)
        else:
            s = np.sign(col[int(np.argmax(np.abs(col)))])
        if s < 0:
            out[:, j] = -col
    return out


def _dc_align(N: np.ndarray, space: Space) -> np.ndarray:
    """Rotate a W-orthonormal subspace basis so column 0 is its DC mode."""
    d = N.shape[1]
    if d <= 0:
        return N
    ones = np.ones(space.dim)
    p = project_onto(N, ones, space)
    if space.norm(p) <= 1e-10 * space.norm(ones):
        return _sign_fix(N, space)
    stacked = np.column_stack([p / space.norm(p), N])
    Q = orthonormalize(stacked, space, tol=1e-8)
    if Q.shape[1] != d:  # pathological cancellation — keep the raw basis
        return _sign_fix(N, space)
    return _sign_fix(Q, space)


def deficiency(op: RestrictedOperator, rank_tol: float = 1e-8) -> DeficiencyData:
    """Defect dimensions and bases for the pair of shifted ranges.

    d_plus = codim Im(E + M)|_domain, d_minus = codim Im(E - M)|_domain.
    The rank decisions use singular values relative to the largest one;
    the report is flagged ill_conditioned when any singular value falls
    within a factor of 10 of the rank threshold on either side, i.e. when
    the counts could plausibly move under a different tolerance.
    """
    U = op.domain_basis()
    M = op.dense_action()
    MU = M @ U
    Hm = U - MU
    Hp = U + MU
    Nm, im = complement_basis(Hm, op.space, rank_tol=rank_tol, return_info=True)
    Np, ip = complement_basis(Hp, op.space, rank_tol=rank_tol, return_info=True)

    flagged = False
    for info in (im, ip):
        s = info["singular_values"]
        if s.size == 0:
            continue
        thr = rank_tol * s[0]
        if np.any((s >= 0.1 * thr) & (s <= 10.0 * thr)):
            flagged = True

    Nm = _dc_align(Nm, op.space)
    Np = _dc_align(Np, op.space)
    return DeficiencyData(
        d_plus=Np.shape[1],
        d_minus=Nm.shape[1],
        n_plus_basis=Np,
        n_minus_basis=Nm,
        tol_used=rank_tol,
        ill_conditioned=flagged,
        notes="ill-conditioned deficiency" if flagged else "",
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
    M = op.dense_action()
    MU = M @ U
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
           tol: float = 1e-10,
           rank_tol: float = 1e-8) -> RestrictedOperator:
    """Enlarge the domain along the defect coupling and solve for the action.

    The new operator agrees with op on op's domain (enforced to within
    tol), acts on each added direction as prescribed by the coupling, and
    is skew exactly when the coupling is inner (singular values all 1);
    strict contractions yield operators whose negative is dissipative.
    The result is always a full-domain operator: the old domain and the
    d_plus added directions must make up the whole space, and a defect
    pair with more directions than that (E + M not injective on the
    domain) raises ValueError. Also raises when the added directions fail
    to enlarge the domain ("extension domain not dense") — for some
    models particular couplings are genuinely degenerate and no extension
    exists along them.
    """
    if not isinstance(plan, ExtensionPlan):
        plan = ExtensionPlan(coupling=plan)
    dd = deficiency(op, rank_tol=rank_tol)
    d_p, d_m = dd.d_plus, dd.d_minus
    if d_p == 0 and d_m == 0:
        return op  # already maximal: nothing to couple
    V = plan.matrix(d_p, d_m)
    smax = np.linalg.svd(V, compute_uv=False)[0] if V.size else 0.0
    if smax > 1.0 + max(tol, 1e-12):
        raise ValueError(f"coupling must be a contraction (sigma_max={smax:.3e})")

    U = op.domain_basis()
    MU = op.dense_action() @ U
    Np, Nm = dd.n_plus_basis, dd.n_minus_basis
    S = np.hstack([U, Np + Nm @ V])
    if S.shape[1] != op.dim:
        raise ValueError(
            f"defect pair ({d_p}, {d_m}) gives {S.shape[1]} domain directions "
            f"in dimension {op.dim}; E + M is not injective on the domain"
        )

    sv = np.linalg.svd(op.space.sqrt_scale(S), compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise ValueError("extension domain not dense")

    targets = np.hstack([MU, Np - Nm @ V])
    ext = RestrictedOperator(
        space=op.space,
        action=np.linalg.solve(S.T, targets.T).T,
        label=f"extend({op.label})" if op.label else "extend",
        meta={"coupling": V, "base_label": op.label},
    )
    rdef = restriction_defect(ext, op)
    if rdef > max(tol, 1e-10) * (1.0 + float(np.max(np.abs(MU)))):
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
    energy in and are rejected.
    """
    if "seam" not in op.meta or "seam_scale" not in op.meta:
        raise ValueError("operator carries no seam metadata")
    if abs(theta) > 1.0 + 1e-12:
        raise ValueError("theta must lie in [-1, 1]")
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


def check_m_dissipative(gen: RestrictedOperator,
                        h_list=(0.5, 1.0, 2.0),
                        tol: float = 1e-12,
                        n_probe: int = 64,
                        seed: int = 0) -> MDissipativityReport:
    """Dissipativity form bound plus surjectivity of E - hB for each h.

    form_max is the largest Rayleigh value (Bu, u)/(u, u) over seeded
    probes (should be <= tol for a dissipative B); the rank of E - hB must
    equal the space dimension for every h in h_list for the resolvent at
    1/h to exist, which at desk scale is the whole m-dissipativity story.
    """
    if not gen.is_full_domain:
        raise ValueError("m-dissipativity applies to full-domain generators")
    B = gen.dense_action()
    n = gen.dim
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((n, n_probe))
    BP = B @ probes
    W = gen.space.weights
    num = np.einsum("ij,ij->j", probes * W[:, None], BP)
    den = np.einsum("ij,ij->j", probes * W[:, None], probes)
    form_max = float(np.max(num / den))

    ranks = {}
    ok = form_max <= tol
    E = np.eye(n)
    for h in h_list:
        r = int(np.linalg.matrix_rank(E - h * B))
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
                               tol: float = 1e-10,
                               n_probe: int = 32,
                               seed: int = 0) -> InclusionReport:
    """Verify (B u, v) = (u, M v) for all v in op's domain, u arbitrary.

    This is the weak statement that B acts inside the adjoint of op; it is
    checked on seeded unit probes u against the full W-orthonormal domain
    basis, so the reported defect bounds the bilinear identity on unit
    pairs.
    """
    rng = np.random.default_rng(seed)
    n = gen.dim
    if op.space.dim != n:
        raise ValueError("generator and operator live on different spaces")
    probes = rng.standard_normal((n, n_probe))
    probes /= gen.space.norms(probes)
    U = op.domain_basis()
    B = gen.dense_action()
    MU = op.dense_action() @ U
    W = gen.space.weights
    lhs = (B @ probes).T @ (W[:, None] * U)      # (Bu, v)
    rhs = probes.T @ (W[:, None] * MU)           # (u, Mv)
    max_defect = float(np.max(np.abs(lhs - rhs)))
    return InclusionReport(max_defect=max_defect,
                           passed=max_defect <= tol, tol=tol)


def restriction_defect(ext: RestrictedOperator, op: RestrictedOperator) -> float:
    """Largest W-norm of (A_ext - M) applied to op's domain basis columns."""
    U = op.domain_basis()
    return float(np.max(op.space.norms(ext.apply(U) - op.apply(U))))
