"""Pinned (mask) domains, constraint columns, the one-factorization
defect spaces and the rank-k extension, the per-operator caches and the
densification guards.

Two dense references stay here for the constraint-column paths to
reproduce. svd_defect_spaces is the deficiency computation every domain
kind used before: W-orthonormal complements of the domain images
(E -+ M)U, decided by singular values. reference_extend is the extension
solve extend used before: the whole domain basis U next to the added
directions, checked for density by an n x n SVD and solved for all n
columns.
"""
import json
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.linalg import LinAlgWarning
from scipy.linalg.lapack import dgetrf

from skewflow import operators, weak
from skewflow.cli import main
from skewflow.operators import (
    ExtensionPlan,
    PinnedDomain,
    RestrictedOperator,
    check_inclusion_in_adjoint,
    check_m_dissipative,
    check_skew_symmetry,
    deficiency,
    extend,
    extension_coupling,
    restriction_defect,
    seam_extension,
)
from skewflow.oracles import minimal_derivative_operator
from skewflow.spaces import Space
from skewflow.transport import (
    Grid2D,
    build_transport_operator,
    field_from_stream,
    write_stream_file,
)
from skewflow.weak import witness_nonuniqueness


def svd_defect_spaces(op, rank_tol=1e-8):
    """(N+, N-) as W-orthonormal complements of (E + M)U and (E - M)U,
    with U the dense domain basis (e_j / sqrt(w_j) for the free
    coordinates of a pinned domain, the stored columns otherwise) and the
    ranks cut at rank_tol times the largest singular value."""
    sw = np.sqrt(op.space.weights)
    U = op.domain_basis()
    MU = op.dense_action() @ U

    def complement(H):
        Q, s, _ = np.linalg.svd(sw[:, None] * H, full_matrices=True)
        r = int(np.count_nonzero(s > rank_tol * s[0]))
        return Q[:, r:] / sw[:, None]

    return complement(U + MU), complement(U - MU)


def reference_extend(op, V):
    """The dense extension solve: A_ext S = [M U, N+ - N- V] for
    S = [U, N+ + N- V], with U the dense domain basis."""
    dd = deficiency(op)
    Np, Nm = dd.n_plus_basis, dd.n_minus_basis
    U = op.domain_basis()
    S = np.hstack([U, Np + Nm @ V])
    assert S.shape[1] == op.dim
    sv = np.linalg.svd(op.space.sqrt_scale(S), compute_uv=False)
    assert sv[-1] > 1e-10 * sv[0]
    targets = np.hstack([op.dense_action() @ U, Np - Nm @ V])
    return np.linalg.solve(S.T, targets.T).T


def largest_angle_sine(A, B, space):
    """sin of the largest principal angle between two W-orthonormal bases."""
    sw = np.sqrt(space.weights)[:, None]
    a, b = sw * A, sw * B
    return float(np.linalg.norm(a - b @ (b.T @ a), 2))


def dc_mode(N, space):
    """Unit W-projection of the constant vector onto span N, positive mean."""
    p = N @ (N.T @ space.weights)
    return p / space.norm(p)


def assert_matches_svd(op):
    dd = deficiency(op)
    ref_plus, ref_minus = svd_defect_spaces(op)
    k = op.codim
    assert (dd.d_plus, dd.d_minus) == (k, k)
    assert (ref_plus.shape[1], ref_minus.shape[1]) == (k, k)
    for got, ref in ((dd.n_plus_basis, ref_plus),
                     (dd.n_minus_basis, ref_minus)):
        gram = got.T @ (op.space.weights[:, None] * got)
        assert np.max(np.abs(gram - np.eye(k))) < 1e-12
        assert largest_angle_sine(got, ref, op.space) <= 1e-12
        dc = dc_mode(ref, op.space)
        scale = float(np.max(np.abs(dc)))
        assert np.max(np.abs(got[:, 0] - dc)) <= 1e-12 * scale


def weighted_ring(weights, coeff):
    """W^-1 K for the periodic antisymmetric bidiagonal K: W-skew."""
    n = weights.size
    j = np.arange(n)
    K = np.zeros((n, n))
    K[j, (j + 1) % n] = -coeff
    K[(j + 1) % n, j] = coeff
    return K / weights[:, None]


def coordinate_columns(n, pins):
    """Unit columns of every coordinate except the pinned ones."""
    return np.delete(np.eye(n), np.asarray(pins), axis=1)


def explicit_domains(n, pins, rng):
    """The coordinate subspace of the pins as explicit columns, the same
    span in a rotated basis, and a Gaussian subspace of its dimension."""
    C = coordinate_columns(n, pins)
    Q = np.linalg.qr(rng.standard_normal((C.shape[1],) * 2))[0]
    return {"coordinate": C, "rotated": C @ Q,
            "random": rng.standard_normal(C.shape)}


def interior_transport(m, psi=None):
    g = Grid2D(m, m)
    if psi is None:
        def psi(x, y):
            return np.sin(np.pi * x) * np.sin(2 * np.pi * y) / np.pi
    return build_transport_operator(field_from_stream(g, psi),
                                    mode="interior_domain")


# ---------------------------------------------------------------------------
# the one-LU path against the SVD reference
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=6, max_value=40),
       st.integers(min_value=0, max_value=2**31), st.data())
def test_weighted_rings_with_random_pins_match_the_svd_path(n, seed, data):
    # the pins as a PinnedDomain and as the three explicit-column domains
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, n)
    coeff = rng.uniform(0.5, 1.5, n)
    k = data.draw(st.integers(min_value=1, max_value=max(1, n // 3)))
    pins = rng.choice(n, size=k, replace=False)
    space = Space(dim=n, weights=weights)
    action = weighted_ring(weights, coeff)
    domains = [PinnedDomain(pins), *explicit_domains(n, pins, rng).values()]
    for domain in domains:
        assert_matches_svd(RestrictedOperator(space=space, action=action,
                                              domain=domain))


@pytest.mark.parametrize("n", [48, 128])
def test_wrapped_model_matches_the_svd_path(n):
    assert_matches_svd(minimal_derivative_operator(n))


@pytest.mark.parametrize("m", [8, 12])
def test_interior_transport_matches_the_svd_path(m):
    op = interior_transport(m)
    assert sp.issparse(op.action)
    assert_matches_svd(op)


def test_a_non_skew_action_on_a_pinned_domain_is_refused(monkeypatch):
    # 0.3 E is not skew on any domain: S + S^T has 0.6 on its diagonal.
    # deficiency and extend name that defect and factorize nothing
    calls = []
    real = operators._shifted_lu
    monkeypatch.setattr(operators, "_shifted_lu",
                        lambda a: calls.append(1) or real(a))
    n = 12
    w = np.linspace(0.5, 1.5, n)
    action = weighted_ring(w, np.ones(n)) + 0.3 * np.eye(n)
    op = RestrictedOperator(space=Space(dim=n, weights=w), action=action,
                            domain=PinnedDomain([0, 5]))
    for call in (deficiency, lambda op: extend(op, 0.5)):
        with pytest.raises(ValueError, match=r"not skew on its domain "
                           r"\(max\|S \+ S\^T\| = 6\.000e-01\)"):
            call(op)
    assert calls == [] and op._deficiency == {}
    # a skew action on the same domain factorizes once
    deficiency(RestrictedOperator(space=op.space,
                                  action=weighted_ring(w, np.ones(n)),
                                  domain=op.domain))
    assert calls == [1]


def test_a_stencil_skew_only_on_the_domain_takes_the_one_lu_path(monkeypatch):
    # x*y does not close periodically: the wrapped entries of the outer
    # ring break skewness of the whole matrix, but only in the pinned x
    # pinned block, which never acts on the domain; its W-skew part
    # keeps the one-LU path, with the SVD route's counts and subspaces
    calls = []
    real = operators._shifted_lu
    monkeypatch.setattr(operators, "_shifted_lu",
                        lambda a: calls.append(1) or real(a))
    op = interior_transport(16, psi=lambda x, y: x * y)
    assert check_skew_symmetry(op).max_defect < 1e-12
    assert not operators._is_skew(
        operators._identity_coords(op.space, op.action))
    assert_matches_svd(op)
    assert calls == [1]


def test_a_dense_action_off_skew_on_the_pins_only_takes_the_one_lu_path():
    n, pins = 14, [0, 3, 4, 9]
    rng = np.random.default_rng(1)
    w = rng.uniform(0.5, 1.5, n)
    action = weighted_ring(w, rng.uniform(0.5, 1.5, n))
    action[np.ix_(pins, pins)] += rng.standard_normal((4, 4))
    assert_matches_svd(RestrictedOperator(space=Space(dim=n, weights=w),
                                          action=action,
                                          domain=PinnedDomain(pins)))


def assert_completion_matches_the_references(op, rng):
    """Counts, defect subspaces, the extension and its recovered coupling
    of an action that is skew on op's domain only, against the SVD
    complements and the dense extension solve, all to 1e-12."""
    assert_matches_svd(op)
    k = op.codim
    A = rng.standard_normal((k, k))
    V = 0.9 * A / np.linalg.norm(A, 2)
    ext = extend(op, V)
    ref = reference_extend(op, V)
    got = ext.dense_action()
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert ext.meta["restriction_defect"] <= 1e-12
    V_got, leak = extension_coupling(op, ext)
    assert np.max(np.abs(V_got - V)) <= 1e-12 and leak <= 1e-12
    return ext


@pytest.mark.parametrize("seed", range(20))
def test_an_explicit_domain_skew_only_there_is_completed(seed):
    # M = K + X L^T with K W-skew and L^T U = 0 agrees with K on the
    # domain, but the whole matrix is not W-skew
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    k = int(rng.integers(1, max(2, n // 3)))
    w = rng.uniform(0.5, 1.5, n)
    space = Space(dim=n, weights=w)
    K = weighted_ring(w, rng.uniform(0.5, 1.5, n))
    U = rng.standard_normal((n, n - k))
    L = np.linalg.qr(U, mode="complete")[0][:, n - k:]
    op = RestrictedOperator(space=space,
                            action=K + rng.standard_normal((n, k)) @ L.T,
                            domain=U)
    assert not operators._is_skew(
        operators._identity_coords(space, op.action))
    assert check_skew_symmetry(op).max_defect <= 1e-12
    assert_completion_matches_the_references(op, rng)


@pytest.mark.parametrize("sparse", [True, False], ids=["csr", "dense"])
@pytest.mark.parametrize("seed", range(10))
def test_a_pinned_domain_off_skew_in_the_pinned_columns_is_completed(
        seed, sparse):
    # the free x pinned block never acts on a domain vector; changing it
    # makes G_PF != -G_FP^T, which the pinned-block fix cannot mend
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    pins = rng.choice(n, size=int(rng.integers(1, n // 4 + 2)),
                      replace=False)
    free = np.setdiff1d(np.arange(n), pins)
    w = rng.uniform(0.5, 1.5, n)
    action = weighted_ring(w, rng.uniform(0.5, 1.5, n))
    action[np.ix_(free[:3], pins)] += rng.standard_normal((3, pins.size))
    if sparse:
        action = sp.csr_matrix(action)
    op = RestrictedOperator(space=Space(dim=n, weights=w), action=action,
                            domain=PinnedDomain(pins))
    M_s = operators._skew_action(op)[0]
    assert M_s is not op.action and sp.issparse(M_s) == sparse
    ext = assert_completion_matches_the_references(op, rng)
    if sparse:
        assert ext.action.format == "csr"
    else:
        assert isinstance(ext.action, np.ndarray)


def test_a_full_skew_operator_has_no_defects_without_densifying(monkeypatch):
    monkeypatch.setattr(RestrictedOperator, "dense_action", None)
    monkeypatch.setattr(RestrictedOperator, "domain_basis", None)
    g = Grid2D(16, 16)
    op = build_transport_operator(field_from_stream(
        g, lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)))
    dd = deficiency(op)
    assert (dd.d_plus, dd.d_minus) == (0, 0)
    assert dd.n_plus_basis.shape == (op.dim, 0)


# ---------------------------------------------------------------------------
# the rank-k extension against the dense solve
# ---------------------------------------------------------------------------

def weighted_explicit_operators():
    rng = np.random.default_rng(11)
    n = 24
    w = rng.uniform(0.5, 1.5, n)
    ring = weighted_ring(w, rng.uniform(0.5, 1.5, n))
    for kind, cols in explicit_domains(n, [2, 9, 17], rng).items():
        yield kind, RestrictedOperator(space=Space(dim=n, weights=w),
                                       action=ring, domain=cols)


def extension_cases():
    for n in (48, 128):
        yield f"wrapped {n}", minimal_derivative_operator(n)
    for m in (8, 12):
        yield f"interior {m}x{m}", interior_transport(m)
    yield from weighted_explicit_operators()


def couplings(k, rng):
    """A scalar and a seeded matrix contraction (sigma_max 0.9)."""
    A = rng.standard_normal((k, k))
    return [0.5, 0.9 * A / np.linalg.norm(A, 2)]


@pytest.mark.parametrize("name,op", list(extension_cases()),
                         ids=[name for name, _ in extension_cases()])
def test_extend_matches_the_dense_solve(name, op):
    rng = np.random.default_rng(5)
    for v in couplings(op.codim, rng):
        ext = extend(op, v)
        V = ExtensionPlan(coupling=v).matrix(op.codim, op.codim)
        ref = reference_extend(op, V)
        got = ext.dense_action()
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert ext.meta["restriction_defect"] <= 1e-12


def test_extend_forms_no_domain_basis(monkeypatch):
    # no basis, and every SVD and dense solve is of a k x k matrix
    ops = [minimal_derivative_operator(32), interior_transport(8),
           *(op for _, op in weighted_explicit_operators())]
    shapes = []
    for name in ("svd", "solve"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, real=real, **kw:
                            shapes.append(np.shape(a)) or real(a, *args, **kw))
    monkeypatch.setattr(RestrictedOperator, "domain_basis", None)
    for op in ops:
        shapes.clear()
        ext = extend(op, -0.3)
        assert ext.is_full_domain and ext.meta["restriction_defect"] <= 1e-12
        assert shapes and all(s == (op.codim, op.codim) for s in shapes)


def rank_k_update(op, theta):
    """The dense rank-k extension M + R L^T, R = (T - M Z)(L^T Z)^-1, from
    op's defect bases and constraint columns."""
    dd = deficiency(op)
    Np, Nm = dd.n_plus_basis, dd.n_minus_basis
    Z, T = Np + theta * Nm, Np - theta * Nm
    L = op.constraint_columns().toarray()
    M = op.dense_action()
    R = np.linalg.solve((L.T @ Z).T, (T - M @ Z).T).T
    return M + R @ L.T


def pinned_block_cases():
    for n in (32, 64):
        yield f"wrapped {n}", lambda n=n: minimal_derivative_operator(n)
    yield "interior 16x16 closed", lambda: interior_transport(
        16, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y) / np.pi)
    yield "interior 16x16 x*y", lambda: interior_transport(
        16, lambda x, y: x * y)


@pytest.mark.parametrize("theta", [0.5, -0.3])
@pytest.mark.parametrize("name,build", list(pinned_block_cases()),
                         ids=[name for name, _ in pinned_block_cases()])
def test_pinned_extend_is_the_sparse_block_update(name, build, theta):
    # the stencil plus a k x k block on the pins, equal to the dense rank-k
    # update to rounding, in the action's own storage
    op = build()
    assert sp.issparse(op.action)
    ref = rank_k_update(op, theta)
    scale = np.max(np.abs(ref))
    pins = op.domain.pins
    for action in (op.action, op.dense_action()):
        base = RestrictedOperator(space=op.space, action=action,
                                  domain=op.domain)
        ext = extend(base, theta)
        assert sp.issparse(ext.action) == sp.issparse(action)
        got = ext.dense_action()
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale
        diff = got - op.dense_action()
        diff[np.ix_(pins, pins)] = 0.0
        assert not diff.any()
        assert ext.meta["restriction_defect"] == 0.0
    sparse_ext = extend(op, theta)
    assert sparse_ext.action.nnz <= op.action.nnz + pins.size ** 2


@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
def test_extend_reads_the_skew_completion_that_deficiency_left(monkeypatch,
                                                               sparse):
    # deficiency tests the action for a W-skew completion once and keeps
    # it on the operator; extend reads it there instead of testing again
    calls = []
    real = operators._skew_action
    monkeypatch.setattr(operators, "_skew_action",
                        lambda op: calls.append(op) or real(op))
    op = minimal_derivative_operator(64)
    if not sparse:
        op = RestrictedOperator(space=op.space, action=op.dense_action(),
                                domain=op.domain)
    deficiency(op)
    assert len(calls) == 1 and op._skew_completion is op.action
    ext = extend(op, 0.5)
    assert len(calls) == 1
    assert sp.issparse(ext.action) == sparse
    diff = ext.dense_action() - op.dense_action()
    pins = op.domain.pins
    diff[np.ix_(pins, pins)] = 0.0
    assert not diff.any()


# ---------------------------------------------------------------------------
# the boundary form against the n x k route
# ---------------------------------------------------------------------------

def nk_reference(op):
    """The defect bases and the extension block from n x k arrays: the
    two solves X+ = A^-1 W^-1 L and X- = W^-1 A^-T L (A = E - M_s), a QR
    of each in W coordinates, the Householder turn onto the DC
    projection and the sign rule; and for a coupling V, Y = L^T W R with
    R = (T - M_s Z)(L^T Z)^-1."""
    M = op._skew_completion
    L = op.constraint_columns().toarray()
    w = op.space.weights
    sw = np.sqrt(w)[:, None]
    solve = operators.sparse_shifted_lu(sp.csc_matrix(M)).solve
    one = op.space.norm(np.ones(op.dim))

    def basis(X):
        N = np.linalg.qr(sw * X)[0] / sw
        c = N.T @ w
        r = np.linalg.norm(c)
        if r > 1e-10 * one:
            v = c / r
            v[0] += 1.0 if v[0] >= 0.0 else -1.0
            N = N - np.outer(N @ v, v * (2.0 / (v @ v)))
        mean, P = N.T @ w, L.T @ N
        peak = P[np.argmax(np.abs(P), axis=0), np.arange(P.shape[1])]
        s = np.where(np.abs(mean) > 1e-12, mean, peak)
        return N * np.where(s < 0.0, -1.0, 1.0)

    Np = basis(solve(L / w[:, None]))
    Nm = basis(solve(L, trans="T") / w[:, None])

    def block(V):
        Z, T = Np + Nm @ V, Np - Nm @ V
        R = np.linalg.solve((L.T @ Z).T, (T - M @ Z).T).T
        return L.T @ (w[:, None] * R)

    return Np, Nm, block


def _as_dense(a):
    return a.toarray() if sp.issparse(a) else np.asarray(a)


def boundary_cases():
    for n in (32, 64):
        yield f"wrapped {n}", lambda n=n: minimal_derivative_operator(n)
    streams = {"closed": lambda x, y: (np.sin(np.pi * x) * np.sin(np.pi * y)
                                       / np.pi),
               "x*y": lambda x, y: x * y,
               "through-flow": lambda x, y: y + 0.0 * x}
    for name, psi in streams.items():
        for m in (16, 24) if name != "closed" else (16,):
            yield (f"interior {m}x{m} {name}",
                   lambda m=m, psi=psi: interior_transport(m, psi))
    # the closed stream at pi times the speed: X+- C+- alone are
    # W-orthonormal only to about 2.5e-12 here, so this case needs the
    # Cholesky-QR step
    yield "interior 32x32 closed fast", lambda: interior_transport(
        32, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    for kind, op in weighted_explicit_operators():
        if kind != "coordinate":
            yield f"explicit {kind}", lambda op=op: op


@pytest.mark.parametrize("name,build", list(boundary_cases()),
                         ids=[name for name, _ in boundary_cases()])
def test_boundary_form_matches_the_nk_route(name, build):
    # Y (R_P = W_P^-1 Y on the pins) to 1e-13 of its size, the lazily
    # formed bases to 1e-10 and W-orthonormal to 1e-12
    op = build()
    k, w = op.codim, op.space.weights
    dd = deficiency(op)
    Np, Nm, block = nk_reference(op)
    L = op.constraint_columns()
    A = np.random.default_rng(k).standard_normal((k, k))
    for v in (0.5, 0.9 * A / np.linalg.norm(A, 2)):
        D = extend(op, v).action - op._skew_completion
        Y = L.T @ (w[:, None] * _as_dense(D @ L))
        Y_ref = block(ExtensionPlan(coupling=v).matrix(k, k))
        assert np.max(np.abs(Y - Y_ref)) <= 1e-13 * np.max(np.abs(Y_ref))
    for got, ref in ((dd.n_plus_basis, Np), (dd.n_minus_basis, Nm)):
        assert np.max(np.abs(got - ref)) <= 1e-10
        gram = got.T @ (w[:, None] * got)
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-12


def test_boundary_data_is_k_by_k():
    # F, its Gram G = (F + F^T)/2 and the coordinates C+- are all the
    # deficiency keeps: C+-^T G C+- = E, and L^T N+ = F C+, L^T N- = F^T C-
    op = interior_transport(12, lambda x, y: x * y)
    dd = deficiency(op)
    k = op.codim
    G = 0.5 * (dd.F + dd.F.T)
    assert dd.F.shape == dd.c_plus.shape == dd.c_minus.shape == (k, k)
    for C in (dd.c_plus, dd.c_minus):
        assert np.max(np.abs(C.T @ G @ C - np.eye(k))) <= 1e-12
    pins = op.domain.pins
    scale = np.max(np.abs(dd.F))
    assert np.max(np.abs(dd.n_plus_basis[pins] - dd.F @ dd.c_plus)) \
        <= 1e-12 * scale
    assert np.max(np.abs(dd.n_minus_basis[pins] - dd.F.T @ dd.c_minus)) \
        <= 1e-12 * scale


def test_deficiency_records_the_completion_residual():
    # the _skew_ratio of the branch _skew_action took: the whole matrix
    # for the wrapped model and after the pinned-block fix for x*y, S =
    # U^T W M U for an explicit domain that is skew only there
    assert deficiency(minimal_derivative_operator(32)).completion_residual \
        == 0.0
    assert deficiency(interior_transport(8, lambda x, y: x * y)
                      ).completion_residual == 0.0
    rng = np.random.default_rng(4)
    n, k = 20, 3
    w = rng.uniform(0.5, 1.5, n)
    U = rng.standard_normal((n, n - k))
    L = np.linalg.qr(U, mode="complete")[0][:, n - k:]
    op = RestrictedOperator(
        space=Space(dim=n, weights=w),
        action=weighted_ring(w, rng.uniform(0.5, 1.5, n))
        + rng.standard_normal((n, k)) @ L.T, domain=U)
    Ub = op.domain_basis()
    S = Ub.T @ (w[:, None] * (op.action @ Ub))
    ratio = np.max(np.abs(S + S.T)) / max(1.0, np.max(np.abs(S)))
    dd = deficiency(op)
    assert 0.0 < dd.completion_residual <= 1e-12
    assert dd.completion_residual == pytest.approx(ratio, rel=1e-6)


def test_extend_records_the_density_ratio():
    # sigma_min / sigma_max of L^T Z = F C+ + F^T C- V
    op = minimal_derivative_operator(32)
    dd = deficiency(op)
    for v in (0.5, -0.3, np.array([[0.2, 0.5], [-0.1, 0.3]])):
        V = ExtensionPlan(coupling=v).matrix(2, 2)
        sv = np.linalg.svd(dd.F @ dd.c_plus + dd.F.T @ dd.c_minus @ V,
                           compute_uv=False)
        ratio = extend(op, v).meta["density_ratio"]
        assert ratio == pytest.approx(sv[-1] / sv[0], rel=1e-12)
        assert 0.0 < ratio <= 1.0


def dissipation_cases():
    yield "wrapped 32", minimal_derivative_operator(32)
    yield "interior 12x12 x*y", interior_transport(12, lambda x, y: x * y)
    yield from weighted_explicit_operators()


@pytest.mark.parametrize("name,op", list(dissipation_cases()),
                         ids=[name for name, _ in dissipation_cases()])
def test_extend_records_the_dissipation_defect(name, op):
    # max|sym(Y) - P| / max(|Y|, |P|) with Y = L^T W (A_ext - M_s) L read
    # off the assembled action and P = (L^T Z)^-T (E - V^T V)(L^T Z)^-1
    # from the n x k reference bases: within about eps / density_ratio,
    # for inner couplings (P = 0) and strict contractions alike
    k, w = op.codim, op.space.weights
    deficiency(op)
    Np, Nm, _ = nk_reference(op)
    L = op.constraint_columns()
    Q = np.linalg.qr(np.random.default_rng(k).standard_normal((k, k)))[0]
    for v in (0.5, -np.eye(k)[::-1], 0.9 * Q[::-1]):
        ext = extend(op, v)
        V = ext.meta["coupling"]
        Y = L.T @ (w[:, None] * _as_dense((ext.action - op._skew_completion)
                                          @ L))
        LZ = L.T @ (Np + Nm @ V)
        P = np.linalg.solve(LZ.T, np.linalg.solve(LZ.T, np.eye(k) - V.T @ V).T)
        ref = np.max(np.abs(0.5 * (Y + Y.T) - P)) / max(np.max(np.abs(Y)),
                                                         np.max(np.abs(P)))
        got = ext.meta["dissipation_defect"]
        bound = 1e-14 / ext.meta["density_ratio"]
        assert got <= bound and ref <= bound, (got, ref, bound)


def test_a_nearly_degenerate_coupling_gives_a_skew_block():
    # theta = -1 on the 64^2 x*y interior operator: L^T Z has sigma_min /
    # sigma_max near 5e-7, above the 1e-10 density cut. The extension
    # leaves the domain exactly (the stencil plus a block on the pins),
    # and its pinned block is W-skew to about eps / density_ratio, which
    # meta["dissipation_defect"] records (about 2e-10)
    op = interior_transport(64, lambda x, y: x * y)
    ext = extend(op, -1.0)
    assert 1e-7 < ext.meta["density_ratio"] < 1e-6
    assert ext.meta["restriction_defect"] == 0.0
    assert 1e-12 < ext.meta["dissipation_defect"] <= 1e-9
    pins = op.domain.pins
    G = operators._identity_coords(op.space, ext.action)[pins][:, pins]
    G = G.toarray()
    assert np.max(np.abs(G + G.T)) <= 1e-9 * np.max(np.abs(G))


def test_deficiency_and_extend_at_64_squared_stay_small():
    # the interior closed stream at 64^2 (k = 496 pins): no n x k basis
    # is formed or kept. The n x k route took 1.5 s with a 111 MiB
    # tracemalloc peak, the boundary form 0.33 s and 27 MiB (one BLAS
    # thread, 2 cores). The memory bound is the gate; the time bound only
    # catches a gross slowdown, with room for a loaded machine
    op = interior_transport(
        64, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y) / np.pi)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        deficiency(op)
        ext = extend(op, 0.0)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert ext.meta["restriction_defect"] == 0.0
    assert peak <= 40.0, f"peak {peak:.1f} MiB"
    assert elapsed <= 15.0, f"{elapsed:.2f} s"


# ---------------------------------------------------------------------------
# the pinned representation
# ---------------------------------------------------------------------------

def test_builtin_models_build_no_basis(monkeypatch):
    monkeypatch.setattr(operators, "orthonormalize", None)
    op = minimal_derivative_operator(64)
    assert isinstance(op.domain, PinnedDomain)
    assert op.domain.pins.tolist() == [0, 63]
    inner = interior_transport(10)
    assert inner.domain.pins.size == inner.codim == 64
    assert np.array_equal(np.setdiff1d(np.arange(100), inner.domain.pins),
                          inner.meta["interior_cells"])


def test_pinned_domain_basis_is_the_scaled_free_coordinates():
    w = np.array([0.5, 2.0, 4.0, 1.0])
    op = RestrictedOperator(space=Space(dim=4, weights=w),
                            action=np.zeros((4, 4)),
                            domain=PinnedDomain([2, 0, 2]))
    assert op.domain.pins.tolist() == [0, 2]
    assert (op.domain_dim, op.codim) == (2, 2)
    U = op.domain_basis()
    expect = np.zeros((4, 2))
    expect[1, 0], expect[3, 1] = 1 / np.sqrt(2.0), 1.0
    np.testing.assert_array_equal(U, expect)
    C = np.array([[1.0, -2.0], [3.0, 0.5]])
    np.testing.assert_array_equal(op.domain_vector(C), U @ C)


def test_pinned_domain_edge_cases():
    space = Space.euclidean(3)
    full = RestrictedOperator(space=space, action=np.zeros((3, 3)),
                              domain=PinnedDomain([]))
    assert full.is_full_domain and full.domain is None
    with pytest.raises(ValueError, match="no nonzero"):
        RestrictedOperator(space=space, action=np.zeros((3, 3)),
                           domain=PinnedDomain([0, 1, 2]))
    with pytest.raises(ValueError, match="outside"):
        RestrictedOperator(space=space, action=np.zeros((3, 3)),
                           domain=PinnedDomain([3]))


def test_mask_checks_agree_with_the_basis_formulas():
    # the wrapped model, a weighted ring pinned by a mask and by the same
    # coordinates as explicit unit columns, and a sparse interior stencil,
    # each against the dense domain-basis formulas; a seeded stray action
    # makes the restriction and inclusion defects nonzero
    n, pins = 12, [0, 5, 7]
    w = np.random.default_rng(2).uniform(0.5, 1.5, n)
    ring = weighted_ring(w, np.linspace(0.5, 1.5, n))
    wrapped = minimal_derivative_operator(32)
    ops = [wrapped, interior_transport(8),
           *(RestrictedOperator(space=Space(dim=n, weights=w), action=ring,
                                domain=d)
             for d in (PinnedDomain(pins), coordinate_columns(n, pins)))]
    for op in ops:
        U = op.domain_basis()
        W = op.space.weights[:, None]
        M = op.dense_action()
        G = U.T @ (W * (M @ U))
        ref = float(np.max(np.abs(G + G.T)))
        skew = check_skew_symmetry(op).max_defect
        assert skew == ref if op is wrapped else abs(skew - ref) <= 1e-13
        rng = np.random.default_rng(op.dim)
        gens = [RestrictedOperator(
            space=op.space, action=M + 0.1 * rng.standard_normal(M.shape))]
        if op is wrapped:
            gens += [seam_extension(op, theta) for theta in (0.5, -1.0, 1.0)]
        probes = np.random.default_rng(0).standard_normal((op.dim, 32))
        probes /= op.space.norms(probes)
        for gen in gens:
            B = gen.dense_action()
            ref = float(np.max(op.space.norms((B - M) @ U)))
            assert abs(restriction_defect(gen, op) - ref) <= 1e-13
            lhs = (B @ probes).T @ (W * U)
            rhs = probes.T @ (W * (M @ U))
            ref = float(np.max(np.abs(lhs - rhs)))
            assert abs(check_inclusion_in_adjoint(gen, op).max_defect
                       - ref) <= 1e-13


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------

def test_deficiency_is_cached_per_rank_tol():
    op = minimal_derivative_operator(32)
    dd = deficiency(op)
    assert deficiency(op) is dd
    other = deficiency(op, rank_tol=1e-6)
    assert other is not dd and other.tol_used == 1e-6
    assert deficiency(op, rank_tol=1e-6) is other
    assert deficiency(minimal_derivative_operator(32)) is not dd


def test_cached_bases_are_read_only():
    for op in (minimal_derivative_operator(16),
               RestrictedOperator(space=Space.euclidean(3),
                                  action=np.zeros((3, 3)),
                                  domain=np.eye(3)[:, :2])):
        dd = deficiency(op)
        for N in (dd.n_plus_basis, dd.n_minus_basis):
            assert not N.flags.writeable
            with pytest.raises(ValueError):
                N[0, 0] = 1.0
        with pytest.raises(AttributeError):
            dd.d_plus = 5


def test_extend_then_coupling_factorizes_once(monkeypatch):
    # the sparse E - M_s of the cached deficiency is the one
    # factorization: extend, extension_coupling (through the k boundary
    # columns) and the witness all reuse it
    calls = []
    real = operators._shifted_lu
    monkeypatch.setattr(operators, "_shifted_lu",
                        lambda a: calls.append(a) or real(a))
    op = minimal_derivative_operator(64)
    ext = extend(op, 0.5)
    V, leak = extension_coupling(op, ext)
    np.testing.assert_allclose(V, 0.5 * np.eye(2), atol=1e-10)
    assert leak < 1e-10
    witness_nonuniqueness(op)
    assert len(calls) == 1 and calls[0] is op.action
    assert sp.issparse(calls[0])


def test_explicit_columns_factorize_and_find_constraints_once(monkeypatch):
    # a W-skew action on explicit columns takes the one-LU route: one
    # factorization of E - M and one constraint-column QR serve
    # deficiency, extend and extension_coupling, which factorizes
    # nothing, and the SVD route is never reached
    calls, lu_args = [], []
    for name in ("_shifted_lu", "_constraint_columns"):
        real = getattr(operators, name)
        monkeypatch.setattr(operators, name,
                            lambda *a, real=real, name=name:
                            calls.append(name) or lu_args.append(a[0])
                            or real(*a))
    w = np.linspace(0.5, 1.5, 10)
    op = RestrictedOperator(space=Space(dim=10, weights=w),
                            action=weighted_ring(w, np.ones(10)),
                            domain=np.eye(10)[:, 2:])
    dd = deficiency(op)
    assert (dd.d_plus, dd.d_minus) == (2, 2)
    ext = extend(op, -0.4)
    extend(op, 0.7)
    V, leak = extension_coupling(op, ext)
    np.testing.assert_allclose(V, -0.4 * np.eye(2), atol=1e-12)
    assert leak < 1e-12
    assert sorted(calls) == ["_constraint_columns", "_shifted_lu"]
    assert lu_args[calls.index("_shifted_lu")] is op.action


# ---------------------------------------------------------------------------
# m-dissipativity by one LU per step size
# ---------------------------------------------------------------------------

def _generators():
    wrap = seam_extension(minimal_derivative_operator(32), 1.0)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 6))
    yield "negated wrap", -wrap.dense_action()
    yield "growth", np.eye(2)
    yield "singular at h = 1/2 and 1", np.diag([2.0, 1.0, -3.0])
    yield "nearly singular", np.diag([1.0, 1.0 + 1e-15, -1.0])
    yield "dissipative", (A - A.T) - 0.1 * A @ A.T


@pytest.mark.parametrize("name,B", list(_generators()),
                         ids=[name for name, _ in _generators()])
def test_m_dissipative_ranks_match_matrix_rank(name, B):
    n = B.shape[0]
    gen = RestrictedOperator(space=Space.euclidean(n), action=B)
    with warnings.catch_warnings():
        warnings.simplefilter("error", LinAlgWarning)
        rep = check_m_dissipative(gen)
    for h, r in rep.ranks.items():
        assert r == np.linalg.matrix_rank(np.eye(n) - h * B)


def test_well_conditioned_resolvents_skip_the_svd(monkeypatch):
    def no_svd(*_, **__):
        raise AssertionError("matrix_rank called")
    monkeypatch.setattr(np.linalg, "matrix_rank", no_svd)
    op = minimal_derivative_operator(64)
    neg = RestrictedOperator(space=op.space,
                             action=-extend(op, 0.3).dense_action())
    rep = check_m_dissipative(neg)
    assert rep.passed and set(rep.ranks.values()) == {64}


# ---------------------------------------------------------------------------
# the Cholesky certificate against the per-h loop
# ---------------------------------------------------------------------------

def reference_ranks(B, h_list=(0.5, 1.0, 2.0)):
    """check_m_dissipative's ranks as one LU (or SVD) per step size, the
    route it took before the certificate."""
    E = np.eye(B.shape[0])
    return {float(h): operators._rank(E - h * B) for h in h_list}


def count_getrf(monkeypatch):
    calls = []

    def getrf(*args, **kwargs):
        calls.append(args[0].shape)
        return dgetrf(*args, **kwargs)
    monkeypatch.setattr(operators, "dgetrf", getrf)
    return calls


def certificate_cases(seed):
    """(name, space, B, whether the certificate must hold) on a random
    non-uniform weight; delta = 1/4 for the default h_list."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    w = rng.uniform(0.1, 4.0, n)
    sw = np.sqrt(w)
    space = Space(dim=n, weights=w)
    K = rng.standard_normal((n, n))
    K -= K.T
    P = rng.standard_normal((n, n // 2))
    # W^-1 (K - P P^T): W-dissipative
    yield "dissipative", space, (K - P @ P.T) / w[:, None], True
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = -rng.uniform(0.0, 1.0, n)
    for top, certified in ((0.9, True), (1.1, False)):
        lam[0] = top * 0.25
        # identity coordinates G = K + Q diag(lam) Q^T, B = W^-1/2 G W^1/2
        G = K + (Q * lam) @ Q.T
        yield f"sym top {top} delta", space, G * sw[None, :] / sw[:, None], \
            certified
    # |B| ~ 1e14: dissipative, but the condition bound sends it to the LU
    yield "huge", space, 1e14 * (K - P @ P.T) / w[:, None], False


@pytest.mark.parametrize("seed", range(5))
def test_certificate_matches_the_per_h_loop(monkeypatch, seed):
    cases = list(certificate_cases(seed))
    op = interior_transport(16)
    ext = extend(op, 0.5)
    cases.append(("16x16 interior contraction", op.space,
                  -ext.dense_action(), True))
    for name, space, B, certified in cases:
        calls = count_getrf(monkeypatch)
        rep = check_m_dissipative(RestrictedOperator(space=space, action=B))
        assert len(calls) == (0 if certified else 3), name
        ref = reference_ranks(B)
        assert rep.ranks == ref, name
        sw = np.sqrt(space.weights)
        g_max = np.max(np.abs(sw[:, None] * B / sw[None, :]))
        assert rep.passed == (rep.form_max <= 1e-12 * max(1.0, g_max)
                              and set(ref.values()) == {space.dim}), name


def test_dissipative_generators_run_no_lu(monkeypatch):
    op = minimal_derivative_operator(64)
    neg = RestrictedOperator(space=op.space,
                             action=-extend(op, 0.3).dense_action())
    calls = count_getrf(monkeypatch)
    assert check_m_dissipative(neg).passed
    assert calls == []
    growth = RestrictedOperator(space=Space.euclidean(4), action=np.eye(4))
    rep = check_m_dissipative(growth)
    assert len(calls) == 3
    assert rep.ranks == {0.5: 4, 1.0: 0, 2.0: 4} and not rep.passed


def count_dpotrf(monkeypatch):
    shapes = []
    real = operators.dpotrf
    monkeypatch.setattr(operators, "dpotrf",
                        lambda a, **kw: shapes.append(a.shape) or real(a, **kw))
    return shapes


@pytest.mark.parametrize("name,B", list(_generators()),
                         ids=[name for name, _ in _generators()])
def test_support_block_certificate_matches_the_per_h_loop(monkeypatch, name,
                                                          B):
    # the Cholesky certificate factors only the rows where sym(G) is
    # nonzero (G = B on the Euclidean space); an empty support is certified
    # with no factorization at all
    n = B.shape[0]
    shapes = count_dpotrf(monkeypatch)
    rep = check_m_dissipative(RestrictedOperator(space=Space.euclidean(n),
                                                 action=B))
    assert rep.ranks == reference_ranks(B), name
    p = np.count_nonzero((B + B.T).any(axis=1))
    assert shapes in ([], [(p, p)]), name
    if p == 0:
        assert shapes == [] and set(rep.ranks.values()) == {n}, name


def test_a_wrapped_extension_is_certified_on_its_pins(monkeypatch):
    # sym(G) of -extend(op, v) on the n = 512 wrapped model lives on the
    # two pins, so the certificate factors a 2 x 2 block and no LU runs
    op = minimal_derivative_operator(512)
    neg = RestrictedOperator(space=op.space,
                             action=-extend(op, 0.4).dense_action())
    shapes = count_dpotrf(monkeypatch)
    calls = count_getrf(monkeypatch)
    rep = check_m_dissipative(neg)
    assert rep.passed and set(rep.ranks.values()) == {512}
    assert shapes == [(2, 2)] and calls == []


# ---------------------------------------------------------------------------
# no silent densification in analyze
# ---------------------------------------------------------------------------

def test_analyze_on_a_64_squared_periodic_stream_stays_small(tmp_path):
    g = Grid2D(64, 64)
    write_stream_file(tmp_path / "stream.csv",
                      lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
                      / (2 * np.pi), g)
    desc = tmp_path / "transport.json"
    desc.write_text(json.dumps({"operator": {"kind": "transport",
                                             "stream": "stream.csv"}}))
    tracemalloc.start()
    try:
        code = main(["analyze", "--input", str(desc),
                     "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert (report["dim"], report["d_plus"], report["d_minus"]) == (4096, 0, 0)
    # one dense 4096 x 4096 matrix alone is 128 MiB
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_analyze_on_the_wrapped_model_at_4096_stays_small(tmp_path):
    # the sparse stencil, its diagonal-pivot LU and k = 2 defect columns:
    # one dense 4096 x 4096 matrix alone would be 128 MiB
    desc = tmp_path / "minimal.json"
    desc.write_text(json.dumps({"operator": {"kind": "minimal_derivative",
                                             "n": 4096}}))
    tracemalloc.start()
    try:
        code = main(["analyze", "--input", str(desc),
                     "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert (report["dim"], report["d_plus"], report["d_minus"]) == (4096, 2, 2)
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("command", ["extend", "verify", "witness",
                                     "multiplicity"])
def test_dense_commands_refuse_a_77_squared_interior_operator(
        tmp_path, capsys, command):
    # 77^2 = 5929 cells: one dense action would be 268 MiB
    g = Grid2D(77, 77)
    write_stream_file(tmp_path / "stream.csv",
                      lambda x, y: np.sin(np.pi * x) * np.sin(2 * np.pi * y)
                      / np.pi, g)
    desc = tmp_path / "interior.json"
    desc.write_text(json.dumps({"operator": {"kind": "transport",
                                             "stream": "stream.csv",
                                             "mode": "interior_domain"}}))
    flags = ["--theta", "0.5"] if command == "extend" else []
    tracemalloc.start()
    try:
        code = main([command, "--input", str(desc),
                     "--out", str(tmp_path / "out"), *flags])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "5929 x 5929" in err[0]
    assert not (tmp_path / "out" / "report.json").exists()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_multiplicity_on_a_2d_grid_starts_from_the_first_domain_vector(
        monkeypatch):
    # transport meta carries a Grid2D, not 1-D nodes: no Gaussian profile.
    # The two branches are stand-ins (+-M on the whole space); only the
    # initial state is under test here.
    monkeypatch.setattr(weak, "extend", lambda op, theta: RestrictedOperator(
        space=op.space, action=theta * op.dense_action()))
    op = interior_transport(8)
    demo = weak.semigroup_multiplicity_demo(op, horizon=0.05, dt=0.01)
    first = op.domain_basis()[:, 0]
    np.testing.assert_array_equal(demo.u0, first / op.space.norm(first))
    assert demo.distances.shape == (6,)
