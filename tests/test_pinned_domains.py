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
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.linalg import LinAlgWarning

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
    assert not dd.ill_conditioned
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


def test_a_non_skew_action_on_a_pinned_domain_takes_the_svd_path(monkeypatch):
    calls = []
    real = operators._shifted_lu
    monkeypatch.setattr(operators, "_shifted_lu",
                        lambda a: calls.append(1) or real(a))
    n = 12
    w = np.linspace(0.5, 1.5, n)
    action = weighted_ring(w, np.ones(n)) + 0.3 * np.eye(n)  # not W-skew
    op = RestrictedOperator(space=Space(dim=n, weights=w), action=action,
                            domain=PinnedDomain([0, 5]))
    dd = deficiency(op)
    assert calls == []
    ref_plus, ref_minus = svd_defect_spaces(op)
    assert (dd.d_plus, dd.d_minus) == (ref_plus.shape[1], ref_minus.shape[1])
    assert largest_angle_sine(dd.n_plus_basis, ref_plus, op.space) < 1e-12
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
    monkeypatch.setattr(operators, "complement_basis", None)
    op = interior_transport(16, psi=lambda x, y: x * y)
    assert check_skew_symmetry(op).max_defect < 1e-12
    assert not operators._is_skew(
        operators._identity_coords(op.space, op.action))
    assert_matches_svd(op)
    assert calls == [1]


def test_a_dense_action_off_skew_on_the_pins_only_takes_the_one_lu_path(
        monkeypatch):
    monkeypatch.setattr(operators, "complement_basis", None)
    n, pins = 14, [0, 3, 4, 9]
    rng = np.random.default_rng(1)
    w = rng.uniform(0.5, 1.5, n)
    action = weighted_ring(w, rng.uniform(0.5, 1.5, n))
    action[np.ix_(pins, pins)] += rng.standard_normal((4, 4))
    assert_matches_svd(RestrictedOperator(space=Space(dim=n, weights=w),
                                          action=action,
                                          domain=PinnedDomain(pins)))


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
    calls = []
    real = operators._shifted_lu
    monkeypatch.setattr(operators, "_shifted_lu",
                        lambda a: calls.append(1) or real(a))
    op = minimal_derivative_operator(64)
    ext = extend(op, 0.5)
    V, leak = extension_coupling(op, ext)
    np.testing.assert_allclose(V, 0.5 * np.eye(2), atol=1e-10)
    assert leak < 1e-10
    witness_nonuniqueness(op)
    assert calls == [1]


def test_explicit_columns_factorize_and_find_constraints_once(monkeypatch):
    # a W-skew action on explicit columns takes the one-LU route: one
    # factorization and one constraint-column QR serve deficiency, extend
    # and extension_coupling, and the SVD route is never reached
    calls = []
    for name in ("_shifted_lu", "_constraint_columns"):
        real = getattr(operators, name)
        monkeypatch.setattr(operators, name,
                            lambda *a, real=real, name=name:
                            calls.append(name) or real(*a))
    monkeypatch.setattr(operators, "complement_basis", None)
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
