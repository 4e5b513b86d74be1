import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewflow import operators
from skewflow.cli import main
from skewflow.operators import (
    RestrictedOperator,
    cayley,
    check_inclusion_in_adjoint,
    check_m_dissipative,
    check_skew_symmetry,
    deficiency,
    extend,
    extension_coupling,
    restriction_defect,
    seam_extension,
    sparse_shifted_lu,
)
from skewflow.oracles import minimal_derivative_operator
from skewflow.spaces import Space
from skewflow.transport import Grid2D, build_transport_operator, field_from_stream


def rotation_generator():
    """The 2x2 quarter-turn generator restricted to the first axis."""
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    dom = np.array([[1.0], [0.0]])
    return RestrictedOperator(space=Space.euclidean(2), action=m, domain=dom)


# ---------------------------------------------------------------------------
# skewness and deficiency
# ---------------------------------------------------------------------------

def test_full_skew_matrix_passes():
    m = np.array([[0.0, 2.0], [-2.0, 0.0]])
    op = RestrictedOperator(space=Space.euclidean(2), action=m, domain=None)
    rep = check_skew_symmetry(op)
    assert rep.passed and rep.max_defect == 0.0


def test_symmetric_matrix_fails_skew_check():
    m = np.eye(3)
    op = RestrictedOperator(space=Space.euclidean(3), action=m, domain=None)
    assert not check_skew_symmetry(op).passed


def test_weighted_skewness_uses_the_gram():
    # m is skew for weights (1, 4) but not for the plain dot product
    w = np.array([1.0, 4.0])
    m = np.array([[0.0, -4.0], [1.0, 0.0]])
    op = RestrictedOperator(space=Space(dim=2, weights=w), action=m, domain=None)
    assert check_skew_symmetry(op).passed
    op2 = RestrictedOperator(space=Space.euclidean(2), action=m, domain=None)
    assert not check_skew_symmetry(op2).passed


def test_rotation_generator_has_balanced_unit_defects():
    op = rotation_generator()
    dd = deficiency(op)
    assert (dd.d_plus, dd.d_minus) == (1, 1)
    # defect vectors of the quarter-turn: (1, -1)/sqrt(2) and (1, 1)/sqrt(2)
    np.testing.assert_allclose(np.abs(dd.n_plus_basis[:, 0]),
                               np.full(2, 1 / np.sqrt(2)), atol=1e-12)
    np.testing.assert_allclose(np.abs(dd.n_minus_basis[:, 0]),
                               np.full(2, 1 / np.sqrt(2)), atol=1e-12)


def test_full_domain_operator_has_no_defects():
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    op = RestrictedOperator(space=Space.euclidean(2), action=m, domain=None)
    dd = deficiency(op)
    assert (dd.d_plus, dd.d_minus) == (0, 0)
    assert dd.n_plus_basis.shape == (2, 0)


def test_wrapped_difference_model_has_two_by_two_defects():
    # removing both seam nodes costs two dimensions on each side
    for n in (32, 64):
        dd = deficiency(minimal_derivative_operator(n))
        assert (dd.d_plus, dd.d_minus) == (2, 2)


def test_deficiency_defect_vectors_annihilate_the_range():
    op = minimal_derivative_operator(32)
    dd = deficiency(op)
    U = op.domain_basis()
    M = op.dense_action()
    W = op.space.weights[:, None]
    plus_pair = dd.n_plus_basis.T @ (W * (U + M @ U))
    minus_pair = dd.n_minus_basis.T @ (W * (U - M @ U))
    assert np.max(np.abs(plus_pair)) < 1e-10
    assert np.max(np.abs(minus_pair)) < 1e-10


# ---------------------------------------------------------------------------
# cayley data
# ---------------------------------------------------------------------------

def test_cayley_images_are_isometric():
    op = minimal_derivative_operator(32)
    cd = cayley(op)
    s = op.space
    for k in range(cd.h_minus_basis.shape[1]):
        assert s.norm(cd.q_images[:, k]) == pytest.approx(
            s.norm(cd.h_minus_basis[:, k]), abs=1e-10)


def test_cayley_map_sends_minus_image_to_plus_image():
    # h_minus_basis @ a = (E - M) u and q_images @ a = (E + M) u for the
    # same domain vector u, whose coordinates a solve the first system
    op = rotation_generator()
    cd = cayley(op)
    u = op.domain_basis()[:, 0]
    m = op.dense_action()
    a = np.linalg.lstsq(cd.h_minus_basis, u - m @ u, rcond=None)[0]
    np.testing.assert_allclose(cd.h_minus_basis @ a, u - m @ u, atol=1e-12)
    np.testing.assert_allclose(cd.q_images @ a, u + m @ u, atol=1e-12)


# ---------------------------------------------------------------------------
# extensions: exact small case
# ---------------------------------------------------------------------------

def test_rotation_couplings_split_into_exact_and_degenerate():
    # for the quarter turn one modulus-one coupling recovers the full
    # rotation exactly and the other collapses the new domain vector onto
    # the old axis; which sign does which depends only on the basis
    # normalization, so probe both
    op = rotation_generator()
    recovered = []
    degenerate = []
    for v in (1.0, -1.0):
        try:
            recovered.append(extend(op, v))
        except ValueError as exc:
            assert "not dense" in str(exc)
            degenerate.append(v)
    assert len(recovered) == 1 and len(degenerate) == 1
    ext = recovered[0]
    np.testing.assert_allclose(ext.dense_action(),
                               np.array([[0.0, -1.0], [1.0, 0.0]]),
                               atol=1e-12)
    assert ext.is_full_domain
    assert restriction_defect(ext, op) < 1e-14


def test_scalar_unit_couplings_degenerate_on_the_wrapped_model():
    # the grid-reversal symmetry pairs the two defect spaces, which makes
    # both aligned scalar couplings of modulus one collapse the domain
    op = minimal_derivative_operator(32)
    for v in (1.0, -1.0):
        with pytest.raises(ValueError, match="not dense"):
            extend(op, v)


def test_interior_scalar_couplings_are_accretive_extensions():
    op = minimal_derivative_operator(32)
    for v in (0.5, -0.25, 0.0):
        ext = extend(op, v)
        assert ext.is_full_domain
        assert restriction_defect(ext, op) < 1e-10
        neg = RestrictedOperator(space=ext.space, action=-ext.dense_action(),
                                 domain=None)
        assert check_m_dissipative(neg).passed


def test_extend_validates_its_coupling():
    # a float and a 0-d array are v times the identity, a k x k array is
    # taken as it is; another shape, a non-finite entry and sigma_max > 1
    # are refused
    op = minimal_derivative_operator(32)
    v = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(operators._coupling_matrix(v, 2), v)
    for c in (0.5, np.array(0.5), np.float64(0.5), 0.5 * np.eye(2)):
        assert np.array_equal(operators._coupling_matrix(c, 2),
                              0.5 * np.eye(2))
    ref = extend(op, 0.5).dense_action()
    for c in (np.array(0.5), 0.5 * np.eye(2)):
        ext = extend(op, c)
        assert np.array_equal(ext.dense_action(), ref)
        assert np.array_equal(ext.meta["coupling"], 0.5 * np.eye(2))
    for c in (np.ones(2), np.eye(3), np.eye(2)[:1], [[[0.5]]]):
        with pytest.raises(ValueError, match=r"coupling shape .* != "
                           r"\(codim, codim\) = \(2, 2\)"):
            extend(op, c)
    for c in (np.array(np.nan), np.array([[0.5, np.inf], [0.0, 0.5]])):
        with pytest.raises(ValueError, match="coupling has non-finite"):
            extend(op, c)
    for c in (1.5, np.array(-1.5), np.diag([0.5, 1.2])):
        with pytest.raises(ValueError, match="coupling must be a contraction"):
            extend(op, c)


def test_a_scalar_coupling_is_validated_without_an_svd(monkeypatch):
    # sigma_max of v times the identity is |v|
    def refuse(*args, **kwargs):
        raise AssertionError("svd called")
    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert np.array_equal(operators._coupling_matrix(-0.5, 176),
                          -0.5 * np.eye(176))
    with pytest.raises(ValueError, match=r"sigma_max=1\.500e\+00"):
        operators._coupling_matrix(1.5, 176)


def test_extend_validates_the_coupling_of_a_full_domain_operator():
    # k = 0: a maximal operator comes back as it is, but only for a
    # coupling that a restricted operator would take too; an empty V has
    # sigma_max 0
    op = RestrictedOperator(space=Space.euclidean(2),
                            action=np.array([[0.0, -1.0], [1.0, 0.0]]),
                            domain=None)
    assert extend(op, 0.5) is op
    assert extend(op, np.zeros((0, 0))) is op
    for c, message in ((np.nan, "non-finite"), (5.0, "contraction"),
                       (np.ones((3, 3)), r"shape \(3, 3\)")):
        with pytest.raises(ValueError, match=message):
            extend(op, c)


# ---------------------------------------------------------------------------
# seam extensions and coupling recovery
# ---------------------------------------------------------------------------

def test_seam_unit_couplings_are_exactly_skew_and_restrict():
    op = minimal_derivative_operator(64)
    for th in (1.0, -1.0):
        ext = seam_extension(op, th)
        assert check_skew_symmetry(ext).max_defect == 0.0
        assert restriction_defect(ext, op) == 0.0


def test_seam_plus_one_is_the_plain_wrapped_matrix():
    op = minimal_derivative_operator(32)
    ext = seam_extension(op, 1.0)
    np.testing.assert_allclose(ext.dense_action(), op.dense_action(),
                               atol=0.0)


@pytest.mark.parametrize("theta", [1.0, -1.0, 0.5, -0.3, 0.0])
def test_seam_extension_is_dense_and_unchanged_by_the_sparse_model(theta):
    # the wrapped flows run the dense routes on the seam extension: it is
    # the dense stencil with the seam entries twisted and, for |theta| <
    # 1, the absorption on the seam diagonal, to the bit
    n = 48
    op = minimal_derivative_operator(n)
    c = n / 2.0
    ref = np.zeros((n, n))
    for j in range(n):
        ref[j, (j + 1) % n] = -c
        ref[j, (j - 1) % n] = +c
    ref[0, n - 1] += (theta - 1.0) * c
    ref[n - 1, 0] -= (theta - 1.0) * c
    if abs(theta) < 1.0:
        ref[0, 0] += 0.5 * (1.0 - theta * theta) * c
        ref[n - 1, n - 1] += 0.5 * (1.0 - theta * theta) * c
    ext = seam_extension(op, theta)
    assert type(ext.action) is np.ndarray
    assert np.array_equal(ext.action, ref)
    assert op.action.nnz == 2 * n  # the model itself is left as it was


def test_seam_interior_theta_adds_absorption():
    op = minimal_derivative_operator(32)
    ext = seam_extension(op, 0.5)
    neg = RestrictedOperator(space=ext.space, action=-ext.dense_action(),
                             domain=None)
    rep = check_m_dissipative(neg)
    assert rep.passed
    assert not check_skew_symmetry(ext).passed  # strictly lossy at the seam


def test_seam_extension_validates_inputs():
    op = minimal_derivative_operator(32)
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        seam_extension(op, 1.5)
    bare = RestrictedOperator(space=op.space, action=op.dense_action(),
                              domain=op.domain)
    with pytest.raises(ValueError, match="seam"):
        seam_extension(bare, 1.0)


def test_recovered_coupling_is_orthogonal_for_unit_theta():
    op = minimal_derivative_operator(64)
    for th in (1.0, -1.0):
        ext = seam_extension(op, th)
        V, leak = extension_coupling(op, ext)
        assert V.shape == (2, 2)
        assert np.max(np.abs(V.T @ V - np.eye(2))) < 1e-12
        assert leak < 1e-12


def test_coupling_roundtrip_reproduces_the_seam_matrix():
    op = minimal_derivative_operator(64)
    ext = seam_extension(op, -1.0)
    V, _ = extension_coupling(op, ext)
    rebuilt = extend(op, V)
    assert np.max(np.abs(rebuilt.dense_action() - ext.dense_action())) < 1e-10


def coupling_cases():
    """(op, extensions) for the per-column coupling reference: the wrapped
    model, a pinned interior stencil, an explicit-column ring and an
    explicit domain whose action is skew there only (M != M_s). At n =
    256 the stencil entries are 128, and the coupling leaks by about
    1e-12 without the refinement step."""
    for n in (32, 256):
        op = minimal_derivative_operator(n)
        yield op, [seam_extension(op, 1.0), seam_extension(op, 0.5),
                   extend(op, np.array([[0.3, -0.2], [0.1, 0.6]]))]
    rng = np.random.default_rng(4)
    n, k = 20, 3
    w = rng.uniform(0.5, 1.5, n)
    j = np.arange(n)
    ring = np.zeros((n, n))
    ring[j, (j + 1) % n] = -rng.uniform(0.5, 1.5, n)
    ring[(j + 1) % n, j] = -ring[j, (j + 1) % n]
    ring /= w[:, None]
    U = rng.standard_normal((n, n - k))
    L = np.linalg.qr(U, mode="complete")[0][:, n - k:]
    ops = [build_transport_operator(field_from_stream(
               Grid2D(12, 12),
               lambda x, y: np.sin(np.pi * x) * np.sin(2 * np.pi * y) / np.pi),
               mode="interior_domain"),
           RestrictedOperator(space=Space(dim=n, weights=w), action=ring,
                              domain=U),
           RestrictedOperator(space=Space(dim=n, weights=w),
                              action=ring + rng.standard_normal((n, k)) @ L.T,
                              domain=U)]
    for op in ops:
        A = rng.standard_normal((op.codim, op.codim))
        yield op, [extend(op, 0.5),
                   extend(op, 0.9 * A / np.linalg.norm(A, 2))]


def test_extension_coupling_matches_a_per_column_solve():
    # the boundary-column route must reproduce one dense solve per column
    for op, exts in coupling_cases():
        dd = deficiency(op)
        Np, Nm = dd.n_plus_basis, dd.n_minus_basis
        for ext in exts:
            A = ext.dense_action()
            V_ref = np.zeros((dd.d_minus, dd.d_plus))
            leak_ref = 0.0
            for i in range(dd.d_plus):
                g = np.linalg.solve(np.eye(op.dim) + A, Np[:, i])
                y = g - A @ g
                V_ref[:, i] = Nm.T @ (op.space.weights * y)
                leak_ref = max(leak_ref,
                               op.space.norm(y - Nm @ V_ref[:, i]))
            V, leak = extension_coupling(op, ext)
            np.testing.assert_allclose(V, V_ref, rtol=0.0, atol=1e-13)
            assert abs(leak - leak_ref) < 1e-13


def test_extension_coupling_refuses_a_non_extension():
    # changing a free column breaks agreement with op on its domain
    op = minimal_derivative_operator(32)
    A = seam_extension(op, 0.5).dense_action()
    A[5, 6] += 1.0
    with pytest.raises(ValueError, match=r"residual .* does not agree with "
                       r"op on op's domain"):
        extension_coupling(op, RestrictedOperator(space=op.space, action=A))


def test_extension_coupling_of_a_full_domain_op_is_empty():
    op = RestrictedOperator(space=Space.euclidean(2),
                            action=np.array([[0.0, -1.0], [1.0, 0.0]]))
    V, leak = extension_coupling(op, op)
    assert V.shape == (0, 0) and leak == 0.0


@pytest.mark.parametrize("coupling", [np.nan, np.inf,
                                      np.array([[0.5, np.nan], [0.0, 0.5]])],
                         ids=["nan", "inf", "matrix"])
def test_extend_refuses_a_non_finite_coupling(coupling):
    with pytest.raises(ValueError, match="coupling has non-finite entries"):
        extend(minimal_derivative_operator(16), coupling)


def test_extend_refuses_an_action_that_is_not_skew_on_its_domain():
    # -E is not skew: S + S^T = -2 E on the domain, and no W-skew
    # completion agrees with it there
    op = RestrictedOperator(Space.euclidean(3), -np.eye(3),
                            domain=np.eye(3)[:, :2])
    for call in (deficiency, lambda op: extend(op, np.zeros((1, 1)))):
        with pytest.raises(ValueError, match=r"not skew on its domain "
                           r"\(max\|S \+ S\^T\| = 2\.000e\+00\)"):
            call(op)


@pytest.mark.parametrize("domain", ["pinned", "columns"])
def test_deficiency_judges_skewness_at_the_domains_own_scale(domain):
    # skew to 2e-14 of the whole matrix's scale 1e4, but by 2e-10 on
    # span(e0, e1), where it acts at unit scale: the check fails and
    # deficiency refuses, on either form of that domain
    m = np.array([[1e-10, -1.0, 0.0], [1.0, 0.0, -1e4], [0.0, 1e4, 0.0]])
    dom = (operators.PinnedDomain([2]) if domain == "pinned"
           else np.eye(3)[:, :2])
    op = RestrictedOperator(Space.euclidean(3), m, domain=dom)
    rep = check_skew_symmetry(op)
    assert not rep.passed and rep.max_defect == pytest.approx(2e-10)
    with pytest.raises(ValueError, match=r"max\|S \+ S\^T\| = 2\.000e-10"):
        deficiency(op)
    # scaled to unit size on the domain, the same defect passes both
    m[0, 1], m[1, 0] = -1e4, 1e4
    op = RestrictedOperator(Space.euclidean(3), m, domain=dom)
    assert check_skew_symmetry(op).passed
    assert (deficiency(op).d_plus, deficiency(op).d_minus) == (1, 1)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(min_value=-0.95, max_value=0.95),
       st.integers(min_value=0, max_value=2**31))
def test_interior_couplings_never_grow_norms(v, seed):
    op = minimal_derivative_operator(16)
    ext = extend(op, float(v))
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(op.dim)
    b = -ext.dense_action()
    # one trapezoidal step of the negated extension
    dt = 0.01
    lhs = np.eye(op.dim) - (dt / 2) * b
    rhs = u + (dt / 2) * (b @ u)
    u1 = np.linalg.solve(lhs, rhs)
    assert op.space.norm(u1) <= op.space.norm(u) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# dissipativity / inclusion reports
# ---------------------------------------------------------------------------

def test_m_dissipative_accepts_negated_wrap():
    op = minimal_derivative_operator(32)
    ext = seam_extension(op, 1.0)
    neg = RestrictedOperator(space=ext.space, action=-ext.dense_action(),
                             domain=None)
    rep = check_m_dissipative(neg)
    assert rep.passed
    assert rep.form_max <= 1e-12
    assert all(r == op.dim for r in rep.ranks.values())


def test_m_dissipative_rejects_growth():
    op = RestrictedOperator(space=Space.euclidean(2), action=np.eye(2),
                            domain=None)
    assert not check_m_dissipative(op).passed


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e5, 1e8])
def test_m_dissipative_form_tolerance_scales_with_the_generator(scale):
    op = minimal_derivative_operator(64)
    B = -scale * seam_extension(op, 1.0).dense_action()
    rep = check_m_dissipative(RestrictedOperator(space=op.space, action=B))
    assert rep.passed and set(rep.ranks.values()) == {64}
    growth = RestrictedOperator(space=op.space, action=scale * np.eye(64))
    assert not check_m_dissipative(growth).passed


def test_extend_passes_a_huge_skew_matrix(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    desc = tmp_path / "huge.json"
    desc.write_text(json.dumps({"operator": {
        "kind": "matrix", "data": ((A - A.T) * 1e200).tolist()}}))
    code = main(["extend", "--input", str(desc), "--theta", "0.5",
                 "--out", str(tmp_path / "out")])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert code == 0 and report["m_dissipative_negative"]["pass"]


# fixed ids: test lists name these two cases by them
@pytest.mark.parametrize("action", [
    np.array([[0.0, np.nan], [0.0, 0.0]]),
    np.array([[0.0, np.inf], [-1.0, 0.0]]),
], ids=["action0-h_list0-non-finite", "action1-h_list1-non-finite"])
def test_m_dissipative_refuses_bad_input(action):
    gen = RestrictedOperator(space=Space.euclidean(2), action=action)
    with pytest.raises(ValueError, match="non-finite"):
        check_m_dissipative(gen)


def test_inclusion_in_adjoint_for_the_wrap():
    op = minimal_derivative_operator(32)
    ext = seam_extension(op, 1.0)
    neg = RestrictedOperator(space=ext.space, action=-ext.dense_action(),
                             domain=None)
    rep = check_inclusion_in_adjoint(neg, op)
    assert rep.passed and rep.max_defect < 1e-12


def test_inclusion_fails_for_an_unrelated_generator():
    op = minimal_derivative_operator(32)
    rng = np.random.default_rng(0)
    stray = RestrictedOperator(space=op.space,
                               action=rng.standard_normal((32, 32)),
                               domain=None)
    assert not check_inclusion_in_adjoint(stray, op).passed


def test_domain_basis_is_weight_orthonormal():
    op = minimal_derivative_operator(16)
    U = op.domain_basis()
    gram = U.T @ (op.space.weights[:, None] * U)
    assert np.max(np.abs(gram - np.eye(op.domain_dim))) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_domain_vector_accepts_a_block_of_coordinates(k):
    # a full domain with non-uniform weights: one coordinate column per
    # probe, including the square block k == dim
    w = np.array([0.5, 2.0, 4.0])
    full = RestrictedOperator(space=Space(dim=3, weights=w),
                              action=np.zeros((3, 3)), domain=None)
    restricted = minimal_derivative_operator(16)
    rng = np.random.default_rng(k)
    for op in (full, restricted):
        C = rng.standard_normal((op.domain_dim, k))
        np.testing.assert_array_equal(op.domain_vector(C),
                                      op.domain_basis() @ C)
        for j in range(k):
            np.testing.assert_array_equal(op.domain_vector(C)[:, j],
                                          op.domain_vector(C[:, j]))


def test_sparse_lu_keeps_the_ordering_on_large_entries():
    # the wrapped stencil's entries are n/2: any pivot threshold would
    # exchange rows and fill L + U with millions of entries at n = 4096
    n = 4096
    M = minimal_derivative_operator(n).action
    lu = sparse_shifted_lu(M)
    assert lu.L.nnz + lu.U.nnz <= 10 * n
    b = np.random.default_rng(0).standard_normal(n)
    x = lu.solve(b)
    assert np.linalg.norm(x - M @ x - b) <= 1e-9 * np.linalg.norm(b)
