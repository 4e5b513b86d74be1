import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewflow.spaces import (
    Space,
    complement_basis,
    orthonormalize,
    subspace_angle,
)


def test_euclidean_inner_matches_dot():
    s = Space.euclidean(5)
    u = np.arange(5.0)
    v = np.ones(5)
    assert s.inner(u, v) == pytest.approx(np.dot(u, v))
    assert s.norm(u) == pytest.approx(np.sqrt(np.dot(u, u)))


def test_uniform_weights_scale_inner_product():
    s = Space.uniform(10, 0.1)
    u = np.ones(10)
    # integral of 1 over a unit interval
    assert s.inner(u, u) == pytest.approx(1.0)
    assert s.norm(u) == pytest.approx(1.0)


def test_space_rejects_bad_weights():
    with pytest.raises(ValueError):
        Space(dim=3, weights=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        Space(dim=3, weights=np.array([1.0, 1.0]))


def test_sqrt_scale_roundtrip():
    s = Space.uniform(6, 0.25)
    u = np.linspace(-1, 1, 6)
    assert np.allclose(s.sqrt_scale(u) / np.sqrt(s.weights), u)
    # scaled Euclidean norm equals weighted norm
    assert np.linalg.norm(s.sqrt_scale(u)) == pytest.approx(s.norm(u))


def test_orthonormalize_drops_dependent_columns():
    s = Space.euclidean(4)
    cols = np.array([
        [1.0, 2.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ])
    q = orthonormalize(cols, s)
    assert q.shape == (4, 2)
    assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)


def test_orthonormalize_returns_coefficients():
    s = Space.uniform(8, 0.5)
    rng = np.random.default_rng(3)
    cols = rng.standard_normal((8, 3))
    q, c = orthonormalize(cols, s, return_coeffs=True)
    assert np.allclose(cols @ c, q, atol=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31))
def test_orthonormalize_is_weighted_orthonormal(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 2.0, size=n)
    s = Space(dim=n, weights=w)
    cols = rng.standard_normal((n, min(n, 4)))
    q = orthonormalize(cols, s)
    gram = q.T @ (w[:, None] * q)
    assert np.max(np.abs(gram - np.eye(q.shape[1]))) < 1e-9


def reference_mgs(columns, space, tol=1e-10):
    """Column-by-column modified Gram-Schmidt with two passes: the loop
    the block CGS2 in orthonormalize replaced, kept as its reference.
    Returns Q and the indices of the kept input columns."""
    X = np.asarray(columns, dtype=float)
    qs, kept = [], []
    for j in range(X.shape[1]):
        v = X[:, j].copy()
        nrm0 = space.norm(v)
        if nrm0 == 0.0:
            continue
        for _ in range(2):
            for q in qs:
                v -= space.inner(q, v) * q
        nrm = space.norm(v)
        if nrm <= tol * nrm0:
            continue
        qs.append(v / nrm)
        kept.append(j)
    return np.column_stack(qs), kept


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=12),
       st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=2**31))
def test_block_gram_schmidt_matches_the_reference_mgs(n, n_dep, seed):
    rng = np.random.default_rng(seed)
    s = Space(dim=n, weights=rng.uniform(0.2, 2.0, size=n))
    n_ind = max(1, n // 2)
    indep = rng.standard_normal((n, n_ind)) * 10.0 ** rng.uniform(-3, 3, n_ind)
    # dependent columns (integer combinations of the independent ones seen
    # so far, sometimes all-zero) injected at random positions after the
    # first; first-come pivoting must drop exactly those
    is_dep = rng.permutation([False] * (n_ind - 1) + [True] * n_dep)
    cols, k = [indep[:, 0]], 1
    for dep in is_dep:
        if dep:
            cols.append(indep[:, :k] @ rng.integers(-2, 3, k).astype(float))
        else:
            cols.append(indep[:, k])
            k += 1
    X = np.column_stack(cols)
    expected = [0] + [i + 1 for i, dep in enumerate(is_dep) if not dep]

    Q_ref, kept = reference_mgs(X, s)
    Q, C = orthonormalize(X, s, return_coeffs=True)
    assert kept == expected
    # column k of C is supported up to the input column it was built from
    assert [int(np.flatnonzero(c)[-1]) for c in C.T] == kept
    assert Q.shape == Q_ref.shape
    assert np.max(np.abs(Q - Q_ref)) < 1e-12
    assert np.max(np.abs(X @ C - Q)) < 1e-12


def test_complement_basis_dimensions_and_orthogonality():
    s = Space.uniform(9, 1.0 / 9)
    rng = np.random.default_rng(11)
    cols = orthonormalize(rng.standard_normal((9, 6)), s)
    comp = complement_basis(cols, s)
    assert comp.shape == (9, 3)
    cross = cols.T @ (s.weights[:, None] * comp)
    assert np.max(np.abs(cross)) < 1e-10


def test_complement_basis_info_reports_rank():
    s = Space.euclidean(5)
    cols = np.zeros((5, 2))
    cols[0, 0] = 1.0
    cols[0, 1] = 2.0  # dependent
    comp, info = complement_basis(cols, s, return_info=True)
    assert info["rank"] == 1
    assert comp.shape == (5, 4)


def test_subspace_angle_basic_values():
    s = Space.euclidean(3)
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    assert subspace_angle(e0, e0, s) == pytest.approx(0.0, abs=1e-8)
    assert subspace_angle(e0, e1, s) == pytest.approx(np.pi / 2)
    # angle ignores scaling and sign
    assert subspace_angle(e0, -3.0 * e0, s) == pytest.approx(0.0, abs=1e-8)
