import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewflow.spaces import (
    Space,
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


@pytest.mark.parametrize("weights", [[1.0, np.inf], [1.0, np.nan]])
def test_space_rejects_non_finite_weights(weights):
    with pytest.raises(ValueError, match="finite and strictly positive"):
        Space(dim=2, weights=np.array(weights))
    with pytest.raises(ValueError, match="finite and strictly positive"):
        Space.uniform(2, weights[1])


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


KERNEL_TOL = 1e-10  # orthonormalize's default


def _scaled_gaussian(rng, n, m):
    return rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-3, 3, m)


def _integer_combination(rng, X):
    return X @ rng.integers(-2, 3, X.shape[1]).astype(float)


def _near_dependent(rng, X, space, ratio):
    """A column whose residual against span(X) is ratio times its W-norm:
    a combination of X plus a W-orthogonal direction of that size."""
    Q = orthonormalize(X, space)
    z = rng.standard_normal(space.dim)
    for _ in range(2):
        z -= Q @ (Q.T @ (space.weights * z))
    y = _integer_combination(rng, X)
    return y + ratio * space.norm(y) * z / space.norm(z)


def _kernel_case(name):
    """(columns, space, indices of the columns to drop, position among the
    kept columns of a near-threshold one or None), for the default tol."""
    rng = np.random.default_rng(sum(map(ord, name)))
    n = 200 if name.startswith("full") else 60
    space = Space(dim=n, weights=rng.uniform(0.2, 2.0, size=n))
    near = None
    if name.startswith("full"):
        m = int(name.split("-")[1])
        return _scaled_gaussian(rng, n, m), space, list(range(n, m)), near
    X = _scaled_gaussian(rng, n, 50)
    if name == "zero-first":
        cols, drop = [np.zeros(n), *X.T], [0]
    elif name.startswith("dependent-"):
        at = {"early": 1, "middle": 25, "last": 50}[name.split("-")[1]]
        cols, drop = list(X.T), [at]
        cols.insert(at, _integer_combination(rng, X[:, :at]))
    elif name == "excess":
        # one dependent column early, so the loop meets the columns
        # beyond n with a basis that is still growing
        X = _scaled_gaussian(rng, n, n + 15)
        cols, drop = list(X.T), [3, *range(n + 1, n + 16)]
        cols.insert(3, _integer_combination(rng, X[:, :3]))
    else:
        # near-threshold columns: 10x above tol (kept) and 10x below
        # (dropped); "after-drop" puts both after a dependent column,
        # "first-flag" puts the kept one first among the flagged ones
        cols = list(X[:, :20].T)
        if name == "near-after-drop":
            cols.append(_integer_combination(rng, X[:, :20]))
        near = 20
        cols.append(_near_dependent(rng, np.column_stack(cols), space,
                                    10 * KERNEL_TOL))
        drop = [len(cols)] if name == "near-first-flag" else [20, 22]
        cols.append(_near_dependent(rng, np.column_stack(cols), space,
                                    0.1 * KERNEL_TOL))
        cols.extend(X[:, 20:].T)
    return np.column_stack(cols), space, drop, near


KERNEL_CASES = ["full-150", "full-199", "full-260", "zero-first",
                "dependent-early", "dependent-middle", "dependent-last",
                "excess", "near-after-drop", "near-first-flag"]


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_householder_orthonormalize_matches_the_reference_mgs(name):
    X, space, dropped, near = _kernel_case(name)
    Q_ref, kept = reference_mgs(X, space, KERNEL_TOL)
    Q, C = orthonormalize(X, space, tol=KERNEL_TOL, return_coeffs=True)
    assert kept == [j for j in range(X.shape[1]) if j not in dropped]
    assert [int(np.flatnonzero(c)[-1]) for c in C.T] == kept
    # C is upper triangular in the kept columns: zero on dropped rows
    assert not np.any(C[dropped])
    assert Q.shape == Q_ref.shape
    # a residual r of a column of norm |x| fixes its basis vector only to
    # about eps * |x| / r in every algorithm (Higham 2002, ch. 19), so
    # from a near-threshold column (r = 10 tol |x|) on, Q and X C are
    # compared against n * eps / (10 tol) instead of 1e-12
    q_tol = np.full(Q.shape[1], 1e-12)
    if near is not None:
        q_tol[near:] = X.shape[0] * np.finfo(float).eps / (10 * KERNEL_TOL)
    assert np.all(np.max(np.abs(Q - Q_ref), axis=0) < q_tol)
    assert np.all(np.max(np.abs(X @ C - Q), axis=0) < q_tol)
    gram = Q.T @ (space.weights[:, None] * Q)
    assert np.max(np.abs(gram - np.eye(Q.shape[1]))) < 1e-12


def test_orthonormalize_refuses_a_non_finite_column():
    cols = np.ones((5, 2))
    cols[2, 1] = np.nan
    with pytest.raises(ValueError, match="column 1 holds a non-finite"):
        orthonormalize(cols, Space.euclidean(5))


def test_orthonormalize_refuses_a_1d_input():
    with pytest.raises(ValueError, match="2-d array of columns, got 1-d"):
        orthonormalize(np.ones(5), Space.euclidean(5))


def test_orthonormalize_refuses_a_row_count_other_than_the_dimension():
    with pytest.raises(ValueError, match="4 rows, the space has dimension 5"):
        orthonormalize(np.ones((4, 2)), Space.euclidean(5))


def test_subspace_angle_basic_values():
    s = Space.euclidean(3)
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    assert subspace_angle(e0, e0, s) == pytest.approx(0.0, abs=1e-8)
    assert subspace_angle(e0, e1, s) == pytest.approx(np.pi / 2)
    # angle ignores scaling and sign
    assert subspace_angle(e0, -3.0 * e0, s) == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_subspace_angle_refuses_a_non_finite_vector(bad):
    # min(1.0, nan) is 1.0: a NaN cosine would read as a zero angle
    s = Space.euclidean(3)
    e0 = np.array([1.0, 0.0, 0.0])
    for u, v in (([bad, 1.0, 0.0], e0), (e0, [bad, 1.0, 0.0])):
        with pytest.raises(ValueError, match="non-finite"):
            subspace_angle(u, v, s)
