import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewflow.operators import deficiency, seam_extension
from skewflow.oracles import (
    _bump,
    _simpson,
    gaussian_profile,
    halfline_case,
    interval_shift_semigroup,
    minimal_derivative_operator,
)
from skewflow.spaces import subspace_angle


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("flow", ["interval_shift_semigroup",
                                  "seam_extension"])
def test_non_finite_theta_is_rejected(flow, theta):
    # abs(nan) > 1 is false: the range test must be one that NaN fails
    op = minimal_derivative_operator(16)
    with pytest.raises(ValueError, match="theta must be a finite number"):
        if flow == "seam_extension":
            seam_extension(op, theta)
        else:
            interval_shift_semigroup(theta, 1.0,
                                     gaussian_profile(op.meta["grid"]))


def test_minimal_model_rejects_tiny_grids():
    with pytest.raises(ValueError):
        minimal_derivative_operator(4)


def test_minimal_model_metadata():
    op = minimal_derivative_operator(32)
    assert op.meta["n"] == 32
    assert op.meta["h"] == pytest.approx(1.0 / 32)
    assert op.meta["seam"] == (0, 31)
    assert op.codim == 2


def test_minimal_model_action_is_centered_difference():
    op = minimal_derivative_operator(16)
    m = op.dense_action()
    h = 1.0 / 16
    # interior row: (u_{j-1} - u_{j+1}) / 2h
    assert m[3, 4] == pytest.approx(-1 / (2 * h))
    assert m[3, 2] == pytest.approx(+1 / (2 * h))
    assert m[3, 3] == 0.0
    # wraps around the seam
    assert m[0, 15] == pytest.approx(+1 / (2 * h))
    assert m[15, 0] == pytest.approx(-1 / (2 * h))


def test_defect_directions_approach_exponentials():
    angles = []
    for n in (32, 64, 128):
        op = minimal_derivative_operator(n)
        dd = deficiency(op)
        x = op.meta["grid"]
        a_minus = subspace_angle(dd.n_minus_basis[:, 0], np.exp(x), op.space)
        a_plus = subspace_angle(dd.n_plus_basis[:, 0], np.exp(-x), op.space)
        angles.append(max(a_minus, a_plus))
    # roughly h/2 for this discretization, so halving with every refinement
    assert angles[0] < 0.02
    assert angles[2] < angles[1] < angles[0]
    assert angles[1] / angles[0] == pytest.approx(0.5, rel=0.1)


# ---------------------------------------------------------------------------
# twisted shift flow
# ---------------------------------------------------------------------------

def test_shift_by_zero_is_identity():
    u0 = gaussian_profile(np.arange(16) / 16)
    np.testing.assert_allclose(interval_shift_semigroup(0.7, 0.0, u0), u0)


@pytest.mark.parametrize("t", [np.inf, np.nan])
def test_shift_rejects_non_finite_times(t):
    u0 = gaussian_profile(np.arange(16) / 16)
    with pytest.raises(ValueError, match="finite"):
        interval_shift_semigroup(1.0, t, u0)


def test_full_wrap_scales_by_theta():
    n = 32
    u0 = gaussian_profile(np.arange(n) / n)
    for theta in (1.0, -1.0, 0.5, 0.0):
        got = interval_shift_semigroup(theta, 1.0, u0)
        np.testing.assert_allclose(got, theta * u0, atol=1e-13)


def test_shift_by_one_cell_is_a_roll():
    n = 16
    rng = np.random.default_rng(2)
    u0 = rng.standard_normal(n)
    got = interval_shift_semigroup(1.0, 1.0 / n, u0)
    np.testing.assert_allclose(got, np.roll(u0, -1), atol=1e-13)


def test_twist_applies_only_to_wrapped_samples():
    n = 8
    u0 = np.arange(n, dtype=float)
    got = interval_shift_semigroup(-1.0, 1.0 / n, u0)
    # every sample moves left by one; the last one wraps and flips sign
    expected = np.array([1, 2, 3, 4, 5, 6, 7, -0.0])
    np.testing.assert_allclose(got, expected)


def test_semigroup_property_of_the_shift():
    # exact composition holds at cell-aligned times (the in-between values
    # are interpolated, so generic times only compose approximately)
    n = 64
    u0 = gaussian_profile(np.arange(n) / n)
    for theta in (1.0, -1.0):
        one = interval_shift_semigroup(theta, 48 / n, u0)
        two = interval_shift_semigroup(theta, 16 / n, one)
        direct = interval_shift_semigroup(theta, 1.0, u0)
        np.testing.assert_allclose(two, direct, atol=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(min_value=0.0, max_value=3.0),
       st.sampled_from([1.0, -1.0]))
def test_shift_preserves_sup_norm_bound(t, theta):
    n = 32
    u0 = gaussian_profile(np.arange(n) / n)
    got = interval_shift_semigroup(theta, float(t), u0)
    assert np.max(np.abs(got)) <= np.max(np.abs(u0)) + 1e-12


def test_shift_validates_arguments():
    u0 = np.ones(8)
    with pytest.raises(ValueError):
        interval_shift_semigroup(2.0, 1.0, u0)
    with pytest.raises(ValueError):
        interval_shift_semigroup(1.0, -0.1, u0)


# ---------------------------------------------------------------------------
# half-line cases
# ---------------------------------------------------------------------------

def test_halfline_defect_counts():
    right = halfline_case("right")
    left = halfline_case("left")
    assert (right.d_plus, right.d_minus) == (1, 0)
    assert (left.d_plus, left.d_minus) == (0, 1)
    assert right.witness is None
    assert left.witness is not None


def test_halfline_defect_functions_are_normalized():
    from scipy.integrate import quad
    right = halfline_case("right")
    val, _ = quad(lambda x: right.defect(x) ** 2, 0, 60)
    assert val == pytest.approx(1.0, rel=1e-8)
    left = halfline_case("left")
    val, _ = quad(lambda x: left.defect(x) ** 2, -60, 0)
    assert val == pytest.approx(1.0, rel=1e-8)


def test_halfline_rejects_unknown_side():
    with pytest.raises(ValueError):
        halfline_case("top")


def test_left_witness_weak_identity_is_tiny():
    left = halfline_case("left")
    res = left.weak_identity_residual()
    assert res < 1e-8


def test_simpson_rule_is_exact_on_cubics_and_matches_scipy():
    from scipy.integrate import simpson

    x = np.linspace(-1.0, 2.0, 7)
    cubic = 2.0 * x**3 - x**2 + 3.0 * x - 5.0
    # integral of the cubic over [-1, 2]: 7.5 - 3 + 4.5 - 15
    assert _simpson(cubic, x) == pytest.approx(-6.0, rel=1e-14)
    # the default grid of HalflineCase.weak_identity_residual, with its
    # normalising integrand (the residual integrand itself cancels to 0)
    xs = np.linspace(-12.0, 0.0, 9601)
    v, dv = _bump(-6.0, -2.0)
    for y in (np.exp(xs), np.exp(xs) * (np.abs(v(xs)) + np.abs(dv(xs)))):
        assert _simpson(y, xs) == pytest.approx(simpson(y, x=xs), rel=1e-14)
    with pytest.raises(ValueError, match="odd"):
        _simpson(np.ones(8), np.linspace(0.0, 1.0, 8))


def test_right_case_has_no_weak_identity():
    right = halfline_case("right")
    with pytest.raises(ValueError):
        right.weak_identity_residual()


def test_halfline_evolution_shifts_support():
    # mass rides leftward on both half-lines
    right = halfline_case("right")
    g = lambda x: np.exp(-((x - 3.0) ** 2))
    xr = np.linspace(0, 10, 201)
    np.testing.assert_allclose(right.evolve(1.0, g)(xr), g(xr + 1.0),
                               atol=1e-13)

    left = halfline_case("left")
    f = lambda x: np.exp(-((x + 2.0) ** 2))
    x = np.linspace(-10, 0, 201)
    moved = left.evolve(3.0, f)(x)
    # zero-filled where the edge would have to feed data in
    expected = np.where(x + 3.0 <= 0, f(x + 3.0), 0.0)
    np.testing.assert_allclose(moved, expected, atol=1e-13)


def test_halfline_contraction_direction():
    # the right flow loses the mass that crosses the edge; the left flow
    # is isometric because nothing ever reaches its open end
    f = lambda x: np.where(np.abs(x - 1.0) < 1.0, 1.0, 0.0)
    right = halfline_case("right")
    xr = np.linspace(0, 20, 4001)
    m0 = np.sum(right.evolve(0.0, f)(xr) ** 2)
    m1 = np.sum(right.evolve(1.5, f)(xr) ** 2)
    assert m1 < 0.4 * m0

    g = lambda x: np.where(np.abs(x + 3.0) < 1.0, 1.0, 0.0)
    left = halfline_case("left")
    xl = np.linspace(-30, 0, 6001)
    l0 = np.sum(left.evolve(0.0, g)(xl) ** 2)
    l1 = np.sum(left.evolve(5.0, g)(xl) ** 2)
    assert l1 == pytest.approx(l0, rel=1e-6)


def test_gaussian_profile_peaks_at_center():
    x = np.linspace(0, 1, 101)
    u = gaussian_profile(x, center=0.3, sigma=0.1)
    assert x[np.argmax(u)] == pytest.approx(0.3, abs=0.01)
    assert np.max(u) == pytest.approx(1.0)
