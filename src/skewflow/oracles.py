"""Closed-form reference models: the wrapped-grid derivative operator,
theta-twisted shift flows, and the two half-line cases.

These are the objects with known answers. The wrapped-grid operator is the
workbench's standard restricted skew operator; the shift family gives the
exact flows its full-domain extensions must reproduce; the half-line cases
record the one-sided situation (unequal defect counts) that the symmetric
discrete model cannot represent, together with a quadrature check of the
exponential witness identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .operators import PinnedDomain, RestrictedOperator
from .spaces import Space


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule on an odd number of equally spaced nodes."""
    if x.size < 3 or x.size % 2 == 0:
        raise ValueError("composite Simpson needs an odd node count >= 3")
    h = (x[-1] - x[0]) / (x.size - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                            + 2.0 * y[2:-1:2].sum()))


def gaussian_profile(x, center: float = 0.5, sigma: float = 0.15):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * ((x - center) / sigma) ** 2)


def minimal_derivative_operator(n: int) -> RestrictedOperator:
    """Centered first-derivative model on a wrapped uniform grid.

    Nodes x_j = j/n carry uniform weight h = 1/n; the action is the
    centered difference of -d/dx closed across the wrap seam, which is
    exactly skew for the uniform Gram. The domain is the grid functions
    vanishing at the two nodes flanking the seam (x_0 and x_{n-1}), stored
    as a PinnedDomain, so the domain codimension is 2 and both defect
    subspaces are 2-dimensional: each contains a smooth direction
    converging to e^{x} (resp. e^{-x}) at O(h) plus a grid-scale parasite
    mode of the centered stencil. The seam metadata lets seam_extension
    rebuild the full wrapped matrix and its theta-twisted relatives in
    closed form.
    """
    if n < 8:
        raise ValueError("n >= 8 required for a meaningful defect structure")
    h = 1.0 / n
    x = np.arange(n) * h
    space = Space.uniform(n, h)
    M = np.zeros((n, n))
    c = 1.0 / (2.0 * h)
    for j in range(n):
        M[j, (j + 1) % n] = -c
        M[j, (j - 1) % n] = +c
    return RestrictedOperator(
        space=space,
        action=M,
        domain=PinnedDomain([0, n - 1]),
        label=f"minimal_derivative({n})",
        meta={
            "kind": "minimal_derivative",
            "n": n,
            "h": h,
            "grid": x,
            "seam": (0, n - 1),
            "seam_scale": c,
        },
    )


def interval_shift_semigroup(theta: float, t: float, u0_samples) -> np.ndarray:
    """Exact twisted-shift flow sampled on the uniform wrapped grid.

    Transports samples leftward by t and multiplies by theta once per wrap:
    u(t, x_j) = theta^{floor(x_j + t)} u0({x_j + t}). When t is not an
    integer number of grid cells the two neighbouring integer shifts are
    blended linearly (an O(h) convenience; the exact values are the
    integer-shift ones). |theta| <= 1 keeps the flow contractive. A
    non-finite t or theta, or |theta| > 1, raises ValueError.
    """
    # written so that NaN fails too
    if not abs(theta) <= 1.0 + 1e-12:
        raise ValueError("theta must be a finite number in [-1, 1]")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0:
        raise ValueError("forward flow only (t >= 0)")
    u0 = np.asarray(u0_samples, dtype=float)
    n = u0.size

    def shifted(k: int) -> np.ndarray:
        j = np.arange(n)
        wraps = (j + k) // n
        return np.asarray(theta, dtype=float) ** wraps * u0[(j + k) % n]

    s = t * n
    k0 = int(np.floor(s + 1e-12))
    frac = s - k0
    if frac < 1e-9 or frac > 1 - 1e-9:
        return shifted(int(round(s)))
    return (1.0 - frac) * shifted(k0) + frac * shifted(k0 + 1)


# ---------------------------------------------------------------------------
# half-line cases (analytic only)
# ---------------------------------------------------------------------------

def _bump(a: float, b: float):
    """Smooth compactly supported bump on (a, b) with analytic derivative."""

    def v(x):
        x = np.asarray(x, dtype=float)
        y = 2.0 * (x - a) / (b - a) - 1.0
        out = np.zeros_like(x)
        inside = np.abs(y) < 1.0
        yi = y[inside]
        out[inside] = np.exp(-1.0 / (1.0 - yi * yi))
        return out

    def dv(x):
        x = np.asarray(x, dtype=float)
        y = 2.0 * (x - a) / (b - a) - 1.0
        out = np.zeros_like(x)
        inside = np.abs(y) < 1.0
        yi = y[inside]
        core = np.exp(-1.0 / (1.0 - yi * yi))
        out[inside] = core * (-2.0 * yi / (1.0 - yi * yi) ** 2) * (2.0 / (b - a))
        return out

    return v, dv


@dataclass
class HalflineCase:
    """Closed-form one-sided shift model with unequal defect counts.

    side = "right" lives on [0, inf): one defect direction on the plus
    side, none on the minus side, so the forward problem has exactly one
    bounded solution (the zero-filled shift). side = "left" lives on
    (-inf, 0]: the minus-side defect sqrt(2) e^{x} is an exponential
    witness and the forward problem is non-unique. Everything here is a
    function-valued formula; there is no grid. The symmetric wrapped-grid
    model always has equal defect counts, so these cases exist only in
    closed form.
    """

    side: str
    d_plus: int
    d_minus: int
    defect: Callable[[np.ndarray], np.ndarray]
    witness: Optional[Callable[[np.ndarray], np.ndarray]]

    def evolve(self, t: float, f: Callable) -> Callable:
        """Minimal contractive flow: (T_t f)(x) = f(x + t).

        Mass rides leftward along the characteristics. On the right
        half-line every sample stays inside and the tail runs off the
        edge at zero, so the norm strictly decreases. On the left
        half-line the edge feeds nothing in and samples that would look
        past zero are filled with zero — feeding the edge anything else
        is exactly how the exponential witness departs from this flow.
        """
        if t < 0:
            raise ValueError("forward flow only (t >= 0)")
        if self.side == "right":
            def Tf(x):
                x = np.asarray(x, dtype=float)
                return np.asarray(f(x + t), dtype=float)
            return Tf

        def Tf(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            ok = x + t <= 0
            out[ok] = np.asarray(f(x[ok] + t), dtype=float)
            return out
        return Tf

    def weak_identity_residual(self) -> float:
        """Quadrature check that the exponential witness kills the weak form.

        For the left case the witness u0 = sqrt(2) e^{x} makes u = e^t u0 a
        generalized solution, and against any smooth compactly supported v
        the whole space-time identity telescopes down to
        integral e^{x} (v(x) + v'(x)) dx = 0. This evaluates that integral
        with composite Simpson on 9601 nodes of [-12, 0] and returns the
        largest relative residual over three bumps.
        """
        if self.side != "left":
            raise ValueError("the exponential witness lives on the left case")
        xs = np.linspace(-12.0, 0.0, 9601)
        worst = 0.0
        for (a, b) in [(-4.0, -0.5), (-6.0, -2.0), (-9.0, -3.0)]:
            v, dv = _bump(a, b)
            integrand = np.exp(xs) * (v(xs) + dv(xs))
            scale = _simpson(np.exp(xs) * (np.abs(v(xs)) + np.abs(dv(xs))), xs)
            resid = abs(_simpson(integrand, xs)) / scale
            worst = max(worst, resid)
        return worst


def halfline_case(side: str) -> HalflineCase:
    if side == "right":
        return HalflineCase(
            side="right",
            d_plus=1,
            d_minus=0,
            defect=lambda x: np.sqrt(2.0) * np.exp(-np.asarray(x, dtype=float)),
            witness=None,
        )
    if side == "left":
        w = lambda x: np.sqrt(2.0) * np.exp(np.asarray(x, dtype=float))
        return HalflineCase(
            side="left",
            d_plus=0,
            d_minus=1,
            defect=w,
            witness=w,
        )
    raise ValueError("side must be 'right' or 'left'")
