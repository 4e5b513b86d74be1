"""Time stepping for full-domain generators: exact exponentials and the
trapezoidal resolvent stepper.

The trapezoidal (Cayley) step maps the generator's resolvent data to a
one-step propagator that is exactly orthogonal in the space metric
whenever the generator is skew — norms are conserved to roundoff over
arbitrarily many steps — and is contractive whenever the generator is
dissipative. The exact path routes skew generators through the real Schur
form so the propagator is assembled from plane rotations (again exactly
orthogonal) instead of a generic matrix exponential.

Cost model (n = dimension, T = number of sample times or steps):

- skew ``evolve_exact`` and skew dense ``evolve_cayley``: one real Schur
  factorization, O(n^3), cached on the generator so that both share it;
  then the Schur coordinates of u0 are rotated for every sample time (or
  step count) at once and mapped back with one GEMM per block of
  ``_ROW_BLOCK`` rows, O(T n^2) in total, with temporaries that do not
  grow with T. The Cayley step has the generator's Schur vectors and
  turns each plane of frequency b by 2 atan(b dt/2), so no step is solved
  for and the norm does not drift with the step count;
- non-skew ``evolve_exact``: one ``expm_multiply`` per sample interval,
  carrying the previous sample forward, O(T s n^2) with s the Taylor
  degree that ``expm_multiply`` picks for the interval (no dense
  exponential is formed);
- non-skew dense ``evolve_cayley``: the step matrix
  (E - dt/2 B)^-1 (E + dt/2 B) from one LU factorization and one
  solve against n columns, O(n^3), then one matrix-vector product
  per step, O(T n^2);
- sparse ``evolve_cayley``: one SuperLU factorization, then one sparse
  product and one triangular solve pair per step. The factorization
  (``operators.sparse_shifted_lu``) uses a minimum-degree ordering on
  A^T + A in SuperLU's symmetric mode: every sparse action skewflow
  builds (transport stencils and their metric adjoints) is structurally
  symmetric. On the 64^2 rotation stencil it leaves 210k L+U nonzeros
  against 401k under SuperLU's default COLAMD ordering, and a step costs
  about 0.49 ms against 0.83 ms (one BLAS thread). Keeping diagonal
  pivots down to 1e-3 of their column keeps the ordering at large steps
  too: on the 48^2 rotation stencil at dt = 2 the fill is 107k instead
  of 2.28M.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .operators import RestrictedOperator, _is_skew, sparse_shifted_lu

_DENSE_EXP_LIMIT = 4096
# sample times rotated and mapped back per GEMM in the skew exact path;
# bounds its temporaries at _ROW_BLOCK x n whatever the sample count
_ROW_BLOCK = 128


@dataclass
class Trajectory:
    """Sampled evolution: times[k] with state rows states[k].

    times must start at 0 and increase strictly; states[0] is the initial
    vector. stepper_meta records how the samples were produced (method,
    dt, and for exact runs whether the Schur rotation path ran rather
    than the interval-by-interval expm_multiply) so reports stay
    self-describing.
    """

    times: np.ndarray
    states: np.ndarray
    space: object
    stepper_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or self.states.ndim != 2:
            raise ValueError("times must be 1-d and states 2-d")
        if self.states.shape[0] != self.times.size:
            raise ValueError("one state row per time required")
        if self.times.size == 0 or abs(self.times[0]) > 1e-15:
            raise ValueError("trajectories start at t = 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must increase strictly")

    @property
    def nsteps(self) -> int:
        return self.times.size - 1

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def norms(self) -> np.ndarray:
        w = self.space.weights
        return np.sqrt(np.einsum("kj,j,kj->k", self.states, w, self.states))

    def sample(self, t) -> np.ndarray:
        """Linear interpolation between stored states (clamped at the ends)."""
        tq = np.atleast_1d(np.asarray(t, dtype=float))
        tq = np.clip(tq, self.times[0], self.times[-1])
        hi = np.searchsorted(self.times, tq, side="left")
        hi = np.clip(hi, 1, self.times.size - 1)
        lo = hi - 1
        w = (tq - self.times[lo]) / (self.times[hi] - self.times[lo])
        out = (1.0 - w)[:, None] * self.states[lo] + w[:, None] * self.states[hi]
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out


def _require_full_domain(gen: RestrictedOperator):
    if not gen.is_full_domain:
        raise ValueError(
            "generator is only densely defined — extend the operator first"
        )


def _identity_generator(gen: RestrictedOperator):
    """(sqrt(w), S, is_skew) for a full-domain generator B: S = sqrt(W) B
    sqrt(W)^-1 is B, dense, in coordinates where the Gram is the
    identity, and is_skew is the W-skew test deficiency uses (S + S^T
    vanishes to 1e-12 of max(1, max|S|))."""
    sw = np.sqrt(gen.space.weights)
    S = sw[:, None] * gen.dense_action() / sw[None, :]
    return sw, S, _is_skew(S)


def _schur_planes(gen: RestrictedOperator, S: np.ndarray):
    """Real Schur factors (Z, p, freq) of the antisymmetric S = Z T Z^T.

    p holds the first index of each 2x2 block of T (found by the test
    |T[i+1, i]| > 0) and freq = T[p, p+1] its frequency; 1x1 blocks are
    zero eigenvalues. Factorized once per generator and cached on it, so
    the exact and the Cayley paths share one sla.schur.
    """
    if gen._schur is None:
        T, Z = sla.schur(S, output="real")
        n = S.shape[0]
        first = []
        i = 0
        while i < n:
            if i + 1 < n and abs(T[i + 1, i]) > 0.0:
                first.append(i)
                i += 2
            else:
                i += 1
        p = np.asarray(first, dtype=np.intp)
        gen._schur = (Z, p, T[p, p + 1])
    return gen._schur


def _skew_schur_states(planes, v0: np.ndarray, ts: np.ndarray, phase,
                       out: np.ndarray) -> None:
    """Write the rotated states of v0 at the abscissae ts into out's rows.

    planes = (Z, p, freq) from _schur_planes. The Schur coordinates
    c = Z^T v0 are turned in each plane (p, p+1) by the angle
    phase(t, freq) (b t for e^{tS}, k 2 atan(b dt/2) for k Cayley steps);
    1x1 blocks leave them fixed. The rotated coordinates of _ROW_BLOCK
    abscissae at a time are mapped back by one GEMM written straight
    into out.
    """
    Z, p, freq = planes
    c = Z.T @ v0
    cp, cq = c[p], c[p + 1]
    for lo in range(0, ts.size, _ROW_BLOCK):
        tb = ts[lo:lo + _ROW_BLOCK]
        angle = phase(tb[:, None], freq[None, :])
        ct, st = np.cos(angle), np.sin(angle)
        Y = np.repeat(c[None, :], tb.size, axis=0)
        Y[:, p] = ct * cp + st * cq
        Y[:, p + 1] = ct * cq - st * cp
        np.matmul(Y, Z.T, out=out[lo:lo + tb.size])


def evolve_exact(gen: RestrictedOperator, u0, times) -> Trajectory:
    """Sample u(t) = e^{tB} u0 at the requested times (t = 0 is prepended).

    Skew generators (in the space metric) are detected and routed through
    the real Schur factorization, giving exactly orthogonal propagators:
    one factorization (cached on the generator, shared with
    evolve_cayley) plus one GEMM per block of sample times. Anything
    else is carried from each sample to the next by the action of the
    exponential on a vector (``expm_multiply`` over the sample interval),
    never forming e^{tB}. Desk scale only: dimensions above a few thousand
    are rejected, and so is a non-finite u0 (ValueError). states[0] is u0.
    """
    _require_full_domain(gen)
    n = gen.dim
    if n > _DENSE_EXP_LIMIT:
        raise ValueError("dense exponential limited to desk-scale dimensions")
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(ts < 0):
        raise ValueError("forward evolution only")
    ts = np.unique(ts)
    if ts.size == 0 or ts[0] > 0:
        ts = np.concatenate([[0.0], ts])

    sw, S, is_skew = _identity_generator(gen)
    u0 = np.asarray_chkfinite(u0, dtype=float)
    v0 = sw * u0
    states = np.empty((ts.size, n))
    if is_skew:
        _skew_schur_states(_schur_planes(gen, S), v0, ts,
                           lambda t, b: t * b, states)
    else:
        states[0] = v0
        for k in range(1, ts.size):
            states[k] = spla.expm_multiply((ts[k] - ts[k - 1]) * S,
                                           states[k - 1])
    states /= sw
    states[0] = u0
    return Trajectory(times=ts, states=states, space=gen.space,
                      stepper_meta={"method": "exact",
                                    "schur_rotation": bool(is_skew)})


def _cayley_steps(gen: RestrictedOperator, u: np.ndarray, dt: float,
                  nsteps: int):
    """Yield the nsteps trapezoidal iterates of u, one new array per step.

    A sparse action factorizes E - dt/2 B once (operators.sparse_shifted_lu,
    the same SuperLU recipe deficiency uses) and steps by one sparse
    product and one triangular solve pair; a non-finite entry, or a
    factorization that fails, raises ValueError. A dense action forms the
    step matrix C = (E - dt/2 B)^-1 (E + dt/2 B) once (one LU and one
    solve against n columns) and steps by one matrix-vector product; the
    first state that leaves the finite numbers (singular E - dt/2 B,
    which lu_factor also reports by a LinAlgWarning) raises ValueError.
    """
    if sp.issparse(gen.action):
        half = (dt / 2.0) * gen.action.tocsc()
        lu = sparse_shifted_lu(half)
        for _ in range(nsteps):
            u = lu.solve(u + half @ u)
            yield u
        return
    half = (dt / 2.0) * gen.dense_action()
    E = np.eye(gen.dim)
    C = sla.lu_solve(sla.lu_factor(E - half), E + half, overwrite_b=True)
    for k in range(1, nsteps + 1):
        u = C @ u
        if not np.isfinite(u).all():
            raise ValueError(f"Cayley step {k} left the finite numbers "
                             "(is E - dt/2 B singular?)")
        yield u


def evolve_cayley(gen: RestrictedOperator, u0, dt: float,
                  nsteps: int) -> Trajectory:
    """Trapezoidal resolvent stepping u_{k+1} = (E - dt/2 B)^{-1}(E + dt/2 B) u_k.

    For skew B each step is an exact isometry of the weighted norm; for
    dissipative B it is a contraction. Three routes, chosen by the action:

    - dense and W-skew (the test evolve_exact uses): the Cayley step
      shares the real Schur vectors of B and turns each plane of
      frequency b by 2 atan(b dt/2), so every state comes from the Schur
      factors (cached on the generator, shared with evolve_exact) and
      one GEMM per block of steps; no step is solved for, and the norm
      does not drift with the step count;
    - dense otherwise: the step matrix (E - dt/2 B)^-1 (E + dt/2 B) is
      formed once and each step is one matrix-vector product;
    - sparse: one SuperLU factorization of E - dt/2 B, then one sparse
      product and one triangular solve pair per step.

    states[0] is u0. A non-finite u0 or B raises ValueError, and so does
    a singular E - dt/2 B (a dense step that leaves the finite numbers,
    or a failed sparse factorization). stepper_meta["schur_rotation"]
    records whether the Schur route ran.
    """
    _require_full_domain(gen)
    if dt <= 0 or nsteps < 1:
        raise ValueError("need dt > 0 and nsteps >= 1")
    u = np.asarray_chkfinite(u0, dtype=float)
    states = np.empty((nsteps + 1, gen.dim))
    is_skew = False
    if not sp.issparse(gen.action):
        sw, S, is_skew = _identity_generator(gen)
    if is_skew:
        half = 0.5 * dt
        _skew_schur_states(_schur_planes(gen, S), sw * u,
                           np.arange(nsteps + 1, dtype=float),
                           lambda k, b: k * (2.0 * np.arctan(half * b)),
                           states)
        states /= sw
    else:
        for k, state in enumerate(_cayley_steps(gen, u, dt, nsteps),
                                  start=1):
            states[k] = state
    states[0] = u
    return Trajectory(times=dt * np.arange(nsteps + 1), states=states,
                      space=gen.space,
                      stepper_meta={"method": "cayley", "dt": float(dt),
                                    "schur_rotation": is_skew})


def adjoint_generator(gen: RestrictedOperator) -> RestrictedOperator:
    """The metric adjoint B* = W^{-1} B^T W as a full-domain operator."""
    _require_full_domain(gen)
    w = gen.space.weights
    if sp.issparse(gen.action):
        A = sp.diags(1.0 / w) @ gen.action.T @ sp.diags(w)
    else:
        A = (gen.dense_action().T * w[None, :]) / w[:, None]
    return RestrictedOperator(space=gen.space, action=A, domain=None,
                              label=f"adjoint({gen.label})" if gen.label
                              else "adjoint", meta=dict(gen.meta))
