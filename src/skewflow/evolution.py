"""Time stepping for full-domain generators: exact exponentials and the
trapezoidal resolvent stepper.

The trapezoidal (Cayley) step maps the generator's resolvent data to a
one-step propagator that is exactly orthogonal in the space metric
whenever the generator is skew — norms are conserved to roundoff over
arbitrarily many steps — and is contractive whenever the generator is
dissipative. The exact path routes skew generators through the real Schur
form so the propagator is assembled from plane rotations (again exactly
orthogonal) instead of a generic matrix exponential.

Cost model (n = dimension, T = number of sample times or steps). The
Schur and the step-matrix routes fill their trajectories by GEMMs over
blocks of rows, with no Python work per row:

- skew ``evolve_exact`` and skew dense ``evolve_cayley``: one real Schur
  factorization, O(n^3), cached on the generator so that both share it.
  The Schur coordinates of u0, the plane columns of the Schur vectors,
  the zero modes and the unscaling by 1/sqrt(w) fold once into a
  (2m+1) x n matrix (m rotation planes), and each block of
  ``_ROW_BLOCK`` rows is one GEMM of [cos | sin | 1] against it:
  O(T n^2) in total, with temporaries that do not grow with T. The
  Cayley step has the generator's Schur vectors and turns each plane of
  frequency b by phi = 2 atan(b dt/2), so no step is solved for and the
  norm does not drift with the step count; cos and sin of i phi for
  i < ``_ROW_BLOCK`` are taken once, and each block needs only those of
  lo phi, by angle addition. ``evolve_exact`` takes cos and sin of t b
  directly, because its times are arbitrary;
- non-skew ``evolve_exact``: one ``expm_multiply`` per sample interval,
  carrying the previous sample forward, O(T s n^2) with s the Taylor
  degree that ``expm_multiply`` picks for the interval (no dense
  exponential is formed);
- non-skew dense ``evolve_cayley``: the step matrix
  C = (E - dt/2 B)^-1 (E + dt/2 B) from one LU factorization and one
  solve against n columns, O(n^3); then the states by doubling:
  states[b:2b] = states[0:b] (C^b)^T with one squaring per doubling,
  then fixed blocks of b rows. b doubles only while log2(2b) n <= T and
  2b <= ``_ROW_BLOCK``, so the squarings never cost more than the T
  matrix-vector products they replace (at b = 1, the per-step product);
  O(T n^2) in total;
- sparse ``evolve_cayley``: an independent set I of B's off-diagonal
  pattern is eliminated first, exactly, since E - dt/2 B is diagonal
  on I; on a periodic transport stencil over an even grid I is one
  colour of the grid, n/2 nodes. What is left is E - S on the other
  nodes, S the Schur term, and one SuperLU factorization of it follows
  (a singular E - dt/2 B fails there, whichever route then steps).
  Each step is two sparse products with the blocks that couple I to the
  rest and one solve with E - S, by one of two routes chosen once from
  q = |S|_inf and the fill: when q < 1, the Neumann sum of S^j b over
  j <= K, with K the smallest count for which q^(K+1) / (1 - q) <= eps/2
  (so the truncation stays below rounding in the inf-norm), is taken by
  K Horner products x <- S x + b if K nnz(S) < nnz(L) + nnz(U), the
  factors' entries as SuperLU stores them; else
  SuperLU's triangular solve pair runs. The new state is 2x - u for the
  solution x of (E - dt/2 B) x = u, so no product with B is taken.
  I is chosen by a BFS in ``scipy.sparse.csgraph``, with no Python work
  per node. The factorization (``operators.sparse_shifted_lu``) uses a
  minimum-degree ordering on A^T + A in SuperLU's symmetric mode (every
  sparse action skewflow builds is structurally symmetric) and keeps
  diagonal pivots down to 1e-3 of their column, so the ordering holds at
  large steps too. On the 64^2 rotation stencil at dt = 2 pi / 2000 the
  factor has 190k L+U nonzeros (401k under SuperLU's default COLAMD
  ordering; SuperLU stores them in 225k entries) while S has 18k and
  q = 0.0092, so K = 7 and the Neumann route runs: a step costs about
  0.12 ms against 0.28 ms with the solve pair (one BLAS thread). At 32^2
  the two are close in cost (7 x 4.6k against 40k) and in time (about
  0.05 ms a step each); at dt = 2 the
  64^2 stencil has q = 3721 and takes SuperLU. The Horner products run
  scipy's CSR kernel in place, since at these sizes the dispatch of
  ``S @ x`` costs more than the product. The set-up, choice of I
  included, costs about what the whole-matrix LU does (6 ms).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
# the compiled kernel behind a CSR matrix-vector product, y += A x;
# already loaded with scipy.sparse
from scipy.sparse._sparsetools import csr_matvec

from .operators import (RestrictedOperator, _identity_coords, _is_skew,
                        sparse_shifted_lu)

_DENSE_EXP_LIMIT = 4096
# rows (sample times or steps) per GEMM in the dense trajectories; bounds
# their temporaries at _ROW_BLOCK x n whatever the row count
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
        if not np.isfinite(self.times).all():
            raise ValueError("times must be finite")
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
        """Linear interpolation between stored states (clamped at the ends,
        +-inf included; a one-sample trajectory returns its only state).
        A NaN time raises ValueError."""
        tq = np.atleast_1d(np.asarray(t, dtype=float))
        if np.isnan(tq).any():
            raise ValueError("sample times must not be NaN")
        if self.times.size == 1:
            out = np.repeat(self.states, tq.size, axis=0)
        else:
            tq = np.clip(tq, self.times[0], self.times[-1])
            hi = np.searchsorted(self.times, tq, side="left")
            hi = np.clip(hi, 1, self.times.size - 1)
            lo = hi - 1
            w = (tq - self.times[lo]) / (self.times[hi] - self.times[lo])
            out = ((1.0 - w)[:, None] * self.states[lo]
                   + w[:, None] * self.states[hi])
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out


def steps_to_horizon(horizon: float, dt: float) -> tuple[float, int]:
    """The step count nearest horizon / dt (at least 1) and the step
    horizon / nsteps that lands on the horizon exactly. ValueError unless
    dt and horizon are finite and positive."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be finite and positive")
    if not (np.isfinite(horizon) and horizon > 0
            and np.isfinite(horizon / dt)):
        raise ValueError("horizon and horizon / dt must be finite and "
                         "positive")
    nsteps = max(1, int(round(horizon / dt)))
    return horizon / nsteps, nsteps


def _require_full_domain(gen: RestrictedOperator):
    if not gen.is_full_domain:
        raise ValueError(
            "generator is only densely defined — extend the operator first"
        )


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


def _skew_schur_states(planes, v0: np.ndarray, sw: np.ndarray, out: np.ndarray,
                       trig) -> None:
    """Write the rotated states of v0, mapped back by 1/sw, into out's rows.

    planes = (Z, p, freq) from _schur_planes; m = p.size. With c = Z^T v0,
    the state at angles a_j (one per plane (p_j, p_j+1)) is
    sum_j cos a_j A_j + sin a_j B_j + z, where
    A_j = (c_p Z_p + c_q Z_q) / sw, B_j = (c_q Z_p - c_p Z_q) / sw and z
    carries the 1x1 blocks (zero modes) of c. These fold into one
    (2m+1) x n matrix, so each block of _ROW_BLOCK rows is one GEMM of
    [cos | sin | 1] against it. trig(lo, r) returns the r x m cosines and
    sines of the angles of rows lo, ..., lo + r - 1.
    """
    Z, p, _ = planes
    m, n = p.size, Z.shape[0]
    c = Z.T @ v0
    Zp, Zq, cp, cq = Z[:, p], Z[:, p + 1], c[p], c[p + 1]
    c[p] = c[p + 1] = 0.0
    fold = np.empty((2 * m + 1, n))
    fold[:m] = (Zp * cp + Zq * cq).T
    fold[m:2 * m] = (Zp * cq - Zq * cp).T
    fold[2 * m] = Z @ c
    fold /= sw
    cs = np.empty((min(_ROW_BLOCK, out.shape[0]), 2 * m + 1))
    cs[:, 2 * m] = 1.0
    for lo in range(0, out.shape[0], _ROW_BLOCK):
        rows = cs[:min(_ROW_BLOCK, out.shape[0] - lo)]
        rows[:, :m], rows[:, m:2 * m] = trig(lo, rows.shape[0])
        np.matmul(rows, fold, out=out[lo:lo + rows.shape[0]])


def evolve_exact(gen: RestrictedOperator, u0, times) -> Trajectory:
    """Sample u(t) = e^{tB} u0 at the requested times (t = 0 is prepended).

    Skew generators (in the space metric) are detected and routed through
    the real Schur factorization, giving exactly orthogonal propagators:
    one factorization (cached on the generator, shared with
    evolve_cayley) plus one GEMM per block of sample times. Anything
    else is carried from each sample to the next by the action of the
    exponential on a vector (``expm_multiply`` over the sample interval),
    never forming e^{tB}. Desk scale only: dimensions above a few thousand
    are rejected, and so are negative or non-finite times and a non-finite
    u0 (ValueError). states[0] is u0.
    """
    _require_full_domain(gen)
    n = gen.dim
    if n > _DENSE_EXP_LIMIT:
        raise ValueError("dense exponential limited to desk-scale dimensions")
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.isfinite(ts).all():
        raise ValueError("sample times must be finite")
    if np.any(ts < 0):
        raise ValueError("forward evolution only")
    ts = np.unique(ts)
    if ts.size == 0 or ts[0] > 0:
        ts = np.concatenate([[0.0], ts])

    sw = np.sqrt(gen.space.weights)
    S = _identity_coords(gen.space, gen.dense_action())
    is_skew = _is_skew(S)
    u0 = np.asarray_chkfinite(u0, dtype=float)
    states = np.empty((ts.size, n))
    if is_skew:
        planes = _schur_planes(gen, S)
        freq = planes[2]

        def trig(lo, r):
            angle = np.multiply.outer(ts[lo:lo + r], freq)
            return np.cos(angle), np.sin(angle)

        _skew_schur_states(planes, sw * u0, sw, states, trig)
    else:
        states[0] = sw * u0
        for k in range(1, ts.size):
            states[k] = spla.expm_multiply((ts[k] - ts[k - 1]) * S,
                                           states[k - 1])
        states /= sw
    states[0] = u0
    return Trajectory(times=ts, states=states, space=gen.space,
                      stepper_meta={"method": "exact",
                                    "schur_rotation": bool(is_skew)})


def _eliminated_nodes(half) -> np.ndarray:
    """Mask of the nodes the sparse Cayley step eliminates before its
    factorization: an independent set I of the off-diagonal pattern of
    half = dt/2 B whose pivots 1 - half[i, i] pass the column rule of
    operators.sparse_shifted_lu (more than 1e-3 of the largest
    off-diagonal entry of the column).

    The candidates are the nodes at even BFS depth from one root per
    connected component (scipy.sparse.csgraph, no Python work per node);
    an even node with an even neighbour (an odd cycle) is dropped. On
    bipartite patterns, such as every periodic transport stencil on an
    even grid, I is one colour: half of the nodes.
    """
    # imported here: only the sparse stepper needs csgraph, and loading it
    # with the module adds about 3 MB to the peak RSS of dense-only runs
    from scipy.sparse import csgraph

    off = half.tocsr(copy=True)
    off.setdiag(0.0)
    off.eliminate_zeros()
    off = abs(off)
    adj = (off + off.T).tocsr()
    _, component = csgraph.connected_components(adj, directed=False)
    roots = np.unique(component, return_index=True)[1]
    depth = csgraph.dijkstra(adj, directed=False, indices=roots,
                             unweighted=True, min_only=True)
    even = depth % 2 == 0
    pivot = np.abs(1.0 - half.diagonal())
    column = off.max(axis=0).toarray().ravel()
    # strict, so that a zero pivot in an empty column is not eliminated
    return even & (adj @ even.astype(float) == 0) & (pivot > 1e-3 * column)


def _neumann_terms(q: float) -> int:
    """The smallest K >= 0 with q^(K+1) / (1 - q) <= eps/2, for
    0 <= q < 1: the Neumann sum of S^j b over j <= K then misses the
    solution of (E - S) x = b by at most eps/2 |b| in any norm in which
    |S| <= q."""
    if q == 0.0:
        return 0
    tol = 0.5 * np.finfo(float).eps * (1.0 - q)
    terms = max(0, int(np.ceil(np.log(tol) / np.log(q))) - 1)
    # the logarithms can put the ceiling one off either way
    while terms > 0 and q ** terms <= tol:
        terms -= 1
    while q ** (terms + 1) > tol:
        terms += 1
    return terms


def _cayley_steps(gen: RestrictedOperator, u: np.ndarray, dt: float,
                  nsteps: int):
    """The nsteps trapezoidal iterates of u under a sparse action, as
    (order, steps, route): steps yields after each step the iterate
    permuted by order, u[order], in one buffer that the next step
    overwrites.

    With h = dt/2, I the nodes of _eliminated_nodes, R the rest and
    D = 1 - h diag(B) on I, E - hB is diagonal on I, so eliminating I
    first is exact. What is left is E - S on R, with the Schur term
    S = h B_RR + h^2 B_RI D^-1 B_IR, factorized once by
    operators.sparse_shifted_lu (a failure raises ValueError). A step
    solves (E - hB) x = u by
    x_R = (E - S)^-1 b with b = u_R + h B_RI D^-1 u_I, and
    x_I = D^-1 (u_I + h B_IR x_R), then sets u = 2x - u, since
    (E - hB)^-1 (E + hB) = 2 (E - hB)^-1 - E; no product with B is taken.

    x_R comes by one of two routes, chosen once. With q = |S|_inf < 1
    and K = _neumann_terms(q), the truncated Neumann series
    x_R = sum_{j <= K} S^j b (K products x <- S x + b, Horner) is the
    solve to within eps/2 |b|_inf; it is taken when its K nnz(S)
    multiply-adds are fewer than the nnz(L) + nnz(U) of the triangular
    solve pair, as SuperLU stores the factors (supernodes included).
    Otherwise (always when q >= 1) SuperLU solves. route
    holds what decided: {"sparse_solve": "neumann" or "superlu",
    "neumann_terms": K (None when q >= 1), "schur_norm_inf": q}.

    order lists I, then R, and the buffer holds (u_I, u_R). Only the
    running iterate is held, so callers that keep no states
    (transport.rotation_benchmark) stay O(n) in memory.
    """
    half = (dt / 2.0) * gen.action.tocsr()
    elim = _eliminated_nodes(half)
    keep = ~elim
    inv = 1.0 / (1.0 - half.diagonal()[elim])
    scale = sp.diags(inv)
    rows_I, rows_R = half[elim], half[keep]
    # csr_array, not csr_matrix: a product with a vector dispatches in
    # about half the time (6 against 12 us at 512 rows), and the steps
    # take several such products
    to_I = sp.csr_array(scale @ rows_I[:, keep])     # D^-1 h B_IR
    from_I = sp.csr_array(rows_R[:, elim] @ scale)   # h B_RI D^-1
    schur = sp.csr_array(rows_R[:, keep] + from_I @ rows_I[:, keep])
    lu = sparse_shifted_lu(schur)
    q = float(np.max(abs(schur) @ np.ones(schur.shape[1]), initial=0.0))
    terms = _neumann_terms(q) if q < 1.0 else None
    # lu.nnz counts L and U as SuperLU stores them, which its solve reads;
    # lu.L and lu.U would build CSC copies of both factors and keep them
    # on lu (2.3 MB at 64^2)
    neumann = terms is not None and terms * schur.nnz < lu.nnz
    route = {"sparse_solve": "neumann" if neumann else "superlu",
             "neumann_terms": terms, "schur_norm_inf": q}
    order = np.concatenate([np.flatnonzero(elim), np.flatnonzero(keep)])
    v = u[order]
    u_I, u_R = v[:inv.size], v[inv.size:]
    m = u_R.size

    def steps():
        x, y = np.empty(m), np.empty(m)
        for _ in range(nsteps):
            b = u_R + from_I @ u_I
            if neumann:
                # Horner, x <- S x + b: scipy's CSR kernel adds S x into
                # y = b in place, where schur @ x would spend more time
                # in dispatch and allocation than in the product
                np.copyto(x, b)
                for _ in range(terms):
                    np.copyto(y, b)
                    csr_matvec(m, m, schur.indptr, schur.indices,
                               schur.data, x, y)
                    x, y = y, x
                x_R = x
            else:
                x_R = lu.solve(b)
            x_I = to_I @ x_R
            x_I += inv * u_I
            np.subtract(x_R + x_R, u_R, out=u_R)
            np.subtract(x_I + x_I, u_I, out=u_I)
            yield v

    return order, steps(), route


def _left_finite(step: int) -> ValueError:
    return ValueError(f"Cayley step {step} left the finite numbers "
                      "(is E - dt/2 B singular?)")


def _dense_cayley_states(gen: RestrictedOperator, dt: float,
                         states: np.ndarray) -> None:
    """Fill states[1:] from states[0] by the dense step matrix
    C = (E - dt/2 B)^-1 (E + dt/2 B) (one LU and one solve against n
    columns).

    Rows advance in blocks of b: states[lo:lo+b] = states[lo-b:lo] (C^b)^T.
    b starts at 1 and doubles, by one squaring of the power, whenever
    rows 0 .. 2b-1 are known, log2(2b) n <= nsteps and 2b <= _ROW_BLOCK:
    the squarings (n^3 each) then never cost more than the matrix-vector
    products (n^2 each) they replace, so short runs of large matrices
    keep b = 1, the plain per-step product. A power that is not finite
    stops the doubling. A block that leaves the finite numbers is redone,
    and the run finished, one step at a time (a power can overflow where
    single steps do not), so the first non-finite step raises ValueError
    naming that step (singular E - dt/2 B, which lu_factor also reports
    by a LinAlgWarning, fails at step 1).
    """
    half = (dt / 2.0) * gen.dense_action()
    E = np.eye(gen.dim)
    C = sla.lu_solve(sla.lu_factor(E - half), E + half, overwrite_b=True)
    nsteps = states.shape[0] - 1
    b, P, lo = 1, C, 1
    # every non-finite block or power is caught below, so the floating
    # point warnings of the products add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        while lo <= nsteps:
            r = min(b, nsteps + 1 - lo)
            block = states[lo:lo + r]
            np.matmul(states[lo - b:lo - b + r], P.T, out=block)
            if not np.isfinite(block).all():
                if b > 1:
                    b, P = 1, C
                    continue
                raise _left_finite(lo)
            lo += r
            if (lo == 2 * b and 2 * b <= _ROW_BLOCK
                    and np.log2(2 * b) * gen.dim <= nsteps):
                square = P @ P
                if np.isfinite(square).all():
                    b, P = 2 * b, square


def evolve_cayley(gen: RestrictedOperator, u0, dt: float,
                  nsteps: int) -> Trajectory:
    """Trapezoidal resolvent stepping u_{k+1} = (E - dt/2 B)^{-1}(E + dt/2 B) u_k.

    For skew B each step is an exact isometry of the weighted norm; for
    dissipative B it is a contraction. Three routes, chosen by the action:

    - dense and W-skew (the test evolve_exact uses): the Cayley step
      shares the real Schur vectors of B and turns each plane of
      frequency b by phi = 2 atan(b dt/2), so the state after k steps
      has the angles k phi. Every state comes from the Schur factors
      (cached on the generator, shared with evolve_exact) and one GEMM
      per block of steps; cos and sin of i phi (i < _ROW_BLOCK) are taken
      once and shifted to each block by angle addition. No step is
      solved for, and the norm does not drift with the step count;
    - dense otherwise: the step matrix (E - dt/2 B)^-1 (E + dt/2 B) is
      formed once and the states are filled by GEMMs against its
      doubled powers (_dense_cayley_states);
    - sparse: the nodes of an independent set are eliminated first and
      the half-size Schur complement E - S on the rest is factorized
      once; each step is two sparse products and one solve with E - S
      (_cayley_steps), scattered into its row of states. The solve is a
      truncated Neumann series of K products with S when q = |S|_inf < 1
      and its K nnz(S) multiply-adds undercut the nnz(L) + nnz(U) of the
      SuperLU solve pair; K is the smallest with q^(K+1) / (1 - q) <=
      eps/2, so the series stays within rounding of the solve. Otherwise
      the SuperLU pair solves. stepper_meta records the decision:
      "sparse_solve" ("neumann" or "superlu"), "neumann_terms" (K, None
      when q >= 1) and "schur_norm_inf" (q).

    states[0] is u0. A non-finite dt, u0 or B raises ValueError, and so
    does a singular E - dt/2 B (a failed sparse factorization) and a
    step that leaves the finite numbers, named by its index (the dense
    and the sparse routes check the states block by block).
    stepper_meta["schur_rotation"] records whether the Schur route ran.
    """
    _require_full_domain(gen)
    if not (np.isfinite(dt) and dt > 0) or nsteps < 1:
        raise ValueError("need a finite dt > 0 and nsteps >= 1")
    u = np.asarray_chkfinite(u0, dtype=float)
    states = np.empty((nsteps + 1, gen.dim))
    states[0] = u
    is_skew, route = False, {}
    if sp.issparse(gen.action):
        order, steps, route = _cayley_steps(gen, u, dt, nsteps)
        back = np.argsort(order)
        lo = 1
        # non-finite rows are caught block by block below
        with np.errstate(over="ignore", invalid="ignore"):
            for k, v in enumerate(steps, start=1):
                np.take(v, back, out=states[k])
                if k - lo + 1 == _ROW_BLOCK or k == nsteps:
                    finite = np.isfinite(states[lo:k + 1]).all(axis=1)
                    if not finite.all():
                        raise _left_finite(lo + int(np.argmin(finite)))
                    lo = k + 1
    else:
        sw = np.sqrt(gen.space.weights)
        S = _identity_coords(gen.space, gen.dense_action())
        is_skew = _is_skew(S)
        if is_skew:
            planes = _schur_planes(gen, S)
            phi = 2.0 * np.arctan((0.5 * dt) * planes[2])
            base = np.multiply.outer(np.arange(min(_ROW_BLOCK, nsteps + 1)),
                                     phi)
            cos_i, sin_i = np.cos(base), np.sin(base)

            def trig(lo, r):
                c, s = np.cos(lo * phi), np.sin(lo * phi)
                return (cos_i[:r] * c - sin_i[:r] * s,
                        sin_i[:r] * c + cos_i[:r] * s)

            _skew_schur_states(planes, sw * u, sw, states, trig)
            states[0] = u
        else:
            _dense_cayley_states(gen, dt, states)
    return Trajectory(times=dt * np.arange(nsteps + 1), states=states,
                      space=gen.space,
                      stepper_meta={"method": "cayley", "dt": float(dt),
                                    "schur_rotation": is_skew, **route})


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
