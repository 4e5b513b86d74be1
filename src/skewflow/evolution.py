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
  the zero modes and the unscaling by 1/sqrt(w) fold once into a cos
  half [A; z] ((m+1) x n, m rotation planes, the zero modes z a plane of
  frequency 0) and a sin half B (m x n). The Cayley step has the
  generator's Schur vectors and turns each plane of frequency b by
  phi = 2 atan(b dt/2), so no step is solved for and the norm does not
  drift with the step count; ``evolve_exact`` turns it by phi = d b when
  its times form a uniform grid t_k = k d (the CLI's dt k, or a
  linspace). On such a grid the rows c +- i (i < ``_ROW_BLOCK``) are
  P_i +- Q_i around a centre c, with P = cos(i phi) [A_c; z] and
  Q = sin(i phi) B_c, where A_c and B_c are the halves turned once by
  c phi: two GEMMs with K = m+1 and m give 2 ``_ROW_BLOCK`` - 1 rows,
  about m n multiply-adds per row (``_skew_schur_states``). The phases
  i phi and c phi are formed exactly (``_turns``), so their error does
  not grow with the step count. At other times each block of
  ``_ROW_BLOCK`` rows is one GEMM of [cos t b | 1 | sin t b] against
  both halves, 2m n multiply-adds per row. O(T n^2) either way, with
  temporaries that do not grow with T;
- non-skew ``evolve_exact``: on a uniform grid of T intervals with
  8 T >= n, one scaling-and-squaring exponential P = e^{dB}, O(n^3),
  then the states by the doubling fill below; otherwise one
  ``expm_multiply`` per sample interval, carrying the previous sample
  forward, O(T s n^2) with s the Taylor degree that ``expm_multiply``
  picks for the interval (no dense exponential is formed). One
  ``expm`` costs as much as 3.5 to 77 of those calls at n = 128 to
  2048, never more than n/8;
- non-skew dense ``evolve_cayley``: the step matrix
  C = (E - dt/2 B)^-1 (E + dt/2 B) from one LU factorization and one
  solve against n columns, O(n^3); then, as for P above, the states by
  doubling (``_power_states``): states[b:2b] = states[0:b] (C^b)^T with
  one squaring per doubling, then fixed blocks of b rows. b doubles only
  while log2(2b) n <= T and 2b <= ``_ROW_BLOCK``, so the squarings never
  cost more than the T matrix-vector products they replace (at b = 1,
  the per-step product); O(T n^2) in total. C, P and each square are
  flushed of subnormal entries, which would send every product with
  them down the FPU's slow path;
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
  every nonzero diagonal pivot, however small against its column, so the
  ordering holds at large steps too. On the 64^2 rotation stencil at dt = 2 pi / 2000 the
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

import numbers
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
# keeps the sign, the exponent and the 25 leading fraction bits of a double
_HIGH_BITS = np.uint64(0xFFFFFFFFF8000000)


@dataclass
class Trajectory:
    """Sampled evolution: times[k] with state rows states[k].

    times must start at 0 and increase strictly; states[0] is the initial
    vector. stepper_meta records how the samples were produced (method,
    dt, whether the Schur rotation path ran, and for exact runs the route
    and the uniform step) so reports stay self-describing.
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


def _dense_planes(gen: RestrictedOperator):
    """(planes, None) for a dense W-skew generator, planes its cached Schur
    factors (_schur_planes), else (None, S) with S = sqrt(W) B
    sqrt(W)^-1. A generator that already holds its factors is not formed
    in identity coordinates or tested again."""
    if gen._schur is not None:
        return gen._schur, None
    S = _identity_coords(gen.space, gen.dense_action())
    return (_schur_planes(gen, S), None) if _is_skew(S) else (None, S)


def _turns(k, rate: np.ndarray):
    """cos and sin of k rate for integers k below 2^27, with the product
    k rate kept exact: rate = hi + lo, hi its sign, exponent and 26
    leading significant bits, so k hi is exact and k lo is below 2^-25 of
    the angle; the angle sum rule joins the two. Rounding k rate instead
    would put up to ulp(k rate)/2 into the phase, an error that grows
    with k (1.8e-12 at k rate = 3e4)."""
    hi = (rate.view(np.uint64) & _HIGH_BITS).view(float)
    a, b = k * hi, k * (rate - hi)
    ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    return ca * cb - sa * sb, sa * cb + ca * sb


def _skew_schur_states(planes, v0: np.ndarray, sw: np.ndarray, out: np.ndarray,
                       rate: np.ndarray, times=None) -> None:
    """Write the rotated states of v0, mapped back by 1/sw, into out's rows.

    planes = (Z, p, freq) from _schur_planes; m = p.size. Row k turns
    plane j (p_j, p_j+1) by the angle times[k] rate_j, or k rate_j when
    times is None (a uniform grid). With c = Z^T v0, the state at angles
    a_j is sum_j cos a_j A_j + sin a_j B_j + z, where
    A_j = (c_p Z_p + c_q Z_q) / sw, B_j = (c_q Z_p - c_p Z_q) / sw and z
    carries the 1x1 blocks (zero modes) of c. They fold into a cos half
    [A; z] ((m+1) x n, z a plane of frequency 0) and a sin half B (m x n).

    Off the grid, each block of _ROW_BLOCK rows is one GEMM of
    [cos | 1 | sin] against both halves (K = 2m+1). On the grid, the rows
    c - i and c + i (i < r = _ROW_BLOCK) share the centre c: with
    A_c = cos(c rate) A + sin(c rate) B and B_c = cos(c rate) B
    - sin(c rate) A, row c + i is P_i + Q_i and row c - i is P_i - Q_i,
    where P = cos(i rate) [A_c; z] and Q = sin(i rate) B_c. So two GEMMs
    with K = m+1 and m give 2r - 1 rows, half the multiply-adds per row.
    cos and sin of i rate form one table; those of c rate are taken
    directly for each centre. Both come from _turns, which forms the
    phase k rate exactly, so its error does not grow with the row count.
    The last centre sits in the middle of the rows left, never past the
    last row, and no temporary grows with the row count.

    A ValueError names the first row whose phase is not finite (all of
    them are when the last row's is, since the phases grow with k).
    """
    Z, p, _ = planes
    m, n, rows = p.size, Z.shape[0], out.shape[0]
    top = float(np.max(np.abs(rate), initial=0.0))
    last = rows - 1 if times is None else float(times[-1])
    if not np.isfinite(last * top):
        reach = np.arange(rows, dtype=float) if times is None else times
        with np.errstate(over="ignore", invalid="ignore"):
            k = 1 + int(np.argmax(~np.isfinite(reach[1:] * top)))
        raise ValueError(f"sample {k} left the finite numbers: its Schur "
                         "phase is not finite")
    c = Z.T @ v0
    Zp, Zq, cp, cq = Z[:, p], Z[:, p + 1], c[p], c[p + 1]
    c[p] = c[p + 1] = 0.0
    fold = np.empty((2 * m + 1, n))
    fold[:m] = (Zp * cp + Zq * cq).T
    fold[m] = Z @ c
    fold[m + 1:] = (Zp * cq - Zq * cp).T
    fold /= sw
    A, B = fold[:m], fold[m + 1:]
    if times is not None:
        cs = np.empty((min(_ROW_BLOCK, rows), 2 * m + 1))
        cs[:, m] = 1.0
        for lo in range(0, rows, _ROW_BLOCK):
            block = cs[:min(_ROW_BLOCK, rows - lo)]
            angle = np.multiply.outer(times[lo:lo + block.shape[0]], rate)
            np.cos(angle, out=block[:, :m])
            np.sin(angle, out=block[:, m + 1:])
            np.matmul(block, fold, out=out[lo:lo + block.shape[0]])
        return
    r = min(_ROW_BLOCK, rows // 2 + 1)
    cos_i = np.ones((r, m + 1))
    cos_i[:, :m], sin_i = _turns(np.arange(r)[:, None], rate)
    turned = np.empty_like(fold)
    turned[m] = fold[m]
    A_c, B_c = turned[:m], turned[m + 1:]
    tmp, Q = np.empty((m, n)), np.empty((r, n))
    lo = 0
    while lo < rows:
        left = min(2 * r - 1, rows - lo)
        below = (left - 1) // 2
        centre, h = lo + below, left - below
        cc, sc = (x[:, None] for x in _turns(centre, rate))
        np.multiply(A, cc, out=A_c)
        A_c += np.multiply(B, sc, out=tmp)
        np.multiply(B, cc, out=B_c)
        B_c -= np.multiply(A, sc, out=tmp)
        # P into rows centre .. centre + h - 1, then the mirror rows
        # P - Q below the centre, then P + Q in place
        P = out[centre:centre + h]
        np.matmul(cos_i[:h], turned[:m + 1], out=P)
        np.matmul(sin_i[:h], B_c, out=Q[:h])
        np.subtract(P[1:below + 1], Q[1:below + 1],
                    out=out[lo:centre][::-1])
        P += Q[:h]
        lo += left


def _flush_subnormals(A: np.ndarray) -> np.ndarray:
    """A with each subnormal entry replaced by a zero of its sign, in
    place. Products with subnormal operands take a slow path in the FPU:
    a lossy seam's step matrix at n = 2048, dt = 1e-3 is 20% subnormal,
    and its 2000 steps ran about 4x slower than after the flush. Each
    flushed entry is below 2.3e-308 in magnitude, so a product with a
    vector x moves by at most n 2.3e-308 max|x|."""
    A[np.abs(A) < np.finfo(float).tiny] *= 0.0
    return A


def _power_states(P: np.ndarray, states: np.ndarray):
    """Fill states[1:] from states[0] by states[k] = P states[k-1];
    returns None, or the first k whose state is not finite (the fill
    stops there).

    Rows advance in blocks of b: states[lo:lo+b] = states[lo-b:lo] (P^b)^T.
    b starts at 1 and doubles, by one squaring of the power, whenever
    rows 0 .. 2b-1 are known, log2(2b) n <= T (T = len(states) - 1) and
    2b <= _ROW_BLOCK: the squarings (n^3 each) then never cost more than
    the matrix-vector products (n^2 each) they replace, so short runs of
    large matrices keep b = 1, the plain per-step product. Each square is
    flushed of subnormals (_flush_subnormals); a power that is not finite
    stops the doubling. A block that leaves the finite numbers is redone,
    and the run finished, one step at a time (a power can overflow where
    single steps do not), so the first non-finite step is the one named.
    """
    n, T = P.shape[0], states.shape[0] - 1
    b, Pb, lo = 1, P, 1
    # every non-finite block or power is caught below, so the floating
    # point warnings of the products add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        while lo <= T:
            r = min(b, T + 1 - lo)
            block = states[lo:lo + r]
            np.matmul(states[lo - b:lo - b + r], Pb.T, out=block)
            if not np.isfinite(block).all():
                if b > 1:
                    b, Pb = 1, P
                    continue
                return lo
            lo += r
            if lo == 2 * b and 2 * b <= _ROW_BLOCK and np.log2(2 * b) * n <= T:
                square = Pb @ Pb
                if np.isfinite(square).all():
                    b, Pb = 2 * b, _flush_subnormals(square)
    return None


def _initial_state(gen: RestrictedOperator, u0) -> np.ndarray:
    """u0 as a finite float vector of length gen.dim, else ValueError."""
    u = np.asarray_chkfinite(u0, dtype=float)
    if u.shape != (gen.dim,):
        raise ValueError(f"u0 must be a vector of length {gen.dim}, "
                         f"got shape {u.shape}")
    return u


def _uniform_step(ts: np.ndarray):
    """The step d when the sorted times ts (ts[0] = 0, two or more of them)
    satisfy ts[k] = k d to within 4 eps ts[-1]; else None."""
    if ts.size < 2:
        return None
    d = ts[-1] / (ts.size - 1)
    gap = np.max(np.abs(ts - d * np.arange(ts.size)))
    return float(d) if gap <= 4.0 * np.finfo(float).eps * ts[-1] else None


def evolve_exact(gen: RestrictedOperator, u0, times) -> Trajectory:
    """Sample u(t) = e^{tB} u0 at the requested times (t = 0 is prepended).

    The times are sorted and deduplicated, then tested for a uniform grid
    ts[k] = k d (to within 4 eps max t). Skew generators (in the space
    metric) are detected and routed through the real Schur factorization,
    giving exactly orthogonal propagators: one factorization (cached on
    the generator, shared with evolve_cayley), then on a uniform grid the
    rows mirrored around block centres as evolve_cayley fills them, with
    the plane angles k d b, and at other times one GEMM per block of
    sample times, with cos and sin of each t b. A sample whose angle t b
    is not finite raises ValueError, naming the first such sample.

    Anything else is carried from each sample to the next. On a uniform
    grid of T intervals with 8 T >= n, by the step matrix P = e^{dB},
    formed once by scaling and squaring (``scipy.linalg.expm``) and
    stepped as evolve_cayley steps its own: by GEMMs against doubled
    powers. Otherwise by the action of the exponential on a vector over
    each sample interval (``expm_multiply``), never forming e^{tB}: one
    expm cost no more than n/8 of those wherever measured (n = 128 to
    2048).

    stepper_meta records "route" ("schur", "step_matrix" or
    "expm_multiply"), "uniform_step" (d, or None off a uniform grid) and
    "schur_rotation" (whether the Schur route ran). Desk scale only:
    dimensions above a few thousand are rejected, and so are negative or
    non-finite times and a u0 that is not a finite vector of length n
    (ValueError); so is a step-matrix state that leaves the finite
    numbers. states[0] is u0.
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
    u0 = _initial_state(gen, u0)
    step = _uniform_step(ts)

    sw = np.sqrt(gen.space.weights)
    planes, S = _dense_planes(gen)
    states = np.empty((ts.size, n))
    if planes is not None:
        route = "schur"
        if step is None:
            _skew_schur_states(planes, sw * u0, sw, states, planes[2], ts)
        else:
            # d b may overflow; the fill names the first sample it spoils
            with np.errstate(over="ignore"):
                rate = step * planes[2]
            _skew_schur_states(planes, sw * u0, sw, states, rate)
    else:
        states[0] = sw * u0
        if step is not None and 8 * (ts.size - 1) >= n:
            route = "step_matrix"
            bad = _power_states(_flush_subnormals(sla.expm(step * S)), states)
            if bad is not None:
                raise ValueError(f"step {bad} left the finite numbers")
        else:
            route = "expm_multiply"
            for k in range(1, ts.size):
                states[k] = spla.expm_multiply((ts[k] - ts[k - 1]) * S,
                                               states[k - 1])
        states /= sw
    states[0] = u0
    return Trajectory(times=ts, states=states, space=gen.space,
                      stepper_meta={"method": "exact", "route": route,
                                    "uniform_step": step,
                                    "schur_rotation": planes is not None})


def _eliminated_nodes(half) -> np.ndarray:
    """Mask of the nodes the sparse Cayley step eliminates before its
    factorization: an independent set I of the off-diagonal pattern of
    half = dt/2 B whose pivots 1 - half[i, i] exceed 1e-3 of the largest
    off-diagonal entry of their column, so that dividing by them is
    stable.

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


def evolve_cayley(gen: RestrictedOperator, u0, dt: float,
                  nsteps: int) -> Trajectory:
    """Trapezoidal resolvent stepping u_{k+1} = (E - dt/2 B)^{-1}(E + dt/2 B) u_k.

    For skew B each step is an exact isometry of the weighted norm; for
    dissipative B it is a contraction. Three routes, chosen by the action:

    - dense and W-skew (the test evolve_exact uses): the Cayley step
      shares the real Schur vectors of B and turns each plane of
      frequency b by phi = 2 atan(b dt/2), so the state after k steps
      has the angles k phi. Every state comes from the Schur factors
      (cached on the generator, shared with evolve_exact): the steps
      c - i and c + i (i < _ROW_BLOCK) around a centre c are P_i -+ Q_i,
      from two GEMMs against the cos and the sin half of the folded
      factors, turned once by c phi (_skew_schur_states, shared with
      evolve_exact on uniform grids). The phases are formed exactly
      (_turns), no step is solved for, and the norm does not drift with
      the step count;
    - dense otherwise: the step matrix (E - dt/2 B)^-1 (E + dt/2 B) is
      formed once, flushed of subnormal entries, and the states are
      filled by GEMMs against its doubled powers (_power_states, shared
      with evolve_exact's step matrix e^{dB});
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
    do a u0 that is not a vector of length n, an nsteps that is not an
    integer >= 1, a singular E - dt/2 B (a failed sparse factorization)
    and a step that leaves the finite numbers, named by its index (the
    dense and the sparse routes check the states block by block).
    stepper_meta["schur_rotation"] records whether the Schur route ran.
    """
    _require_full_domain(gen)
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("need a finite dt > 0")
    if not isinstance(nsteps, numbers.Integral) or nsteps < 1:
        raise ValueError("nsteps must be an integer >= 1")
    u = _initial_state(gen, u0)
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
        planes = _dense_planes(gen)[0]
        is_skew = planes is not None
        if is_skew:
            phi = 2.0 * np.arctan((0.5 * dt) * planes[2])
            _skew_schur_states(planes, sw * u, sw, states, phi)
            states[0] = u
        else:
            half = (dt / 2.0) * gen.dense_action()
            E = np.eye(gen.dim)
            C = sla.lu_solve(sla.lu_factor(E - half), E + half,
                             overwrite_b=True)
            bad = _power_states(_flush_subnormals(C), states)
            if bad is not None:
                raise _left_finite(bad)
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
