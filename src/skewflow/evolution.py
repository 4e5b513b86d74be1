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
  linspace). On such a grid the rows c +- i (i < ``_HALF_WINDOW`` = 256)
  are P_i +- Q_i around a centre c, with P = cos(i phi) [A_c; z] and
  Q = sin(i phi) B_c, where A_c and B_c are the halves turned once by
  c phi: two GEMMs with K = m+1 and m give 511 rows, about m n
  multiply-adds per row (``_skew_schur_states``). The phases c phi are
  formed exactly (``_turns``); the table of i phi is one angle addition
  of two such tables of about sqrt(256) rows each (``_turn_table``),
  which adds about 2 ulp, so no phase error grows with the step count.
  Turning the halves costs six elementwise passes over m x n per
  centre, paid once per 511 rows. At other times each block of
  ``_ROW_BLOCK`` rows is one GEMM of [cos t b | 1 | sin t b] against
  both halves, 2m n multiply-adds per row. O(T n^2) either way, with
  temporaries that do not grow with T;
- non-skew ``evolve_exact``: on a uniform grid of T intervals with
  8 T >= n, one scaling-and-squaring exponential P = e^{dB}, O(n^3),
  then the states by the doubling fill below; otherwise one
  ``expm_multiply`` per sample interval, carrying the previous sample
  forward, O(T s n^2) with s the Taylor degree that ``expm_multiply``
  picks for the interval (no dense exponential is formed). The
  threshold rests on one ``expm`` costing no more than n/8 of those
  calls;
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
  on I (on a periodic transport stencil over an even grid, one colour
  of the grid, n/2 nodes, chosen by a BFS in ``scipy.sparse.csgraph``
  with no Python work per node). What is left is E - S on the other
  nodes, S the Schur term. Each step is two sparse products with the
  blocks that couple I to the rest, one solve with E - S and O(n)
  vector work, with no product with B (``_cayley_steps``; the steps
  solve for 2 x_R, so that doubling costs no pass). The independent set
  comes from one pass over the CSR arrays of dt/2 B and csgraph's
  colouring (``_eliminated_nodes``), and the sparse metric adjoint,
  which the transport runs step, is formed by scaling the transpose's
  CSR arrays twice (``adjoint_generator``), with no sparse product. With
  q = |S|_inf >= 1/2 the solve is SuperLU's triangular pair,
  O(nnz(L) + nnz(U)) a step after one factorization up front
  (``operators.sparse_shifted_lu``: minimum-degree ordering on A^T + A
  in SuperLU's symmetric mode, every nonzero diagonal pivot kept, so
  the ordering holds at large steps too). With q < 1/2 no factor is
  built up front: each step makes one attempt of at most K <= 53 Horner
  products x <- S x + b, O(nnz(S)) each, with K the smallest count for
  which q^(K+1) / (1 - q) <= eps/2, kept once Banach's a-posteriori
  bound certifies it to eps/2 |b|_inf (``_neumann_sum``). After the
  p-th step (p = ``_WARM_DEPTH`` = 9) an attempt starts from one GEMV,
  the extrapolation of the images S y of the last p starts plus b: that
  is S z + b, z the extrapolation of the starts, so one product comes
  free, its rounding scaled by q. The weights, from
  W(z) = 1 - (1 - z)^8 (1 + 255/256 z), are exact through degree 7 with
  W(-1) = 0, so the start errors fed back through W and S die out while
  q max |W| < 1 on the unit circle. SuperLU takes over once and for
  good: at the first dropped attempt, or at step 2p if the ring-started
  steps averaged more than K/2 products and nnz(L + U) undercuts their
  mean products x nnz(S). So a run of T steps costs O(T (P nnz(S) + n))
  on the attempts, P their mean products, and the factorization only
  where an attempt drops or the attempts cost more than half the cap.
  The three sparse products run scipy's CSR kernel in place with its
  arguments bound once, since at these sizes the dispatch of ``S @ x``
  costs more than the product.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
# the compiled kernel behind a CSR matrix-vector product, y += A x;
# already loaded with scipy.sparse
from scipy.sparse._sparsetools import csr_matvec

from .operators import (RestrictedOperator, _dasum, _identity_coords,
                        _is_skew, _shifted_lu, sparse_shifted_lu)

_DENSE_EXP_LIMIT = 4096
# rows (sample times or steps) per GEMM in the dense trajectories; bounds
# their temporaries at _ROW_BLOCK x n whatever the row count
_ROW_BLOCK = 128
# the half-window of the uniform-grid Schur fill: the rows c +- i,
# i < 256, share one turn of the halves by c phi, 511 rows per centre
_HALF_WINDOW = 256
# keeps the sign, the exponent and the 25 leading fraction bits of a double
_HIGH_BITS = np.uint64(0xFFFFFFFFF8000000)
# the (0-based) index of a vector's largest |entry|, one BLAS pass; it
# passes over NaN entries
_idamax = sla.blas.idamax
_EPS = float(np.finfo(float).eps)
# the sparse Cayley steps start their Neumann sums from
# sum_{i=1..p} w_i S y_{k-i} + b over the images S y of the last
# p = _WARM_DEPTH starts y, w_i the coefficients of
# W(z) = 1 - (1 - z)^8 (1 + 255/256 z): exact on polynomials of degree 7,
# and W(-1) = 0, so the alternating mode, where 1 - (1 - z)^8 alone has
# its largest gain on the unit circle, is not passed on. The weights are
# dyadic, so exact as doubles. With S y_j in row j % p of a ring and b in
# its row p, row k % p of _WARM_TABLE holds them
_WARM_DEPTH = 9
_WARM_WEIGHTS = -np.polynomial.polynomial.polymul(
    [(-1) ** i * math.comb(8, i) for i in range(9)], [1.0, 255 / 256])[1:]
_WARM_TABLE = np.array([[*np.roll(_WARM_WEIGHTS[::-1], r), 1]
                        for r in range(_WARM_DEPTH)])


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


def _turn_table(rows: int, rate: np.ndarray):
    """cos and sin of i rate for i < rows, as two (rows, m) arrays, by one
    angle addition: i = a s + b with s = ceil(sqrt(rows)) and b < s, so
    two _turns tables of about sqrt(rows) rows each give every row. Each
    phase a s rate and b rate is formed exactly, and the addition adds
    about 2 ulp, whatever rows is."""
    s = math.isqrt(rows - 1) + 1
    ca, sa = (x[:, None] for x in _turns(np.arange(0, rows, s)[:, None], rate))
    cb, sb = _turns(np.arange(s)[:, None], rate)
    shape = (ca.shape[0] * s, rate.size)
    return ((ca * cb - sa * sb).reshape(shape)[:rows],
            (sa * cb + ca * sb).reshape(shape)[:rows])


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
    c - i and c + i (i < r = _HALF_WINDOW) share the centre c: with
    A_c = cos(c rate) A + sin(c rate) B and B_c = cos(c rate) B
    - sin(c rate) A, row c + i is P_i + Q_i and row c - i is P_i - Q_i,
    where P = cos(i rate) [A_c; z] and Q = sin(i rate) B_c. So two GEMMs
    with K = m+1 and m give 2r - 1 = 511 rows, half the multiply-adds
    per row; the six m x n passes that turn A and B are paid once per
    centre. cos and sin of i rate form one table (_turn_table); those of
    c rate are taken for each centre by _turns, which forms the phase
    k rate exactly. So no phase error grows with the row count. The last
    centre sits in the middle of the rows left, never past the last row,
    and no temporary grows with the row count.

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
    r = min(_HALF_WINDOW, rows // 2 + 1)
    cos_i = np.ones((r, m + 1))
    cos_i[:, :m], sin_i = _turn_table(r, rate)
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
    place. Products with subnormal operands take a slow path in the FPU,
    and the step matrices of lossy seams at small dt hold many of them,
    so every product with such a matrix would pay it. Each flushed entry
    is below 2.3e-308 in magnitude, so a product with a vector x moves
    by at most n 2.3e-308 max|x|."""
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
    return float(d) if gap <= 4.0 * _EPS * ts[-1] else None


def evolve_exact(gen: RestrictedOperator, u0, times) -> Trajectory:
    """Sample u(t) = e^{tB} u0 at the requested times (t = 0 is prepended).

    The times are sorted and deduplicated, then tested for a uniform grid
    ts[k] = k d (to within 4 eps max t). Skew generators (in the space
    metric) are detected and routed through the real Schur factorization,
    giving exactly orthogonal propagators: one factorization (cached on
    the generator, shared with evolve_cayley), then on a uniform grid the
    rows mirrored around centres, 511 rows per centre, as evolve_cayley
    fills them, with the plane angles k d b, and at other times one GEMM
    per block of sample times, with cos and sin of each t b. A sample
    whose angle t b is not finite raises ValueError, naming the first
    such sample.

    Anything else is carried from each sample to the next. On a uniform
    grid of T intervals with 8 T >= n, by the step matrix P = e^{dB},
    formed once by scaling and squaring (``scipy.linalg.expm``) and
    stepped as evolve_cayley steps its own: by GEMMs against doubled
    powers. Otherwise by the action of the exponential on a vector over
    each sample interval (``expm_multiply``), never forming e^{tB}. The
    threshold 8 T >= n rests on one expm costing no more than n/8 of
    those.

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
    an even node with an even neighbour (an odd cycle) is dropped, and so
    is a node with a non-finite off-diagonal entry in its row or column.
    On bipartite patterns, such as every periodic transport stencil on an
    even grid, I is one colour: half of the nodes.

    half must be CSR without duplicate entries. One pass over its arrays
    gives the off-diagonal nonzeros (i, j, |h_ij|): their pattern is the
    graph, which csgraph reads as undirected, and the same entries give
    the edge test and each column's largest |h_ij|. No sparse matrix is
    formed but the graph itself.
    """
    # imported here: only the sparse stepper needs csgraph, and loading it
    # with the module adds about 3 MB to the peak RSS of dense-only runs
    from scipy.sparse import csgraph

    n, indptr, cols = half.shape[0], half.indptr, half.indices
    rows = np.repeat(np.arange(n, dtype=cols.dtype), np.diff(indptr))
    off = (rows != cols) & (half.data != 0.0)
    rows, cols, size = rows[off], cols[off], np.abs(half.data[off])
    graph = sp.csr_matrix(
        (np.ones(size.size), cols, np.append(0, np.cumsum(off))[indptr]),
        shape=(n, n))
    _, component = csgraph.connected_components(graph, directed=False)
    roots = np.unique(component, return_index=True)[1]
    depth = csgraph.dijkstra(graph, directed=False, indices=roots,
                             unweighted=True, min_only=True)
    even = depth % 2 == 0
    # an edge between two even nodes, or a NaN or inf entry, rules out
    # both of its nodes
    bad = (even[rows] & even[cols]) | ~np.isfinite(size)
    mask = even.copy()
    mask[rows[bad]] = mask[cols[bad]] = False
    # fmax passes over NaN entries, whose nodes are already ruled out
    column = np.zeros(n)
    np.fmax.at(column, cols, size)
    pivot = np.abs(1.0 - half.diagonal())
    # strict, so that a zero pivot in an empty column is not eliminated
    return mask & (pivot > 1e-3 * column)


def _neumann_terms(q: float) -> int:
    """The smallest K >= 0 with q^(K+1) / (1 - q) <= eps/2, for
    0 <= q < 1: the Neumann sum of S^j b over j <= K then misses the
    solution of (E - S) x = b by at most eps/2 |b| in any norm in which
    |S| <= q."""
    if q == 0.0:
        return 0
    tol = 0.5 * _EPS * (1.0 - q)
    terms = max(0, int(np.ceil(np.log(tol) / np.log(q))) - 1)
    # the logarithms can put the ceiling one off either way
    while terms > 0 and q ** terms <= tol:
        terms -= 1
    while q ** (terms + 1) > tol:
        terms += 1
    return terms


def _csr_args(A) -> tuple:
    """The CSR matrix A as the leading arguments of scipy's compiled
    kernel y += A x, csr_matvec(*args, x, y), bound once: at the sizes a
    sparse step works on, A @ x spends more time in dispatch and
    allocation than in the product, and so does reading A's shape and
    arrays anew for each product."""
    return (A.shape[0], A.shape[1], A.indptr, A.indices, A.data)


def _neumann_sum(S: tuple, q: float, terms: int, b: np.ndarray,
                 start: np.ndarray, x: np.ndarray, y: np.ndarray,
                 p: np.ndarray):
    """One attempt at the solution of (E - S) x = b for |S|_inf = q < 1,
    S given as its _csr_args: at most terms products x <- S x + b from
    x_0 = start, as (x, j, certified); x, y and p are work buffers of
    b's size, the result is x or y, and start is kept unless it is x.
    Each product S y is formed alone in p, then b is added: p ends as
    the image of the last start.

    After the j-th product x_j - x* = S (x_{j-1} - x*), so x_j misses the
    solution by at most q/(1 - q) |x_j - x_{j-1}|_inf from any start
    (Banach's a-posteriori bound). The attempt stops, certified, at the
    first j at which that is <= eps/2 |b|_inf, and ends uncertified when
    terms products do not get there. b itself is the first iterate from
    zero, whose test q |b|_inf <= eps/2 (1 - q) |b|_inf is what
    terms = 0 (_neumann_terms) means: from b, no product is then needed.
    A start whose |entries| do not sum to a finite number (a NaN or inf
    entry, or a sum past the largest double) is refused before any
    product: _idamax would pass over the NaN that the products make of
    it. The test is taken as q |x_j - x_{j-1}|_inf <= eps/2 (1 - q) |b|_inf,
    which squares nothing, so it holds at any finite scale of b; an
    underflow on its left only drops what is below the smallest double.
    An empty b (q = 0, terms = 0) is certified as it is.
    """
    if start.size and not math.isfinite(_dasum(start)):
        return x, 0, False
    if not terms:
        if start is not x:
            np.copyto(x, start)
        return x, 0, start is b
    limit = 0.5 * _EPS * (1.0 - q) * abs(b[_idamax(b)])
    j = 0
    while j < terms:
        p.fill(0.0)
        csr_matvec(*S, start, p)
        # the new iterate goes to the buffer start is not in, and the
        # step x_j - x_{j-1} to the other one
        new, step = (y, x) if start is x else (x, y)
        np.add(p, b, out=new)
        j += 1
        np.subtract(new, start, out=step)
        if q * abs(step[_idamax(step)]) <= limit:
            return new, j, True
        start = new
    return start, j, False


def _cayley_steps(gen: RestrictedOperator, u: np.ndarray, dt: float,
                  nsteps: int):
    """The nsteps trapezoidal iterates of u under a sparse action, as
    (order, steps, route): steps yields after each step the iterate
    permuted by order, u[order], in one buffer that the next step
    overwrites.

    With h = dt/2, I the nodes of _eliminated_nodes, R the rest and
    D = 1 - h diag(B) on I, E - hB is diagonal on I, so eliminating I
    first is exact. What is left is E - S on R, with the Schur term
    S = h B_RR + h^2 B_RI D^-1 B_IR. A step solves (E - hB) x = u by
    x_R = (E - S)^-1 b with b = u_R + h B_RI D^-1 u_I, and
    x_I = D^-1 (u_I + h B_IR x_R), then sets u = 2x - u, since
    (E - hB)^-1 (E + hB) = 2 (E - hB)^-1 - E; no product with B is taken.
    The steps solve for 2 x_R, from 2b = 2 u_R + (2 h B_RI D^-1) u_I,
    with the coupling block doubled once in the set-up: scaling by 2 is
    exact through the products, Banach's test, the ring and SuperLU's
    solve, so 2 x_R costs no pass of its own, and only where 2b
    overflows or a product is subnormal can it differ from 2 times x_R.
    Then u_I = (2 D^-1 - 1) u_I + h D^-1 B_IR (2 x_R) and
    u_R = 2 x_R - u_R.

    x_R comes by one of two routes, from q = |S|_inf and the measured
    cost of the steps:

    - q >= 1/2, or q not finite: operators.sparse_shifted_lu factorizes
      E - S before the first step (a failure, a non-finite S included,
      raises ValueError), and SuperLU's triangular solve pair solves
      every step, nnz(L) + nnz(U) multiply-adds as SuperLU stores the
      factors (supernodes included). From q = 1/2 on, q/(1 - q) >= 1, so
      Banach's test below certifies only an iterate that has all but
      stopped moving, and K grows without bound as q -> 1.
    - q < 1/2: E - S is strictly diagonally dominant by rows, so no
      factor is built up front. Each step makes one attempt of at most
      K = _neumann_terms(q) <= 53 products x <- S x + b, nnz(S)
      multiply-adds each (_neumann_sum), kept only when Banach's
      a-posteriori bound puts it within eps/2 |b|_inf of the solve. A
      p-row ring (p = _WARM_DEPTH = 9) holds the image S y of each
      attempt's last start y. The first p attempts start from b, step
      k >= p from one GEMV (weights in row k % p of _WARM_TABLE, b a
      last ring row), the extrapolated images plus b, which is S z + b
      for z the extrapolation of the starts. The weights, the
      coefficients of W(z) = 1 - (1 - z)^8 (1 + 255/256 z), are exact
      through degree 7; the images' errors are fed back through W and
      S, so they die out while q max |W| < 1 on the unit circle, and
      W(-1) = 0 removes the alternating mode, where the binomial
      weights alone have their largest gain. At K = 0 every attempt
      starts from b, certified with no product.
      SuperLU takes over once, for good. An attempt that K products do
      not certify, or whose start is refused as not finite, is dropped:
      the factor is built, and its solve pair solves that step and
      every later one, with no attempt. At step 2p, the one checkpoint,
      the factor is built if the ring-started steps p .. 2p-1 took more
      than K/2 products on average; it solves every step from there if
      nnz(L + U) is below their mean products x nnz(S), and is released
      otherwise.

    A step's cost is thus O(nnz(S)) per product, against O(nnz(L + U))
    per solve, plus two products with the blocks that couple I to R and
    O(n) vector work outside the solve: 2 u_R, u_R's update, and the
    product with 2 D^-1 - 1. The set-up is the elimination (one pass
    over the arrays of hB, then csgraph's colouring), the blocks of hB
    and S by scipy's sparse indexing and products, plus the
    factorization only where a step needs it.

    route holds what decided and what ran: {"sparse_solve": "neumann"
    (q < 1/2) or "superlu", "neumann_terms": K (None when q >= 1/2),
    "schur_norm_inf": q, "neumann_products": the most products an
    attempt took, a dropped one's included, "neumann_products_mean": their
    mean per attempt (both None on the SuperLU route), and
    "switch_step": the first step with no attempt, the dropped step's
    index + 1 or 2p (None when every step made one)}. Its counts are
    final once steps is exhausted.

    order lists I, then R, and the buffer holds (u_I, u_R). Only the
    running iterate, two buffers of x_R's size and the ring are held, so
    callers that keep no states (transport.rotation_benchmark) stay
    O(n) in memory.
    """
    half = (dt / 2.0) * gen.action.tocsr()
    half.sum_duplicates()
    elim = _eliminated_nodes(half)
    keep = ~elim
    inv = 1.0 / (1.0 - half.diagonal()[elim])
    scale = sp.diags(inv)
    rows_I, rows_R = half[elim], half[keep]
    to_I = sp.csr_array(scale @ rows_I[:, keep])     # D^-1 h B_IR
    from_I = sp.csr_array(rows_R[:, elim] @ scale)   # h B_RI D^-1
    schur = sp.csr_array(rows_R[:, keep] + from_I @ rows_I[:, keep])
    q = float(np.max(abs(schur) @ np.ones(schur.shape[1]), initial=0.0))
    # from q = 1/2 on, q/(1 - q) >= 1: Banach's test certifies only a last
    # product that moves no entry by more than eps/2 |b|_inf, an iterate
    # that has all but stopped, and K grows without bound as q -> 1
    neumann = q < 0.5
    terms = _neumann_terms(q) if neumann else None
    lu = None if neumann else sparse_shifted_lu(schur)
    route = {"sparse_solve": "neumann" if neumann else "superlu",
             "neumann_terms": terms, "schur_norm_inf": q,
             "neumann_products": 0 if neumann else None,
             "neumann_products_mean": 0.0 if neumann else None,
             "switch_step": None}
    order = np.concatenate([np.flatnonzero(elim), np.flatnonzero(keep)])
    v = u[order]
    ni = inv.size
    u_I, u_R = v[:ni], v[ni:]
    # u_I <- 2 x_I - u_I with x_I = D^-1 u_I + T x_R is (2 D^-1 - 1) u_I
    # + T (2 x_R)
    shrink = 2.0 * inv - 1.0
    # S is formed, so from here F is doubled: the steps solve for 2 x_R
    # from 2b = 2 u_R + (2F) u_I
    from_I.data *= 2.0
    S, F, T = _csr_args(schur), _csr_args(from_I), _csr_args(to_I)

    def steps():
        nonlocal lu
        x, y = np.empty(u_R.size), np.empty(u_R.size)
        # the last p images S y, then b, weighed by a row of _WARM_TABLE
        ring = np.empty((_WARM_DEPTH + 1 if neumann else 1, u_R.size))
        images, b = list(ring[:-1]), ring[-1]
        switch, total, most = None, 0, 0
        for k in range(nsteps):
            np.add(u_R, u_R, out=b)
            csr_matvec(*F, u_I, b)
            if k == _WARM_DEPTH:
                base = total
            elif k == 2 * _WARM_DEPTH and lu is None:
                mean = (total - base) / _WARM_DEPTH
                if mean > terms / 2:
                    # lu.nnz counts L and U as SuperLU stores them, which
                    # its solve reads; lu.L and lu.U would build CSC
                    # copies of both factors and keep them on lu
                    lu = sparse_shifted_lu(schur)
                    if lu.nnz < mean * schur.nnz:
                        switch = k
                    else:
                        # the attempts go on, and no step reads the factor
                        lu = None
            if lu is not None:
                x_R = x
                np.copyto(x_R, lu.solve(b))
            else:
                slot = k % _WARM_DEPTH
                start = (b if k < _WARM_DEPTH or not terms
                         else np.dot(_WARM_TABLE[slot], ring, out=x))
                x_R, used, certified = _neumann_sum(S, q, terms, b, start,
                                                    x, y, images[slot])
                total += used
                if used > most:
                    most = used
                if not certified:
                    lu, switch = sparse_shifted_lu(schur), k + 1
                    np.copyto(x_R, lu.solve(b))
            np.multiply(shrink, u_I, out=u_I)
            csr_matvec(*T, x_R, u_I)
            np.subtract(x_R, u_R, out=u_R)
            yield v
        if neumann and nsteps:
            route.update(neumann_products=most, switch_step=switch,
                         neumann_products_mean=total / (switch or nsteps))

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
      c - i and c + i (i < _HALF_WINDOW = 256) around a centre c are
      P_i -+ Q_i, from two GEMMs against the cos and the sin half of the
      folded factors, turned once by c phi (_skew_schur_states, shared
      with evolve_exact on uniform grids). The phases c phi are formed
      exactly (_turns) and those of i phi by one angle addition of two
      exact tables (_turn_table, about 2 ulp), so no phase error grows
      with the step count; no step is solved for, and the norm does not
      drift with the step count;
    - dense otherwise: the step matrix (E - dt/2 B)^-1 (E + dt/2 B) is
      formed once, flushed of subnormal entries, and the states are
      filled by GEMMs against its doubled powers (_power_states, shared
      with evolve_exact's step matrix e^{dB});
    - sparse: the nodes of an independent set are eliminated first,
      and each step is two sparse products and one solve with the
      half-size Schur complement E - S on the rest (_cayley_steps),
      scattered into its row of states: SuperLU's solve pair when
      q = |S|_inf >= 1/2, else one attempt of at most K products
      x <- S x + b, kept once Banach's a-posteriori bound puts it within
      eps/2 |b|_inf of the solve at any scale of u0. After the 9th step
      an attempt starts from the ring of Schur images, one product
      free (weights exact through degree 7 with W(-1) = 0, see
      _cayley_steps). SuperLU takes over once and for good: at the first
      dropped attempt, which it solves, or at step 18 if the measured
      costs say so. stepper_meta records the keys of _cayley_steps'
      route ("sparse_solve", "neumann_terms", "schur_norm_inf",
      "neumann_products", "neumann_products_mean" and "switch_step").

    states[0] is u0. A non-finite dt, u0 or B raises ValueError, and so
    do a u0 that is not a vector of length n, an nsteps that is not an
    integer >= 1, a singular E - dt/2 B (a failed sparse factorization)
    and a step that leaves the finite numbers, named by its index (the
    dense route checks the states block by block, the sparse route each
    state as it is stored: one sum of its |entries|, and its entries
    only when that sum is not finite).
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
        with np.errstate(over="ignore", invalid="ignore"):
            for k, v in enumerate(steps, start=1):
                # one BLAS pass while the state is hot; only a sum that is
                # not finite (a NaN or inf entry, or finite entries whose
                # sum overflows) is read entry by entry
                if not math.isfinite(_dasum(v)) and not np.isfinite(v).all():
                    raise _left_finite(k)
                # back is a permutation, so the clip never acts; under
                # mode="raise" numpy would buffer the output
                v.take(back, out=states[k], mode="clip")
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
            solve = _shifted_lu(half)
            half.flat[::gen.dim + 1] += 1.0     # now E + dt/2 B
            C = solve(half, False)
            bad = _power_states(_flush_subnormals(C), states)
            if bad is not None:
                raise _left_finite(bad)
    return Trajectory(times=dt * np.arange(nsteps + 1), states=states,
                      space=gen.space,
                      stepper_meta={"method": "cayley", "dt": float(dt),
                                    "schur_rotation": is_skew, **route})


def adjoint_generator(gen: RestrictedOperator) -> RestrictedOperator:
    """The metric adjoint B* = W^{-1} B^T W as a full-domain operator.

    A sparse action gives a CSR matrix: the entry a of B^T in row i and
    column j becomes (a / w_i) w_j, taken as (a (1/w_i)) w_j, and exact
    zeros are dropped (stored zeros, and products that underflow). For an
    action without duplicate entries, those are the arrays that the
    SpGEMMs diag(1/w) B^T diag(w) would give, with no product formed."""
    _require_full_domain(gen)
    w = gen.space.weights
    if sp.issparse(gen.action):
        A = sp.csr_matrix(gen.action.T, copy=True)
        # an entry past the largest double becomes inf, as in the products
        with np.errstate(over="ignore"):
            A.data = A.data * np.repeat(1.0 / w, np.diff(A.indptr))
            A.data *= w[A.indices]
        A.eliminate_zeros()
    else:
        A = (gen.dense_action().T * w[None, :]) / w[:, None]
    return RestrictedOperator(space=gen.space, action=A, domain=None,
                              label=f"adjoint({gen.label})" if gen.label
                              else "adjoint", meta=dict(gen.meta))
