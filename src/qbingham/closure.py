"""Inversion of the Bingham moment map Q = Q(B) and the closure operator.

Every physical Q (eigenvalues strictly inside (-1/3, 2/3)) has exactly one
Lagrange tensor B whose Bingham density reproduces it. B shares the
eigenframe of Q, so the 5-dimensional inversion reduces to a damped Newton
ascent in the two independent eigenvalues of B; the lab-frame tensor is
recovered by rotation. The ascent objective B:Q - ln Z(B) is strictly
concave, which makes the damped iteration globally convergent.

Every solve starts from a fitted inverse map (_fitted_start): with Q's
eigenvalues sorted and s_i = lambda_i + 1/3, the functions
y_i = 2 s_i (b_3 - b_i), i = 1, 2, are smooth on the simplex and tend to 1
at its edges, where b_i ~ -1/(2 s_i) is the Gaussian limit of a concentrated
density. Tensor Chebyshev interpolants of y_1, y_2, each built once per
process from node solves (_start_fit), meet DEFAULT_TOL on margins >= 0.02
(worst start residual ~1e-12), so a solve there is one moment evaluation
and no Newton update. There are two (FITS), chosen per point by s_1: a
degree-56 fit on s_1 >= 0.008 and, from s_1 = 0.05 up, a degree-36 fit,
which takes ~2/3 of the other's time at 4096 points, as a Chebyshev
interpolant needs fewer terms on a domain farther from its function's
singularities (Trefethen, Approximation Theory and Approximation Practice,
2013, ch. 8).
Every field point (margin delta/2 = 0.05) takes the degree-36 fit. Which
fit a point takes does not depend on its batch, and no solve reads a
previous B.

Each solve is one Newton run on one eigenframe rule sized from the start's
spread (``_kernels.nodes_for_spread``); a solve that ends past it raises.
A solve returns B by its eigenvalues b in that frame; the lab-frame B5 is
formed only where it is read (the field's mu and ledger, closure-validate).
The closure operator M_Q and the fourth-moment contraction M4 : A are
evaluated in the same eigenframe, from the pair moments <m_i^2 m_j^2> the
solve returns; no dense fourth moment is formed. The eigenframe comes from
tensors.eig_sym3 (LAPACK for a small batch, a closed form for a large one),
and B5 and M4 : A rotate through it component by component over the batch,
not by stacks of 3x3 matrix products.

A solve computes on contiguous component rows end to end, the batch axis
last: eigenvalues and start (3, N), the frame and the pair moments
(3, 3, N), the moment kernel's node planes (P, N). A reduction over a
point's three values (the start's spread, Newton's residual norm, the
returned spread) is then an elementwise maximum, minimum or sum of three
rows. BatchClosureResult holds (N, ...) views of those rows, so that a
caller indexes points first, and _component_major hands the rows back
without a copy: in B5, and in the field's FieldSolver.close, which passes
the rotation and pair moments to both of its frame products
(m4_contract_frame and mq_apply_frame take rows, 3x3 axes first). Only a
LAPACK frame (a batch below tensors.CLOSED_FORM_MIN) is copied. The
full-sphere rule of ``sphere`` is never passed to the solver;
closure-validate uses it for independent forward checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels
from .tensors import _QVEC_OF_MATRIX, eig_sym3, to_matrix

__all__ = [
    "PhysicalityError", "bingham_map_batch", "BatchClosureResult",
    "spread_bound", "m4_contract_frame", "mq_apply_frame", "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-11
MAX_ITER = 50

# the fitted starts, (degree, edge): a fit spans s_1 in [edge, 1/3]. A point
# with s_1 >= the second fit's edge takes the second, any other the first,
# evaluated at its edge below it. FIT_TOL is the residual the node solves reach.
FITS = ((56, 0.008), (36, 0.05))
FIT_TOL = 1e-13


class PhysicalityError(ValueError):
    """Q left the admissible eigenvalue range for the requested margin."""


@dataclass(frozen=True)
class BatchClosureResult:
    """Vectorized closure solves for a batch of Q tensors.

    B is held by its eigenvalues b in the frame shared with Q; B5, B in the
    lab frame, is formed on its first read. Every array is an (N, ...) view
    of rows with the batch axis last (a LAPACK rotation excepted).
    """

    rotation: np.ndarray   # (N, 3, 3) eigenvector columns shared by Q and B
    q_eigs: np.ndarray     # (N, 3) eigenvalues of Q, ascending
    b: np.ndarray          # (N, 3) eigenvalues of B, in the order of q_eigs
    log_z: np.ndarray      # (N,)
    pair: np.ndarray       # (N, 3, 3) <m_i^2 m_j^2> in the eigenframe
    residual: np.ndarray   # (N,)
    iterations: np.ndarray    # (N,) Newton updates
    used_damping: np.ndarray  # (N,) a line search shortened some update
    spread: np.ndarray     # (N,) eigenvalue spread max(b) - min(b)

    @cached_property
    def B5(self):
        """(N, 5) lab-frame qvecs of B, a view of rows (5, N):
        B_ij = sum_k R_ik b_k R_jk for the five (i, j) of a qvec, component
        by component."""
        r = _component_major(self.rotation)
        return np.einsum("ikn,kn,ikn->in", r[_QVEC_I], self.b.T, r[_QVEC_J]).T


# the (i, j) of the five qvec components q11, q22, q12, q13, q23
_QVEC_I, _QVEC_J = np.divmod(_QVEC_OF_MATRIX, 3)


def _component_major(m):
    """(..., 3, 3) -> contiguous rows (3, 3, N). A view of m where m is
    already a view of such rows, as a closed-form rotation and every pair
    are; a copy of a LAPACK rotation. At N = 4096 an einsum product over
    N-long rows takes ~60% of numpy's matmul over N 3x3 matrices (~45 ns a
    product), a copy included."""
    return np.ascontiguousarray(np.reshape(m, (-1, 9)).T).reshape(3, 3, -1)


# ---------------------------------------------------------------------------
# the fitted start
# ---------------------------------------------------------------------------

# (b1 - b3, b2 - b3) -> trace-free b, times the -1/2 of b_i - b_3 = -y_i / (2 s_i)
_TRACE_FREE = -0.5 * np.array([[2.0, -1.0], [-1.0, 2.0], [-1.0, -1.0]]) / 3.0
# points per block of a fit's node solves
_NODE_BLOCK = 1024
# elements of the start's table U_k, (degree + 1, 2 block) for a block's u
# and v: a fit's start takes blocks of _START_TABLE / (2 (degree + 1))
# points, 1024 at degree 56 and 1577 at degree 36, so that the table and the
# GEMM's product, as large, are ~1.9 MB together at either degree, below the
# moment kernel's arrays on a 64^2 grid. glibc's malloc trims its heap at
# twice the largest block it has freed, and with the degree-36 table in
# blocks of 1024 (1.2 MB together) a 64^2 field solve could re-fault ~640
# pages a call.
_START_TABLE = 57 * 2048


def _fit_map(edge):
    """(4, 3) map of s = lambda + 1/3 to the numerators and denominators of
    (u, v), as linear forms, using s1 + s2 + s3 = 1:
    u = (2 s1 - 1/3 - edge) / (1/3 - edge) maps s1 in [edge, 1/3] and
    v = (4 s2 - s1 - 1) / (1 - 3 s1) maps s2 in [s1, (1 - s1)/2] onto [-1, 1].
    Rows: the two numerators, doubled (the table holds 2 T_k, see
    _start_block), then the two denominators. v's denominator carries
    2^-40 (s1 + s2 + s3), so that it stays positive at Q = 0, where v is 0/0,
    and moves v by a relative 2^-40 / (1 - 3 s1) elsewhere."""
    slope = 2.0 / (1.0 / 3.0 - edge)
    shift = -(1.0 / 3.0 + edge) / (1.0 / 3.0 - edge)
    return (np.array([[slope + shift, -2.0, 1.0, -2.0 + 2.0**-40],
                      [shift, 3.0, 1.0, 1.0 + 2.0**-40],
                      [shift, -1.0, 1.0, 1.0 + 2.0**-40]]) * [2.0, 2.0, 1.0, 1.0]).T.copy()


def _doubling(degree):
    """Steps (m, lo, hi, rev) that fill U_k = 2 T_k, k <= degree, by doubling:
    U_(m+j) = U_m U_j - U_(m-j), j = 1..k, rows hi from rows lo and rev."""
    steps, m = [], 1
    while m < degree:
        k = min(m, degree - m)
        steps.append((m, slice(1, k + 1), slice(m + 1, m + k + 1),
                      slice(m - 1, m - k - 1 if m > k else None, -1)))
        m += k
    return steps


@lru_cache(maxsize=None)
def _start_fit(degree, edge):
    """The fitted start of one (degree, edge) of FITS: (coefficients, worst
    node residual, _fit_map(edge), _doubling(degree)).

    y1 and y2 are interpolated at the (degree + 1)^2 tensor Chebyshev
    points of the first kind in (u, v), which avoid the isotropic corner;
    the nodes are solved cold by newton_batch to FIT_TOL in blocks of
    _NODE_BLOCK from the Gaussian limit b = -1/(2 s), each block on the
    rule for the spread of its smallest s1. coefficients[(c, k), j]
    multiplies U_j(u) U_k(v) in y_c, with U = 2 T (the table of
    _start_block). Each fit is built once per process, on the first closure
    solve with a point in its range.
    """
    n = degree + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    node = np.cos(theta)
    s1, v = np.meshgrid(0.5 * ((1.0 / 3.0 - edge) * node + 1.0 / 3.0 + edge),
                        node, indexing="ij")
    s2 = s1 + 0.5 * (v + 1.0) * (0.5 * (1.0 - s1) - s1)
    s = np.stack([s1, s2, 1.0 - s1 - s2], axis=-1).reshape(-1, 3)
    w = s - 1.0 / 3.0
    b = -0.5 / s
    b -= b.mean(axis=1, keepdims=True)
    res = np.empty(len(w))
    for i in range(0, len(w), _NODE_BLOCK):
        blk = slice(i, i + _NODE_BLOCK)
        # a node's spread is at most 1.19 / (2 s1), inside bingham_map_batch's slack
        nodes = _kernels.x_rule(_kernels.nodes_for_spread(1.3 / (2.0 * s[blk, 0].min()) + 6.0))
        b[blk], res[blk] = _kernels.newton_batch(
            w[blk], b[blk], nodes, tol=FIT_TOL, maxit=MAX_ITER)[:2]
    if not np.all(res <= FIT_TOL):
        raise RuntimeError(f"fitted start: a node solve ended at residual {res.max():.3e}")
    y = (2.0 * s[:, :2] * (b[:, 2:] - b[:, :2])).reshape(n, n, 2)
    # discrete orthogonality of T_0..T_{n-1} at the n first-kind points:
    # coefficients of y_c are t y_c(u, v)^T t^T, rows k in v, columns j in u;
    # the 1/4 turns them into coefficients of U_j U_k (exact)
    t = np.cos(np.outer(np.arange(n), theta)) * (2.0 / n)
    t[0] *= 0.5
    coef = (t @ y.transpose(2, 1, 0) @ t.T).reshape(2 * n, n) * 0.25
    return coef, float(res.max()), _fit_map(edge), _doubling(degree)


def _fitted_start(w):
    """Trace-free start b0 (N, 3), a view of rows (3, N), for the ascending
    eigenvalues w (N, 3) of Q.

    Each point takes one fit of FITS by its own s1: the second (degree 36)
    from its edge s1 = 0.05 up, the first (degree 56) below. A batch whose
    points all take one fit is evaluated in place; a mixed one gathers each
    fit's points and scatters their starts back. A point with s1 below the
    first fit's edge is evaluated at u = -1 with its own v, where y is
    within 1% of its limit 1; 1/(2 s) is capped at EXPONENT_BUDGET.
    """
    w = w.T
    high = w[0] + 1.0 / 3.0 >= FITS[1][1]
    k = np.count_nonzero(high)
    if k == 0 or k == len(high):
        return _start_rows(_start_fit(*FITS[int(k > 0)]), w).T
    b0 = np.empty(w.shape)
    for fit, part in zip(FITS, (~high, high)):
        b0[:, part] = _start_rows(_start_fit(*fit), w[:, part])
    return b0.T


def _start_rows(fit, w):
    """The start of rows w (3, N) on one fit, in blocks of _START_TABLE /
    (2 (degree + 1)) points."""
    block = _START_TABLE // (2 * fit[0].shape[1])
    if w.shape[1] <= block:
        return _start_block(fit, w)
    b0 = np.empty(w.shape)
    for i in range(0, w.shape[1], block):
        b0[:, i:i + block] = _start_block(fit, w[:, i:i + block])
    return b0


def _start_block(fit, w):
    """The start of one block of rows w (3, n) on a fit of _start_fit, as
    rows (3, n): a real, contiguous table of U_k = 2 T_k, row k holding U_k
    at the block's n values of u and then of v, filled by doubling; one GEMM
    in u, one einsum in v to y (2, n) and one (3, 2) x (2, n) product to b.
    Each doubling step acts on both coordinates at once, and the GEMM reads
    the u half of the rows in place.

    The table and the GEMM's product share one allocation. As two arrays of
    half its size, glibc's malloc handed them back to the system after each
    1000-point solve (its trim threshold follows the largest block it has
    freed), and closure-validate re-faulted ~413 pages a run in the start
    and the Newton solve that follows it; as one, it faults none."""
    coef, _, fit_map, doubling = fit
    k, n = coef.shape[1], w.shape[1]
    s = w + 1.0 / 3.0
    h = fit_map @ s
    tab = np.empty((2, k, 2 * n))
    u = tab[0]
    u[0] = 2.0
    # u and v lie in [-1, 1] up to rounding except u below the edge, held at -1
    x = u[1].reshape(2, n)
    np.maximum(np.divide(h[:2], h[2:], out=x), -2.0, out=x)
    for m, lo, hi, rev in doubling:
        t = u[hi]
        np.multiply(u[lo], u[m], out=t)
        t -= u[rev]
    g = np.matmul(coef, u[:, :n], out=tab[1].reshape(2 * k, n))
    y = np.einsum("ckn,kn->cn", g.reshape(2, k, n), u[:, n:])
    return _TRACE_FREE @ (y / np.maximum(s[:2], 0.5 / _kernels.EXPONENT_BUDGET))


def bingham_map_batch(q5, delta=0.0, tol=DEFAULT_TOL):
    """Invert the moment map for a batch of qvecs (N, 5).

    Every point starts from the fitted inverse map (_fitted_start) of its
    eigenvalues. Raises ValueError for tol below 1e-13, PhysicalityError
    for a non-finite Q (naming its first row, before any eigendecomposition)
    or Q outside the margin delta, and RuntimeError on non-convergence or a
    spread past the one its rule was sized for.
    """
    if tol < 1e-13:
        raise ValueError("tol below 1e-13 is not resolvable by the quadrature")
    q5 = np.asarray(q5, dtype=float).reshape(-1, 5)
    if not np.isfinite(q5).all():
        bad = np.flatnonzero(~np.isfinite(q5).all(axis=1))
        raise PhysicalityError(f"non-finite Q in batch at index {bad[0]}")
    w, rot = eig_sym3(to_matrix(q5))
    margin = np.minimum(w.T + 1.0 / 3.0, 2.0 / 3.0 - w.T)
    if not margin.min() >= delta:
        k = int(np.argmin(margin.min(axis=0)))
        raise PhysicalityError(
            f"non-physical Q in batch (worst margin {margin[:, k].min():.3e} < "
            f"delta={delta:.3e} at index {k}); eigenvalues must stay in "
            f"[-1/3 + delta, 2/3 - delta]")

    b0 = _fitted_start(w)
    # one x-rule for the batch, sized from the start's spread plus slack
    est = max(8.0, 1.3 * float(_spread(b0).max()) + 6.0)
    b, res, iters, damped, lnz, _, pair = _kernels.newton_batch(
        w, b0, _kernels.x_rule(_kernels.nodes_for_spread(est)), tol=tol, maxit=MAX_ITER)
    if not res.max() <= tol:
        k = int(np.argmax(res))
        raise RuntimeError(
            f"closure Newton failed to converge: worst residual {res[k]:.3e} "
            f"after {int(iters[k])} iterations (tol {tol:.1e}); "
            f"q eigenvalues {w[k]}")
    spread = _spread(b)
    if spread.max() > est:
        raise RuntimeError(f"closure solve ended at spread {spread.max():.3e}, past "
                           f"the estimate {est:.3e} its x-rule was sized for")
    return BatchClosureResult(rot, w, b, lnz, pair, res, iters, damped, spread)


def _spread(b):
    """max(b) - min(b) per point of b (N, 3), elementwise over its rows."""
    return b.T.max(axis=0) - b.T.min(axis=0)


# ---------------------------------------------------------------------------
# eigenframe contractions (shared by the homogeneous and field settings)
# ---------------------------------------------------------------------------

_DIAG = (np.arange(3), np.arange(3))


def _m4_in_frame(pair, at):
    """(M4 : A) in the eigenframe, from pair[i, j] = <m_i^2 m_j^2> and A in
    that frame, both with their 3x3 axes first, (3, 3, ...); only the
    symmetric part of A contributes. Any memory layout: homogeneous_rhs
    passes transposed views of (N, 3, 3) stacks."""
    out = pair * (at + at.swapaxes(0, 1))
    out[_DIAG] = np.einsum("kj...,jj...->k...", pair, at)
    return out


def m4_contract_frame(rotation, pair, A):
    """(M4 : A) in the lab frame from eigenframe pair moments, as rows.

    rotation, pair (pair[i, j] = <m_i^2 m_j^2>) and A, arbitrary (only its
    symmetric part contributes), have their 3x3 axes first, (3, 3, ...), and
    broadcast over the rest; the field passes contiguous (3, 3, N) rows
    (_component_major), on which the einsum products R^T A R and R M R^T
    run over N-long rows.
    """
    at = np.einsum("il...,lj...->ij...", np.einsum("ki...,kl...->il...", rotation, A), rotation)
    m = _m4_in_frame(pair, at)
    return np.einsum("il...,jl...->ij...", np.einsum("ik...,kl...->il...", rotation, m), rotation)


def mq_apply_frame(q_mat, rotation, pair, A):
    """M_Q(A) = A/3 + Q.A - A:M4 from eigenframe moments, every argument
    with its 3x3 axes first, (3, 3, ...) (m4_contract_frame)."""
    return (A / 3.0 + np.einsum("ik...,kj...->ij...", q_mat, A)
            - m4_contract_frame(rotation, pair, A))


# ---------------------------------------------------------------------------
# a priori bound on the eigenvalue spread of B
# ---------------------------------------------------------------------------

def spread_bound(delta):
    """Spread bound Lambda(delta) = (4/delta) ln(2 meas(V) / (delta meas(U))).

    V is the polar-cap pair {m3^2 > delta/2}; U is the equatorial patch
    {m3^2 < delta/8, m2^2 < delta/4}. Both eigenvalue orderings in the
    underlying argument lead to congruent patches, so a single formula
    covers them.

    meas(U), the integral of 4 arcsin(b / sqrt(1 - x^2)) over |x| < a, is
    the folded 12-point x_rule in x = a t: the integrand's nearest
    singularity lies at |t| >= 4.69 for every delta < 1/3, so the rule is
    exact to rounding.
    """
    if not 0.0 < delta < 1.0 / 3.0:
        raise ValueError("delta must lie in (0, 1/3)")
    a = np.sqrt(delta / 8.0)       # |m3| extent of U
    b = np.sqrt(delta / 4.0)       # |m2| extent of U
    meas_v = 4.0 * np.pi * (1.0 - np.sqrt(delta / 2.0))
    t2, _, w = _kernels.x_rule(12)[:3]
    # w carries the 2 pi of the azimuth
    meas_u = a / (2.0 * np.pi) * (w @ (4.0 * np.arcsin(b / np.sqrt(1.0 - a * a * t2))))
    return float(4.0 / delta * np.log(2.0 * meas_v / (delta * meas_u)))
