"""Batched evaluation of Bingham moments in the eigenvalue frame.

The density exp(b1 m1^2 + b2 m2^2 + b3 m3^2) on the unit sphere is reduced
to a Gauss-Legendre rule in x = m3 times a uniform rule in the azimuth phi.
The integrand depends only on x^2 and cos^2 phi, so the rule is folded onto
x >= 0 and phi in [0, pi/2] with the weights of mirrored nodes merged
(Mardia & Jupp, Directional Statistics, 2000, section 9.4). Every routine
is batched over points and written in numpy.
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["reduced_nodes", "nodes_for_spread", "newton_batch", "EXPONENT_BUDGET"]

# hard cap on the eigenvalue spread of B fed to the exponential
EXPONENT_BUDGET = 300.0


def reduced_nodes(n_x, n_phi):
    """Folded quadrature nodes (m1^2, m2^2, m3^2, w) for eigenframe sphere
    integrals of functions of (m1^2, m2^2, m3^2).

    Folds the n_x-point Gauss-Legendre rule in x = m3 times the n_phi-point
    uniform rule in phi on [0, pi) onto x >= 0 and phi in [0, pi/2]. Mirrored
    nodes x <-> -x and phi <-> pi - phi carry the merged weight; the
    self-mirrored nodes x = 0 (odd n_x), phi = 0 and phi = pi/2 (even n_phi)
    are kept once. The result has ceil(n_x/2) * (n_phi//2 + 1) nodes and
    integrates exactly what the unfolded n_x * n_phi rule does; the weights
    sum to 4 pi.
    """
    n_x, n_phi = int(n_x), int(n_phi)
    x, wx = leggauss(n_x)
    half = n_x // 2
    x, wx = x[half:], wx[half:] * 2.0      # leggauss is symmetric about 0
    if n_x % 2:
        wx[0] *= 0.5                       # x = 0 is its own mirror
    k = np.arange(n_phi // 2 + 1)
    phi = np.pi * k / n_phi
    wphi = np.full(k.size, 4.0 * np.pi / n_phi)
    wphi[0] *= 0.5                         # phi = 0 is its own mirror
    if n_phi % 2 == 0:
        wphi[-1] *= 0.5                    # so is phi = pi/2
    c2 = np.cos(phi) ** 2
    one = np.ones_like(c2)
    m3 = np.outer(x**2, one).ravel()
    m1 = np.outer(1.0 - x**2, c2).ravel()
    m2 = np.outer(1.0 - x**2, 1.0 - c2).ravel()
    w = np.outer(wx, wphi).ravel()
    return m1, m2, m3, w


def nodes_for_spread(spread):
    """Node counts (n_x, n_phi) that integrate exp(b.m^2) to ~3e-13 for a
    given b spread.

    The counts are those of the unfolded tensor-product rule; reduced_nodes
    folds it to about a quarter as many nodes. Calibrated by sweeping
    prolate/oblate/biaxial worst cases against high-order reference rules;
    the need grows like sqrt(spread), capped consistently with
    EXPONENT_BUDGET.
    """
    s = max(2.0, float(spread))
    n = int(min(140.0, 4.9 * np.sqrt(s) + 10.5))
    return n, n


def _moments_batch_np(b, m1, m2, m3, w):
    """ln Z, second moments <m_i^2>, pair moments <m_i^2 m_j^2> per point."""
    b = np.ascontiguousarray(b, dtype=float)
    shift = b.max(axis=1)
    ex = np.exp(b[:, 0:1] * m1[None, :] + b[:, 1:2] * m2[None, :]
                + b[:, 2:3] * m3[None, :] - shift[:, None])
    ex *= w[None, :]
    z = ex.sum(axis=1)
    g = np.stack([m1, m2, m3, m1 * m1, m2 * m2, m3 * m3, m1 * m2, m1 * m3, m2 * m3], axis=1)
    mom = ex @ g
    mom /= z[:, None]
    s = mom[:, :3]
    p = np.empty((b.shape[0], 3, 3))
    p[:, 0, 0] = mom[:, 3]
    p[:, 1, 1] = mom[:, 4]
    p[:, 2, 2] = mom[:, 5]
    p[:, 0, 1] = p[:, 1, 0] = mom[:, 6]
    p[:, 0, 2] = p[:, 2, 0] = mom[:, 7]
    p[:, 1, 2] = p[:, 2, 1] = mom[:, 8]
    lnz = np.log(z) + shift
    return lnz, s, p


def _lnz_batch_np(b, m1, m2, m3, w):
    b = np.ascontiguousarray(b, dtype=float)
    shift = b.max(axis=1)
    ex = np.exp(b[:, 0:1] * m1[None, :] + b[:, 1:2] * m2[None, :]
                + b[:, 2:3] * m3[None, :] - shift[:, None])
    return np.log(ex @ w) + shift


def _newton_batch_np(qe, b, m1, m2, m3, w, tol, maxit):
    """Damped Newton ascent on b:q - ln Z, vectorized over points."""
    n = qe.shape[0]
    b = b.copy()
    res = np.full(n, np.inf)
    iters = np.zeros(n, dtype=np.int64)
    damped = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    lnz_out = np.zeros(n)
    s_out = np.zeros((n, 3))
    p_out = np.zeros((n, 3, 3))
    for sweep in range(maxit + 1):
        idx = np.where(active)[0]
        if idx.size == 0:
            break
        lnz, s, p = _moments_batch_np(b[idx], m1, m2, m3, w)
        lnz_out[idx] = lnz
        s_out[idx] = s
        p_out[idx] = p
        r = s - (qe[idx] + 1.0 / 3.0)
        rn = np.sqrt((r**2).sum(axis=1))
        res[idx] = rn
        done = rn < tol
        active[idx[done]] = False
        idx = idx[~done]
        if idx.size == 0 or sweep == maxit:
            break
        iters[idx] += 1
        lnz, s, p, r = lnz[~done], s[~done], p[~done], r[~done]
        c = p - s[:, :, None] * s[:, None, :]
        # reduced symmetric Hessian in (b1, b2) with b3 eliminated
        h11 = c[:, 0, 0] - 2 * c[:, 0, 2] + c[:, 2, 2]
        h22 = c[:, 1, 1] - 2 * c[:, 1, 2] + c[:, 2, 2]
        h12 = c[:, 0, 1] - c[:, 0, 2] - c[:, 1, 2] + c[:, 2, 2]
        g1 = r[:, 0] - r[:, 2]
        g2 = r[:, 1] - r[:, 2]
        det = h11 * h22 - h12 * h12
        det = np.where(det > 1e-300, det, 1e-300)
        d1 = (h22 * g1 - h12 * g2) / det
        d2 = (h11 * g2 - h12 * g1) / det
        step = np.stack([d1, d2, -(d1 + d2)], axis=1)
        bt = b[idx] - step
        # backtracking line search on the concave objective; skipped in the
        # quadratic endgame where rounding noise dominates the comparison.
        # Rows leave the search once they pass the Armijo test.
        ls = np.where(res[idx] > 1e-5)[0]
        if ls.size:
            qls = qe[idx[ls]]
            obj0 = (b[idx[ls]] * qls).sum(axis=1) - lnz[ls]
            slack = 1e-12 * (1.0 + np.abs(obj0))
            t = np.ones(ls.size)
            for _ls in range(40):
                objt = (bt[ls] * qls).sum(axis=1) - _lnz_batch_np(bt[ls], m1, m2, m3, w)
                bad = objt < obj0 - slack
                if not bad.any():
                    break
                ls, qls, obj0, slack, t = ls[bad], qls[bad], obj0[bad], slack[bad], t[bad]
                t *= 0.5
                bt[ls] = b[idx[ls]] - t[:, None] * step[ls]
                damped[idx[ls]] = True
        b[idx] = bt
        spread = b[idx].max(axis=1) - b[idx].min(axis=1)
        if np.any(spread > EXPONENT_BUDGET):
            bad = idx[spread > EXPONENT_BUDGET]
            res[bad] = np.inf
            active[bad] = False
    return b, res, iters, damped, lnz_out, s_out, p_out


def newton_batch(q_eigs, b_init, nodes, tol=1e-11, maxit=60):
    """Solve <mm - I/3>_f(b) = diag(q_eigs) for diagonal b, batched.

    nodes is the 4-tuple (m1^2, m2^2, m3^2, w) of reduced_nodes. Returns
    (b, residual, iterations, used_damping, lnz, second, pair); the moments
    come from the final Newton evaluation, so they belong to the returned b.
    Points that exceed the exponent budget come back with residual = inf.
    """
    m1, m2, m3, w = nodes
    qe = np.ascontiguousarray(q_eigs, dtype=float)
    b0 = np.ascontiguousarray(b_init, dtype=float)
    return _newton_batch_np(qe, b0, m1, m2, m3, w, float(tol), int(maxit))
