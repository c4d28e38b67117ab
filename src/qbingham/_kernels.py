"""Batched evaluation of Bingham moments in the eigenvalue frame.

The density exp(b1 m1^2 + b2 m2^2 + b3 m3^2) on the unit sphere is written
in x = m3 and the azimuth phi. With u = 1 - x^2, c = cos 2 phi and
b1 cos^2 phi + b2 sin^2 phi = s + a c, the phi integrals of 1, c and c^2
against e^{kappa c}, kappa = u a, are 2 pi I0, 2 pi I1 and 2 pi (I0 - I1 /
kappa) (Abramowitz & Stegun 9.6.19; Mardia & Jupp, Directional Statistics,
2000, section 9.4). As m1^2 = u (1 + c) / 2 and m2^2 = u (1 - c) / 2, ln Z,
every <m_i^2> and every <m_i^2 m_j^2> is a 1-D integral in x of these three
weights times polynomials in x^2: a Gauss-Legendre rule in x, folded onto
x >= 0, with scipy's scaled Bessel functions, batched over points.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import i0e, i1e

__all__ = ["x_rule", "nodes_for_spread", "newton_batch", "EXPONENT_BUDGET"]

# hard cap on the eigenvalue spread of B fed to the exponential
EXPONENT_BUDGET = 300.0


def _legendre_half(n):
    """Nodes x >= 0 and weights of the n-point Gauss-Legendre rule. Next to
    x = 1, where a prolate density has its mass, leggauss's weights are off
    by up to 1.5e-12 (n = 96) relative; Newton steps on P_n in long double,
    with w = 2 / ((1 - x^2) P_n'(x)^2), make them exact to rounding."""
    x = leggauss(n)[0][n // 2:].astype(np.longdouble)
    for _ in range(2):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        u = (1 - x) * (1 + x)
        dp = n * (p0 - x * p1) / u
        x = x - p1 / dp
    return x, 2 / (u * dp * dp)


@lru_cache(maxsize=None)
def x_rule(n_x):
    """Folded n_x-point Gauss-Legendre rule in x = m3: (x^2, u, w, table).

    Mirrored nodes x <-> -x carry the merged weight, times the 2 pi of the
    azimuth, so w sums to 4 pi; x = 0 (odd n_x) is kept once. table[j, k]
    holds, for the phi weight j (I0, I1, I0 - I1/kappa) at node k, the
    coefficients of <m1^2>, <m2^2>, <m3^2> and of the row-major 3x3 pair
    moments <m_i^2 m_j^2>.
    """
    n_x = int(n_x)
    x, w = _legendre_half(n_x)
    x2, u, w = (np.asarray(v, dtype=float) for v in (x * x, (1 - x) * (1 + x), 4 * np.pi * w))
    if n_x % 2:
        w[0] *= 0.5
    h, q, z = 0.5 * u, 0.25 * u * u, np.zeros_like(u)
    xh = x2 * h
    table = np.stack([
        np.stack([h, h, x2, q, q, xh, q, q, xh, xh, xh, x2 * x2], axis=1),
        np.stack([h, -h, z, 2 * q, z, xh, z, -2 * q, -xh, xh, -xh, z], axis=1),
        np.stack([z, z, z, q, -q, z, -q, q, z, z, z, z], axis=1)])
    return x2, u, w, table


def nodes_for_spread(spread):
    """Node count n_x of the x-rule (ceil(n_x / 2) folded nodes) for a given
    eigenvalue spread of b; it grows like sqrt(spread), capped at
    EXPONENT_BUDGET. Against 30-digit mpmath over 48 shapes of b per spread
    (every axis order) at spreads 2 to 300, the worst |error| is 2.8e-14 in
    ln Z, 3.9e-15 in <m_i^2> and 8.1e-15 in <m_i^2 m_j^2>; two nodes fewer
    would give 1.1e-13, 1.6e-14 and 8.2e-14.
    """
    s = min(max(2.0, float(spread)), EXPONENT_BUDGET)
    return int(5.4 * np.sqrt(s) + 9.0)


def _moments_batch_np(b, x2, u, w, table):
    """ln Z, second moments <m_i^2>, pair moments <m_i^2 m_j^2> per point."""
    top = b.max(axis=1)
    a = 0.5 * (b[:, 0] - b[:, 1])
    # I1(kappa) / kappa -> 1/2 at kappa = 0, reached through a tiny floor
    kap = np.maximum(np.multiply.outer(np.abs(a), u), 1e-300)
    # e^{u s} I_k(u a) = e^{u max(b1, b2)} I_k(kappa) e^{-kappa}, with x^2 + u = 1
    ew = np.exp(np.multiply.outer(b[:, 2] - top, x2)
                + np.multiply.outer(np.maximum(b[:, 0], b[:, 1]) - top, u))
    ew *= w
    e0 = i0e(kap)
    e0 *= ew
    e1 = i1e(kap)
    e1 *= ew
    e2 = e1 / kap
    np.subtract(e0, e2, out=e2)
    e1 *= np.sign(a)[:, None]
    z = e0.sum(axis=1)
    mom = e0 @ table[0] + e1 @ table[1] + e2 @ table[2]
    mom /= z[:, None]
    return np.log(z) + top, mom[:, :3], mom[:, 3:].reshape(-1, 3, 3)


def newton_batch(q_eigs, b_init, nodes, tol, maxit):
    """Solve <mm - I/3>_f(b) = diag(q_eigs) for diagonal b by a damped Newton
    ascent on b:q - ln Z, batched over points.

    nodes is the tuple (x^2, u, w, table) of x_rule. Every trial point is
    evaluated once, by _moments_batch_np: its ln Z feeds the Armijo test, and
    an accepted trial's moments give the next sweep's residual and Hessian.
    Returns (b, residual, iterations, used_damping, lnz, second, pair); the
    moments belong to the returned b. Points that exceed the exponent budget
    come back with residual = inf.
    """
    qe = np.asarray(q_eigs, dtype=float)
    b = np.array(b_init, dtype=float)
    n = qe.shape[0]
    res = np.full(n, np.inf)
    iters = np.zeros(n, dtype=np.int64)
    damped = np.zeros(n, dtype=bool)
    lnz, s, p = _moments_batch_np(b, *nodes)
    idx = np.arange(n)
    for sweep in range(int(maxit) + 1):
        r = s[idx] - (qe[idx] + 1.0 / 3.0)
        rn = np.sqrt((r**2).sum(axis=1))
        res[idx] = rn
        live = ~(rn < tol)  # a NaN residual stays live, as a failure
        idx, r = idx[live], r[live]
        if idx.size == 0 or sweep == maxit:
            break
        iters[idx] += 1
        si = s[idx]
        c = p[idx] - si[:, :, None] * si[:, None, :]
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
        lt, st, pt = _moments_batch_np(bt, *nodes)
        # backtracking line search on the concave objective; skipped in the
        # quadratic endgame where rounding noise dominates the comparison.
        # Rows leave the search once they pass the Armijo test.
        ls = np.where(res[idx] > 1e-5)[0]
        if ls.size:
            qls = qe[idx[ls]]
            obj0 = (b[idx[ls]] * qls).sum(axis=1) - lnz[idx[ls]]
            slack = 1e-12 * (1.0 + np.abs(obj0))
            t = np.ones(ls.size)
            for _ls in range(40):
                bad = (bt[ls] * qls).sum(axis=1) - lt[ls] < obj0 - slack
                if not bad.any():
                    break
                ls, qls, obj0, slack, t = ls[bad], qls[bad], obj0[bad], slack[bad], t[bad]
                t *= 0.5
                bt[ls] = b[idx[ls]] - t[:, None] * step[ls]
                lt[ls], st[ls], pt[ls] = _moments_batch_np(bt[ls], *nodes)
                damped[idx[ls]] = True
        b[idx], lnz[idx], s[idx], p[idx] = bt, lt, st, pt
        over = bt.max(axis=1) - bt.min(axis=1) > EXPONENT_BUDGET
        res[idx[over]] = np.inf
        idx = idx[~over]
    return b, res, iters, damped, lnz, s, p
