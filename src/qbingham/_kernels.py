"""Batched evaluation of Bingham moments in the eigenvalue frame.

The density exp(b1 m1^2 + b2 m2^2 + b3 m3^2) on the unit sphere is written
in x = m3 and the azimuth phi. With u = 1 - x^2, c = cos 2 phi and
b1 cos^2 phi + b2 sin^2 phi = s + a c, the phi integrals of 1, c and c^2
against e^{kappa c}, kappa = u a, are 2 pi I0, 2 pi I1 and 2 pi (I0 - I1 /
kappa) (Abramowitz & Stegun 9.6.19; Mardia & Jupp, Directional Statistics,
2000, section 9.4). As m1^2 = u (1 + c) / 2 and m2^2 = u (1 - c) / 2, ln Z,
every <m_i^2> and every <m_i^2 m_j^2> is a 1-D integral in x of these three
weights times polynomials in x^2: a Gauss-Legendre rule in x, folded onto
x >= 0, batched over points. I0 and I1 come from their power series in
kappa^2 / 4 (A&S 9.6.10), summed together, with e^{-kappa} left in the
exponent as the scaled functions I0e and I1e would carry it.
Each rule carries an exponent table and a moment table (x_rule), so that
an evaluation is two matrix products at any batch size.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["x_rule", "nodes_for_spread", "newton_batch", "EXPONENT_BUDGET"]

# hard cap on the eigenvalue spread of B fed to the exponential
EXPONENT_BUDGET = 300.0
# the largest |a| = |b1 - b2| / 2, and so kappa, whose Bessel weights are
# evaluated: four times what a point inside the budget reaches, so that the
# line search sees the true ln Z of a trial step past the budget, while the
# series (at most e^kappa) stays far below overflow at e^709
_KAPPA_MAX = 2.0 * EXPONENT_BUDGET


def _legendre_half(n):
    """Nodes x >= 0, ascending, and weights of the n-point Gauss-Legendre
    rule, by four Newton steps on P_n in long double from Tricomi's
    asymptotic nodes (1 - 1/(8 n^2) + 1/(8 n^3)) cos(pi (4k - 1) / (4n + 2)),
    with w = 2 / ((1 - x^2) P_n'(x)^2). Exact to rounding also next to
    x = 1, where a prolate density has its mass and numpy's leggauss weights
    are off by up to 1.5e-12 (n = 96) relative. The cosine is written as
    sin(pi (n + 1 - 2k) / (2n + 1)), so that the middle node of an odd n is
    exactly 0."""
    k = np.arange((n + 1) // 2, 0, -1)
    x = (1 - 1 / (8 * n**2) + 1 / (8 * n**3)) * np.sin(
        np.pi * (n + 1 - 2 * k).astype(np.longdouble) / (2 * n + 1))
    for _ in range(4):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        u = (1 - x) * (1 + x)
        dp = n * (p0 - x * p1) / u
        x = x - p1 / dp
    return x, 2 / (u * dp * dp)


@lru_cache(maxsize=None)
def x_rule(n_x):
    """Folded n_x-point Gauss-Legendre rule in x = m3: (x^2, u, w, table, expo).

    Mirrored nodes x <-> -x carry the merged weight, times the 2 pi of the
    azimuth, so w sums to 4 pi; x = 0 (odd n_x) is kept once. expo (3, 1 + P)
    maps b to a / 2 and to b3 x^2 + s u at the P nodes. table (3 P, 13), w
    folded in, maps the node values of e I0, e S1 and e I1 (S1 = 2 I1 / kappa,
    I0 - I1 / kappa = I0 - S1 / 2) to <m1^2>, <m2^2>, <m3^2>, the row-major
    3x3 pair moments <m_i^2 m_j^2> and, in its last column, Z.
    """
    n_x = int(n_x)
    x, w = _legendre_half(n_x)
    x2, u, w = (np.asarray(v, dtype=float) for v in (x * x, (1 - x) * (1 + x), 4 * np.pi * w))
    if n_x % 2:
        w[0] *= 0.5
    h, q, z, one = 0.5 * u, 0.25 * u * u, np.zeros_like(u), np.ones_like(u)
    xh = x2 * h
    # columns of the phi weights I0, I1 and I0 - I1 / kappa
    t0 = np.stack([h, h, x2, q, q, xh, q, q, xh, xh, xh, x2 * x2, one], axis=1)
    t1 = np.stack([h, -h, z, 2 * q, z, xh, z, -2 * q, -xh, xh, -xh, z, z], axis=1)
    t2 = np.stack([z, z, z, q, -q, z, -q, q, z, z, z, z, z], axis=1)
    table = np.concatenate([t0 + t2, -0.5 * t2, t1]) * np.tile(w, 3)[:, None]
    expo = np.array([np.r_[0.25, h], np.r_[-0.25, h], np.r_[0.0, x2]])
    return x2, u, w, table, expo


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


def _series_terms(kappa):
    """Last index n of the series of _bessel_series kept for arguments up to
    kappa. The dropped terms T_k = t^k / (k!)^2 of S0 fall by at most
    r = t / (n+1)^2 < 1/2 each, so their sum, at most 2 r T_n, is below
    2^-53 of S0; S1's terms are S0's over k + 1, which weighs its tail less."""
    t = 0.25 * kappa * kappa
    n, term, total = 0, 1.0, 1.0
    while True:
        r = t / ((n + 1) * (n + 1))
        if r < 0.5 and term * r < 2.0**-54 * total:
            return n
        n += 1
        term *= r
        total += term


@lru_cache(maxsize=None)
def _series_factors(n):
    """(n, 2, 1, 1) factors 1 / k^2 and 1 / (k (k + 1)), for k = n down to 1."""
    k = np.arange(n, 0, -1, dtype=float)
    return 1.0 / np.stack([k * k, k * (k + 1)], axis=1)[:, :, None, None]


def _bessel_series(t, n):
    """S0 = I0(kappa) and S1 = 2 I1(kappa) / kappa, stacked (2, P, N), for
    t = kappa^2 / 4 of shape (P, N): the power series of A&S 9.6.10 to the
    term t^n, summed by Horner's rule in ratio form, s <- 1 + s t / k^2 and
    s <- 1 + s t / (k (k + 1)). Every partial sum is at most S0 <= e^kappa."""
    fac = _series_factors(max(1, n))
    ser = t * fac[0]
    ser += 1.0
    for f in fac[1:]:
        ser *= t
        ser *= f
        ser += 1.0
    return ser


def _moments_batch_np(b, x2, u, w, table, expo):
    """ln Z, second moments <m_i^2>, pair moments <m_i^2 m_j^2> per point,
    on a rule of x_rule (whose x2 and w enter through expo and table).

    b - max(b) times expo gives a / 2 and the exponent at every node; the phi
    weights e^{u s} I0 and e^{u s} I1, s = (b1 + b2) / 2, from one
    _bessel_series sized for the batch's largest kappa, times table give the
    moments and Z. A row with |a| past _KAPPA_MAX, which only a trial step
    far past the exponent budget reaches, is not evaluated: its ln Z is inf,
    so the line search backtracks it.
    """
    top = np.maximum(np.maximum(b[:, 0], b[:, 1]), b[:, 2])
    g = (b - top[:, None]) @ expo                     # a / 2, then the exponent
    ha = g[:, 0]
    # kappa <= |a| as u <= 1; a NaN row does not size the series
    amax = float(np.fmax.reduce(np.abs(ha), initial=0.0))
    far = None
    if amax > 0.5 * _KAPPA_MAX:
        far = np.abs(ha) > 0.5 * _KAPPA_MAX
        g[far] = 0.0
        top[far] = 0.0
        amax = float(np.fmax.reduce(np.abs(ha), initial=0.0))
    hk = np.multiply.outer(ha, u)                     # kappa / 2, signed as a
    ser = _bessel_series(hk * hk, _series_terms(2.0 * amax))
    # e^{b3 x^2 + s u - top}, the density outside the phi integral
    ser *= np.exp(g[:, 1:])
    i0, s1 = ser
    mom = np.concatenate((i0, s1, hk * s1), axis=1) @ table
    z = mom[:, 12]
    lnz = np.log(z) + top
    mom[:, :12] /= z[:, None]
    if far is not None:
        lnz[far] = np.inf
    return lnz, mom[:, :3], mom[:, 3:12].reshape(-1, 3, 3)


def newton_batch(q_eigs, b_init, nodes, tol, maxit):
    """Solve <mm - I/3>_f(b) = diag(q_eigs) for diagonal b by a damped Newton
    ascent on b:q - ln Z, batched over points.

    nodes is the tuple (x^2, u, w, table, expo) of x_rule. Every trial point
    is evaluated once, by _moments_batch_np: its ln Z feeds the Armijo test,
    and an accepted trial's moments give the next sweep's residual and
    Hessian. When every start meets tol, the first evaluation is the only one.
    Returns (b, residual, iterations, used_damping, lnz, second, pair); the
    moments belong to the returned b. Points that exceed the exponent budget
    come back with residual = inf.
    """
    qe = np.asarray(q_eigs, dtype=float)
    b = np.array(b_init, dtype=float)
    iters = np.zeros(len(qe), dtype=np.int64)
    damped = np.zeros(len(qe), dtype=bool)
    lnz, s, p = _moments_batch_np(b, *nodes)
    r = s - (qe + 1.0 / 3.0)
    res = np.sqrt((r**2).sum(axis=1))
    live = ~(res < tol)  # a NaN residual stays live, as a failure
    if not live.any():
        return b, res, iters, damped, lnz, s, p
    idx, r = np.flatnonzero(live), r[live]
    for sweep in range(int(maxit)):
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
        r = s[idx] - (qe[idx] + 1.0 / 3.0)
        rn = np.sqrt((r**2).sum(axis=1))
        res[idx] = rn
        live = ~(rn < tol)
        idx, r = idx[live], r[live]
        if idx.size == 0:
            break
    return b, res, iters, damped, lnz, s, p
