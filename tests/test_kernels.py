import functools
import sys

import mpmath as mp
import numpy as np
import pytest

from qbingham import _kernels
from qbingham._kernels import x_rule
from qbingham.closure import DEFAULT_TOL, MAX_ITER, bingham_map_batch
from qbingham.sphere import bingham_moments, build_quadrature
from qbingham.tensors import from_matrix, to_matrix, uniaxial
from conftest import random_physical
from dense_ops import full_sphere_moments

# eigenframe shapes of b (before scaling by the spread and centring): with
# a = (b1 - b2) / 2, prolate and equatorial have kappa = 0, oblate a < 0
# and biaxial a > 0
SHAPES = {"prolate": (0.0, 0.0, 1.0), "equatorial": (1.0, 1.0, 0.0),
          "oblate": (0.0, 1.0, 1.0), "biaxial": (0.5, 0.0, 1.0)}


@pytest.mark.parametrize("n_x", [9, 26, 27, 100])
def test_x_rule_integrates_even_monomials(n_x):
    x2, u, w, table, expo = x_rule(n_x)
    assert len(x2) == (n_x + 1) // 2
    assert table.shape == (3 * len(x2), 13) and expo.shape == (3, 1 + len(x2))
    assert np.all(w > 0) and np.all(u > 0)
    np.testing.assert_allclose(x2 + u, 1.0, rtol=0, atol=2e-16)
    # int over the sphere of m3^(2k) is 4 pi / (2k + 1), exact up to degree
    # 2 n_x - 1; the high powers weigh the nodes nearest m3 = 1
    k = np.arange(n_x)
    np.testing.assert_allclose(np.power.outer(x2, k).T @ w, 4 * np.pi / (2 * k + 1),
                               rtol=1e-14, atol=0)


def _legendre_half_leggauss(n):
    """The half rule as built before the asymptotic start: numpy's leggauss
    nodes, refined by two Newton steps on P_n in long double."""
    from numpy.polynomial.legendre import leggauss
    x = leggauss(n)[0][n // 2:].astype(np.longdouble)
    for _ in range(2):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        u = (1 - x) * (1 + x)
        dp = n * (p0 - x * p1) / u
        x = x - p1 / dp
    return x, 2 / (u * dp * dp)


def test_half_rule_matches_the_leggauss_start():
    # every x_rule the package builds (spread_bound's 12 nodes, the
    # nodes_for_spread range, a_integrals' 200) and the default polar rule:
    # the same nodes to 1 ulp and weights to 2 ulp, which is the rounding of
    # the long-double roots both refine to (against 40-digit mpmath either
    # rule's weights are off by up to 2 ulp at n = 100-200)
    sizes = {12, 64, 200} | set(range(_kernels.nodes_for_spread(2.0),
                                      _kernels.nodes_for_spread(1e9) + 1))
    for n in sorted(sizes):
        x, w = (np.asarray(v, dtype=float) for v in _kernels._legendre_half(n))
        x0, w0 = (np.asarray(v, dtype=float) for v in _legendre_half_leggauss(n))
        assert np.all(np.abs(x - x0) <= np.spacing(x0)), n
        assert np.all(np.abs(w - w0) <= 2 * np.spacing(w0)), n
    assert _kernels._legendre_half(13)[0][0] == 0.0


def _moments_reference(b, dps=30):
    """ln Z, <m_i^2> and <m_i^2 m_j^2> of diagonal b from 1-D mpmath integrals.

    In x = m3 with u = 1 - x^2, b1 cos^2 phi + b2 sin^2 phi = s + a cos 2 phi
    and kappa = u a, the phi integrals of 1, cos 2 phi and cos^2 2 phi against
    e^{kappa cos 2 phi} are 2 pi I0, 2 pi I1 and 2 pi (I0 - I1 / kappa). The
    Bessel weights are cached per node, so the ten integrals share them.
    """
    with mp.workdps(dps):
        b1, b2, b3 = (mp.mpf(float(v)) for v in b)
        s, a = (b1 + b2) / 2, (b1 - b2) / 2
        top = max(b1, b2, b3)

        @functools.lru_cache(maxsize=None)
        def weights(x):
            u = 1 - x * x
            e = mp.exp(b3 * x * x + u * s - top)
            i0, i1 = mp.besseli(0, u * a), mp.besseli(1, u * a)
            i2 = i0 - (i1 / (u * a) if a else mp.mpf(1) / 2)
            return u, x * x, e * i0, e * i1, e * i2

        def integral(f):
            return mp.quad(lambda x: f(*weights(x)), [0, 0.9, 1])

        z = integral(lambda u, x2, w0, w1, w2: w0)
        terms = [  # <m1^2>, <m2^2>, <m3^2>, then the pair moments (i, j)
            lambda u, x2, w0, w1, w2: u * (w0 + w1) / 2,
            lambda u, x2, w0, w1, w2: u * (w0 - w1) / 2,
            lambda u, x2, w0, w1, w2: x2 * w0,
            lambda u, x2, w0, w1, w2: u * u * (w0 + 2 * w1 + w2) / 4,
            lambda u, x2, w0, w1, w2: u * u * (w0 - 2 * w1 + w2) / 4,
            lambda u, x2, w0, w1, w2: x2 * x2 * w0,
            lambda u, x2, w0, w1, w2: u * u * (w0 - w2) / 4,
            lambda u, x2, w0, w1, w2: x2 * u * (w0 + w1) / 2,
            lambda u, x2, w0, w1, w2: x2 * u * (w0 - w1) / 2,
        ]
        m = [float(integral(f) / z) for f in terms]
        pair = np.array([[m[3], m[6], m[7]], [m[6], m[4], m[8]], [m[7], m[8], m[5]]])
        return float(mp.log(4 * mp.pi * z) + top), np.array(m[:3]), pair


@pytest.mark.parametrize("spread", [2.0, 8.0, 20.0, 60.0, 150.0, 300.0])
def test_moments_against_mpmath(spread):
    # worst seen at the policy's n_x over 48 shapes per spread, every axis
    # order included: 2.8e-14 in ln Z, 3.9e-15 in <m_i^2>, 8.1e-15 in pairs
    nodes = x_rule(_kernels.nodes_for_spread(spread))
    frac = np.array(list(SHAPES.values()))
    b = spread * (frac - frac.mean(axis=1, keepdims=True))
    b = np.concatenate([b, b[2:, [1, 0, 2]]])         # both signs of a
    lnz, second, pair = _kernels._moments_batch_np(b, *nodes)
    for i, row in enumerate(b):
        ref_lnz, ref_second, ref_pair = _moments_reference(row)
        assert abs(lnz[i] - ref_lnz) <= 1e-12, row
        np.testing.assert_allclose(second[i], ref_second, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pair[i], ref_pair, rtol=0, atol=1e-12)


def test_moments_match_full_sphere_rule(rng):
    # the 64 x 128 full-sphere rule integrates the azimuth numerically; worst
    # seen 1.9e-14 in ln Z, 5.5e-15 in <m_i^2>, 7.7e-15 in the pairs
    quad = build_quadrature(64, 128)
    spreads = np.concatenate([[0.0], rng.uniform(0.0, 20.0, 11)])
    b = spreads[:, None] * rng.uniform(size=(12, 3))
    b -= b.mean(axis=1, keepdims=True)                # bingham_moments drops tr B
    lnz, second, pair = _kernels._moments_batch_np(b, *x_rule(_kernels.nodes_for_spread(20.0)))
    q_of_b = bingham_moments(from_matrix(b[:, :, None] * np.eye(3)), quad)
    for i, row in enumerate(b):
        mo = full_sphere_moments(from_matrix(np.diag(row)), quad)
        assert abs(lnz[i] - np.log(mo.Z)) <= 1e-13
        np.testing.assert_allclose(second[i], np.diag(to_matrix(q_of_b[i])) + 1 / 3,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(pair[i], np.einsum("iijj->ij", mo.M4), rtol=0, atol=1e-13)


KAPPAS = np.concatenate([[0.0], np.geomspace(1e-3, 150.0, 40)])


@pytest.mark.parametrize("sizing", ["each", "largest"])
def test_bessel_series_against_mpmath(sizing):
    # S0 e^-kappa = I0e(kappa) and (kappa / 2) S1 e^-kappa = I1e(kappa), with
    # each kappa's own term count or the count of the largest, as a batch has
    t = (0.5 * KAPPAS)[None, :] ** 2
    if sizing == "each":
        ser = np.concatenate([_kernels._bessel_series(t[:, [i]], _kernels._series_terms(k))
                              for i, k in enumerate(KAPPAS)], axis=2)[:, 0]
    else:
        ser = _kernels._bessel_series(t, _kernels._series_terms(KAPPAS.max()))[:, 0]
    with mp.workdps(30):
        ref = np.array([[float(mp.besseli(j, k) * mp.exp(-k)) for k in KAPPAS] for j in (0, 1)])
    got = np.stack([ser[0], 0.5 * KAPPAS * ser[1]]) * np.exp(-KAPPAS)
    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)


@pytest.mark.parametrize("kappa", [0.0, 0.035, 1.2, 12.0, 150.0, 600.0])
def test_series_terms_drop_a_tail_below_unit_roundoff(kappa):
    # the terms past t^n, summed in mpmath, are below 2^-53 of the kept ones
    # in S0 and in S1 (up to 2 _KAPPA_MAX, the largest kappa a batch sizes for)
    n = _kernels._series_terms(kappa)
    with mp.workdps(40):
        t = mp.mpf(kappa) ** 2 / 4
        terms = [t**k / mp.factorial(k) ** 2 for k in range(n + 400)]
        for s in (terms, [c / (k + 1) for k, c in enumerate(terms)]):
            assert sum(s[n + 1:]) < mp.mpf(2) ** -53 * sum(s[:n + 1]), (kappa, n)


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_equal_b1_b2_gives_equal_moments_bitwise(rng, rows):
    # a = 0 makes kappa = 0 exactly and the I1 weight vanish
    b = rng.uniform(-10.0, 10.0, size=(rows, 3))
    b[:, 1] = b[:, 0]
    _, second, pair = _kernels._moments_batch_np(b, *x_rule(_kernels.nodes_for_spread(20.0)))
    assert np.array_equal(second[:, 0], second[:, 1])


def test_row_far_past_the_budget_is_not_evaluated():
    # |a| past _KAPPA_MAX gives ln Z = inf, which the line search backtracks;
    # the other rows are evaluated as without it
    nodes = x_rule(_kernels.nodes_for_spread(60.0))
    b = np.array([[1.0, -2.0, 1.0], [400.0, -900.0, 500.0], [-30.0, 10.0, 20.0]])
    lnz, second, pair = _kernels._moments_batch_np(b, *nodes)
    assert lnz[1] == np.inf and np.all(np.isfinite(lnz[[0, 2]]))
    alone = _kernels._moments_batch_np(b[[0, 2]], *nodes)
    for got, want in zip((lnz[[0, 2]], second[[0, 2]], pair[[0, 2]]), alone):
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def _lnz_reference(b, dps=30):
    """ln Z of diagonal b from a 1-D mpmath integral in x = m3.

    With b1 cos^2 phi + b2 sin^2 phi = s + a cos 2 phi and u = 1 - x^2, the
    phi integral is 2 pi e^{us} I0(ua), so Z = 4 pi int_0^1 e^{b3 x^2 + us}
    I0(ua) dx (written with I0(z) e^{-z} and a shift to stay O(1)).
    """
    with mp.workdps(dps):
        b1, b2, b3 = (mp.mpf(float(x)) for x in b)
        s, a = (b1 + b2) / 2, abs(b1 - b2) / 2
        top = max(b1, b2, b3)

        def f(x):
            u = 1 - x * x
            return mp.exp(b3 * x * x + u * (s + a) - top) * mp.besseli(0, u * a) * mp.exp(-u * a)

        return float(mp.log(4 * mp.pi * mp.quad(f, [0, 0.9, 1])) + top)


@pytest.mark.parametrize("spread", [20.0, 60.0, 150.0, 300.0])
def test_node_policy_against_mpmath(spread):
    # b3 largest, as in the solver's ascending eigenframe: prolate, two
    # biaxial shapes and oblate; worst seen 1.8e-15 / 0 / 0 / 2.8e-14
    nodes = x_rule(_kernels.nodes_for_spread(spread))
    for f2 in (0.0, 0.25, 0.5, 1.0):
        frac = np.array([0.0, f2, 1.0])
        b = spread * (frac - frac.mean())
        lnz = _kernels._moments_batch_np(b[None], *nodes)[0][0]
        assert abs(lnz - _lnz_reference(b)) <= 2e-12, (spread, f2)


# ---------------------------------------------------------------------------
# line search
# ---------------------------------------------------------------------------

@pytest.fixture
def moment_rows(monkeypatch):
    """Row counts of the Newton kernel's moment evaluations: "all" of them,
    and the line search's "backtrack" calls. newton_batch evaluates its start
    before the first sweep and one trial per sweep; a further evaluation in
    the same sweep (the caller's `sweep` local) re-evaluates shortened steps."""
    rows = {"all": [], "backtrack": []}
    inner = _kernels._moments_batch_np
    last_sweep = [None]

    def counted(b, *nodes):
        sweep = sys._getframe(1).f_locals.get("sweep")
        if sweep is not None and sweep == last_sweep[0]:
            rows["backtrack"].append(len(b))
        last_sweep[0] = sweep
        rows["all"].append(len(b))
        return inner(b, *nodes)

    monkeypatch.setattr(_kernels, "_moments_batch_np", counted)
    return rows


@pytest.fixture
def lnz_rows(moment_rows):
    """Row count of every backtracking evaluation of the line search."""
    return moment_rows["backtrack"]


def _uniaxial_batch(order_params):
    n = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    return np.stack([uniaxial(s, n) for s in order_params])


def _newton_from(q5, b_start):
    """newton_batch on the eigenvalues of q5 from the eigenframe start b_start
    (N, 3), made trace-free, with the rule for a spread of 60."""
    w = np.linalg.eigvalsh(to_matrix(q5))
    b0 = b_start - b_start.mean(axis=1, keepdims=True)
    return _kernels.newton_batch(w, b0, x_rule(_kernels.nodes_for_spread(60.0)),
                                 tol=DEFAULT_TOL, maxit=MAX_ITER)


def _spectrum(res):
    """Eigenvalues of each B of a bingham_map_batch result, ascending."""
    return np.linalg.eigvalsh(to_matrix(res.B5))


def test_warm_start_near_solution_skips_line_search(rng, lnz_rows):
    q5 = random_physical(rng, 64, 0.05)
    b = _spectrum(bingham_map_batch(q5))
    lnz_rows.clear()
    out = _newton_from(q5 + 1e-8 * rng.normal(size=q5.shape), b)
    assert np.all(out[1] <= 1e-11)
    assert lnz_rows == []


def test_far_start_damps_and_converges(lnz_rows):
    q5 = _uniaxial_batch([0.6, 0.3, -0.2])
    cold = bingham_map_batch(q5)
    lnz_rows.clear()
    out = _newton_from(q5, -40.0 * np.linalg.eigvalsh(to_matrix(q5)))
    assert out[3].any()
    assert lnz_rows
    assert np.all(out[1] <= 1e-11)
    np.testing.assert_allclose(out[0], _spectrum(cold), rtol=0, atol=1e-9)


def test_line_search_evaluates_only_rows_that_need_it(rng, lnz_rows):
    near = random_physical(rng, 64, 0.05)
    near_b = _spectrum(bingham_map_batch(near))
    far = _uniaxial_batch([0.6, 0.3, -0.2])
    q5 = np.concatenate([near + 1e-8 * rng.normal(size=near.shape), far])
    start = np.concatenate([near_b, -40.0 * np.linalg.eigvalsh(to_matrix(far))])
    lnz_rows.clear()
    out = _newton_from(q5, start)
    assert np.all(out[1] <= 1e-11)
    assert lnz_rows and max(lnz_rows) <= len(far)
    assert not out[3][:len(near)].any()


def test_one_moment_evaluation_per_trial_point(moment_rows):
    # a damped batch: every start point, every Newton update and every
    # shortened step is evaluated once, and nothing else is
    q5 = _uniaxial_batch([0.6, 0.3, -0.2, 0.05])
    out = _newton_from(q5, -40.0 * np.linalg.eigvalsh(to_matrix(q5)))
    iters, damped = out[2], out[3]
    assert np.all(out[1] <= 1e-11) and damped.any()
    backtracked = sum(moment_rows["backtrack"])
    assert backtracked > 0
    assert sum(moment_rows["all"]) == len(q5) + int(iters.sum()) + backtracked


# ---------------------------------------------------------------------------
# starts that already meet the tolerance
# ---------------------------------------------------------------------------

def test_starts_within_tol_return_after_one_evaluation(rng, moment_rows):
    res = bingham_map_batch(random_physical(rng, 16, 0.05))
    w, b = res.q_eigs, res.b
    moment_rows["all"].clear()
    nodes = x_rule(_kernels.nodes_for_spread(60.0))
    out = _kernels.newton_batch(w, b, nodes, tol=DEFAULT_TOL, maxit=MAX_ITER)
    assert moment_rows["all"] == [len(w)]
    assert np.all(out[1] < DEFAULT_TOL)
    assert not out[2].any() and not out[3].any()
    # bit-equal to one moment evaluation and the sweep's residual
    lnz, second, pair = _kernels._moments_batch_np(b, *nodes)
    res = np.sqrt(((second - (w + 1.0 / 3.0))**2).sum(axis=1))
    for got, want in zip(out, (b, res, 0, False, lnz, second, pair)):
        assert np.array_equal(got, np.broadcast_to(want, np.shape(got)))


def test_nan_row_next_to_converged_starts_fails(rng):
    res = bingham_map_batch(random_physical(rng, 4, 0.05))
    w, b = res.q_eigs.copy(), res.b
    w[2] = np.nan
    out = _kernels.newton_batch(w, b, x_rule(_kernels.nodes_for_spread(60.0)),
                                tol=DEFAULT_TOL, maxit=3)
    assert np.isnan(out[1][2]) and not out[1][2] <= DEFAULT_TOL
    assert np.all(out[1][[0, 1, 3]] < DEFAULT_TOL) and out[2][2] == 3
