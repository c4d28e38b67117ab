import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qbingham import _kernels, closure
from qbingham._kernels import x_rule
from qbingham.closure import (
    MAX_ITER, PhysicalityError, bingham_map_batch, m4_contract_frame, mq_apply_frame,
    spread_bound,
)
from qbingham.sphere import bingham_moments, build_quadrature
from qbingham.tensors import (
    CLOSED_FORM_MIN, eig_sym3, from_matrix, qnorm, to_matrix, uniaxial,
)
from qbingham.equilibrium import phase_constants
from conftest import random_physical, random_qvec
from dense_ops import (
    QBASIS, apply_mq, from_basis_coeffs, full_sphere_moments, to_basis_coeffs,
)

QUAD = build_quadrature(64, 128)


def closure_jacobian(B, quad):
    """grad_B Q(B) as a (5, 5) array in the orthonormal basis QBASIS,
    entry (a, b) = <dQ E_b, E_a>, by the covariance form
    <(mm:E)(mm:E')>_f - (Q:E)(Q:E') = E:M4:E' - (Q:E)(Q:E')."""
    mo = full_sphere_moments(B, quad)
    mean = to_basis_coeffs(mo.q_of_b)
    return np.einsum("aij,ijkl,bkl->ab", QBASIS, mo.M4, QBASIS) - np.outer(mean, mean)


def test_zero_maps_to_zero():
    res = bingham_map_batch(np.zeros(5), delta=0.1)
    assert qnorm(res.B5[0]) < 1e-12
    assert res.iterations[0] <= 1
    assert res.residual[0] < 1e-12


def test_equilibrium_is_fixed_point_of_scaling():
    pc = phase_constants(8.0)
    n = np.array([0.0, 0.0, 1.0])
    res = bingham_map_batch(uniaxial(pc.S2, n), delta=0.01, tol=1e-12)
    np.testing.assert_allclose(to_matrix(res.B5[0]), pc.eta * (np.outer(n, n) - np.eye(3) / 3.0),
                               atol=1e-10)


def test_round_trip_through_independent_quadrature(rng):
    q5 = random_physical(rng, 24, 0.05)
    res = bingham_map_batch(q5, delta=0.05, tol=1e-11)
    q_of_b = bingham_moments(res.B5, QUAD)
    for i in range(len(q5)):
        assert qnorm(q_of_b[i] - q5[i]) < 1e-10


def test_round_trip_wide_eigenvalues():
    # eigenvalue triples near the corners of the admissible box [-0.28, 0.61]
    triples = [(-0.28, -0.28, 0.56), (-0.31, -0.30, 0.61), (-0.28, 0.0, 0.28),
               (-0.305, -0.305, 0.61), (-0.28, 0.09, 0.19)]
    q5 = from_matrix(np.stack([np.diag(t) for t in triples]))
    res = bingham_map_batch(q5, delta=0.0, tol=1e-11)
    q_of_b = bingham_moments(res.B5, QUAD)
    for i in range(len(q5)):
        assert qnorm(q_of_b[i] - q5[i]) < 1e-10


def test_uniqueness_from_different_starts(rng):
    # Newton from b = 0 and from a far random start ends at the B of the
    # fitted start
    q5 = random_physical(rng, 5, 0.08)
    res = bingham_map_batch(q5, delta=0.05, tol=1e-11)
    nodes = x_rule(_kernels.nodes_for_spread(60.0))
    for scale in (0.0, 12.0):
        b0 = scale * rng.normal(scale=0.1, size=(5, 3))
        b0 -= b0.mean(axis=1, keepdims=True)
        b = _kernels.newton_batch(res.q_eigs, b0, nodes, tol=1e-11, maxit=MAX_ITER)[0]
        b5 = from_matrix((res.rotation * b[:, None, :]) @ np.swapaxes(res.rotation, 1, 2))
        assert np.abs(b5 - res.B5).max() < 1e-9


def test_frame_sharing_commutator(rng):
    q5 = random_physical(rng, 10, 0.05)
    res = bingham_map_batch(q5, delta=0.05)
    b5 = res.B5
    qm, bm = to_matrix(q5), to_matrix(b5)
    comm = qm @ bm - bm @ qm
    bound = 1e-10 * qnorm(q5) * qnorm(b5)
    assert np.abs(comm).max() <= max(bound.max(), 1e-13)


def test_rejects_nonphysical():
    q = uniaxial(1.2, [0, 0, 1.0])  # top eigenvalue 0.8 > 2/3
    with pytest.raises(PhysicalityError):
        bingham_map_batch(q, delta=0.0)
    with pytest.raises(PhysicalityError):
        bingham_map_batch(uniaxial(0.9, [0, 0, 1.0]), delta=0.1)  # margin violation
    with pytest.raises(ValueError):
        bingham_map_batch(np.zeros((1, 5)), tol=1e-15)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("component", range(5))
def test_rejects_non_finite_row_by_index(value, component, monkeypatch):
    # the first non-finite row is named before any eigendecomposition, in a
    # batch for LAPACK (3 rows) and one for the closed form (512 rows)
    def no_eig(mats):
        raise AssertionError("eigendecomposition of a non-finite batch")

    monkeypatch.setattr(closure, "eig_sym3", no_eig)
    for rows in (3, 512):
        q5 = np.tile(uniaxial(0.3, [0, 0, 1.0]), (rows, 1))
        q5[rows - 2:, component] = value
        with pytest.raises(PhysicalityError, match=f"index {rows - 2}$"):
            bingham_map_batch(q5)


# ---------------------------------------------------------------------------
# Jacobian
# ---------------------------------------------------------------------------

def test_jacobian_isotropic():
    jac = closure_jacobian(np.zeros(5), QUAD)
    np.testing.assert_allclose(jac, (2.0 / 15.0) * np.eye(5), atol=1e-12)


def test_jacobian_symmetric_positive(rng):
    for scale in (1.0, 4.0):
        b = random_qvec(rng, scale=scale)
        jac = closure_jacobian(b, QUAD)
        assert np.abs(jac - jac.T).max() < 1e-10
        assert np.linalg.eigvalsh(0.5 * (jac + jac.T))[0] > 0.0


def test_jacobian_matches_finite_differences(rng):
    b = random_qvec(rng, scale=2.0)
    jac = closure_jacobian(b, QUAD)
    c0 = to_basis_coeffs(b)
    h = 1e-5
    for a in range(5):
        dc = np.zeros(5)
        dc[a] = h
        qp, qm = bingham_moments(from_basis_coeffs(np.stack([c0 + dc, c0 - dc])), QUAD)
        col = to_basis_coeffs((qp - qm) / (2.0 * h))
        assert np.abs(col - jac[:, a]).max() < 1e-6


def test_jacobian_overflow_guard():
    with pytest.raises(OverflowError):
        closure_jacobian(uniaxial(500.0, [0, 0, 1.0]), QUAD)


# ---------------------------------------------------------------------------
# the closure operator M_Q
# ---------------------------------------------------------------------------

def test_mq_of_bq_is_three_halves_q(rng):
    q5 = random_physical(rng, 8, 0.05)
    res = bingham_map_batch(q5, delta=0.05, tol=1e-12)
    for i in range(len(q5)):
        mo = full_sphere_moments(res.B5[i], QUAD)
        val = apply_mq(mo, to_matrix(res.B5[i]))
        assert np.abs(val - 1.5 * to_matrix(q5[i])).max() < 1e-8


def test_mq_of_identity_vanishes(rng):
    b = random_qvec(rng, scale=2.0)
    mo = full_sphere_moments(b, QUAD)
    assert np.abs(apply_mq(mo, np.eye(3))).max() < 1e-12


def test_mq_self_adjoint(rng):
    b = random_qvec(rng, scale=2.0)
    mo = full_sphere_moments(b, QUAD)
    for _ in range(5):
        a1 = rng.normal(size=(3, 3))
        a2 = rng.normal(size=(3, 3))
        lhs = np.tensordot(apply_mq(mo, a1), a2)
        rhs = np.tensordot(apply_mq(mo, a2), a1)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_mq_positive(rng):
    b = random_qvec(rng, scale=3.0)
    mo = full_sphere_moments(b, QUAD)
    for _ in range(50):
        a = rng.normal(size=(3, 3))
        assert np.tensordot(apply_mq(mo, a), a) >= -1e-12


def test_mq_traceless(rng):
    b = random_qvec(rng, scale=2.0)
    mo = full_sphere_moments(b, QUAD)
    a = rng.normal(size=(3, 3))
    assert abs(np.trace(apply_mq(mo, a))) < 1e-13


# ---------------------------------------------------------------------------
# eigenframe fast paths against the dense reference
# ---------------------------------------------------------------------------

def test_frame_contraction_matches_dense(rng):
    q5 = random_physical(rng, 6, 0.05)
    res = bingham_map_batch(q5, delta=0.05, tol=1e-12)
    for i in range(len(q5)):
        mo = full_sphere_moments(res.B5[i], QUAD)
        a = rng.normal(size=(3, 3))
        ref = np.einsum("ijkl,kl->ij", mo.M4, 0.5 * (a + a.T))
        got = m4_contract_frame(res.rotation[i], res.pair[i], a)
        assert np.abs(got - ref).max() < 1e-10
        ref_mq = apply_mq(mo, a)
        got_mq = mq_apply_frame(to_matrix(q5[i]), res.rotation[i], res.pair[i], a)
        assert np.abs(got_mq - ref_mq).max() < 1e-10


def test_closed_form_frame_and_pair_are_read_in_place(rng):
    # a closed-form batch's rotation, and every batch's pair moments, are
    # views of contiguous (3, 3, N) rows: _component_major makes no copy
    res = bingham_map_batch(random_physical(rng, CLOSED_FORM_MIN, 0.05), delta=0.05)
    for m in (res.rotation, res.pair):
        rows = closure._component_major(m)
        assert np.shares_memory(rows, m)
        np.testing.assert_array_equal(rows, np.moveaxis(m, 0, -1))


# ---------------------------------------------------------------------------
# spread bound
# ---------------------------------------------------------------------------

def test_spread_bound_diverges_as_margin_shrinks():
    vals = [spread_bound(d) for d in (0.3, 0.2, 0.1, 0.05, 0.01)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert spread_bound(0.01) > spread_bound(0.3)


def test_spread_bound_patch_areas():
    # independent check of the patch areas entering Lambda(0.1)
    delta = 0.1
    quad = build_quadrature(400, 800)
    m = quad.nodes
    in_u = (m[:, 2]**2 < delta / 8.0) & (m[:, 1]**2 < delta / 4.0)
    in_v = m[:, 2]**2 > delta / 2.0
    meas_u = float(quad.weights[in_u].sum())
    meas_v = float(quad.weights[in_v].sum())
    lam_ref = 4.0 / delta * np.log(2.0 * meas_v / (delta * meas_u))
    assert abs(spread_bound(delta) - lam_ref) / lam_ref < 2e-3


@pytest.mark.parametrize("delta", [0.3, 0.1, 0.02, 0.002, 1e-4])
def test_spread_bound_against_mpmath(delta):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    d = mp.mpf(delta)
    a, b = mp.sqrt(d / 8), mp.sqrt(d / 4)
    meas_u = mp.quad(lambda x: 4 * mp.asin(b / mp.sqrt(1 - x * x)), [-a, 0, a])
    meas_v = 4 * mp.pi * (1 - mp.sqrt(d / 2))
    ref = float(4 / d * mp.log(2 * meas_v / (d * meas_u)))
    assert abs(spread_bound(delta) - ref) <= 1e-14 * ref


def test_spread_bound_domain():
    with pytest.raises(ValueError):
        spread_bound(0.0)
    with pytest.raises(ValueError):
        spread_bound(0.34)


def test_solves_respect_spread_bound(rng):
    delta = 0.1
    lam = spread_bound(delta)
    q5 = random_physical(rng, 200, delta)
    res = bingham_map_batch(q5, delta=delta)
    assert res.spread.max() <= lam


def _record_solves(monkeypatch):
    """Log of the closure's kernel use since the caller last reset it: the
    spreads the x-rules were sized for and the number of newton_batch runs."""
    for fit in closure.FITS:  # built once per process, before the calls counted here
        closure._start_fit(*fit)
    log = {"est": [], "runs": 0}
    sized, run = _kernels.nodes_for_spread, _kernels.newton_batch

    def nodes(spread):
        log["est"].append(spread)
        return sized(spread)

    def newton(*args, **kwargs):
        log["runs"] += 1
        return run(*args, **kwargs)

    monkeypatch.setattr(_kernels, "nodes_for_spread", nodes)
    monkeypatch.setattr(_kernels, "newton_batch", newton)
    return log


def test_points_past_the_fit_edge_solve_in_one_run(monkeypatch):
    # the S = 0.99 point lies past the first fit's edge (s1 = 0.0033 <
    # 0.008); its start still sizes the rule, so the batch is one run
    log = _record_solves(monkeypatch)
    q5 = np.stack([uniaxial(0.99, [0.0, 0.0, 1.0]), uniaxial(0.3, [1.0, 0.0, 0.0]),
                   from_matrix(np.diag([0.55, -0.3, -0.25]))])
    res = bingham_map_batch(q5)
    assert log["runs"] == 1
    assert np.all(res.residual <= 1e-11)
    assert res.spread.max() <= log["est"][0]
    assert res.iterations[0] >= 1  # the update path still runs past the edge


def test_one_run_per_solve_down_to_the_budget(monkeypatch):
    # s1 log-spaced from 0.0017 (spread ~290, next to EXPONENT_BUDGET) to
    # 0.05, s2 over its whole range [s1, (1 - s1)/2]: each solve is one run,
    # converged, and ends inside the spread its rule was sized for
    log = _record_solves(monkeypatch)
    s1 = np.geomspace(0.0017, 0.05, 40)
    for a in s1:
        for s2 in np.linspace(a, 0.5 * (1.0 - a), 25):
            log["runs"], log["est"] = 0, []
            res = bingham_map_batch(from_matrix(np.diag([a, s2, 1.0 - a - s2]) - np.eye(3) / 3))
            assert log["runs"] == 1
            assert res.residual[0] <= 1e-11
            assert res.spread[0] <= log["est"][0]


def test_spread_past_the_estimate_raises(monkeypatch):
    # a start that underestimates the spread sizes too small a rule; the
    # solve must not return the under-resolved moments it converged to
    fitted = closure._fitted_start
    monkeypatch.setattr(closure, "_fitted_start", lambda w: 0.2 * fitted(w))
    with pytest.raises(RuntimeError, match="past the estimate"):
        bingham_map_batch(uniaxial(0.9, [0.0, 0.0, 1.0]))


@pytest.mark.parametrize("s1", [0.0008, 1e-5])
def test_points_past_the_exponent_budget_raise(s1):
    # 1/(2 s1) > EXPONENT_BUDGET: no rule resolves the solution
    with pytest.raises(RuntimeError, match="failed to converge"):
        bingham_map_batch(from_matrix(np.diag([s1, 0.3, 0.7 - s1]) - np.eye(3) / 3))


# ---------------------------------------------------------------------------
# the fitted start
# ---------------------------------------------------------------------------

def test_fit_is_built_by_the_first_solve_not_at_import():
    # Q = 0 (s1 = 1/3) builds only the degree-36 fit, S = 0.9 (s1 = 1/30)
    # then the degree-56 one
    code = ("import qbingham.cli, numpy as np\n"
            "from qbingham import closure\n"
            "from qbingham.tensors import uniaxial\n"
            "info = closure._start_fit.cache_info\n"
            "before = info().currsize\n"
            "closure.bingham_map_batch(np.zeros(5))\n"
            "closure.bingham_map_batch(np.zeros(5))\n"
            "high = info()\n"
            "closure._start_fit(*closure.FITS[1])\n"
            "hit = info().hits - high.hits\n"
            "closure.bingham_map_batch(uniaxial(0.9, [0.0, 0.0, 1.0]))\n"
            "print(before, high.currsize, high.misses, hit, info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(Path(closure.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout.split()
    assert out == ["0", "1", "1", "1", "2"]


def test_fit_node_solves_reach_fit_tolerance():
    for degree, edge in closure.FITS:
        coef, worst = closure._start_fit(degree, edge)[:2]
        assert worst <= 1e-13
        assert coef.shape == (2 * (degree + 1), degree + 1)
        assert closure._start_fit(degree, edge)[0] is coef  # built once


def _s1(res):
    return res.q_eigs[:, 0] + 1.0 / 3.0


def test_fitted_start_meets_the_tolerance(rng):
    # margin >= 0.02 (both fits) and >= 0.05 (the degree-36 fit only): the
    # start's residual is already below the tolerance, so no point takes a
    # Newton update
    for delta in (0.02, 0.05):
        q5 = random_physical(rng, 400, delta)
        res = bingham_map_batch(q5, delta=delta)
        assert np.all(res.iterations == 0)
        assert np.all(res.residual <= 1e-11)
        assert not res.used_damping.any()
        assert (_s1(res) < 0.05).any() == (delta < 0.05)


def test_one_moment_evaluation_per_solve_inside_the_fit(rng, monkeypatch):
    for fit in closure.FITS:  # built once per process, before the calls counted here
        closure._start_fit(*fit)
    calls = []
    moments = _kernels._moments_batch_np

    def counted(b, *nodes):
        calls.append(len(b))
        return moments(b, *nodes)

    monkeypatch.setattr(_kernels, "_moments_batch_np", counted)
    res = bingham_map_batch(random_physical(rng, 400, 0.02), delta=0.02)
    assert calls == [400]
    assert np.all(res.residual <= 1e-11)


def _w_at(s1, s2):
    """Ascending eigenvalues (N, 3) of the points (s1, s2, 1 - s1 - s2)."""
    s1, s2 = np.broadcast_arrays(s1, s2)
    return np.stack([s1, s2, 1.0 - s1 - s2], axis=1) - 1.0 / 3.0


def _start_residual(w):
    """Residual of the fitted start of eigenvalues w (N, 3), on the rule a
    solve of them would size from it."""
    b0 = closure._fitted_start(w)
    est = max(8.0, 1.3 * float((b0.max(axis=1) - b0.min(axis=1)).max()) + 6.0)
    return _kernels.newton_batch(w, b0, x_rule(_kernels.nodes_for_spread(est)),
                                 tol=1e-11, maxit=0)[1]


def test_fitted_start_residual_on_held_out_points():
    # a seed not used to choose the fits' degrees: every start residual of
    # 4000 points with margin >= 0.02 (both fits) is below the closure
    # tolerance
    q5 = random_physical(np.random.default_rng(20), 4000, 0.02)
    res = bingham_map_batch(q5, delta=0.02)
    assert (_s1(res) < 0.05).any() and (_s1(res) >= 0.05).any()
    assert res.iterations.max() == 0  # so residual is the start's own
    assert res.residual.max() <= 1e-11
    # at the split: the least lambda_1 whose s1, as the start computes it,
    # reaches 0.05 (the degree-36 fit's edge), the next lambda_1 below it
    # (the degree-56 fit), and s1 in [0.05, 0.06]; s2 over its whole range
    # [s1, (1 - s1) / 2] with both ends
    at = 0.05 - 1.0 / 3.0
    while at + 1.0 / 3.0 < 0.05:
        at = np.nextafter(at, 0.0)
    below = np.nextafter(at, -1.0)
    assert at + 1.0 / 3.0 >= 0.05 > below + 1.0 / 3.0
    rng = np.random.default_rng(21)
    s1 = np.concatenate([[at + 1.0 / 3.0] * 200, [below + 1.0 / 3.0] * 200,
                         rng.uniform(0.05, 0.06, 2000)])
    t = np.concatenate([np.linspace(0.0, 1.0, 200)] * 2 + [rng.uniform(0.0, 1.0, 2000)])
    w = _w_at(s1, s1 + t * (0.5 * (1.0 - s1) - s1))
    w[:400, 0] = np.repeat([at, below], 200)
    assert _start_residual(w).max() <= 1e-11


def test_mixed_batch_gives_each_point_its_one_sided_start():
    # bound, set before the test first ran (CHANGES.md): bit for bit; more
    # than a block of each fit's start on its side, interleaved
    w = eig_sym3(to_matrix(random_physical(np.random.default_rng(22), 6000, 0.02)))[0]
    high = w[:, 0] + 1.0 / 3.0 >= 0.05
    for part, (degree, _) in zip((~high, high), closure.FITS):
        assert part.sum() > closure._START_TABLE // (2 * (degree + 1))
    b0 = closure._fitted_start(w)
    np.testing.assert_array_equal(b0[high], closure._fitted_start(w[high]))
    np.testing.assert_array_equal(b0[~high], closure._fitted_start(w[~high]))


@pytest.mark.parametrize("eigs", [
    (0.0, 0.0, 0.0),                    # Q = 0: v is 0/0 on the u = 1 edge
    (-0.2, -0.2, 0.4),                  # s1 = s2
    (-0.3, 0.15, 0.15),                 # s2 = s3
    (-0.331, -0.32, 0.651),             # s1 = 0.0023, below the fit's edge
    (-1e-9, 0.0, 1e-9),                 # next to isotropy
])
def test_fitted_start_edge_cases(eigs):
    w = np.array([eigs])
    b0 = closure._fitted_start(w)
    assert np.all(np.isfinite(b0)) and abs(b0.sum()) < 1e-12
    res = bingham_map_batch(from_matrix(np.diag(eigs)))
    assert res.residual[0] <= 1e-11
