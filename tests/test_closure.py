import numpy as np
import pytest

from qbingham.closure import (
    PhysicalityError, bingham_map_batch, m4_contract_frame, mq_apply_frame,
    spread_bound,
)
from qbingham.sphere import bingham_moments, build_quadrature
from qbingham.tensors import from_matrix, qnorm, to_matrix, uniaxial
from qbingham.equilibrium import phase_constants
from conftest import random_physical, random_qvec
from dense_ops import QBASIS, apply_mq, from_basis_coeffs, to_basis_coeffs

QUAD = build_quadrature(64, 128)


def closure_jacobian(B, quad):
    """grad_B Q(B) as a (5, 5) array in the orthonormal basis QBASIS,
    entry (a, b) = <dQ E_b, E_a>, by the covariance form
    <(mm:E)(mm:E')>_f - (Q:E)(Q:E') = E:M4:E' - (Q:E)(Q:E')."""
    mo = bingham_moments(B, quad)
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
    for i in range(len(q5)):
        mo = bingham_moments(res.B5[i], QUAD)
        assert qnorm(mo.q_of_b - q5[i]) < 1e-10


def test_round_trip_wide_eigenvalues():
    # eigenvalue triples near the corners of the admissible box [-0.28, 0.61]
    triples = [(-0.28, -0.28, 0.56), (-0.31, -0.30, 0.61), (-0.28, 0.0, 0.28),
               (-0.305, -0.305, 0.61), (-0.28, 0.09, 0.19)]
    q5 = from_matrix(np.stack([np.diag(t) for t in triples]))
    res = bingham_map_batch(q5, delta=0.0, tol=1e-11)
    for i in range(len(q5)):
        mo = bingham_moments(res.B5[i], QUAD)
        assert qnorm(mo.q_of_b - q5[i]) < 1e-10


def test_uniqueness_from_different_starts(rng):
    q5 = random_physical(rng, 5, 0.08)
    sols = []
    for warm_scale in (None, 0.0, 12.0):
        warm = None if warm_scale is None else warm_scale * random_qvec(rng, 5, scale=0.1)
        res = bingham_map_batch(q5, delta=0.05, tol=1e-11, b_warm5=warm)
        sols.append(res.B5)
    assert np.abs(sols[0] - sols[1]).max() < 1e-9
    assert np.abs(sols[0] - sols[2]).max() < 1e-9


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
        qp = bingham_moments(from_basis_coeffs(c0 + dc), QUAD).q_of_b
        qm = bingham_moments(from_basis_coeffs(c0 - dc), QUAD).q_of_b
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
        mo = bingham_moments(res.B5[i], QUAD)
        val = apply_mq(mo, to_matrix(res.B5[i]))
        assert np.abs(val - 1.5 * to_matrix(q5[i])).max() < 1e-8


def test_mq_of_identity_vanishes(rng):
    b = random_qvec(rng, scale=2.0)
    mo = bingham_moments(b, QUAD)
    assert np.abs(apply_mq(mo, np.eye(3))).max() < 1e-12


def test_mq_self_adjoint(rng):
    b = random_qvec(rng, scale=2.0)
    mo = bingham_moments(b, QUAD)
    for _ in range(5):
        a1 = rng.normal(size=(3, 3))
        a2 = rng.normal(size=(3, 3))
        lhs = np.tensordot(apply_mq(mo, a1), a2)
        rhs = np.tensordot(apply_mq(mo, a2), a1)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_mq_positive(rng):
    b = random_qvec(rng, scale=3.0)
    mo = bingham_moments(b, QUAD)
    for _ in range(50):
        a = rng.normal(size=(3, 3))
        assert np.tensordot(apply_mq(mo, a), a) >= -1e-12


def test_mq_traceless(rng):
    b = random_qvec(rng, scale=2.0)
    mo = bingham_moments(b, QUAD)
    a = rng.normal(size=(3, 3))
    assert abs(np.trace(apply_mq(mo, a))) < 1e-13


# ---------------------------------------------------------------------------
# eigenframe fast paths against the dense reference
# ---------------------------------------------------------------------------

def test_frame_contraction_matches_dense(rng):
    q5 = random_physical(rng, 6, 0.05)
    res = bingham_map_batch(q5, delta=0.05, tol=1e-12)
    for i in range(len(q5)):
        mo = bingham_moments(res.B5[i], QUAD)
        a = rng.normal(size=(3, 3))
        ref = np.einsum("ijkl,kl->ij", mo.M4, 0.5 * (a + a.T))
        got = m4_contract_frame(res.rotation[i], res.pair[i], a)
        assert np.abs(got - ref).max() < 1e-10
        ref_mq = apply_mq(mo, a)
        got_mq = mq_apply_frame(to_matrix(q5[i]), res.rotation[i], res.pair[i], a)
        assert np.abs(got_mq - ref_mq).max() < 1e-10


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


def test_node_upgrade_resolves_only_points_past_the_estimate(monkeypatch):
    # the S = 0.97 point ends far past the spread estimate of its cold start
    # and is solved again with more nodes; the S = 0.3 point is not
    from qbingham import _kernels
    raw = _kernels.newton_batch
    calls = []

    def recorded(*args, **kwargs):
        out = raw(*args, **kwargs)
        calls.append(out[2].copy())  # iterations per point of this call
        return out

    monkeypatch.setattr(_kernels, "newton_batch", recorded)
    q5 = np.stack([uniaxial(0.97, [0.0, 0.0, 1.0]), uniaxial(0.3, [1.0, 0.0, 0.0]),
                   from_matrix(np.diag([0.55, -0.3, -0.25]))])
    res = bingham_map_batch(q5)
    assert len(calls) >= 2 and calls[1].sum() > 0
    assert res.iterations.sum() == sum(int(it.sum()) for it in calls)
    assert len(calls[1]) < len(q5)
    assert np.all(res.residual <= 1e-11)
