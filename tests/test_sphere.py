import numpy as np
import pytest

from qbingham.sphere import a_integrals, bingham_moments, build_quadrature
from qbingham.equilibrium import order_parameters
from qbingham.tensors import eig_sym3, from_matrix, qnorm, to_matrix, uniaxial
from conftest import haar_rotations, random_qvec, sym_traceless
from dense_ops import QBASIS, from_basis_coeffs, full_sphere_moments, to_basis_coeffs

QUAD = build_quadrature(64, 128)


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _exact_monomial(a, b, c):
    """int_{S^2} m1^a m2^b m3^c dm for nonnegative integer exponents."""
    if a % 2 or b % 2 or c % 2:
        return 0.0
    num = (_double_factorial(a - 1) * _double_factorial(b - 1)
           * _double_factorial(c - 1))
    return 4.0 * np.pi * num / _double_factorial(a + b + c + 1)


def test_weights_sum_to_sphere_area():
    assert abs(QUAD.weights.sum() - 4.0 * np.pi) < 1e-13 * 4.0 * np.pi


@pytest.mark.parametrize("n_polar", [64, 65, 96])
def test_polar_rule_integrates_even_monomials(n_polar):
    # int over the sphere of m3^(2k) is 4 pi / (2k + 1) for k < n_polar; the
    # high powers weigh the weights next to the poles, where leggauss's put
    # these integrals off by up to 3.8e-13 relative at n_polar = 96
    quad = build_quadrature(n_polar, 16)
    k = np.arange(n_polar)
    np.testing.assert_allclose(np.power.outer(quad.nodes[:, 2], 2 * k).T @ quad.weights,
                               4 * np.pi / (2 * k + 1), rtol=1e-14, atol=0)


def test_second_moment_identity():
    m = QUAD.nodes
    mm = np.einsum("n,ni,nj->ij", QUAD.weights, m, m)
    np.testing.assert_allclose(mm, (4.0 * np.pi / 3.0) * np.eye(3), atol=1e-10)


def test_classic_quartic_monomial():
    quad = build_quadrature(32, 64)
    val = np.sum(quad.weights * quad.nodes[:, 0]**2 * quad.nodes[:, 1]**2)
    assert abs(val - 4.0 * np.pi / 15.0) < 1e-12


def test_minimum_rule_degree12_exactness():
    quad = build_quadrature(8, 16)
    for a in range(0, 13, 2):
        for b in range(0, 13 - a, 2):
            for c in range(0, 13 - a - b, 2):
                if a + b + c > 12:
                    continue
                val = np.sum(quad.weights * quad.nodes[:, 0]**a
                             * quad.nodes[:, 1]**b * quad.nodes[:, 2]**c)
                assert abs(val - _exact_monomial(a, b, c)) < 1e-10


def test_rejects_undersized_rule():
    with pytest.raises(ValueError):
        build_quadrature(4, 64)
    with pytest.raises(ValueError):
        build_quadrature(16, 8)


def test_rule_is_built_once_and_read_only(rng):
    # one shared rule per size for the process, so no caller may write to it;
    # its moments are those of a rule built afresh, to the bit
    quad = build_quadrature(64, 65)
    assert build_quadrature(64, 65) is quad
    for arr in (quad.nodes, quad.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    fresh = build_quadrature.__wrapped__(64, 65)
    assert fresh is not quad
    b = random_qvec(rng, n=9, scale=6.0)
    assert bingham_moments(b, quad).tobytes() == bingham_moments(b, fresh).tobytes()


# ---------------------------------------------------------------------------
# Bingham moments
# ---------------------------------------------------------------------------

def _q(b, quad=QUAD):
    """bingham_moments of the one qvec b."""
    return bingham_moments(np.asarray(b)[None], quad)[0]


def test_isotropic_moments():
    mo = full_sphere_moments(np.zeros(5), QUAD)
    assert abs(mo.Z - 4.0 * np.pi) < 1e-12
    assert qnorm(_q(np.zeros(5))) < 1e-14
    iso = (np.einsum("ij,kl->ijkl", np.eye(3), np.eye(3))
           + np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3))
           + np.einsum("il,jk->ijkl", np.eye(3), np.eye(3))) / 15.0
    np.testing.assert_allclose(mo.M4, iso, atol=1e-13)


def test_axisymmetric_moments_match_closed_form():
    eta = 4.0
    n = np.array([0.0, 1.0, 0.0])
    b = uniaxial(eta, n)
    s2, s4 = order_parameters(eta)
    np.testing.assert_allclose(to_matrix(_q(b)),
                               s2 * (np.outer(n, n) - np.eye(3) / 3.0), atol=1e-12)
    # closed-form fourth moment of an axisymmetric density
    nn = np.outer(n, n)
    i3 = np.eye(3)
    nd = sum(np.einsum(spec, nn, i3) for spec in
             ["ij,kl->ijkl", "ik,jl->ijkl", "il,jk->ijkl",
              "jk,il->ijkl", "jl,ik->ijkl", "kl,ij->ijkl"])
    dd = (np.einsum("ij,kl->ijkl", i3, i3) + np.einsum("ik,jl->ijkl", i3, i3)
          + np.einsum("il,jk->ijkl", i3, i3))
    closed = (s4 * np.einsum("i,j,k,l->ijkl", n, n, n, n)
              + (s2 - s4) / 7.0 * nd
              + (s4 / 35.0 - 2.0 * s2 / 21.0 + 1.0 / 15.0) * dd)
    np.testing.assert_allclose(full_sphere_moments(b, QUAD).M4, closed, atol=1e-12)


def test_refinement_agreement(rng):
    fine = build_quadrature(256, 512)
    for _ in range(4):
        b = random_qvec(rng, scale=4.0)  # eigenvalues within ~10
        mo = full_sphere_moments(b, QUAD)
        mof = full_sphere_moments(b, fine)
        assert abs(mo.Z - mof.Z) / mof.Z < 1e-10
        assert qnorm(_q(b) - _q(b, fine)) < 1e-10
        assert np.abs(mo.M4 - mof.M4).max() < 1e-10


def test_partial_trace_identities(rng):
    for scale in [2.0, 8.0]:
        b = random_qvec(rng, scale=scale)
        m4 = full_sphere_moments(b, QUAD).M4
        second = to_matrix(_q(b)) + np.eye(3) / 3.0
        assert np.abs(np.einsum("ijkk->ij", m4) - second).max() < 1e-10
        assert abs(np.einsum("iijj", m4) - 1.0) < 1e-12


def test_moment_normalization():
    b = random_qvec(np.random.default_rng(7), scale=5.0)
    mo = full_sphere_moments(b, QUAD)
    # M4 double-traced against the identity gives int f = 1
    assert abs(np.einsum("ijij", mo.M4) - 1.0) < 1e-12


def test_rotation_equivariance(rng):
    b = random_qvec(rng, scale=3.0)
    rot = haar_rotations(rng, 1)[0]
    bm = to_matrix(b)
    b_rot = from_matrix(rot @ bm @ rot.T)
    q_rot = rot @ to_matrix(_q(b)) @ rot.T
    assert np.abs(to_matrix(_q(b_rot)) - q_rot).max() < 1e-10
    m4_rot = np.einsum("ai,bj,ck,dl,ijkl->abcd", rot, rot, rot, rot,
                       full_sphere_moments(b, QUAD).M4)
    assert np.abs(full_sphere_moments(b_rot, QUAD).M4 - m4_rot).max() < 1e-10


def test_q_of_b_is_gradient_of_log_partition(rng):
    b = random_qvec(rng, scale=2.0)
    c0 = to_basis_coeffs(b)
    q5 = _q(b)
    h = 1e-5
    for a in range(5):
        dc = np.zeros(5)
        dc[a] = h
        fp = np.log(full_sphere_moments(from_basis_coeffs(c0 + dc), QUAD).Z)
        fm = np.log(full_sphere_moments(from_basis_coeffs(c0 - dc), QUAD).Z)
        grad_a = (fp - fm) / (2.0 * h)
        proj = float(np.einsum("ij,ij->", to_matrix(q5), QBASIS[a]))
        assert abs(grad_a - proj) < 1e-6


def test_log_partition_convexity(rng):
    def log_z(b):
        return np.log(full_sphere_moments(b, QUAD).Z)

    for _ in range(10):
        b1 = random_qvec(rng, scale=3.0)
        b2 = random_qvec(rng, scale=3.0)
        mid = log_z(0.5 * (b1 + b2))
        assert mid <= 0.5 * (log_z(b1) + log_z(b2)) + 1e-12


def test_overflow_guard():
    with pytest.raises(OverflowError):
        _q(uniaxial(500.0, [0, 0, 1.0]))


@pytest.mark.parametrize("k", [1, 7, 8, 9, 64])
def test_batch_matches_per_row_calls(rng, k):
    # k below, at and past the block of 8 B, and closure-validate's 64
    b = random_qvec(rng, n=k, scale=6.0)
    b[k // 2] = 0.0
    batch = bingham_moments(b, QUAD)
    assert batch.shape == (k, 5)
    rows = np.array([_q(row) for row in b])
    np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-15)
    oracle = np.array([full_sphere_moments(row, QUAD).q_of_b for row in b])
    np.testing.assert_allclose(batch, oracle, rtol=0, atol=1e-14)


def test_batch_overflow_names_the_worst_point(rng):
    b = random_qvec(rng, scale=2.0, n=12)
    b[9] = uniaxial(400.0, [0, 0, 1.0])
    b[3] = uniaxial(350.0, [1.0, 0, 0])
    with pytest.raises(OverflowError, match=r"B\[9\] is 400\.0"):
        bingham_moments(b, QUAD)


# ---------------------------------------------------------------------------
# axisymmetric 1D integrals
# ---------------------------------------------------------------------------

def test_a_integrals_at_zero():
    for k, val in zip((0, 2, 4, 6), a_integrals(0.0)):
        assert abs(val - 2.0 / (k + 1)) < 1e-14


def test_isotropic_order_vanishes():
    a0, a2, _, _ = a_integrals(0.0)
    assert abs((3 * a2 - a0) / (2 * a0)) < 1e-14


def test_a_integrals_against_adaptive_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    eta = 5.0
    for k, val in zip((0, 2, 4, 6), a_integrals(eta)):
        ref = float(mp.quad(lambda x: x**k * mp.e**(eta * x * x), [-1, 0, 1]))
        assert abs(val - ref) / ref < 1e-12


def test_a_integral_ordering():
    a0, a2, a4, a6 = a_integrals(3.0)
    assert a0 >= a2 >= a4 >= a6 > 0


def test_a_integral_guards():
    with pytest.raises(OverflowError):
        a_integrals(301.0)
