"""The operators linearized at the uniaxial equilibrium (tests/dense_ops.py)
against quadrature and the paper's identities, and the closed-form out-space
constants of PhaseConstants against them."""
import numpy as np
import pytest

from qbingham.equilibrium import phase_constants
from qbingham.sphere import build_quadrature
from qbingham.tensors import to_matrix, uniaxial
from conftest import haar_rotations, random_qvec
from dense_ops import (
    DirectorContext, apply_hn, apply_j, apply_mq, apply_qn, apply_qn_inverse,
    coercivity_constant, full_sphere_moments, in_space_basis, out_space_basis, project_in,
    project_out, relaxation_rates,
)

QUAD = build_quadrature(64, 128)
PC = phase_constants(8.0, 1.0, 0.5)
N_VEC = np.array([0.0, 0.0, 1.0])
CTX = DirectorContext.build(N_VEC, PC)


def _in_elem(rng, n=N_VEC):
    p = rng.normal(size=3)
    p -= (p @ n) * n
    return np.outer(n, p) + np.outer(p, n)


def test_context_m4_matches_quadrature():
    mo = full_sphere_moments(uniaxial(PC.eta, N_VEC), QUAD)
    assert np.abs(CTX.M4 - mo.M4).max() < 1e-10


def test_context_rejects_nonunit():
    with pytest.raises(ValueError):
        DirectorContext.build(np.array([0.0, 0.0, 1.1]), PC)


def test_qn_in_space_eigenvalue(rng):
    q = _in_elem(rng)
    out = apply_qn(CTX, q)
    lam = PC.xi2 + PC.xi3
    lam_paper = (2.0 * (PC.S2 - PC.S4) / 7.0
                 + 2.0 * (PC.S4 / 35.0 - 2.0 * PC.S2 / 21.0 + 1.0 / 15.0))
    assert abs(lam - lam_paper) < 1e-14
    assert np.abs(out - lam * q).max() < 1e-12


def test_qn_self_adjoint(rng):
    for _ in range(10):
        b1 = to_matrix(random_qvec(rng))
        b2 = to_matrix(random_qvec(rng))
        lhs = np.tensordot(apply_qn(CTX, b1), b2)
        rhs = np.tensordot(apply_qn(CTX, b2), b1)
        assert abs(lhs - rhs) < 1e-13


def test_qn_matches_covariance_quadrature(rng):
    # <dQ(B0) E1, E2> = <(mm:E1)(mm:E2)>_f0 - (Q0:E1)(Q0:E2)
    m = QUAD.nodes
    f = np.exp(PC.eta * (m[:, 2]**2 - 1.0)) * QUAD.weights
    f /= f.sum()
    q0 = CTX.q0_matrix
    for _ in range(5):
        b1 = to_matrix(random_qvec(rng))
        b2 = to_matrix(random_qvec(rng))
        p1 = np.einsum("ni,ij,nj->n", m, b1, m)
        p2 = np.einsum("ni,ij,nj->n", m, b2, m)
        ref = np.sum(f * p1 * p2) - np.tensordot(q0, b1) * np.tensordot(q0, b2)
        got = np.tensordot(apply_qn(CTX, b1), b2)
        assert abs(got - ref) < 1e-10


def test_qn_inverse_composition(rng):
    for _ in range(100):
        q = random_qvec(rng)
        qm = to_matrix(q)
        back = apply_qn_inverse(CTX, apply_qn(CTX, qm))
        assert np.abs(back - qm).max() < 1e-10 * max(1.0, np.abs(qm).max())


def test_qn_inverse_in_space_eigenvalue(rng):
    q = _in_elem(rng)
    out = apply_qn_inverse(CTX, q)
    assert abs(PC.psi2 + PC.psi3 - PC.alpha) < 1e-8
    assert np.abs(out - PC.alpha * q).max() < 1e-9


def test_qn_inverse_zero():
    assert np.abs(apply_qn_inverse(CTX, np.zeros((3, 3)))).max() == 0.0


def test_hn_annihilates_rotations(rng):
    for _ in range(10):
        q = _in_elem(rng)
        assert np.abs(apply_hn(CTX, q)).max() < 1e-10
        # and agrees with Qn^-1 - alpha id
        q2 = to_matrix(random_qvec(rng))
        ref = apply_qn_inverse(CTX, q2) - PC.alpha * q2
        assert np.abs(apply_hn(CTX, q2) - ref).max() < 1e-9


def test_hn_lands_in_out_space(rng):
    for _ in range(10):
        q = to_matrix(random_qvec(rng))
        h = apply_hn(CTX, q)
        assert np.abs(project_out(N_VEC, h) - h).max() < 1e-12


def test_hn_coercive_on_out_space(rng):
    for alpha in (7.0, 8.0, 10.0):
        ctx = DirectorContext.build(N_VEC, phase_constants(alpha))
        c0 = coercivity_constant(ctx)
        assert c0 > 0.0
        basis = out_space_basis(N_VEC)
        for _ in range(20):
            c = rng.normal(size=3)
            q = np.einsum("a,aij->ij", c, basis)
            ray = np.tensordot(apply_hn(ctx, q), q) / np.tensordot(q, q)
            assert ray >= c0 - 1e-10


def test_beta_identities(rng):
    # coefficients of H(Qn B):Qn B = b1 (nn:B)^2 + b2 |Bn|^2 + b3 |B|^2;
    # the |nn:B|^2 coefficient of |Qn B|^2 carries 2 xi1 xi3 (cross term of
    # (nn - I/3)(nn:B) against xi3 B), verified here against the operators
    for alpha in (7.0, 8.0, 15.0):
        pc = phase_constants(alpha)
        ctx = DirectorContext.build(N_VEC, pc)
        x1, x2, x3 = pc.xi1, pc.xi2, pc.xi3
        b1 = x1 - alpha * ((2.0 / 3.0) * (x1 + 2 * x2)**2 - 2 * x2**2 + 2 * x1 * x3)
        b2 = 2 * x2 - alpha * (2 * x2**2 + 4 * x2 * x3)
        b3 = x3 - alpha * x3**2
        assert abs(b2 + 2 * b3) < 1e-10
        ref = (9.0 * (pc.A0 * pc.A4 - pc.A2**2)
               * (3 * pc.A2**2 + 2 * pc.A0 * pc.A2 - 5 * pc.A0 * pc.A4)
               / (8.0 * pc.A0**3 * (pc.A2 - pc.A4)))
        assert abs((b1 - 0.5 * b3) - ref) < 1e-10 * max(1.0, abs(ref))
        assert b1 - 0.5 * b3 > 0
        for _ in range(4):
            b = to_matrix(random_qvec(rng))
            c = N_VEC @ b @ N_VEC
            direct = np.tensordot(apply_hn(ctx, apply_qn(ctx, b)), apply_qn(ctx, b))
            form = b1 * c**2 + b2 * ((b @ N_VEC)**2).sum() + b3 * np.tensordot(b, b)
            assert abs(direct - form) < 1e-12


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_projections_structure(rng):
    for _ in range(20):
        q = to_matrix(random_qvec(rng))
        pin = project_in(N_VEC, q)
        pout = project_out(N_VEC, q)
        assert np.abs(pin + pout - q).max() < 1e-14
        assert np.abs(project_in(N_VEC, pin) - pin).max() < 1e-13
        assert np.abs(project_out(N_VEC, pout) - pout).max() < 1e-13
        q2 = to_matrix(random_qvec(rng))
        assert abs(np.tensordot(pin, project_out(N_VEC, q2))) < 1e-13


def test_projection_special_elements(rng):
    q_in = _in_elem(rng)
    assert np.abs(project_in(N_VEC, q_in) - q_in).max() < 1e-13
    assert np.abs(project_out(N_VEC, q_in)).max() < 1e-13
    q0 = np.outer(N_VEC, N_VEC) - np.eye(3) / 3.0
    assert np.abs(project_in(N_VEC, q0)).max() < 1e-14


def test_projection_norm_identity(rng):
    for _ in range(20):
        q = to_matrix(random_qvec(rng))
        pin = project_in(N_VEC, q)
        lhs = np.tensordot(pin, pin)
        rhs = 2.0 * ((q @ N_VEC)**2).sum() - 2.0 * (N_VEC @ q @ N_VEC)**2
        assert abs(lhs - rhs) < 1e-13


# ---------------------------------------------------------------------------
# J
# ---------------------------------------------------------------------------

def test_j_in_space_eigenvalue(rng):
    q = _in_elem(rng)
    lam = (1.0 / 3.0 + PC.S2 / 6.0
           - 2.0 * (PC.S2 - PC.S4) / 7.0
           - 2.0 * (PC.S4 / 35.0 - 2.0 * PC.S2 / 21.0 + 1.0 / 15.0))
    assert np.abs(apply_j(CTX, q) - lam * q).max() < 1e-12


def test_j_equals_mq_on_out_space(rng):
    mo = full_sphere_moments(uniaxial(PC.eta, N_VEC), QUAD)
    for _ in range(5):
        a = project_out(N_VEC, to_matrix(random_qvec(rng)))
        j = apply_j(CTX, a)
        m = apply_mq(mo, a)
        assert np.abs(j - m).max() < 1e-10
        assert np.abs(m - m.T).max() < 1e-10


def test_j_commutes_with_projections(rng):
    for _ in range(20):
        q = to_matrix(random_qvec(rng))
        c1 = apply_j(CTX, project_in(N_VEC, q)) - project_in(N_VEC, apply_j(CTX, q))
        c2 = apply_j(CTX, project_out(N_VEC, q)) - project_out(N_VEC, apply_j(CTX, q))
        assert np.abs(c1).max() < 1e-10
        assert np.abs(c2).max() < 1e-10


def test_j_self_adjoint_on_q_not_on_matrices(rng):
    for _ in range(10):
        qa = to_matrix(random_qvec(rng))
        qb = to_matrix(random_qvec(rng))
        assert abs(np.tensordot(apply_j(CTX, qa), qb)
                   - np.tensordot(apply_j(CTX, qb), qa)) < 1e-12
    # asymmetric inputs break the pairing: J is not self-adjoint on R^{3x3}
    a = np.zeros((3, 3))
    a[0, 2] = 1.0
    b = np.zeros((3, 3))
    b[2, 0] = 1.0
    lhs = np.tensordot(apply_j(CTX, a), b)
    rhs = np.tensordot(apply_j(CTX, b), a)
    assert abs(lhs - rhs) > 1e-3


# ---------------------------------------------------------------------------
# rotation equivariance and rates
# ---------------------------------------------------------------------------

def test_rotation_equivariance(rng):
    rot = haar_rotations(rng, 1)[0]
    n2 = rot @ N_VEC
    ctx2 = DirectorContext.build(n2, PC)
    for _ in range(5):
        q = to_matrix(random_qvec(rng))
        qr = rot @ q @ rot.T
        for op in (apply_qn, apply_qn_inverse, apply_hn):
            a = rot @ op(CTX, q) @ rot.T
            b = op(ctx2, qr)
            assert np.abs(a - b).max() < 1e-10
        a = rot @ project_in(N_VEC, q) @ rot.T
        assert np.abs(a - project_in(n2, qr)).max() < 1e-12
        a = rot @ apply_j(CTX, q) @ rot.T
        assert np.abs(a - apply_j(ctx2, qr)).max() < 1e-10


def test_relaxation_rates_positive():
    rates = relaxation_rates(CTX)
    assert rates.shape == (3,)
    assert rates.min() > 0.0


@pytest.mark.parametrize("alpha", [6.8, 7.0, 8.0, 10.0, 15.0, 50.0, 300.0])
def test_closed_form_out_space_constants(alpha):
    # 4 J H_n is rate_par on nn - I/3 and rate_perp on the biaxial pair, and
    # H_n's minimum there is min(h_par, h_perp)
    pc = phase_constants(alpha)
    ctx = DirectorContext.build(N_VEC, pc)
    basis = out_space_basis(N_VEC)
    closed = np.array([pc.rate_par, pc.rate_perp, pc.rate_perp])
    rel = np.abs(np.sort(closed) - relaxation_rates(ctx)) / np.abs(closed)
    assert rel.max() <= 1e-12
    for b, h in zip(basis, (pc.h_par, pc.h_perp, pc.h_perp)):
        assert abs(np.tensordot(apply_hn(ctx, b), b) - h) <= 1e-12 * abs(h)
    c0 = coercivity_constant(ctx)
    assert abs(min(pc.h_par, pc.h_perp) - c0) <= 1e-12 * abs(c0)


def test_bases_orthonormal():
    bin_ = in_space_basis(N_VEC)
    bout = out_space_basis(N_VEC)
    allb = np.concatenate([bin_, bout])
    g = np.einsum("aij,bij->ab", allb, allb)
    np.testing.assert_allclose(g, np.eye(5), atol=1e-13)
    for b in allb:
        assert abs(np.trace(b)) < 1e-14
        assert np.abs(b - b.T).max() < 1e-15
