"""Dense reference operators that the tests check the package against.

full_sphere_moments is the oracle of the Bingham moments: Z, the traceless
second moment and the dense fourth moment M4 of one B, each by a plain sum
over the nodes of a full-sphere rule. apply_mq is the closure operator M_Q
from those moments; the eigenframe contractions of ``closure`` must agree
with it. distortion_stress_sum is the field's distortion stress by its
index sums. The rest are the operators
linearized at the uniaxial equilibrium Q0 = S2 (nn - I/3): the moment-map
linearization acts on Q by three scalar coefficients xi_i and its inverse by
psi_i; H_n = (inverse) - alpha annihilates in-plane director rotations and is
coercive on the 3-dimensional complement; J linearizes the closure friction
operator. relaxation_rates and coercivity_constant measure 4 J H_n and H_n
on explicit out-space bases, the check on the closed forms in PhaseConstants.
All arguments are 3x3 matrices (batched where noted); fourth moments are
dense (3, 3, 3, 3) arrays. QBASIS is an orthonormal basis of Q for 5x5
operator matrices; elastic_eigh and eigh_apply diagonalize the elastic
symbol numerically, per mode, the check on the closed-form axial split of
spectral.elastic_symbols.
"""
from dataclasses import dataclass

import numpy as np

from qbingham._kernels import EXPONENT_BUDGET
from qbingham.equilibrium import PhaseConstants
from qbingham.tensors import from_matrix, to_matrix

_I3 = np.eye(3)


@dataclass(frozen=True)
class FullSphereMoments:
    """Partition function and moments of one Bingham density."""

    Z: float
    q_of_b: np.ndarray      # qvec of int (mm - I/3) f dm
    M4: np.ndarray          # (3, 3, 3, 3) int mmmm f dm


def full_sphere_moments(B, quad):
    """Z, traceless second moment and dense M4 of the Bingham density of the
    qvec B on the rule quad, the exponent shifted by its maximum."""
    Bmat = to_matrix(B)
    w = np.linalg.eigvalsh(Bmat)
    if w[2] - w[0] > EXPONENT_BUDGET:
        raise OverflowError(f"eigenvalue spread of B is {w[2] - w[0]:.1f}")
    m = quad.nodes
    qf = np.einsum("ni,ij,nj->n", m, Bmat, m)
    shift = qf.max()
    ew = quad.weights * np.exp(qf - shift)
    z0 = ew.sum()
    f = ew / z0
    mm = (m[:, :, None] * m[:, None, :]).reshape(-1, 9)
    second = np.einsum("n,ni,nj->ij", f, m, m)
    m4 = ((f[:, None] * mm).T @ mm).reshape(3, 3, 3, 3)
    return FullSphereMoments(float(np.exp(np.log(z0) + shift)), from_matrix(second - _I3 / 3.0),
                             m4)


def distortion_stress_sum(grad_q, L1, L2):
    """The distortion stress of one point by its index sums,
    sigma_ji = -(L1 Q_kl,j Q_kl,i + L2 Q_km,m Q_kj,i + L2 Q_kj,l Q_kl,i),
    from grad_q[a, k, l] = d_a Q_kl for a in (x, y); d_z Q = 0."""
    d = np.zeros((3, 3, 3))
    d[:2] = grad_q
    sig = np.zeros((3, 3))
    for j in range(3):
        for i in range(3):
            for k in range(3):
                for l in range(3):
                    sig[j, i] -= (L1 * d[j, k, l] * d[i, k, l] + L2 * d[l, k, l] * d[i, k, j]
                                  + L2 * d[l, k, j] * d[i, k, l])
    return sig


def apply_mq(moments, A):
    """M_Q(A) = (1/3) A + Q . A - A : M4 for an arbitrary 3x3 matrix A, from
    a FullSphereMoments."""
    A = np.asarray(A, dtype=float)
    Qm = to_matrix(moments.q_of_b)
    sym = 0.5 * (A + np.swapaxes(A, -1, -2))
    return A / 3.0 + Qm @ A - np.einsum("ijkl,...kl->...ij", moments.M4, sym)


def equilibrium_m4(constants: PhaseConstants, n):
    """Closed-form fourth moment of the equilibrium Bingham density."""
    n = np.asarray(n, dtype=float)
    s2, s4 = constants.S2, constants.S4
    nn = np.outer(n, n)
    n4 = np.einsum("i,j,k,l->ijkl", n, n, n, n)
    nd = (np.einsum("ij,kl->ijkl", nn, _I3) + np.einsum("ik,jl->ijkl", nn, _I3)
          + np.einsum("il,jk->ijkl", nn, _I3) + np.einsum("jk,il->ijkl", nn, _I3)
          + np.einsum("jl,ik->ijkl", nn, _I3) + np.einsum("kl,ij->ijkl", nn, _I3))
    dd = (np.einsum("ij,kl->ijkl", _I3, _I3) + np.einsum("ik,jl->ijkl", _I3, _I3)
          + np.einsum("il,jk->ijkl", _I3, _I3))
    return s4 * n4 + (s2 - s4) / 7.0 * nd + (s4 / 35.0 - 2.0 * s2 / 21.0 + 1.0 / 15.0) * dd


@dataclass(frozen=True)
class DirectorContext:
    """Equilibrium data around one director n."""

    n: np.ndarray
    constants: PhaseConstants
    M4: np.ndarray  # (3, 3, 3, 3)

    @classmethod
    def build(cls, n, constants):
        n = np.asarray(n, dtype=float)
        nrm = np.linalg.norm(n)
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError("director must be a unit vector")
        return cls(n / nrm, constants, equilibrium_m4(constants, n / nrm))

    @property
    def q0_matrix(self):
        return self.constants.S2 * (np.outer(self.n, self.n) - _I3 / 3.0)


def _coeff_apply(n, c_nn, c_mix, c_id, qmat):
    """c_nn (nn - I/3)(nn:Q) + c_mix (nn.Q + Q.nn - 2/3 I (nn:Q)) + c_id Q."""
    nn = np.outer(n, n)
    nnq = np.einsum("ij,...ij->...", nn, qmat)
    mix = np.einsum("ik,...kj->...ij", nn, qmat) + np.einsum("...ik,kj->...ij", qmat, nn)
    return (c_nn * (nn - _I3 / 3.0) * nnq[..., None, None]
            + c_mix * (mix - (2.0 / 3.0) * _I3 * nnq[..., None, None])
            + c_id * qmat)


def apply_qn(ctx: DirectorContext, q):
    """Moment-map linearization at the equilibrium, in closed form."""
    c = ctx.constants
    return _coeff_apply(ctx.n, c.xi1, c.xi2, c.xi3, q)


def apply_qn_inverse(ctx: DirectorContext, q):
    """Inverse of apply_qn on Q, in closed form."""
    c = ctx.constants
    return _coeff_apply(ctx.n, c.psi1, c.psi2, c.psi3, q)


def apply_hn(ctx: DirectorContext, q):
    """Linearized bulk force: apply_qn_inverse(Q) - alpha Q."""
    c = ctx.constants
    return _coeff_apply(ctx.n, c.psi1, c.psi2, -c.psi2, q)


def project_in(n, q):
    """Projection onto the director-rotation plane: nn.Q + Q.nn - 2(Q:nn)nn."""
    nn = np.outer(n, n)
    nnq = np.einsum("ij,...ij->...", nn, q)
    mix = np.einsum("ik,...kj->...ij", nn, q) + np.einsum("...ik,kj->...ij", q, nn)
    return mix - 2.0 * nnq[..., None, None] * nn


def project_out(n, q):
    """Complementary projection Q - project_in(n, Q)."""
    return q - project_in(n, q)


def apply_j(ctx: DirectorContext, a):
    """Symmetrized closure operator J(A) = (M(A) + M(A)^T) / 2."""
    q0 = ctx.q0_matrix
    a = np.asarray(a, dtype=float)
    at = np.swapaxes(a, -1, -2)
    sym = 0.5 * (a + at)
    return sym / 3.0 + 0.5 * (at @ q0 + q0 @ a) - np.einsum("ijkl,...kl->...ij", ctx.M4, sym)


# ---------------------------------------------------------------------------
# explicit bases and spectral diagnostics
# ---------------------------------------------------------------------------

def _frame(n):
    """Two unit vectors completing n to an orthonormal right-handed triple."""
    a = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(n, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return e1, e2


def in_space_basis(n):
    """Orthonormal basis of the rotation plane {n p + p n : p . n = 0}."""
    e1, e2 = _frame(n)
    b1 = (np.outer(n, e1) + np.outer(e1, n)) / np.sqrt(2.0)
    b2 = (np.outer(n, e2) + np.outer(e2, n)) / np.sqrt(2.0)
    return np.stack([b1, b2])


def out_space_basis(n):
    """Orthonormal basis of the complement of the rotation plane in Q."""
    e1, e2 = _frame(n)
    b0 = np.sqrt(1.5) * (np.outer(n, n) - _I3 / 3.0)
    b1 = (np.outer(e1, e1) - np.outer(e2, e2)) / np.sqrt(2.0)
    b2 = (np.outer(e1, e2) + np.outer(e2, e1)) / np.sqrt(2.0)
    return np.stack([b0, b1, b2])


def _matrix_on_basis(op, basis):
    return np.array([[np.tensordot(basis[a], op(basis[b])) for b in range(len(basis))]
                     for a in range(len(basis))])


def coercivity_constant(ctx: DirectorContext):
    """Measured Rayleigh minimum of H_n on the out space (positive)."""
    basis = out_space_basis(ctx.n)
    h = _matrix_on_basis(lambda q: apply_hn(ctx, q), basis)
    return float(np.linalg.eigvalsh(0.5 * (h + h.T))[0])


def relaxation_rates(ctx: DirectorContext):
    """Eigenvalues of 4 J H on the out space (the stiff bulk rates), ascending."""
    basis = out_space_basis(ctx.n)
    h = _matrix_on_basis(lambda q: apply_hn(ctx, q), basis)
    j = _matrix_on_basis(lambda q: apply_j(ctx, q), basis)
    rates = np.linalg.eigvals(4.0 * j @ h)
    return np.sort(rates.real)


# ---------------------------------------------------------------------------
# the orthonormal Q basis and the numerically diagonalized elastic symbol
# ---------------------------------------------------------------------------

QBASIS = np.stack([
    np.diag([1.0, -1.0, 0.0]) / np.sqrt(2.0),
    np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0),
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) / np.sqrt(2.0),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]]) / np.sqrt(2.0),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]]) / np.sqrt(2.0),
])


def to_basis_coeffs(q):
    """Coefficients of a qvec in the orthonormal basis QBASIS."""
    return np.einsum("...ij,aij->...a", to_matrix(q), QBASIS)


def from_basis_coeffs(c):
    """Inverse of to_basis_coeffs."""
    return from_matrix(np.einsum("...a,aij->...ij", c, QBASIS))


def elastic_eigh(grid, L1, L2):
    """Eigenvalues (n, nh, 5) and eigenvectors (n, nh, 5, 5) of the per-mode
    elastic symbol L1 k^2 I + 2 L2 Gram(E_a k) in the basis E_a = QBASIS."""
    kvec = np.stack([grid.kx, grid.ky, np.zeros_like(grid.kx)], axis=-1)
    ek = np.einsum("aij,xyj->xyai", QBASIS, kvec)
    gram = np.einsum("xyai,xybi->xyab", ek, ek)
    return np.linalg.eigh(L1 * grid.ksq[..., None, None] * np.eye(5) + 2.0 * L2 * gram)


def eigh_apply(grid, vec, diag, q5_field):
    """Apply the per-mode matrix vec diag vec^T to a qvec field in QBASIS."""
    ch = grid.fft(to_basis_coeffs(q5_field))
    ch = np.einsum("xyab,xyb->xya", vec, diag * np.einsum("xyba,xyb->xya", vec, ch))
    return from_basis_coeffs(grid.ifft(ch))
