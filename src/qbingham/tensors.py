"""Algebra of symmetric traceless 3x3 tensors (the 5-dimensional space Q).

A tensor is stored by its five independent components

    q = [q11, q22, q12, q13, q23],        q33 = -q11 - q22,

so symmetry and tracelessness are structural, never a numerical property.
All functions accept batched arrays with the component axis last. There
are no tensor classes: a qvec is a plain ndarray. The closure keeps the
fourth moment as its pair moments <m_i^2 m_j^2> in the eigenframe; only
the tests' full-sphere reference forms a dense (3, 3, 3, 3) M4.
Eigendecompositions go to LAPACK: ``eig_sym3`` for the eigenframe,
``eigenvalue_margin`` for the eigenvalues alone. ``axial_parts`` splits Q
relative to a unit vector n into its parts on nn - I/3, on the pair
n e + e n (e . n = 0) and on the tensors with Q n = 0; the field solver
takes n = k/|k| per Fourier mode, where this split diagonalizes the
elastic operator.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "to_matrix", "from_matrix", "qdot", "qnorm",
    "eig_sym3", "eigenvalue_margin", "biaxiality", "uniaxial", "axial_parts",
]

# ---------------------------------------------------------------------------
# component layout helpers
# ---------------------------------------------------------------------------

_I3 = np.eye(3)
# qvec -> row-major 3x3 entries (q33 = -q11 - q22 set after), and back
_MATRIX_OF_QVEC = np.array([0, 2, 3, 2, 1, 4, 3, 4, 0])
_QVEC_OF_MATRIX = np.array([0, 4, 1, 2, 5])


def to_matrix(q):
    """qvec (..., 5) -> full symmetric traceless matrix (..., 3, 3)."""
    q = np.asarray(q, dtype=float)
    m = q.take(_MATRIX_OF_QVEC, axis=-1)
    m[..., 8] = -q[..., 0] - q[..., 1]
    return m.reshape(q.shape[:-1] + (3, 3))


def from_matrix(m):
    """Extract the 5 components of a matrix assumed symmetric traceless."""
    m = np.asarray(m, dtype=float)
    return m.reshape(m.shape[:-2] + (9,)).take(_QVEC_OF_MATRIX, axis=-1)


def qdot(a, b):
    """Inner product A:B = A_ij B_ij in the 5-component representation."""
    a = np.asarray(a)
    b = np.asarray(b)
    q33a = -a[..., 0] - a[..., 1]
    q33b = -b[..., 0] - b[..., 1]
    return (
        a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + q33a * q33b
        + 2.0 * (a[..., 2] * b[..., 2] + a[..., 3] * b[..., 3] + a[..., 4] * b[..., 4])
    )


def qnorm(q):
    """Frobenius norm sqrt(Q_ij Q_ij)."""
    return np.sqrt(qdot(q, q))


def uniaxial(s, n):
    """qvec of s (nn - I/3) for a unit vector n."""
    n = np.asarray(n, dtype=float)
    m = s * (np.einsum("...i,...j->...ij", n, n) - _I3 / 3.0)
    return from_matrix(m)


def axial_parts(q, n):
    """The parts (P1 q, P2 q) of qvecs q (..., 5), real or complex, on
    nn - I/3 and on {n e + e n : e . n = 0}, for unit vectors n (..., 3).

    With s = n . Q n and u = Q n - s n: P1 Q = (3/2) s (nn - I/3) and
    P2 Q = n u + u n. The rest, P3 q = q - P1 q - P2 q, has P3 Q n = 0. The
    three are orthogonal projections in A:B. For n = 0 both parts are 0.
    Written out in components: this runs per Fourier mode in every field step.
    """
    n0, n1, n2 = np.moveaxis(np.asarray(n, dtype=float), -1, 0)
    q11, q22, q12, q13, q23 = np.moveaxis(np.asarray(q), -1, 0)
    v0 = q11 * n0 + q12 * n1 + q13 * n2                      # Q n
    v1 = q12 * n0 + q22 * n1 + q23 * n2
    v2 = q13 * n0 + q23 * n1 - (q11 + q22) * n2
    s = v0 * n0 + v1 * n1 + v2 * n2
    u0, u1, u2 = v0 - s * n0, v1 - s * n1, v2 - s * n2
    c = 1.5 * s
    p1 = np.stack([c * (n0 * n0 - 1.0 / 3.0), c * (n1 * n1 - 1.0 / 3.0),
                   c * n0 * n1, c * n0 * n2, c * n1 * n2], axis=-1)
    p2 = np.stack([2.0 * n0 * u0, 2.0 * n1 * u1, n0 * u1 + n1 * u0,
                   n0 * u2 + n2 * u0, n1 * u2 + n2 * u1], axis=-1)
    return p1, p2


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def eig_sym3(mats):
    """Eigendecomposition of symmetric 3x3 matrices, shape (3, 3) or (..., 3, 3).

    LAPACK ``syevd`` through ``np.linalg.eigh``, backward stable also at
    repeated eigenvalues. Returns (w, R) with w ascending and R the
    orthogonal matrix of eigenvector columns; the sign of each column, and
    so the handedness of the frame, is LAPACK's.
    """
    return np.linalg.eigh(np.asarray(mats, dtype=float))


def eigenvalue_margin(q):
    """Distance of the eigenvalues of Q from the physical boundary.

    Returns min(lam_min + 1/3, 2/3 - lam_max); positive inside Q_phy.
    """
    w = np.linalg.eigvalsh(to_matrix(q))
    return np.minimum(w[..., 0] + 1.0 / 3.0, 2.0 / 3.0 - w[..., 2])


def biaxiality(w):
    """Biaxiality measure 1 - 6 (tr Q^3)^2 / (tr Q^2)^3, in [0, 1], from the
    eigenvalues w (..., 3) of Q, ascending (a closure's q_eigs).

    Zero exactly for uniaxial tensors; defined as 0 for the zero tensor.
    """
    w = np.asarray(w, dtype=float)
    t2 = (w * w).sum(axis=-1)
    t3 = (w * w * w).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 1.0 - 6.0 * t3**2 / t2**3
    val = np.where(t2 > 0.0, val, 0.0)
    return np.clip(val, 0.0, 1.0)
