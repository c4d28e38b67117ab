"""Algebra of symmetric traceless 3x3 tensors (the 5-dimensional space Q).

A tensor is stored by its five independent components

    q = [q11, q22, q12, q13, q23],        q33 = -q11 - q22,

so symmetry and tracelessness are structural, never a numerical property.
All functions accept batched arrays with the component axis last.
Eigendecompositions go to LAPACK: ``eig_sym3`` for the eigenframe,
``eigenvalue_margin`` for the eigenvalues alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QTensor", "EigenFrame", "Tensor4Sym", "Tensor6Sym",
    "from_components", "to_matrix", "from_matrix", "sym_traceless",
    "qdot", "qnorm", "eig_sym3", "eigen_frame", "is_physical",
    "eigenvalue_margin", "biaxiality", "contract42", "QBASIS",
    "to_basis_coeffs", "from_basis_coeffs",
]

# ---------------------------------------------------------------------------
# component layout helpers
# ---------------------------------------------------------------------------

_I3 = np.eye(3)


def from_components(c):
    """Build a qvec from five scalars, rejecting non-finite input."""
    q = np.asarray(c, dtype=float)
    if q.shape[-1] != 5:
        raise ValueError(f"expected 5 components, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("non-finite tensor components")
    return q


def to_matrix(q):
    """qvec (..., 5) -> full symmetric traceless matrix (..., 3, 3)."""
    q = np.asarray(q, dtype=float)
    m = np.empty(q.shape[:-1] + (3, 3), dtype=q.dtype)
    m[..., 0, 0] = q[..., 0]
    m[..., 1, 1] = q[..., 1]
    m[..., 2, 2] = -q[..., 0] - q[..., 1]
    m[..., 0, 1] = m[..., 1, 0] = q[..., 2]
    m[..., 0, 2] = m[..., 2, 0] = q[..., 3]
    m[..., 1, 2] = m[..., 2, 1] = q[..., 4]
    return m


def from_matrix(m):
    """Extract the 5 components of a matrix assumed symmetric traceless."""
    m = np.asarray(m, dtype=float)
    return np.stack(
        [m[..., 0, 0], m[..., 1, 1], m[..., 0, 1], m[..., 0, 2], m[..., 1, 2]],
        axis=-1,
    )


def sym_traceless(m):
    """Project an arbitrary 3x3 matrix onto Q (symmetrize and remove trace)."""
    m = np.asarray(m, dtype=float)
    s = 0.5 * (m + np.swapaxes(m, -1, -2))
    tr = np.trace(s, axis1=-2, axis2=-1)[..., None, None]
    return s - tr * _I3 / 3.0


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


# orthonormal basis of Q, used for 5x5 operator matrices
QBASIS = np.stack([
    np.diag([1.0, -1.0, 0.0]) / np.sqrt(2.0),
    np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0),
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) / np.sqrt(2.0),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]]) / np.sqrt(2.0),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]]) / np.sqrt(2.0),
])


def to_basis_coeffs(q):
    """Coefficients of a qvec in the orthonormal basis QBASIS."""
    m = to_matrix(q)
    return np.einsum("...ij,aij->...a", m, QBASIS)


def from_basis_coeffs(c):
    """Inverse of to_basis_coeffs."""
    m = np.einsum("...a,aij->...ij", np.asarray(c, dtype=float), QBASIS)
    return from_matrix(m)


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def eig_sym3(mats):
    """Eigendecomposition of symmetric 3x3 matrices, shape (3, 3) or (..., 3, 3).

    LAPACK ``syevd`` through ``np.linalg.eigh``, backward stable also at
    repeated eigenvalues. The third eigenvector is multiplied by the sign of
    det(R), which makes every frame right-handed. Returns (w, R) with w
    ascending and R the matrix of eigenvector columns.
    """
    w, R = np.linalg.eigh(np.asarray(mats, dtype=float))
    R[..., 2] *= np.sign(np.linalg.det(R))[..., None]
    return w, R


def eigenvalue_margin(q):
    """Distance of the eigenvalues of Q from the physical boundary.

    Returns min(lam_min + 1/3, 2/3 - lam_max); positive inside Q_phy.
    """
    w = np.linalg.eigvalsh(to_matrix(q))
    return np.minimum(w[..., 0] + 1.0 / 3.0, 2.0 / 3.0 - w[..., 2])


def is_physical(q, delta=0.0):
    """Whether all eigenvalues of Q lie in [-1/3 + delta, 2/3 - delta]."""
    if not 0.0 <= delta < 1.0 / 3.0:
        raise ValueError("margin delta must lie in [0, 1/3)")
    return eigenvalue_margin(q) >= delta


def biaxiality(q):
    """Biaxiality measure 1 - 6 (tr Q^3)^2 / (tr Q^2)^3, in [0, 1].

    Zero exactly for uniaxial tensors; defined as 0 for the zero tensor.
    """
    m = to_matrix(q)
    t2 = np.einsum("...ij,...ij->...", m, m)
    t3 = np.trace(m @ m @ m, axis1=-2, axis2=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 1.0 - 6.0 * t3**2 / t2**3
    val = np.where(t2 > 0.0, val, 0.0)
    return np.clip(val, 0.0, 1.0)


# ---------------------------------------------------------------------------
# symmetric 4th and 6th order tensors
# ---------------------------------------------------------------------------

def _sym_index_maps(order):
    """Index map full-tensor multi-index -> unique sorted-component slot."""
    from itertools import combinations_with_replacement, product

    uniq = list(combinations_with_replacement(range(3), order))
    slot = {u: k for k, u in enumerate(uniq)}
    full = np.empty((3,) * order, dtype=np.int64)
    for idx in product(range(3), repeat=order):
        full[idx] = slot[tuple(sorted(idx))]
    return uniq, full


_UNIQ4, _MAP4 = _sym_index_maps(4)
_UNIQ6, _MAP6 = _sym_index_maps(6)


@dataclass(frozen=True)
class Tensor4Sym:
    """Fully symmetric 4th-order tensor stored by its 15 unique components."""

    components: np.ndarray  # (15,)

    @classmethod
    def from_dense(cls, t, check=True, tol=1e-10):
        t = np.asarray(t, dtype=float)
        if check:
            s = np.abs(t).max() + 1e-300
            for ax in ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)):
                if np.abs(t - np.transpose(t, ax)).max() > tol * s:
                    raise ValueError("tensor is not fully index-symmetric")
        comp = np.empty(len(_UNIQ4))
        for k, u in enumerate(_UNIQ4):
            comp[k] = t[u]
        return cls(comp)

    @property
    def dense(self):
        return self.components[_MAP4]

    def contract2(self, a):
        """(T : A)_ij = T_ijkl A_kl for a 3x3 matrix A."""
        return np.einsum("ijkl,...kl->...ij", self.dense, np.asarray(a, dtype=float))

    def partial_trace(self):
        """T_ijkk as a 3x3 matrix."""
        return np.einsum("ijkk->ij", self.dense)


@dataclass(frozen=True)
class Tensor6Sym:
    """Fully symmetric 6th-order tensor stored by its 28 unique components."""

    components: np.ndarray  # (28,)

    @classmethod
    def from_dense(cls, t, check=True, tol=1e-10):
        t = np.asarray(t, dtype=float)
        if check:
            s = np.abs(t).max() + 1e-300
            for ax in ((1, 0, 2, 3, 4, 5), (0, 2, 1, 3, 4, 5),
                       (0, 1, 3, 2, 4, 5), (0, 1, 2, 4, 3, 5), (0, 1, 2, 3, 5, 4)):
                if np.abs(t - np.transpose(t, ax)).max() > tol * s:
                    raise ValueError("tensor is not fully index-symmetric")
        comp = np.empty(len(_UNIQ6))
        for k, u in enumerate(_UNIQ6):
            comp[k] = t[u]
        return cls(comp)

    @property
    def dense(self):
        return self.components[_MAP6]

    def contract2(self, b):
        """(T : B)_ijkl = T_ijklmn B_mn, returned as a Tensor4Sym."""
        d = np.einsum("ijklmn,mn->ijkl", self.dense, np.asarray(b, dtype=float))
        return Tensor4Sym.from_dense(d, check=False)

    def partial_trace(self):
        """T_ijklmm as a Tensor4Sym."""
        return Tensor4Sym.from_dense(np.einsum("ijklmm->ijkl", self.dense), check=False)


def contract42(m4, a):
    """M_ijkl A_kl for a Tensor4Sym or dense (3,3,3,3) array."""
    if isinstance(m4, Tensor4Sym):
        return m4.contract2(a)
    return np.einsum("ijkl,...kl->...ij", np.asarray(m4, dtype=float), np.asarray(a, dtype=float))


# ---------------------------------------------------------------------------
# value classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenFrame:
    """Sorted eigenvalues and a right-handed orthonormal eigenvector frame."""

    eigenvalues: np.ndarray  # (3,) ascending
    rotation: np.ndarray     # (3, 3), columns are eigenvectors

    def reconstruct(self):
        return self.rotation @ np.diag(self.eigenvalues) @ self.rotation.T


@dataclass(frozen=True)
class QTensor:
    """A symmetric traceless 3x3 tensor (element of Q)."""

    q: np.ndarray  # (5,)

    @classmethod
    def from_components(cls, c):
        return cls(from_components(np.asarray(c, dtype=float).reshape(5)))

    @classmethod
    def from_matrix_sym(cls, m, tol=1e-10):
        m = np.asarray(m, dtype=float)
        s = np.abs(m).max() + 1e-300
        if np.abs(m - m.T).max() > tol * s or abs(np.trace(m)) > tol * s:
            raise ValueError("matrix is not symmetric traceless")
        return cls(from_matrix(m))

    @classmethod
    def uniaxial(cls, s, n):
        n = np.asarray(n, dtype=float)
        n = n / np.linalg.norm(n)
        return cls(uniaxial(s, n))

    @property
    def matrix(self):
        return to_matrix(self.q)

    @property
    def norm(self):
        return float(qnorm(self.q))

    def eigen_frame(self):
        w, r = eig_sym3(self.matrix)
        return EigenFrame(w, r)

    def is_physical(self, delta=0.0):
        return bool(is_physical(self.q, delta))

    def biaxiality(self):
        return float(biaxiality(self.q))


def eigen_frame(q):
    """EigenFrame of a qvec or QTensor."""
    if isinstance(q, QTensor):
        return q.eigen_frame()
    w, r = eig_sym3(to_matrix(q))
    return EigenFrame(w, r)
