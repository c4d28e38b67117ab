"""Algebra of symmetric traceless 3x3 tensors (the 5-dimensional space Q).

A tensor is stored by its five independent components

    q = [q11, q22, q12, q13, q23],        q33 = -q11 - q22,

so symmetry and tracelessness are structural, never a numerical property.
All functions accept batched arrays with the component axis last. There
are no tensor classes: a qvec is a plain ndarray. The closure keeps the
fourth moment as its pair moments <m_i^2 m_j^2> in the eigenframe; only
the tests' full-sphere reference forms a dense (3, 3, 3, 3) M4.
``eig_sym3`` gives the eigenframe: a batch of fewer than CLOSED_FORM_MIN
matrices goes to LAPACK, a larger one to a closed form vectorised over the
batch; ``eigenvalue_margin`` reads its eigenvalues. ``axial_parts`` splits
Q relative to a unit vector n into its parts on nn - I/3, on the pair
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


def _matrix_rows(c):
    """Component-major qvecs c (..., 5, N) -> contiguous matrix rows
    (..., 3, 3, N), the 3x3 axes ahead of the batch axis (the field's layout):
    to_matrix with the components first."""
    m = np.take(c, _MATRIX_OF_QVEC, axis=-2)
    m[..., 8, :] = -c[..., 0, :] - c[..., 1, :]
    return m.reshape(c.shape[:-2] + (3, 3, c.shape[-1]))


def _qvec_rows(m):
    """Matrix rows (3, 3, N), assumed symmetric traceless -> contiguous
    component-major qvecs (5, N): from_matrix with the components first."""
    return m.reshape((9,) + m.shape[2:]).take(_QVEC_OF_MATRIX, axis=0)


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
    Written out in components: this runs per Fourier mode in every field step,
    and the parts come out component-major in memory, as the field's spectra.
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
                   c * n0 * n1, c * n0 * n2, c * n1 * n2])
    p2 = np.stack([2.0 * n0 * u0, 2.0 * n1 * u1, n0 * u1 + n1 * u0,
                   n0 * u2 + n2 * u0, n1 * u2 + n2 * u1])
    return np.moveaxis(p1, 0, -1), np.moveaxis(p2, 0, -1)


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

# Batches of at least this many matrices take eig_sym3's closed form, smaller
# ones LAPACK: the closed form's ~150 numpy calls cost ~0.3 ms at any size up
# to ~128 matrices, LAPACK ~2.5 us a matrix (crossover table in CHANGES.md).
CLOSED_FORM_MIN = 128


def eig_sym3(mats):
    """Eigendecomposition of symmetric 3x3 matrices, shape (3, 3) or (..., 3, 3).

    Returns (w, R) with w ascending and R the orthogonal matrix of
    eigenvector columns, C-contiguous; the sign of each column, and so the
    handedness of the frame, is the method's own. A batch of fewer than
    CLOSED_FORM_MIN matrices goes to LAPACK ``syevd`` (``np.linalg.eigh``),
    backward stable also at repeated eigenvalues. A larger batch takes
    _eig_closed, vectorised over the batch, with the same contract, tested
    on random, shifted, uniaxial, zero, c I and near-degenerate input (gaps
    0 to 1e-9): per matrix and entrywise, ||R^T A R - diag w|| and
    |w - eigvalsh(A)| stay within 32 u max|A| and ||R^T R - I|| within 32 u
    (u the unit roundoff), and the two paths' R diag(w) R^T agree to
    32 u max|A|. A planar input (a13 = a23 = 0) keeps e_z as an exact
    eigenvector on both. A non-finite matrix gives NaN eigenvalues in its
    row and no warning.
    """
    a = np.asarray(mats, dtype=float)
    n = a.size // 9
    if n < CLOSED_FORM_MIN:
        return np.linalg.eigh(a)
    with np.errstate(all="ignore"):
        w, r = _eig_closed(a.reshape(n, 3, 3))
    return w.reshape(a.shape[:-1]), r.reshape(a.shape)


def _unit(x, y, z):
    """(x, y, z) / |(x, y, z)|, by division, so that an axis comes out exact."""
    norm = np.sqrt(x * x + y * y + z * z)
    return x / norm, y / norm, z / norm


def _eig_closed(a):
    """(w, R) of symmetric a (N, 3, 3), component by component over N.

    A is shifted by its trace and scaled by a power of two to C, whose
    entries lie in (-1, 1). Of C's eigenvalues 2 p cos((arccos r + 2 pi k)
    / 3), r = det C / (2 p^3) (Smith, Comm. ACM 4, 1961), the extreme one
    farther from the middle one is isolated: sign(det) 2 p cos(arccos|r| /
    3), with a gap of at least half the spread to the others. Its
    eigenvector v is the largest-diagonal column of adj(C - lam I). The
    other two come from one Jacobi rotation of C's 2x2 block on an
    orthonormal basis (u, w) of v's complement (Kopp, Int. J. Mod. Phys. C
    19, 2008). The eigenvalues are Rayleigh quotients: the block's by the
    rotation, v's as the trace minus those two.
    """
    n = len(a)
    a11, a12, a13, _, a22, a23, _, _, a33 = a.reshape(n, 9).T
    shift = (a11 + a22 + a33) / 3.0
    d1, d2, d3 = a11 - shift, a22 - shift, a33 - shift
    big = np.maximum(np.maximum(np.abs(d1), np.abs(d2)), np.abs(d3))
    big = np.maximum(np.maximum(big, np.abs(a12)), np.maximum(np.abs(a13), np.abs(a23)))
    ex = np.frexp(big)[1]
    scale = np.ldexp(1.0, -ex)
    d1 *= scale
    d2 *= scale
    d3 *= scale
    c12, c13, c23 = a12 * scale, a13 * scale, a23 * scale
    s12, s13, s23 = c12 * c12, c13 * c13, c23 * c23
    p2 = (d1 * d1 + d2 * d2 + d3 * d3 + 2.0 * (s12 + s13 + s23)) / 6.0
    p = np.sqrt(p2)
    det = d1 * (d2 * d3 - s23) - d2 * s13 - d3 * s12 + 2.0 * c12 * c13 * c23
    den = 2.0 * p * p2
    den += den == 0.0                          # C = 0: r = 0, lam = 0
    r = np.minimum(np.abs(det) / den, 1.0)
    lam = np.copysign(2.0 * p * np.cos(np.arccos(r) / 3.0), det)
    # Selections below are blends x * f + y * (1 - f) with f = 0.0 or 1.0,
    # exact and cheaper than np.where. top: lam is the largest eigenvalue.
    top = 1.0 - np.signbit(det)

    # adj(C - lam I) = (lam_2 - lam)(lam_3 - lam) v v^T: its diagonal is >= 0
    m1, m2, m3 = d1 - lam, d2 - lam, d3 - lam
    j11, j22, j33 = m2 * m3 - s23, m1 * m3 - s13, m1 * m2 - s12
    j12, j13, j23 = c13 * c23 - c12 * m3, c12 * c23 - c13 * m2, c12 * c13 - m1 * c23
    k1 = (j11 >= j22) & (j11 >= j33)
    f1, f3 = k1.astype(float), ((j33 > j22) & ~k1).astype(float)
    f2 = 1.0 - f1 - f3
    vx = j11 * f1 + j12 * f2 + j13 * f3
    vy = j12 * f1 + j22 * f2 + j23 * f3
    vz = j13 * f1 + j23 * f2 + j33 * f3
    vz += (vx == 0.0) & (vy == 0.0) & (vz == 0.0)     # C = 0: any frame
    vx, vy, vz = _unit(vx, vy, vz)

    # (u, w) spans v's complement (Hughes & Moller, J. Graphics Tools 4, 1999)
    f = (np.abs(vx) > np.abs(vz)).astype(float)
    ux, uy, uz = _unit(-(vy * f), vx * f - vz * (1.0 - f), vy * (1.0 - f))
    wx, wy, wz = _unit(vy * uz - vz * uy, vz * ux - vx * uz, vx * uy - vy * ux)

    # the block [[au, b], [b, aw]] and the rotation by t = tan(theta) that
    # diagonalises it, |theta| <= pi/4 (Golub & Van Loan, sym.schur2)
    cwx = d1 * wx + c12 * wy + c13 * wz
    cwy = c12 * wx + d2 * wy + c23 * wz
    cwz = c13 * wx + c23 * wy + d3 * wz
    au = (d1 * ux * ux + d2 * uy * uy + d3 * uz * uz
          + 2.0 * (c12 * ux * uy + c13 * ux * uz + c23 * uy * uz))
    aw = wx * cwx + wy * cwy + wz * cwz
    b = ux * cwx + uy * cwy + uz * cwz
    gap = aw - au
    hyp = np.abs(gap) + np.sqrt(gap * gap + 4.0 * b * b)
    hyp += hyp == 0.0                          # a multiple of I: t = 0
    t = np.copysign(2.0, gap) * b / hyp
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    lo, hi = au - t * b, aw + t * b
    # for gap < 0, lo > hi: those rows turn by a further pi/2, which swaps
    # the two columns, so that the first holds the lower eigenvalue
    f = np.signbit(gap).astype(float)
    c, s = c * (1.0 - f) - s * f, s * (1.0 - f) + c * f
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    iso = (d1 + d2 + d3) - lo - hi

    # ascending: (lo, hi, iso) where det >= 0, else (iso, lo, hi)
    back = np.ldexp(1.0, ex)
    lo, hi, iso = lo * back + shift, hi * back + shift, iso * back + shift
    bot = 1.0 - top
    w = np.empty((n, 3))
    w[:, 0] = lo * top + iso * bot
    w[:, 1] = hi * top + lo * bot
    w[:, 2] = iso * top + hi * bot
    rot = np.empty((n, 3, 3))
    for i, (vi, ui, wi) in enumerate(((vx, ux, wx), (vy, uy, wy), (vz, uz, wz))):
        low, high = c * ui - s * wi, s * ui + c * wi
        rot[:, i, 0] = low * top + vi * bot
        rot[:, i, 1] = high * top + low * bot
        rot[:, i, 2] = vi * top + high * bot
    return w, rot


def eigenvalue_margin(q):
    """Distance of the eigenvalues of Q from the physical boundary.

    Returns min(lam_min + 1/3, 2/3 - lam_max); positive inside Q_phy. The
    eigenvalues are eig_sym3's.
    """
    w = eig_sym3(to_matrix(q))[0]
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
