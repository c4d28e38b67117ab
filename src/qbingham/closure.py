"""Inversion of the Bingham moment map Q = Q(B) and the closure operator.

Every physical Q (eigenvalues strictly inside (-1/3, 2/3)) has exactly one
Lagrange tensor B whose Bingham density reproduces it. B shares the
eigenframe of Q, so the 5-dimensional inversion reduces to a damped Newton
ascent in the two independent eigenvalues of B; the lab-frame tensor is
recovered by rotation. The ascent objective B:Q - ln Z(B) is strictly
concave, which makes the damped iteration globally convergent.

The eigenframe rule's node count follows from the eigenvalue spread of B
alone (``_kernels.nodes_for_spread``). The full-sphere rule of ``sphere``
is never passed to the solver; it serves only the dense reference
operators below and independent forward checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad as _quad1d

from . import _kernels
from .sphere import BinghamMoments, _density
from .tensors import QBASIS, eig_sym3, from_matrix, to_matrix

__all__ = [
    "PhysicalityError", "bingham_map_batch", "BatchClosureResult",
    "closure_jacobian", "apply_mq", "spread_bound", "m4_contract_frame",
    "mq_apply_frame",
]

DEFAULT_TOL = 1e-11
MAX_ITER = 50
ALPHA_REF = 5.0  # initial guess B = ALPHA_REF * Q, exact at nematic equilibria


class PhysicalityError(ValueError):
    """Q left the admissible eigenvalue range for the requested margin."""


@lru_cache(maxsize=None)
def _nodes(n_x, n_phi):
    return _kernels.reduced_nodes(n_x, n_phi)


@dataclass(frozen=True)
class BatchClosureResult:
    """Vectorized closure solves for a batch of Q tensors."""

    b_diag: np.ndarray     # (N, 3) eigenvalues of B in the frame of Q
    rotation: np.ndarray   # (N, 3, 3) eigenvector columns shared by Q and B
    q_eigs: np.ndarray     # (N, 3) eigenvalues of Q, ascending
    log_z: np.ndarray      # (N,)
    second: np.ndarray     # (N, 3) <m_i^2> in the eigenframe
    pair: np.ndarray       # (N, 3, 3) <m_i^2 m_j^2> in the eigenframe
    residual: np.ndarray   # (N,)
    iterations: np.ndarray
    used_damping: np.ndarray
    B5: np.ndarray         # (N, 5) lab-frame qvecs of B

    @property
    def spread(self):
        return self.b_diag.max(axis=1) - self.b_diag.min(axis=1)


def bingham_map_batch(q5, delta=0.0, tol=DEFAULT_TOL, b_warm5=None):
    """Invert the moment map for a batch of qvecs (N, 5).

    b_warm5 may carry lab-frame warm starts (N, 5) from a previous solve;
    they are rotated into the current eigenframe of each Q. Raises
    ValueError for tol below 1e-13, PhysicalityError for Q outside the
    margin delta, and RuntimeError on non-convergence.
    """
    if tol < 1e-13:
        raise ValueError("tol below 1e-13 is not resolvable by the quadrature")
    q5 = np.asarray(q5, dtype=float).reshape(-1, 5)
    w, rot = eig_sym3(to_matrix(q5))
    margin = np.minimum(w[:, 0] + 1.0 / 3.0, 2.0 / 3.0 - w[:, 2])
    if np.any(margin < delta):
        k = int(np.argmin(margin))
        raise PhysicalityError(
            f"non-physical Q in batch (worst margin {margin[k]:.3e} < "
            f"delta={delta:.3e} at index {k}); eigenvalues must stay in "
            f"[-1/3 + delta, 2/3 - delta]")

    if b_warm5 is not None:
        bmat = to_matrix(np.asarray(b_warm5, dtype=float).reshape(-1, 5))
        b0 = np.einsum("nki,nkl,nlj->nij", rot, bmat, rot)
        b0 = np.stack([b0[:, 0, 0], b0[:, 1, 1], b0[:, 2, 2]], axis=1)
    else:
        b0 = ALPHA_REF * w
    b0 = b0 - b0.mean(axis=1, keepdims=True)

    # spread estimate for the node policy: current guess plus slack, re-run
    # once with upgraded nodes if the converged solution leaves the range
    est = max(8.0, 1.3 * float((b0.max(1) - b0.min(1)).max()) + 6.0)
    for _attempt in range(3):
        nodes = _nodes(*_kernels.nodes_for_spread(est))
        b, res, iters, damped, lnz, second, pair = _kernels.newton_batch(
            w, b0, nodes, tol=tol, maxit=MAX_ITER)
        spread = float((b.max(1) - b.min(1)).max()) if b.size else 0.0
        if spread <= est or not np.all(np.isfinite(res)):
            break
        est = 1.3 * spread
        b0 = b
    if not np.all(res <= tol):
        k = int(np.argmax(res))
        raise RuntimeError(
            f"closure Newton failed to converge: worst residual {res[k]:.3e} "
            f"after {int(iters[k])} iterations (tol {tol:.1e}); "
            f"q eigenvalues {w[k]}")
    b5 = from_matrix(np.einsum("nik,nk,njk->nij", rot, b, rot))
    return BatchClosureResult(b, rot, w, lnz, second, pair, res, iters, damped, b5)


# ---------------------------------------------------------------------------
# closure operator and Jacobian
# ---------------------------------------------------------------------------

def apply_mq(moments: BinghamMoments, A):
    """M_Q(A) = (1/3) A + Q . A - A : M4 for an arbitrary 3x3 matrix A.

    The dense reference for mq_apply_frame.
    """
    A = np.asarray(A, dtype=float)
    Qm = to_matrix(moments.q_of_b)
    sym = 0.5 * (A + np.swapaxes(A, -1, -2))
    return A / 3.0 + Qm @ A - np.einsum("ijkl,...kl->...ij", moments.M4, sym)


def closure_jacobian(B, quad):
    """grad_B Q(B) as a (5, 5) array in the orthonormal basis QBASIS,
    entry (a, b) = <dQ E_b, E_a>.

    Uses the covariance form: <dQ(B) E, E'> = <(mm:E)(mm:E')>_f - (Q:E)(Q:E').
    """
    f, _ = _density(B, quad)
    m = quad.nodes
    proj = np.einsum("ni,aij,nj->na", m, QBASIS, m)   # mm : E_a per node
    cov = np.einsum("n,na,nb->ab", f, proj, proj)
    mean = np.einsum("n,na->a", f, proj)
    return cov - np.outer(mean, mean)


# ---------------------------------------------------------------------------
# eigenframe contraction helpers (shared with the field solver)
# ---------------------------------------------------------------------------

def m4_contract_frame(rotation, pair, A):
    """(M4 : A) in the lab frame from eigenframe pair moments.

    rotation: (..., 3, 3), pair: (..., 3, 3) with pair[i, j] = <m_i^2 m_j^2>,
    A: (..., 3, 3) arbitrary (only its symmetric part contributes).
    """
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    rt = np.swapaxes(rotation, -1, -2)
    at = rt @ A @ rotation
    out = 2.0 * pair * at
    diag = np.einsum("...kk->...k", at)
    d = (pair @ diag[..., None])[..., 0]
    out[..., 0, 0] = d[..., 0]
    out[..., 1, 1] = d[..., 1]
    out[..., 2, 2] = d[..., 2]
    return rotation @ out @ rt


def mq_apply_frame(q_mat, rotation, pair, A):
    """M_Q(A) batched from eigenframe moments: A/3 + Q.A - A:M4."""
    return A / 3.0 + q_mat @ A - m4_contract_frame(rotation, pair, A)


# ---------------------------------------------------------------------------
# a priori bound on the eigenvalue spread of B
# ---------------------------------------------------------------------------

def spread_bound(delta):
    """Spread bound Lambda(delta) = (4/delta) ln(2 meas(V) / (delta meas(U))).

    V is the polar-cap pair {m3^2 > delta/2}; U is the equatorial patch
    {m3^2 < delta/8, m2^2 < delta/4}. Both eigenvalue orderings in the
    underlying argument lead to congruent patches, so a single formula
    covers them.
    """
    if not 0.0 < delta < 1.0 / 3.0:
        raise ValueError("delta must lie in (0, 1/3)")
    a = np.sqrt(delta / 8.0)       # |m3| extent of U
    b = np.sqrt(delta / 4.0)       # |m2| extent of U
    meas_v = 4.0 * np.pi * (1.0 - np.sqrt(delta / 2.0))

    def arc(x):
        return 4.0 * np.arcsin(min(1.0, b / np.sqrt(1.0 - x * x)))

    meas_u, _ = _quad1d(arc, -a, a, epsabs=1e-13, epsrel=1e-12)
    return float(4.0 / delta * np.log(2.0 * meas_v / (delta * meas_u)))
