"""Quadrature on the unit sphere and moments of Bingham densities.

The density is f_B(m) = exp(B : mm) / Z on S^2. ``bingham_moments``
evaluates the partition function, the traceless second moment and the
dense fourth moment M4 in one pass of a tensor-product rule: Gauss-Legendre
in cos(theta) times a uniform (trapezoid) rule in the azimuth, which is
spectrally accurate for these smooth periodic integrands. It is the
full-sphere reference that the eigenframe solver in ``closure`` is checked
against (closure-validate's forward checks); it computes no sixth moment,
since no operator of the model needs one. ``a_integrals`` gives the
axisymmetric integrals behind the equilibrium constants.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import from_matrix, to_matrix
from ._kernels import EXPONENT_BUDGET, _legendre_half, x_rule

__all__ = [
    "SphereQuadrature", "BinghamMoments", "build_quadrature",
    "bingham_moments", "a_integrals",
]


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes and weights integrating over S^2 (weights sum to 4 pi)."""

    nodes: np.ndarray    # (M, 3) unit vectors
    weights: np.ndarray  # (M,)


def build_quadrature(n_polar=64, n_azimuthal=128):
    """Product Gauss-Legendre x trapezoid rule on the sphere; the polar rule
    is the eigenframe solver's refined half rule (_kernels._legendre_half),
    mirrored. Spherical polynomials of degree below min(2 n_polar,
    n_azimuthal) are integrated exactly."""
    if n_polar < 8 or n_azimuthal < 16:
        raise ValueError("quadrature needs n_polar >= 8, n_azimuthal >= 16")
    x, wx = (np.asarray(v, dtype=float) for v in _legendre_half(int(n_polar)))
    odd = int(n_polar) % 2          # x = 0 is kept once
    x = np.concatenate([-x[odd:][::-1], x])
    wx = np.concatenate([wx[odd:][::-1], wx])
    phi = 2.0 * np.pi * np.arange(int(n_azimuthal)) / int(n_azimuthal)
    st = np.sqrt(1.0 - x**2)
    mx = np.outer(st, np.cos(phi))
    my = np.outer(st, np.sin(phi))
    mz = np.outer(x, np.ones_like(phi))
    nodes = np.stack([mx.ravel(), my.ravel(), mz.ravel()], axis=1)
    weights = np.outer(wx * (2.0 * np.pi / int(n_azimuthal)), np.ones_like(phi)).ravel()
    return SphereQuadrature(nodes, weights)


@dataclass(frozen=True)
class BinghamMoments:
    """Partition function and moments of one Bingham density."""

    Z: float
    q_of_b: np.ndarray      # qvec of int (mm - I/3) f dm
    M4: np.ndarray          # (3, 3, 3, 3) int mmmm f dm


def _check_budget(Bmat):
    w = np.linalg.eigvalsh(Bmat)
    spread = float(w[..., 2] - w[..., 0])
    if spread > EXPONENT_BUDGET:
        raise OverflowError(
            f"eigenvalue spread of B is {spread:.1f}, beyond the exponent "
            f"budget {EXPONENT_BUDGET:.0f}")
    return spread


def bingham_moments(B, quad):
    """Z, traceless second moment and dense M4 of the Bingham density of
    the qvec B.

    The exponent is shifted by its maximum before exp, so the weights never
    overflow inside the exponent budget.
    """
    Bmat = to_matrix(B)
    _check_budget(Bmat)
    m = quad.nodes
    qf = np.einsum("ni,ij,nj->n", m, Bmat, m)
    shift = qf.max()
    ew = quad.weights * np.exp(qf - shift)
    z0 = ew.sum()
    f = ew / z0
    log_z = float(np.log(z0) + shift)
    mm = (m[:, :, None] * m[:, None, :]).reshape(-1, 9)   # (N, 9) outer products
    second = np.einsum("n,ni,nj->ij", f, m, m)
    m4 = ((f[:, None] * mm).T @ mm).reshape(3, 3, 3, 3)    # one GEMM
    return BinghamMoments(float(np.exp(log_z)), from_matrix(second - np.eye(3) / 3.0), m4)


# ---------------------------------------------------------------------------
# axisymmetric 1D integrals A_k = int_{-1}^{1} x^k exp(eta x^2) dx
# ---------------------------------------------------------------------------

def a_integrals(eta):
    """(A_0, A_2, A_4, A_6) in one pass by the eigenframe solver's folded
    200-point Gauss-Legendre rule (whose weights carry the 2 pi of the
    azimuth) with max-shift stabilization."""
    eta = float(eta)
    if abs(eta) > EXPONENT_BUDGET:
        raise OverflowError(f"|eta| = {abs(eta):.1f} beyond exponent budget")
    x2, _, w, _ = x_rule(200)
    shift = max(eta, 0.0)
    e = w * np.exp(eta * x2 - shift) / (2.0 * np.pi)
    return tuple(float(v * np.exp(shift)) for v in np.power.outer(x2, range(4)).T @ e)
