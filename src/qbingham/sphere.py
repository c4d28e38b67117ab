"""Quadrature on the unit sphere and second moments of Bingham densities.

The density is f_B(m) = exp(B : mm) / Z on S^2. ``bingham_moments``
evaluates the traceless second moments of a batch of B with a tensor-product
rule: Gauss-Legendre in cos(theta) times a uniform (trapezoid) rule in the
azimuth, which is spectrally accurate for these smooth periodic integrands.
It is the full-sphere reference that the eigenframe solver in ``closure`` is
checked against (closure-validate's forward checks), and it computes only
what that check reads: no partition function, and no fourth moment, which
the solver takes from its own eigenframe pair moments. ``a_integrals`` gives
the axisymmetric integrals behind the equilibrium constants.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensors import from_matrix, to_matrix
from ._kernels import EXPONENT_BUDGET, _legendre_half, x_rule

__all__ = [
    "SphereQuadrature", "build_quadrature", "bingham_moments", "a_integrals",
]


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes and weights integrating over S^2 (weights sum to 4 pi)."""

    nodes: np.ndarray    # (M, 3) unit vectors
    weights: np.ndarray  # (M,)


@lru_cache(maxsize=None)
def build_quadrature(n_polar, n_azimuthal):
    """Product Gauss-Legendre x trapezoid rule on the sphere; the polar rule
    is the eigenframe solver's refined half rule (_kernels._legendre_half),
    mirrored. Spherical polynomials of degree below min(2 n_polar,
    n_azimuthal) are integrated exactly; even ones, as the Bingham integrands
    are, below min(2 n_polar, 2 n_azimuthal) when n_azimuthal is odd.

    Built once per process for each (n_polar, n_azimuthal), as x_rule is, and
    shared, so its arrays are read-only: a fresh process pays one build, and
    repeated runs in one process (run_experiment, tests) none."""
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
    nodes.flags.writeable = weights.flags.writeable = False
    return SphereQuadrature(nodes, weights)


# B per block: at 64 x 128 nodes the (8, M) exponent block is 0.5 MB
_BLOCK = 8


def bingham_moments(B, quad):
    """Traceless second moments (K, 5) of the Bingham densities of the
    qvecs B (K, 5).

    The exponents B : mm of a block of B are one GEMM against the (M, 9)
    table of node outer products, shifted by each row's maximum before exp,
    so the weights never overflow inside the exponent budget. Every block is
    full (zero B pad the last one), so the GEMMs have one shape and a row's
    moments are the same to the bit in any batch, alone included.
    """
    Bmat = to_matrix(B)
    w = np.linalg.eigvalsh(Bmat)
    spread = w[:, 2] - w[:, 0]
    worst = int(np.argmax(spread))
    if spread[worst] > EXPONENT_BUDGET:
        raise OverflowError(
            f"eigenvalue spread of B[{worst}] is {spread[worst]:.1f}, beyond the "
            f"exponent budget {EXPONENT_BUDGET:.0f}")
    m = quad.nodes
    mm = (m[:, :, None] * m[:, None, :]).reshape(-1, 9)   # (M, 9) outer products
    k = len(Bmat)
    b9 = np.zeros((-(-k // _BLOCK) * _BLOCK, 9))
    b9[:k] = Bmat.reshape(k, 9)
    second = np.empty_like(b9)
    e = np.empty((_BLOCK, len(m)))
    for lo in range(0, len(b9), _BLOCK):
        np.matmul(b9[lo:lo + _BLOCK], mm.T, out=e)
        e -= e.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        e *= quad.weights
        second[lo:lo + _BLOCK] = (e @ mm) / e.sum(axis=1, keepdims=True)
    return from_matrix(second[:k].reshape(k, 3, 3) - np.eye(3) / 3.0)


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
    x2, _, w = x_rule(200)[:3]
    shift = max(eta, 0.0)
    e = w * np.exp(eta * x2 - shift) / (2.0 * np.pi)
    return tuple(float(v * np.exp(shift)) for v in np.power.outer(x2, range(4)).T @ e)
