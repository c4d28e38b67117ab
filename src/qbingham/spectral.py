"""Periodic 2D spectral grid: gradients, the dealiasing mask, Leray projection.

Fields live on an N x N torus of side `length` and may carry trailing
component axes; transforms always act on the two leading axes. Everything
is real-to-complex (rfft2) with the half spectrum along the second axis.
Products are formed on the grid without dealiasing; the 2/3 mask and the
Leray projection are applied per mode by the field solver's implicit
solves (`dealias_hat`, `leray_hat`).
"""
from __future__ import annotations

import numpy as np

from .tensors import QBASIS

__all__ = ["Grid2D", "elastic_symbols"]


class Grid2D:
    """Uniform periodic grid with cached wavenumbers and masks."""

    def __init__(self, n, length=2.0 * np.pi):
        self.n = int(n)
        self.length = float(length)
        self.dx = self.length / self.n
        h = np.arange(self.n) * self.dx
        self.x, self.y = np.meshgrid(h, h, indexing="ij")
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        k2 = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)
        self.kx = k1[:, None] + 0.0 * k2[None, :]
        self.ky = 0.0 * k1[:, None] + k2[None, :]
        self.ksq = self.kx**2 + self.ky**2
        self._ik = 1j * np.stack([self.kx, self.ky], axis=2)  # (n, nh, 2)
        kmax = np.abs(k1).max()
        cut = (2.0 / 3.0) * kmax
        self.dealias_mask = (np.abs(self.kx) <= cut) & (np.abs(self.ky) <= cut)

    # -- transforms -------------------------------------------------------
    def fft(self, f):
        return np.fft.rfft2(np.asarray(f, dtype=float), axes=(0, 1))

    def ifft(self, fh):
        return np.fft.irfft2(fh, s=(self.n, self.n), axes=(0, 1))

    # -- calculus ---------------------------------------------------------
    def grad(self, f):
        """(d/dx, d/dy) of f stacked on axis 2: shape (n, n, 2) + f.shape[2:].

        One forward and one inverse transform for all components.
        """
        fh = self.fft(f)[:, :, None]
        ik = self._ik.reshape(self._ik.shape + (1,) * (fh.ndim - 3))
        return self.ifft(ik * fh)

    def dealias_hat(self, fh):
        return fh * self.dealias_mask.reshape(
            self.dealias_mask.shape + (1,) * (fh.ndim - 2))

    # -- incompressibility ------------------------------------------------
    def leray_hat(self, vh):
        """Project the in-plane components onto divergence-free fields."""
        out = vh.copy()
        ksq = np.where(self.ksq == 0.0, 1.0, self.ksq)
        div = self.kx * vh[..., 0] + self.ky * vh[..., 1]
        out[..., 0] = vh[..., 0] - self.kx * div / ksq
        out[..., 1] = vh[..., 1] - self.ky * div / ksq
        return out

    def leray(self, v):
        return self.ifft(self.leray_hat(self.fft(v)))

    def divergence_residual(self, v):
        """Max |k . v_hat| relative to the field scale (0 for solenoidal v)."""
        vh = self.fft(v)
        div = np.abs(self.kx * vh[..., 0] + self.ky * vh[..., 1])
        scale = np.abs(vh).max() * (np.sqrt(self.ksq).max() + 1.0) + 1e-300
        return float(div.max() / scale)

    def mean_integral(self, f):
        """Integral over the cell of a scalar field."""
        return float(np.mean(f) * self.length**2)


def elastic_symbols(grid, L1, L2):
    """Per-mode 5x5 matrices of the elastic operator in the Q basis.

    L(Q)^hat = L1 k^2 Q + L2 dev-sym(k (Q k) + (Q k) k) reads, in the
    orthonormal basis E_a, as L1 k^2 I + 2 L2 Gram(E_a k); symmetric PSD
    under the standing assumptions L1 > 0, L1 + 2 L2 > 0.
    Returns (lam, vec): eigenvalues (n, nh, 5) and eigenvectors (n, nh, 5, 5).
    """
    kvec = np.stack([grid.kx, grid.ky, np.zeros_like(grid.kx)], axis=-1)
    ek = np.einsum("aij,xyj->xyai", QBASIS, kvec)          # E_a k per mode
    gram = np.einsum("xyai,xybi->xyab", ek, ek)
    sym = L1 * grid.ksq[..., None, None] * np.eye(5) + 2.0 * L2 * gram
    lam, vec = np.linalg.eigh(sym)
    lam = np.maximum(lam, 0.0)  # clip rounding noise at k = 0
    return lam, vec
