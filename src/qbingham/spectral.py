"""Periodic 2D spectral grid: the gradient and the Leray projection of a
spectrum (`grad_hat`, `leray_hat`), the dealiasing mask and the
closed-form symbols of the elastic operator.

Fields live on an N x N torus of side `length` and may carry trailing
component axes; transforms always act on the two leading axes. Everything
is real-to-complex (rfft2) with the half spectrum along the second axis.
The field solver keeps its fields and spectra component-major in memory
(each component's plane contiguous, the shape still (n, n, ...)): pocketfft
transforms such planes ~30% faster than interleaved components at 64^2,
and a transform keeps that order from its input to its output.
Products are formed on the grid without dealiasing; the field solver folds
the 2/3 mask (`dealias_mask`) into both implicit solves' per-mode
diagonals. The elastic operator is diagonal per mode in the axial split
of Q about the unit wavevector `Grid2D.khat`: `elastic_symbols` gives its
three eigenvalues, and tensors.axial_apply(qh, grid.khat, lam) applies it.
"""
from __future__ import annotations

import numpy as np

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
        kvec = np.stack([self.kx, self.ky, np.zeros_like(self.kx)], axis=-1)
        kabs = np.sqrt(self.ksq)
        self.khat = kvec / np.where(kabs == 0.0, 1.0, kabs)[..., None]  # 0 at k = 0
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
    def grad_hat(self, fh):
        """(d/dx, d/dy) of the field f whose transform is fh = fft(f),
        stacked on axis 2: shape (n, n, 2) + f.shape[2:]. One inverse
        transform, of a component-major product."""
        fh = fh[:, :, None]
        ik = self._ik.reshape(self._ik.shape + (1,) * (fh.ndim - 3))
        # (n, nh, 2, ...) over memory ordered (2, ..., n, nh)
        out = np.moveaxis(np.empty((2,) + fh.shape[3:] + fh.shape[:2], dtype=complex),
                          (-2, -1), (0, 1))
        return self.ifft(np.multiply(ik, fh, out=out))

    # -- incompressibility ------------------------------------------------
    def leray_hat(self, vh):
        """Project the in-plane components onto divergence-free fields."""
        out = vh.copy(order="K")
        ksq = np.where(self.ksq == 0.0, 1.0, self.ksq)
        div = self.kx * vh[..., 0] + self.ky * vh[..., 1]
        out[..., 0] = vh[..., 0] - self.kx * div / ksq
        out[..., 1] = vh[..., 1] - self.ky * div / ksq
        return out

    def divergence_residual(self, v):
        """Max |k . v_hat| relative to the field scale (0 for solenoidal v),
        from the field v or, when v is complex, from its transform v_hat.
        The field solver passes the spectrum its velocity solve produced, so
        its check reads the projection's output before the inverse
        transform, without an irfft2/rfft2 round trip."""
        vh = v if np.iscomplexobj(v) else self.fft(v)
        div = np.abs(self.kx * vh[..., 0] + self.ky * vh[..., 1])
        scale = np.abs(vh).max() * (np.sqrt(self.ksq).max() + 1.0) + 1e-300
        return float(div.max() / scale)

    def mean_integral(self, f):
        """Integral over the cell of a scalar field."""
        return float(np.mean(f) * self.length**2)


def elastic_symbols(grid, L1, L2):
    """Per-mode eigenvalues of the elastic operator, shape (3, n, nh).

    L(Q)^hat = L1 k^2 Q + L2 dev(k (Q k) + (Q k) k) acts as
    (L1 + 4 L2 / 3) k^2 on k^k^ - I/3, (L1 + L2) k^2 on k^e + e k^ (e . k = 0)
    and L1 k^2 on the modes with Q k = 0: the parts P1, P2, P3 of the axial
    split about k^ = grid.khat (tensors.axial_apply). All three are >= 0
    under the standing assumptions L1 > 0, L1 + 2 L2 > 0.
    """
    return np.stack([(L1 + 4.0 * L2 / 3.0) * grid.ksq, (L1 + L2) * grid.ksq,
                     L1 * grid.ksq])
