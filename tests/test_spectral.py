import numpy as np
import pytest

from qbingham.dynamics import _modal_apply
from qbingham.spectral import Grid2D, elastic_symbols
from dense_ops import eigh_apply, elastic_eigh
from mms_common import _spectral_restrict


def test_grad_matches_analytic_derivatives():
    grid = Grid2D(32, length=3.0)
    w = 2.0 * np.pi / grid.length
    x, y = w * grid.x, w * grid.y
    f = np.stack([np.sin(x) * np.cos(2 * y), np.cos(3 * x + y), np.sin(5 * y)], axis=-1)
    fx = w * np.stack([np.cos(x) * np.cos(2 * y), -3 * np.sin(3 * x + y),
                       np.zeros_like(x)], axis=-1)
    fy = w * np.stack([-2 * np.sin(x) * np.sin(2 * y), -np.sin(3 * x + y),
                       5 * np.cos(5 * y)], axis=-1)
    g = grid.grad(f)
    assert g.shape == (32, 32, 2, 3)
    assert np.abs(g[:, :, 0] - fx).max() <= 1e-12
    assert np.abs(g[:, :, 1] - fy).max() <= 1e-12
    # a scalar field gets the derivative axis last
    assert np.abs(grid.grad(f[..., 1])[:, :, 1] - fy[..., 1]).max() <= 1e-12


ELASTIC_CONSTANTS = ((1.0, 0.5), (1.0, -0.4), (2.0, 3.0))


@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("L1, L2", ELASTIC_CONSTANTS)
def test_elastic_symbols_match_the_dense_eigh(n, L1, L2):
    grid = Grid2D(n, length=5.0)
    lam = elastic_symbols(grid, L1, L2)
    assert lam.shape == (3,) + grid.ksq.shape and lam.min() >= 0.0
    # multiplicities 1, 2, 2, as the Gram matrix in the orthonormal Q basis has them
    closed = np.sort(np.stack([lam[0], lam[1], lam[1], lam[2], lam[2]], axis=-1), axis=-1)
    dense, _ = elastic_eigh(grid, L1, L2)
    assert np.abs(closed - dense).max() <= 1e-14 * grid.ksq.max()


@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("L1, L2", ELASTIC_CONSTANTS)
def test_modal_apply_matches_the_dense_eigenbasis(rng, n, L1, L2):
    # white noise excites every mode, k = 0 and the Nyquist row included
    grid = Grid2D(n, length=5.0)
    q = rng.normal(size=(n, n, 5))
    lam = elastic_symbols(grid, L1, L2)
    lam_d, vec = elastic_eigh(grid, L1, L2)
    a, c = 12.5, 0.3
    for f, f_d in ((lam, lam_d),
                   (grid.dealias_mask / (a + c * lam),
                    grid.dealias_mask[..., None] / (a + c * lam_d))):
        got = grid.fft(grid.ifft(_modal_apply(grid, f, grid.fft(q))))
        ref = grid.fft(eigh_apply(grid, vec, f_d, q))
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_spectral_restrict_keeps_a_band_limited_field():
    # modes inside the 16^2 grid's 2/3 band (|k| <= 5) restrict from 48^2 to
    # the same field sampled on 16^2
    def field(grid):
        w = 2.0 * np.pi / grid.length
        x, y = w * grid.x, w * grid.y
        return np.stack([0.3 + np.sin(x) * np.cos(2 * y), np.cos(5 * x - 3 * y),
                         np.sin(4 * y + 1.0) * np.cos(x)], axis=-1)

    fine, coarse = Grid2D(48, length=3.0), Grid2D(16, length=3.0)
    got = _spectral_restrict(fine, coarse, field(fine))
    assert np.abs(got - field(coarse)).max() <= 1e-13
