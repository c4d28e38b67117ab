import numpy as np

from qbingham.spectral import Grid2D


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
