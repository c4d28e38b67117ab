import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from qbingham import _kernels
from qbingham._kernels import EXPONENT_BUDGET, reduced_nodes
from qbingham.closure import bingham_map_batch
from qbingham.tensors import uniaxial
from conftest import random_physical

RULES = [(26, 26), (27, 27), (26, 27), (9, 8)]


def _unfolded_nodes(n_x, n_phi):
    """Full tensor-product rule: Gauss-Legendre in x on [-1, 1] times the
    uniform rule in phi on [0, pi) (the integrand has period pi)."""
    x, wx = leggauss(n_x)
    phi = np.pi * np.arange(n_phi) / n_phi
    c2 = np.cos(phi) ** 2
    one = np.ones_like(c2)
    m1 = np.outer(1.0 - x**2, c2).ravel()
    m2 = np.outer(1.0 - x**2, 1.0 - c2).ravel()
    m3 = np.outer(x**2, one).ravel()
    w = np.outer(wx * (2.0 * np.pi / n_phi), one).ravel()
    return m1, m2, m3, w


def _diagonal_b(rng, spreads):
    """Diagonal b with the given eigenvalue spreads, random shape and order."""
    u = rng.uniform(size=(len(spreads), 3))
    u[:, 0], u[:, 1] = 0.0, 1.0
    u = rng.permuted(u, axis=1)
    return spreads[:, None] * u - rng.uniform(-5.0, 5.0, size=(len(spreads), 1))


@pytest.mark.parametrize("n_x,n_phi", RULES)
def test_folded_rule_matches_unfolded(rng, n_x, n_phi):
    folded = reduced_nodes(n_x, n_phi)
    assert len(folded[0]) == (n_x + 1) // 2 * (n_phi // 2 + 1)
    spreads = np.concatenate([[0.0], rng.uniform(0.0, EXPONENT_BUDGET, 199),
                              [EXPONENT_BUDGET]])
    b = _diagonal_b(rng, spreads)
    lnz_f, s_f, p_f = _kernels._moments_batch_np(b, *folded)
    lnz_u, s_u, p_u = _kernels._moments_batch_np(b, *_unfolded_nodes(n_x, n_phi))
    np.testing.assert_allclose(lnz_f, lnz_u, rtol=1e-13, atol=0)
    np.testing.assert_allclose(s_f, s_u, rtol=1e-13, atol=0)
    np.testing.assert_allclose(p_f, p_u, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n_x,n_phi", RULES)
def test_folded_weights_sum_to_sphere_area(n_x, n_phi):
    w = reduced_nodes(n_x, n_phi)[3]
    assert np.all(w > 0)
    assert abs(w.sum() - 4.0 * np.pi) < 1e-13 * 4.0 * np.pi


# ---------------------------------------------------------------------------
# line search
# ---------------------------------------------------------------------------

@pytest.fixture
def lnz_rows(monkeypatch):
    """Row count of every line-search ln Z evaluation in the Newton kernel."""
    rows = []
    inner = _kernels._lnz_batch_np

    def counted(b, *nodes):
        rows.append(len(b))
        return inner(b, *nodes)

    monkeypatch.setattr(_kernels, "_lnz_batch_np", counted)
    return rows


def _uniaxial_batch(order_params):
    n = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    return np.stack([uniaxial(s, n) for s in order_params])


def test_warm_start_near_solution_skips_line_search(rng, lnz_rows):
    q5 = random_physical(rng, 64, 0.05)
    b5 = bingham_map_batch(q5).B5
    lnz_rows.clear()
    res = bingham_map_batch(q5 + 1e-8 * rng.normal(size=q5.shape), b_warm5=b5)
    assert np.all(res.residual <= 1e-11)
    assert lnz_rows == []


def test_far_start_damps_and_converges(lnz_rows):
    q5 = _uniaxial_batch([0.6, 0.3, -0.2])
    cold = bingham_map_batch(q5)
    lnz_rows.clear()
    res = bingham_map_batch(q5, b_warm5=-40.0 * q5)
    assert res.used_damping.any()
    assert lnz_rows
    assert np.all(res.residual <= 1e-11)
    np.testing.assert_allclose(res.B5, cold.B5, rtol=0, atol=1e-9)


def test_line_search_evaluates_only_rows_that_need_it(rng, lnz_rows):
    near = random_physical(rng, 64, 0.05)
    near_b5 = bingham_map_batch(near).B5
    far = _uniaxial_batch([0.6, 0.3, -0.2])
    q5 = np.concatenate([near + 1e-8 * rng.normal(size=near.shape), far])
    warm = np.concatenate([near_b5, -40.0 * far])
    lnz_rows.clear()
    res = bingham_map_batch(q5, b_warm5=warm)
    assert np.all(res.residual <= 1e-11)
    assert lnz_rows and max(lnz_rows) <= len(far)
    assert not res.used_damping[:len(near)].any()
