import collections

import numpy as np
import pytest

from qbingham import tensors
from qbingham import leslie
from qbingham.closure import PhysicalityError, bingham_map_batch
from qbingham.dynamics import ModelParams, default_hom_dt, shear_kappa
from qbingham.equilibrium import phase_constants
from qbingham.leslie import (
    angle_between, director_rhs, extract_director, leslie_angle,
    small_de_experiment, step_director,
)
from qbingham.tensors import eig_sym3, to_matrix, uniaxial
from conftest import count_calls, random_qvec

PC = phase_constants(7.0, 1.0, 0.5)  # zeta = 1.0816 > 1, flow aligning
N0 = np.array([np.cos(1.0), np.sin(1.0), 0.0])  # small-de's default theta0 = 1


def shear_angle_rate(theta, zeta, rate=1.0):
    """In-plane angle velocity under simple shear: (zeta cos 2t - 1) rate/2."""
    return 0.5 * rate * (zeta * np.cos(2.0 * theta) - 1.0)


def test_rhs_orthogonal_to_director(rng):
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        kap = rng.normal(size=(3, 3))
        kap -= np.eye(3) * np.trace(kap) / 3.0
        dn = director_rhs(n, kap, PC)
        assert abs(dn @ n) < 1e-14


def test_zero_gradient_is_stationary():
    n = np.array([0.3, -0.4, np.sqrt(1 - 0.25)])
    assert np.abs(director_rhs(n, np.zeros((3, 3)), PC)).max() == 0.0


def test_pure_rotation():
    om = np.zeros((3, 3))
    om[0, 1], om[1, 0] = 1.0, -1.0  # antisymmetric kappa: D = 0
    n = np.array([1.0, 0.0, 0.0])
    dn = director_rhs(n, om, PC)
    np.testing.assert_allclose(dn, 0.5 * (om - om.T) @ n, atol=1e-15)
    for _ in range(100):
        n = step_director(n, om, PC, 0.01)
    assert abs(np.linalg.norm(n) - 1.0) < 1e-15


def test_shear_plane_angle_rate(rng):
    rate = 1.3
    kap = shear_kappa(rate)
    for theta in rng.uniform(-np.pi, np.pi, 10):
        n = np.array([np.cos(theta), np.sin(theta), 0.0])
        e_theta = np.array([-np.sin(theta), np.cos(theta), 0.0])
        got = director_rhs(n, kap, PC) @ e_theta
        assert abs(got - shear_angle_rate(theta, PC.zeta, rate)) < 1e-13


def test_torque_balance_form(rng):
    # the explicit form satisfies n x (gamma1 N + gamma2 D.n) = 0
    kap = shear_kappa(1.0)
    n = np.array([np.cos(1.0), np.sin(1.0), 0.0])
    for _ in range(50):
        n = step_director(n, kap, PC, 0.02)
        dn = director_rhs(n, kap, PC)
        omega = 0.5 * (kap - kap.T)
        d = 0.5 * (kap + kap.T)
        cap_n = dn - omega @ n
        torque = np.cross(n, PC.gamma1 * cap_n + PC.gamma2 * d @ n)
        assert np.abs(torque).max() < 1e-8


def test_leslie_angle_limits():
    assert leslie_angle(1e12) == pytest.approx(np.pi / 4, abs=1e-6)
    assert leslie_angle(1.0) == 0.0
    assert leslie_angle(0.5) is None
    with pytest.raises(ValueError):
        leslie_angle(-1.0)


def test_leslie_angle_is_stable_fixed_point():
    theta = leslie_angle(PC.zeta)
    assert abs(shear_angle_rate(theta, PC.zeta)) < 1e-12
    kap = shear_kappa(1.0)
    n_leslie = np.array([np.cos(theta), np.sin(theta), 0.0])
    for th0 in (theta + 0.4, theta - 0.4):
        n = np.array([np.cos(th0), np.sin(th0), 0.0])
        for _ in range(int(70 / 0.02)):
            n = step_director(n, kap, PC, 0.02)
        assert angle_between(n, n_leslie) < 1e-6


def frame(q5):
    """The eigenvector columns R of a qvec, as a closure solve computes them."""
    return eig_sym3(to_matrix(q5))[1]


def test_extract_director(rng):
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    d = extract_director(frame(uniaxial(0.5, n)), n)
    assert abs(d @ n - 1.0) < 1e-12
    # sign continuity, from either sign of the frame's column
    d2 = extract_director(frame(uniaxial(0.5, -n)), d)
    assert d2 @ d > 0.99
    d2 = extract_director(-frame(uniaxial(0.5, -n)), d)
    assert d2 @ d > 0.99
    # small biaxial perturbation moves the director at first order only
    pert = random_qvec(rng, scale=1.0)
    eps = 1e-4
    d3 = extract_director(frame(uniaxial(0.5, n) + eps * pert), n)
    assert angle_between(d3, n) < 10 * eps
    # argmax eigenvector on a random physical tensor
    q = random_qvec(rng, scale=0.2)
    dv = extract_director(frame(q), n)
    w, r = np.linalg.eigh(to_matrix(q))
    assert abs(abs(dv @ r[:, 2]) - 1.0) < 1e-10


def test_small_de_smoke():
    params = ModelParams(alpha=7.0, epsilon=0.05, de=1.0, re=1.0, gamma=0.5,
                         L1=1.0, L2=0.5, delta=0.1)
    table = small_de_experiment(params, [0.2, 0.1], shear_kappa(1.0), 2.0, N0)
    rows = table["rows"]
    assert len(rows) == 2
    assert rows[0]["error"] == "" and rows[1]["error"] == ""
    assert rows[1]["sup_angle_err"] < rows[0]["sup_angle_err"]
    assert rows[0]["fitted_slope_running"] is None
    assert 0.4 < table["fitted_slope"] < 1.6
    assert table["zeta"] == pytest.approx(PC.zeta)
    assert table["theta_leslie"] == leslie_angle(PC.zeta)
    with pytest.raises(ValueError):
        small_de_experiment(params, [0.1, 0.2], shear_kappa(1.0), 1.0, N0)


def test_small_de_reads_the_director_from_the_closure(monkeypatch):
    # every eigendecomposition of the run is a closure solve's own
    params = ModelParams(alpha=7.0, epsilon=0.05, de=1.0, re=1.0, gamma=0.5,
                         L1=1.0, L2=0.5, delta=0.1)
    calls = collections.Counter()
    count_calls(monkeypatch, bingham_map_batch, calls, "solves")
    count_calls(monkeypatch, tensors.eig_sym3, calls, "eig")
    table = small_de_experiment(params, [0.2, 0.1], shear_kappa(1.0), 0.3, N0)
    assert all(r["error"] == "" for r in table["rows"])
    assert calls["solves"] > 0 and calls["eig"] == calls["solves"]


def test_small_de_rows_catch_numerical_failures_only(monkeypatch):
    # a PhysicalityError of one De becomes its error row; a TypeError is a
    # programming error and propagates
    params = ModelParams(alpha=7.0, epsilon=0.05, de=1.0, re=1.0, gamma=0.5,
                         L1=1.0, L2=0.5, delta=0.1)

    def stub(exc):
        def step(state, dt, p, *args):
            raise exc
        return step

    monkeypatch.setattr(leslie, "step_homogeneous", stub(PhysicalityError("left the margin")))
    table = small_de_experiment(params, [0.2], shear_kappa(1.0), 0.3, N0)
    assert table["rows"][0]["error"] == "PhysicalityError: left the margin"
    assert np.isnan(table["rows"][0]["sup_angle_err"])
    monkeypatch.setattr(leslie, "step_homogeneous", stub(TypeError("bad call")))
    with pytest.raises(TypeError, match="bad call"):
        small_de_experiment(params, [0.2], shear_kappa(1.0), 0.3, N0)
    monkeypatch.undo()

    # a lockstep step that fails retries each row alone: only the row that
    # fails alone is an error row, and the other rows go on
    des = [0.2, 0.1, 0.05]
    ref = small_de_experiment(params, des, shear_kappa(1.0), 0.3, N0)
    step = leslie.step_homogeneous

    def fails_with_de_01(state, dt, p, *args):
        if np.any(state.de == 0.1):
            raise PhysicalityError("left the margin")
        return step(state, dt, p, *args)

    monkeypatch.setattr(leslie, "step_homogeneous", fails_with_de_01)
    table = small_de_experiment(params, des, shear_kappa(1.0), 0.3, N0)
    assert [r["error"] for r in table["rows"]] == ["", "PhysicalityError: left the margin", ""]
    for got, want in zip(table["rows"][::2], ref["rows"][::2]):
        assert got["sup_angle_err"] == pytest.approx(want["sup_angle_err"], rel=1e-9)
        assert got["sup_biaxiality"] == pytest.approx(want["sup_biaxiality"], rel=1e-9)
    # the rows left after the longest one failed end at their own step count
    table = small_de_experiment(params, des[:2], shear_kappa(1.0), 0.3, N0)
    assert [r["error"] for r in table["rows"]] == ["", "PhysicalityError: left the margin"]
    assert table["rows"][0]["sup_angle_err"] == pytest.approx(
        ref["rows"][0]["sup_angle_err"], rel=1e-9)


def test_small_de_steps_the_rows_in_lockstep(monkeypatch):
    # one closure solve per RK stage for all live rows: 1 initial solve plus 4
    # per lockstep step, and max(n_i) steps (30 at De = 0.1; one row after
    # another made 182 solves and 45 steps)
    params = ModelParams(alpha=7.0, epsilon=0.05, de=1.0, re=1.0, gamma=0.5,
                         L1=1.0, L2=0.5, delta=0.1)
    calls = collections.Counter()
    count_calls(monkeypatch, bingham_map_batch, calls, "solves")
    count_calls(monkeypatch, leslie.step_homogeneous, calls, "steps")
    table = small_de_experiment(params, [0.2, 0.1], shear_kappa(1.0), 0.3, N0)
    assert all(r["error"] == "" for r in table["rows"])
    n_max = int(np.ceil(0.3 / default_hom_dt(0.1, PC)))
    assert n_max == 30
    assert calls == {"solves": 1 + 4 * n_max, "steps": n_max}
