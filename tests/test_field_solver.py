import numpy as np
import pytest

from qbingham.closure import PhysicalityError
from qbingham import dynamics
from qbingham.config import default_config
from qbingham.dynamics import DivergenceError, FieldSolver, smooth_random_state
from qbingham.spectral import Grid2D
from qbingham.tensors import eigenvalue_margin, uniaxial
from mms_common import run_manufactured

PARAMS = default_config("field-run").params


def test_sbdf2_second_order_in_time():
    errs = [run_manufactured(PARAMS, 16, dt, 0.4) for dt in (0.1, 0.05, 0.025)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8), (errs, orders)


def test_divergence_failure_raises_typed_error(monkeypatch):
    grid = Grid2D(16)
    solver = FieldSolver(grid, PARAMS)
    state = solver.close(smooth_random_state(grid, PARAMS, seed=0))
    monkeypatch.setattr(Grid2D, "divergence_residual", lambda self, v: 1.0)
    with pytest.raises(DivergenceError) as info:
        solver.step(state, 0.05)
    assert not isinstance(info.value, PhysicalityError)
    # run() must not treat it as a reason to halve dt
    with pytest.raises(DivergenceError):
        solver.run(state, 0.05, 1, max_halvings=0)


def test_elastic_symbols_built_once(monkeypatch):
    calls = []
    build = dynamics.elastic_symbols

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(dynamics, "elastic_symbols", counted)
    grid = Grid2D(16)
    solver = FieldSolver(grid, PARAMS)
    state = solver.close(smooth_random_state(grid, PARAMS, seed=0))
    dynamics.energy_report(state, PARAMS)
    solver.run(state, 0.05, 3, callback=lambda k, st: dynamics.energy_report(st, PARAMS))
    assert len(calls) == 1


def test_rhs_filtering_commutes_with_implicit_solves(monkeypatch):
    # dealiasing fq and Leray-projecting fv act per mode, so applying them
    # inside rhs instead of only in the solves leaves the step unchanged
    grid = Grid2D(16)
    solver = FieldSolver(grid, PARAMS)
    state0 = solver.close(smooth_random_state(grid, PARAMS, seed=0))
    state1 = solver.step(state0, 0.05)
    raw = FieldSolver.rhs
    moved = []

    def filtered(self, state):
        fq, fv = raw(self, state)
        fq_f = grid.ifft(grid.dealias_hat(grid.fft(fq)))
        fv_f = grid.ifft(grid.leray_hat(grid.dealias_hat(grid.fft(fv))))
        moved.append(max(np.abs(fq_f - fq).max(), np.abs(fv_f - fv).max()))
        return fq_f, fv_f

    for state in (state0, state1):  # bootstrap Euler, then SBDF2
        ref = FieldSolver(grid, PARAMS).step(state, 0.05)
        with monkeypatch.context() as m:
            m.setattr(FieldSolver, "rhs", filtered)
            out = FieldSolver(grid, PARAMS).step(state, 0.05)
        assert np.abs(out.q5 - ref.q5).max() <= 1e-13
        assert np.abs(out.v - ref.v).max() <= 1e-13
    assert min(moved) > 1e-8  # the filters do change the raw RHS


def test_step_rejects_state_outside_half_margin():
    # a strong uniaxial push along e_z takes Q past the delta/2 margin in one
    # step of 0.4 (worst margin 3.39e-2 < 0.05); half that step stays inside
    grid = Grid2D(16)
    push = uniaxial(3.0, np.array([0.0, 0.0, 1.0]))
    solver = FieldSolver(grid, PARAMS, forcing=lambda t: (push, 0.0))
    state = solver.close(smooth_random_state(grid, PARAMS, seed=0))
    with pytest.raises(PhysicalityError, match=r"t=0\.4\b"):
        solver.step(state, 0.4)
    out = solver.run(state, 0.4, 1)
    assert out.t == 0.2 and out.hist.dt == 0.2
    assert eigenvalue_margin(out.q5).min() >= PARAMS.delta / 2.0


def test_each_state_carries_its_own_closure(monkeypatch):
    grid = Grid2D(16)
    solver = FieldSolver(grid, PARAMS)
    raw = smooth_random_state(grid, PARAMS, seed=0)
    with pytest.raises(ValueError, match="no closure"):
        solver.step(raw, 0.05)
    states = [solver.close(raw)]

    def no_eigvalsh(*args):
        raise AssertionError("the closure solve alone checks the margin")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    solver.run(states[0], 0.05, 3, callback=lambda k, st: states.append(st))
    monkeypatch.undo()
    for prev, st in zip(states, states[1:]):
        assert st.hist.b5 is prev.closure[1].B5
        cold_mu5, cold = solver.close(st).closure
        mu5, res = st.closure
        assert np.abs(res.B5 - cold.B5).max() <= 1e-9
        assert np.abs(mu5 - cold_mu5).max() <= 1e-9
