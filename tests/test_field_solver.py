import numpy as np
import pytest

from qbingham.closure import PhysicalityError
from qbingham.config import default_config
from qbingham.dynamics import DivergenceError, FieldSolver, smooth_random_state
from qbingham.spectral import Grid2D
from mms_common import run_manufactured

PARAMS = default_config("field-run").params


def test_sbdf2_second_order_in_time():
    errs = [run_manufactured(PARAMS, 16, dt, 0.4) for dt in (0.1, 0.05, 0.025)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8), (errs, orders)


def test_divergence_failure_raises_typed_error(monkeypatch):
    grid = Grid2D(16)
    solver = FieldSolver(grid, PARAMS)
    state = smooth_random_state(grid, PARAMS, seed=0)
    monkeypatch.setattr(Grid2D, "divergence_residual", lambda self, v: 1.0)
    with pytest.raises(DivergenceError) as info:
        solver.step(state, 0.05)
    assert not isinstance(info.value, PhysicalityError)
    # run() must not treat it as a reason to halve dt
    with pytest.raises(DivergenceError):
        solver.run(state, 0.05, 1, max_halvings=0)
