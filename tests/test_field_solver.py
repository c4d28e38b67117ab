import collections
import dataclasses

import numpy as np
import pytest

from qbingham.closure import PhysicalityError, m4_contract_frame, mq_apply_frame
from qbingham import closure, dynamics, tensors
from qbingham.config import default_config
from qbingham.dynamics import DivergenceError, FieldSolver, smooth_random_state
from qbingham.spectral import Grid2D
from qbingham.tensors import eigenvalue_margin, from_matrix, qdot, to_matrix, uniaxial
from dense_ops import distortion_stress_sum
from mms_common import _spectral_restrict, rms_difference, run_manufactured, solve_manufactured

PARAMS = default_config("field-run").params


def test_sbdf2_second_order_in_time():
    errs = [run_manufactured(PARAMS, 16, dt, 0.4) for dt in (0.1, 0.05, 0.025)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8), (errs, orders)


def test_variable_step_sbdf2_second_order_in_time():
    # steps alternating h and h/2 (step ratios 1/2 and 2) keep second order
    errs = [run_manufactured(PARAMS, 16, h, 0.48, ratios=(1.0, 0.5))
            for h in (0.08, 0.04, 0.02)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8), (errs, orders)


def test_forced_run_converges_spectrally_in_space():
    # forcing restricted from 48^2, dt 0.05, t 0.4; each coarse run against
    # the n = 32 run restricted to its grid, both on the coarse 2/3 band, so
    # the time error of the common dt cancels. 1000x from n = 8 to n = 24 is
    # faster than any algebraic order below 6.3
    def band(grid, f):
        return grid.ifft(grid.dealias_hat(grid.fft(f)))

    ref = solve_manufactured(PARAMS, 32, 0.05, 0.4, n_fine=48)[1]
    diffs = []
    for n in (8, 16, 24):
        st = solve_manufactured(PARAMS, n, 0.05, 0.4, n_fine=48)[1]
        g = st.grid
        assert st.t == pytest.approx(0.4)
        diffs.append(rms_difference(
            band(g, st.q5) - band(g, _spectral_restrict(ref.grid, g, ref.q5)),
            band(g, st.v) - band(g, _spectral_restrict(ref.grid, g, ref.v))))
    assert diffs[0] > diffs[1] > diffs[2], diffs
    assert diffs[2] <= 1e-3 * diffs[0], diffs


def test_divergence_failure_raises_typed_error(monkeypatch):
    grid = Grid2D(16)
    solver = FieldSolver(grid, PARAMS)
    state = solver.close(smooth_random_state(grid, PARAMS, seed=0))
    monkeypatch.setattr(Grid2D, "divergence_residual", lambda self, v: 1.0)
    with pytest.raises(DivergenceError) as info:
        solver.step(state, 0.05)
    assert not isinstance(info.value, PhysicalityError)
    # run() must not treat it as a reason to halve dt and retry
    dts = []
    step = FieldSolver.step

    def counted(self, st, dt):
        dts.append(dt)
        return step(self, st, dt)

    monkeypatch.setattr(FieldSolver, "step", counted)
    with pytest.raises(DivergenceError):
        solver.run(state, 0.05, 1)
    assert dts == [0.05]


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


def _amplitude_scan_q5(grid, params, seed, q_amplitude=0.5):
    """smooth_random_state's q5 by a linear scan down the ladder
    q_amplitude 0.8^k, k < 60: the first rung inside the margin, or None."""
    rng = np.random.default_rng(seed)
    s2 = dynamics.phase_constants(params.alpha, params.L1, params.L2).S2
    s_base = min(s2, 0.75 * (2.0 - 3.0 * params.delta) / 2.0)
    base = from_matrix(s_base * (np.diag([0.0, 0.0, 1.0]) - np.eye(3) / 3.0))
    pert = dynamics._band_limited(rng, grid, 5)
    amp = q_amplitude
    for _ in range(60):
        q5 = base + amp * pert
        if float(eigenvalue_margin(q5).min()) >= params.delta:
            return q5
        amp *= 0.8
    return None


@pytest.mark.parametrize("n", [16, 64])
def test_initial_amplitude_is_the_first_rung_that_fits(n):
    grid = Grid2D(n)
    for seed in range(8):
        q5 = smooth_random_state(grid, PARAMS, seed).q5
        assert np.array_equal(q5, _amplitude_scan_q5(grid, PARAMS, seed)), seed


def test_initial_data_outside_every_rung_raises():
    params = dataclasses.replace(PARAMS, delta=0.3)
    assert _amplitude_scan_q5(Grid2D(16), params, 0) is None
    with pytest.raises(RuntimeError, match="could not fit initial data"):
        smooth_random_state(Grid2D(16), params, 0)


def _cosine_sum(rng, grid, n_comp):
    """dynamics._band_limited as a sum of 24 cosine waves on the grid, with
    the same draws in the same order."""
    out = np.zeros((grid.n, grid.n, n_comp))
    for kx in range(-dynamics.N_MODES, dynamics.N_MODES + 1):
        for ky in range(-dynamics.N_MODES, dynamics.N_MODES + 1):
            if kx == 0 and ky == 0:
                continue
            amp = rng.normal(size=n_comp)
            ph = rng.uniform(0.0, 2.0 * np.pi, size=n_comp)
            wave = (2.0 * np.pi / grid.length) * (kx * grid.x + ky * grid.y)
            out += amp * np.cos(wave[..., None] + ph)
    return out / dynamics.N_MODES


@pytest.mark.parametrize("n", [4, 16, 64, 128])
def test_band_limited_field_is_the_cosine_sum(n):
    # the inverse real FFT synthesises the same field from the same draws,
    # to 1e-13 max|out|; n = 4 folds k = +-2 onto the Nyquist bin
    grid = Grid2D(n, 3.0)
    for seed in range(4):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = _cosine_sum(ref_rng, grid, 5)
        got = dynamics._band_limited(rng, grid, 5)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert rng.random() == ref_rng.random()


def test_field_step_takes_no_lapack_eigh(monkeypatch):
    # on a 64^2 grid every eigendecomposition is the closed form: the
    # initial margin bisection, the closure of the state and of the step
    def no_eigh(*args):
        raise AssertionError("np.linalg.eigh on a 64^2 field")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    grid = Grid2D(64)
    solver = FieldSolver(grid, PARAMS)
    state = solver.close(smooth_random_state(grid, PARAMS, seed=0))
    assert solver.step(state, 0.05).t == 0.05


@pytest.mark.parametrize("L1, L2", [(1.0, 0.5), (1.0, -0.4), (2.0, 3.0)])
def test_distortion_stress_is_the_index_sum(rng, L1, L2):
    # random symmetric traceless gradients d_x Q, d_y Q at 40 points, as rows
    dq = np.moveaxis(to_matrix(rng.normal(size=(40, 2, 5))), 0, -1)
    got = dynamics.distortion_stress(dq, L1, L2)
    want = np.stack([distortion_stress_sum(dq[..., p], L1, L2) for p in range(40)], axis=-1)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _band_limited(grid, rng, modes=4):
    """Random qvec field with Fourier modes |kx|, |ky| <= modes (in 2 pi / length)."""
    fh = grid.fft(rng.normal(size=(grid.n, grid.n, 5)))
    cut = (modes + 0.5) * 2.0 * np.pi / grid.length
    fh[(np.abs(grid.kx) > cut) | (np.abs(grid.ky) > cut)] = 0.0
    return grid.ifft(fh)


@pytest.mark.parametrize("L1, L2", [(1.0, 0.5), (1.0, -0.4), (2.0, 3.0)])
def test_elastic_operator_is_the_variation_of_the_elastic_energy(rng, L1, L2):
    # F_e is quadratic, so its central difference is exact up to rounding:
    # (F_e(Q + hH) - F_e(Q - hH)) / 2h = eps int L(Q) : H
    grid, eps, h = Grid2D(32, length=5.0), 0.3, 1e-3
    q, dir_h = _band_limited(grid, rng), _band_limited(grid, rng)

    def f_e(q5):
        return dynamics.elastic_energy(dynamics._grad_q(grid.fft(q5), grid), grid, L1, L2, eps)

    fd = (f_e(q + h * dir_h) - f_e(q - h * dir_h)) / (2.0 * h)
    lq = dynamics.elastic_operator(grid.fft(q), grid, dynamics.elastic_symbols(grid, L1, L2))
    exact = eps * grid.mean_integral(qdot(lq, dir_h))
    assert abs(fd - exact) <= 1e-10 * abs(exact), (fd, exact)


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

    for state in (state0, state1):  # step ratio 0 (no history), then 1
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
        assert st.hist.q5 is prev.q5
        cold = solver.close(st).closure
        assert np.abs(st.closure.res.B5 - cold.res.B5).max() <= 1e-9
        assert np.abs(st.closure.mu - cold.mu).max() <= 1e-9


def test_ledger_reads_the_terms_the_step_computed(monkeypatch):
    # close() computes grad Q, grad v, M_Q(mu) and M4 : D once per state, and
    # Q's and mu's matrices once; a step transforms each field forward once
    # (the RHS stress, the two implicit right-hand sides) and back once per
    # product, and the ledger sums the terms and transforms, contracts or
    # forms nothing itself
    grid = Grid2D(16)
    solver = FieldSolver(grid, PARAMS)
    state = solver.close(smooth_random_state(grid, PARAMS, seed=0))
    calls = collections.Counter()

    def count(owner, name, key):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(Grid2D, "fft", "transform")
    count(Grid2D, "ifft", "transform")
    count(closure, "m4_contract_frame", "m4")   # inside mq_apply_frame
    count(dynamics, "m4_contract_frame", "m4")
    count(dynamics, "mq_apply_frame", "mq")
    count(closure, "to_matrix", "to_matrix")    # the closure solve's eigen input
    count(tensors, "to_matrix", "to_matrix")
    count(dynamics, "_matrix_rows", "rows")     # Q, mu and grad Q
    new = solver.step(state, 0.05)
    stepped = dict(calls)
    calls.clear()
    dynamics.energy_report(new, PARAMS)
    assert not calls
    assert stepped == {"transform": 9, "m4": 2, "mq": 1, "to_matrix": 1, "rows": 3}


def _rows(m):
    """(n, n, ..., 3, 3) -> rows (..., 3, 3, n^2)."""
    m = np.moveaxis(m, (0, 1), (-2, -1))
    return m.reshape(m.shape[:-2] + (-1,))


def _ledger_from_scratch(state, p):
    """The energy ledger evaluated from the state's fields, its mu and its
    closure batch alone, with its own transforms and frame contractions."""
    grid, n = state.grid, state.grid.n
    res = state.closure.res
    rot, pair = (np.moveaxis(m, 0, -1) for m in (res.rotation, res.pair))
    q5, v = state.q5, state.v
    dq = to_matrix(grid.grad(q5))
    kap = np.zeros((n, n, 3, 3))
    kap[..., :2] = np.swapaxes(grid.grad(v), -1, -2)
    dmat = _rows(0.5 * (kap + np.swapaxes(kap, -1, -2)))
    mumat = state.closure.mu

    kinetic = 0.5 * grid.mean_integral((v**2).sum(axis=-1))
    bulk = grid.mean_integral(-res.log_z.reshape(n, n) + qdot(q5, res.B5.reshape(n, n, 5))
                              - 0.5 * p.alpha * qdot(q5, q5))
    divq = dq[..., 0, :, 0] + dq[..., 1, :, 1]
    cross = np.einsum("...akb,...bka->...", dq[..., :, :, :2], dq[..., :, :, :2])
    elastic = grid.mean_integral(0.5 * p.epsilon * (
        p.L1 * (dq**2).sum(axis=(-3, -2, -1)) + p.L2 * ((divq**2).sum(axis=-1) + cross)))
    total = kinetic + (1.0 - p.gamma) / (p.re * p.de) * (bulk + elastic)
    d_visc = (p.gamma / p.re) * grid.mean_integral((kap**2).sum(axis=(-2, -1)))
    d_clos = (1.0 - p.gamma) / (2.0 * p.re) * grid.mean_integral(
        (dmat * m4_contract_frame(rot, pair, dmat)).sum(axis=(0, 1)))
    d_rot = 4.0 * (1.0 - p.gamma) / (p.re * p.de**2) * grid.mean_integral(
        (mumat * mq_apply_frame(_rows(to_matrix(q5)), rot, pair, mumat)).sum(axis=(0, 1)))
    return dynamics.EnergyReport(state.t, kinetic, bulk, elastic, total,
                                 d_visc, d_clos, d_rot)


def test_ledger_matches_a_from_scratch_evaluation():
    grid = Grid2D(16)
    solver = FieldSolver(grid, PARAMS)
    state = solver.close(smooth_random_state(grid, PARAMS, seed=0))
    for st in (state, solver.step(state, 0.05)):
        got = vars(dynamics.energy_report(st, PARAMS))
        ref = vars(_ledger_from_scratch(st, PARAMS))
        for key, val in ref.items():
            assert abs(got[key] - val) <= 1e-15 * abs(val), (key, got[key], val)
