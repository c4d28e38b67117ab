import collections
import dataclasses

import numpy as np
import pytest

from qbingham.closure import PhysicalityError, m4_contract_frame, mq_apply_frame
from qbingham import closure, dynamics, tensors
from qbingham.config import default_config
from qbingham.dynamics import DivergenceError, FieldSolver, FieldState, smooth_random_state
from qbingham.equilibrium import phase_constants
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
        return grid.ifft(grid.fft(f) * grid.dealias_mask[..., None])

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
    pert = grid.ifft(dynamics._band_limited(rng, grid, 5))
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


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("seed", [0, 1])
def test_initial_velocity_is_solenoidal_scaled_and_band_limited(n, seed):
    grid = Grid2D(n)
    v = smooth_random_state(grid, PARAMS, seed).v
    assert grid.divergence_residual(v) <= 1e-14
    assert np.abs(v).max() == pytest.approx(0.1, rel=1e-15)
    # no content beyond the band |kx|, |ky| <= N_MODES of the initial data
    vh = np.abs(grid.fft(v))
    band = (2.0 * np.pi / grid.length) * dynamics.N_MODES
    outside = (np.abs(grid.kx) > band) | (np.abs(grid.ky) > band)
    assert vh[outside].max() <= 1e-15 * vh.max()


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
        got = grid.ifft(dynamics._band_limited(rng, grid, 5))
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
        fq_f = fq * grid.dealias_mask[..., None]
        fv_f = grid.leray_hat(fv * grid.dealias_mask[..., None])
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
        assert st.hist.qh is prev.closure.qh
        cold = solver.close(st).closure
        assert np.abs(st.closure.res.B5 - cold.res.B5).max() <= 1e-9
        assert np.abs(st.closure.mu - cold.mu).max() <= 1e-9


def test_ledger_reads_the_terms_the_step_computed(monkeypatch):
    # close() computes grad Q, grad v, M_Q(mu) and M4 : D once per state, and
    # Q's and mu's matrices once; a step transforms its explicit terms forward
    # once, 14 components (Q's rate, the planar stress rows, -(v . grad) v),
    # and takes 5 inverse transforms of 29 components (Q, v, the elastic
    # operator, grad Q, grad v), 6 calls; the components pin the volume, so
    # a wider stack cannot hide extra work. The ledger sums the terms and
    # transforms, contracts or forms nothing itself
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

    for name in ("fft", "ifft"):    # calls, and components: the trailing shape's product
        fn = getattr(Grid2D, name)

        def transform(self, f, fn=fn, name=name):
            calls["transform"] += 1
            calls[name] += int(np.prod(np.shape(f)[2:]))
            return fn(self, f)
        monkeypatch.setattr(Grid2D, name, transform)
    count(closure, "m4_contract_frame", "m4")   # inside mq_apply_frame
    count(dynamics, "m4_contract_frame", "m4")
    count(dynamics, "mq_apply_frame", "mq")
    count(closure, "to_matrix", "to_matrix")    # the closure solve's eigen input
    count(tensors, "to_matrix", "to_matrix")
    count(dynamics, "_matrix_rows", "rows")     # Q, mu and grad Q
    count(dynamics, "axial_apply", "axial")     # the elastic operator, the Q solve
    new = solver.step(state, 0.05)
    stepped = dict(calls)
    calls.clear()
    dynamics.energy_report(new, PARAMS)
    assert not calls
    assert stepped == {"transform": 6, "fft": 14, "ifft": 29, "m4": 2, "mq": 1,
                       "to_matrix": 1, "rows": 3, "axial": 2}


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
    dq = to_matrix(grid.grad_hat(grid.fft(q5)))
    kap = np.zeros((n, n, 3, 3))
    kap[..., :2] = np.swapaxes(grid.grad_hat(grid.fft(v)), -1, -2)
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


# The four maps that send the periodic square grid to itself: Q -> R Q R^T
# and v -> R v at the mapped point, (g f)(x) = R f(R^T x). Each R has entries
# 0 and +-1, so the map itself is exact; the 2/3 mask is a square without the
# Nyquist modes and is invariant under all four.
def _grid_maps(n):
    back = (-np.arange(n)) % n                  # index of -x
    swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return {
        "rotation by 90 degrees": (np.diag([-1.0, 1.0, 1.0]) @ swap,
                                   lambda f: np.swapaxes(f[:, back], 0, 1)),
        "x -> -x": (np.diag([-1.0, 1.0, 1.0]), lambda f: f[back]),
        "x <-> y": (swap, lambda f: np.swapaxes(f, 0, 1)),
        "z -> -z": (np.diag([1.0, 1.0, -1.0]), lambda f: f),
    }


def _mapped(state, rot, points):
    q5 = from_matrix(rot @ to_matrix(state.q5) @ rot.T)
    return dataclasses.replace(state, q5=np.ascontiguousarray(points(q5)),
                               v=np.ascontiguousarray(points(state.v @ rot.T)),
                               closure=None, hist=None)


# Rounding budget of the symmetry gate (derived in CHANGES.md): each step of
# either run rounds Q by at most 512 u max|Q| (per-point sums of <= 9 terms,
# eig_sym3's 32 u, nine transforms of <= 2 log2(n^2) u each), so 20 steps of
# two runs differ by <= 2 * 20 * 512 u max|Q|. v is driven by the stress
# divergence, dt k_max max|sigma| <= 100 max|v|, and a ledger term is quadratic
# in v, grad v, grad Q or mu (conditioned like v), so twice v's bound relative.
_U = np.finfo(float).eps / 2.0
_SYM_STEPS = 20
_SYM_Q = 2.0 * _SYM_STEPS * 512.0 * _U
_SYM_V = 100.0 * _SYM_Q
_SYM_LEDGER = 2.0 * _SYM_V


def test_field_step_commutes_with_the_square_and_z_reflection():
    params = dynamics.ModelParams(alpha=7.0, epsilon=0.05, de=1.0, re=1.0, gamma=0.5,
                                  L1=1.0, L2=0.5, delta=0.1)
    grid = Grid2D(16)
    solver = FieldSolver(grid, params)
    start = smooth_random_state(grid, params, seed=0)
    end = solver.run(solver.close(start), 0.1, _SYM_STEPS)
    ledger = dynamics.energy_report(end, params)
    for name, (rot, points) in _grid_maps(grid.n).items():
        got = solver.run(solver.close(_mapped(start, rot, points)), 0.1, _SYM_STEPS)
        want = _mapped(end, rot, points)
        slack = 0.0 if name == "z -> -z" else 1.0   # sign flips round alike: bound 0
        dq = np.abs(got.q5 - want.q5).max() / np.abs(want.q5).max()
        dv = np.abs(got.v - want.v).max() / np.abs(want.v).max()
        assert dq <= slack * _SYM_Q, (name, dq)
        assert dv <= slack * _SYM_V, (name, dv)
        mapped_ledger = dynamics.energy_report(got, params)
        for key in ("total", "d_viscous", "d_closure", "d_rotational"):
            a, b = getattr(mapped_ledger, key), getattr(ledger, key)
            assert abs(a - b) <= slack * _SYM_LEDGER * abs(b), (name, key, a, b)


# Bound of the slow-manifold gate (derived in CHANGES.md from the paper's
# O(De) claim): the next-order term of the expansion (0.17), the shield's
# director error (0.02) and the initial layer (0.045) move a running slope
# by at most 0.235 from 1.
_SLOW_SLOPE = 0.25


def test_field_approaches_the_slow_manifold_at_rate_de():
    # Q = S2 (nn - I/3) + O(De) in the field (ROADMAP direction 9, part a):
    # a well-prepared start, epsilon = 0.25 De (the elastic energy's
    # coefficient (1 - gamma) eps / (Re De) stays finite) and dt = 0.05 De;
    # the sup over t in [0.5, 1] and the grid of |Q - S2 (nn - I/3)|, n the
    # closure's director, halves with De
    grid = Grid2D(16)
    theta = 0.4 * np.sin(grid.x) + 0.3 * np.cos(grid.y)
    phi = 0.3 * np.sin(grid.x + grid.y)
    n0 = np.stack([np.cos(theta) * np.cos(phi), np.sin(theta) * np.cos(phi), np.sin(phi)],
                  axis=-1)
    devs = []
    for de in (0.2, 0.1, 0.05):
        params = dynamics.ModelParams(alpha=7.0, epsilon=0.25 * de, de=de, re=1.0,
                                      gamma=0.5, L1=1.0, L2=0.5, delta=0.1)
        s2 = phase_constants(params.alpha, params.L1, params.L2).S2
        state = FieldState(grid=grid, q5=uniaxial(s2, n0),
                           v=smooth_random_state(grid, params, seed=0).v)
        sup = []

        def watch(k, st):
            if st.t >= 0.5 - 1e-12:
                dev = st.q5.reshape(-1, 5) - uniaxial(s2, st.closure.res.rotation[..., 2])
                sup.append(np.sqrt(qdot(dev, dev)).max())

        solver = FieldSolver(grid, params)
        end = solver.run(solver.close(state), 0.05 * de, round(1.0 / (0.05 * de)),
                         callback=watch)
        assert end.t == pytest.approx(1.0) and end.hist.dt == 0.05 * de
        devs.append(max(sup))
    slopes = np.log2(np.array(devs[:-1]) / np.array(devs[1:]))
    assert np.all(np.abs(slopes - 1.0) <= _SLOW_SLOPE), (devs, slopes)
