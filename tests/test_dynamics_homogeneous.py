import collections

import numpy as np
import pytest

from qbingham.closure import (
    DEFAULT_TOL, PhysicalityError, bingham_map_batch, m4_contract_frame, mq_apply_frame,
)
from qbingham.dynamics import (
    HomState, ModelParams, _closed_q_rate, default_hom_dt, homogeneous_rhs, shear_kappa,
    step_homogeneous,
)
from qbingham.equilibrium import phase_constants
from qbingham.tensors import eig_sym3, from_matrix, qnorm, to_matrix, uniaxial
from conftest import count_calls, haar_rotations, random_physical, random_qvec
from dense_ops import DirectorContext, apply_hn, apply_j, relaxation_rates

P = ModelParams(alpha=7.0, epsilon=0.05, de=1.0, re=1.0, gamma=0.5,
                L1=1.0, L2=0.5, delta=0.1)
PC = phase_constants(7.0, 1.0, 0.5)
N0 = np.array([0.0, 0.0, 1.0])


def closed(q5, kappa, tol=DEFAULT_TOL, de=P.de):
    """An initial HomState of the rows q5 with Deborah numbers de, closed
    once."""
    q5 = np.reshape(q5, (-1, 5))
    return HomState(q5=q5, kappa=kappa, de=np.broadcast_to(de, len(q5)).astype(float),
                    t=np.zeros(len(q5)), closure=bingham_map_batch(q5, tol=tol))


def rhs_at(q5, kappa, tol=DEFAULT_TOL):
    """dQ/dt of one qvec q5 (5,) at De = P.de."""
    q5 = np.reshape(q5, (1, 5))
    return homogeneous_rhs(kappa, [P.de], P, bingham_map_batch(q5, tol=tol))[0]


def test_model_params_validation():
    with pytest.raises(ValueError, match="gamma"):
        ModelParams(7.0, 0.1, 1.0, 1.0, 1.2, 1.0, 0.0, 0.1)
    with pytest.raises(ValueError, match="L1 [+] 2 L2"):
        ModelParams(7.0, 0.1, 1.0, 1.0, 0.5, 1.0, -0.6, 0.1)
    with pytest.raises(ValueError, match="De"):
        ModelParams(7.0, 0.1, -1.0, 1.0, 0.5, 1.0, 0.0, 0.1)
    with pytest.raises(ValueError, match="delta"):
        ModelParams(7.0, 0.1, 1.0, 1.0, 0.5, 1.0, 0.0, 0.5)


def test_shear_kappa_tracefree():
    k = shear_kappa(2.5)
    assert k[0, 1] == 2.5
    assert np.trace(k) == 0.0
    with pytest.raises(ValueError):
        HomState(q5=np.zeros((1, 5)), kappa=np.eye(3), de=np.ones(1), t=np.zeros(1))
    with pytest.raises(ValueError, match="one De per row"):
        HomState(q5=np.zeros((2, 5)), kappa=k, de=np.ones(1), t=np.zeros(2))


def test_equilibrium_is_stationary():
    q0 = uniaxial(PC.S2, N0)
    rhs = rhs_at(q0, np.zeros((3, 3)))
    assert qnorm(rhs) < 1e-12


def test_equilibrium_fixed_point_over_many_steps():
    q0 = uniaxial(PC.S2, N0)
    state = closed(q0, np.zeros((3, 3)), tol=1e-12)
    dt = 0.1 * P.de
    for _ in range(1000):
        state = step_homogeneous(state, dt, P, tol=1e-12)
    assert qnorm(state.q5[0] - q0) < 1e-12


def test_isotropic_response_to_shear():
    # at Q = 0 the closure reduces to the isotropic fourth moment and
    # dQ/dt = 2 M_0(D) = (2/5) D
    kap = shear_kappa(1.0)
    d = 0.5 * (kap + kap.T)
    rhs = rhs_at(np.zeros(5), kap)
    assert np.abs(to_matrix(rhs) - 0.4 * d).max() < 1e-11


def test_linearized_rhs_matches_operators(rng):
    # small perturbation: dQ/dt ~ -(4/De) J(H(dQ)) + O(h^2)
    ctx = DirectorContext.build(N0, PC)
    q0 = uniaxial(PC.S2, N0)
    e = random_qvec(rng, scale=1.0)
    e = e / qnorm(e)
    errs = []
    for h in (1e-3, 5e-4):
        rhs = rhs_at(q0 + h * e, np.zeros((3, 3)), tol=1e-13)
        lin = -(4.0 / P.de) * apply_j(ctx, apply_hn(ctx, h * to_matrix(e)))
        errs.append(np.abs(to_matrix(rhs) - lin).max() / h)
    # second-order residual halves with h
    assert errs[1] < 0.6 * errs[0] + 1e-10
    assert errs[0] < 0.05


def _lab_frame_rhs(q5, kappa, de, res):
    """dQ/dt composed in the lab frame: M_Q(B - alpha Q), M4 : D and the
    closed rate, each rotated by its own frame contraction, on rows with
    the 3x3 axes first."""
    q_mat, rot, pair, mu = (np.moveaxis(m, 0, -1) for m in (
        to_matrix(q5), res.rotation, res.pair, to_matrix(res.B5 - P.alpha * q5)))
    m_mu = mq_apply_frame(q_mat, rot, pair, mu)
    m4_d = m4_contract_frame(rot, pair, kappa[..., None])
    rate = _closed_q_rate(q_mat, kappa[..., None], m_mu, m4_d, np.asarray(de))
    return from_matrix(np.moveaxis(rate, -1, 0))


@pytest.mark.parametrize("case", ["random", "uniaxial", "zero", "mixed-de"])
def test_in_frame_rhs_matches_lab_frame_composition(rng, case):
    q5 = {"random": random_physical(rng, 32, 0.05),
          "uniaxial": np.stack([uniaxial(s, n) for s, n in zip(
              rng.uniform(-0.4, 0.9, 8), haar_rotations(rng, 8)[:, :, 0])]),
          "zero": np.zeros((1, 5)),
          "mixed-de": random_physical(rng, 6, 0.1)}[case]
    de = rng.uniform(0.05, 2.0, len(q5)) if case == "mixed-de" else np.full(len(q5), P.de)
    kappa = to_matrix(random_qvec(rng, scale=1.0)) + shear_kappa(0.8)
    res = bingham_map_batch(q5)
    got = homogeneous_rhs(kappa, de, P, res)
    want = _lab_frame_rhs(q5, kappa, de, res)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_frame_indifference(rng):
    rot = haar_rotations(rng, 1)[0]
    q = uniaxial(0.4, np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    kap = shear_kappa(0.7)
    rhs = rhs_at(q, kap)
    q_r = from_matrix(rot @ to_matrix(q) @ rot.T)
    rhs_r = rhs_at(q_r, rot @ kap @ rot.T)
    assert np.abs(to_matrix(rhs_r) - rot @ to_matrix(rhs) @ rot.T).max() < 1e-10


def test_rk4_self_convergence_order():
    # shear startup from equilibrium; Richardson with dt halvings
    kap = shear_kappa(1.0)
    q0 = uniaxial(PC.S2, N0)
    t_final = 0.4

    def run(dt):
        st = closed(q0, kap, tol=1e-13)
        for _ in range(int(round(t_final / dt))):
            st = step_homogeneous(st, dt, P, tol=1e-13)
        return st.q5[0]

    ref = run(0.0025)
    errs = [qnorm(run(dt) - ref) for dt in (0.04, 0.02, 0.01)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(o > 3.5 for o in orders), (errs, orders)


def test_physicality_retry_with_large_step():
    # a huge step would overshoot; the halving retry must still land inside
    kap = shear_kappa(4.0)
    q0 = uniaxial(PC.S2, N0)
    st = closed(q0, kap)
    out = step_homogeneous(st, 2.0, P)
    w, _ = eig_sym3(to_matrix(out.q5[0]))
    assert min(w[0] + 1.0 / 3.0, 2.0 / 3.0 - w[2]) >= P.delta / 2.0
    assert out.t[0] == pytest.approx(2.0)


def test_default_dt_resolves_stiffness():
    dt = default_hom_dt(P.de, PC)
    lam = relaxation_rates(DirectorContext.build(N0, PC))[-1]
    assert dt * lam / P.de <= 2.0 + 1e-12
    assert dt <= 0.1 * P.de + 1e-15


def test_each_state_carries_its_own_closure(monkeypatch):
    # the closure solve of q1 is the step's margin check and the next k1's
    # eigenframe: one eig_sym3 per closure solve, and no eigvalsh pass
    kap = shear_kappa(1.0)
    q0 = uniaxial(PC.S2, np.array([np.cos(1.0), np.sin(1.0), 0.0]))
    with pytest.raises(ValueError, match="no closure"):
        step_homogeneous(HomState(q5=q0[None], kappa=kap, de=np.ones(1), t=np.zeros(1)), 0.05, P)
    states = [closed(q0, kap)]

    def no_eigvalsh(*args):
        raise AssertionError("the closure solve alone checks the margin")

    calls = collections.Counter()
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    count_calls(monkeypatch, bingham_map_batch, calls, "solves")
    count_calls(monkeypatch, eig_sym3, calls, "eig")
    per_step = []
    for _ in range(5):
        calls.clear()
        states.append(step_homogeneous(states[-1], 0.05, P))
        per_step.append((calls["solves"], calls["eig"]))
    monkeypatch.undo()
    assert per_step == [(4, 4)] * 5
    for st in states:
        cold = bingham_map_batch(st.q5)
        assert np.abs(st.closure.B5 - cold.B5).max() <= 1e-9
        assert np.abs(st.closure.rotation - cold.rotation).max() <= 1e-9


def test_batch_equals_rows():
    # one step of three rows with their own De, dt and director is each row
    # stepped alone, up to the closure tolerance (a batch shares one node
    # count, the largest its rows need)
    kap = shear_kappa(1.0)
    dirs = [np.array([np.cos(a), np.sin(a), z]) / np.hypot(1.0, z)
            for a, z in ((0.3, 0.0), (1.0, 0.4), (2.0, -0.7))]
    q5 = np.stack([uniaxial(PC.S2, n) for n in dirs]) + np.array([0.01, -0.02, 0.0, 0.005, 0.0])
    de = np.array([0.3, 0.1, 0.05])
    dt = np.array([0.02, 0.005, 0.003])
    batch = step_homogeneous(closed(q5, kap, de=de), dt, P)
    for i in range(3):
        alone = step_homogeneous(closed(q5[i], kap, de=de[i]), dt[i:i + 1], P)
        assert np.abs(batch.q5[i] - alone.q5[0]).max() <= 1e-12
        assert np.abs(batch.closure.B5[i] - alone.closure.B5[0]).max() <= 1e-12
        assert np.abs(batch.closure.rotation[i] - alone.closure.rotation[0]).max() <= 1e-12
        assert batch.t[i] == alone.t[0] == dt[i]


def test_batch_of_one_is_the_single_state_step():
    # two steps of one row are two classical RK4 steps of that row, each
    # stage closed by its own solve and the new state with the delta/2 margin
    q0 = uniaxial(0.5, np.array([np.cos(1.0), np.sin(1.0), 0.0])) + np.array(
        [0.02, -0.01, 0.015, 0.0, 0.01])
    kappa, de, h = shear_kappa(1.0), np.array([0.3]), np.array([[0.02]])
    st = closed(q0, kappa, de=0.3)
    q, res = st.q5, st.closure
    for _ in range(2):
        st = step_homogeneous(st, np.array([0.02]), P)
        ks = [homogeneous_rhs(kappa, de, P, res)]
        for c in (0.5, 0.5, 1.0):
            qc = q + c * h * ks[-1]
            ks.append(homogeneous_rhs(kappa, de, P, bingham_map_batch(qc)))
        k1, k2, k3, k4 = ks
        q = q + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        res = bingham_map_batch(q, delta=P.delta / 2.0)
    assert np.abs(st.q5[0] - q[0]).max() <= 1e-14
    assert np.abs(st.closure.B5[0] - res.B5[0]).max() <= 1e-14
    assert st.t[0] == 0.04
