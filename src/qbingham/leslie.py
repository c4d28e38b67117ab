"""Homogeneous Ericksen-Leslie director dynamics and the small-Deborah
convergence experiment.

With no spatial gradients the director obeys

    dn/dt = W n + zeta (D n - (n.D n) n),    W = (kappa - kappa^T)/2,

the explicit form of the torque balance n x (gamma1 N + gamma2 D n) = 0.
For zeta > 1 a simple shear aligns n at the Leslie angle
theta_L = arccos(1/zeta)/2; for zeta < 1 the director tumbles.

The director functions take and return plain rows of directors (..., 3).
The Q-tensor trajectories of several De values advance in lockstep as one
batch (homogeneous_trajectory), each row with its own De and dt, so every RK
stage makes one closure solve for all live rows; small_de_experiment steps
the rows' reference directors alongside them in one loop and returns its
table as the plain records small_de.json holds.
"""
from __future__ import annotations

from dataclasses import fields

import numpy as np

from .closure import BatchClosureResult, PhysicalityError, bingham_map_batch
from .dynamics import HomState, default_hom_dt, step_homogeneous
from .equilibrium import PhaseConstants, phase_constants
from .tensors import biaxiality, uniaxial

__all__ = [
    "director_rhs", "step_director", "leslie_angle", "extract_director",
    "homogeneous_trajectory", "small_de_experiment", "angle_between",
]

# failures of a step that make its row an error row; anything else is a
# programming error and propagates
_NUMERICAL = (PhysicalityError, RuntimeError, ArithmeticError)


def director_rhs(n, kappa, constants: PhaseConstants):
    """dn/dt for the homogeneous director equation at directors n (..., 3);
    orthogonal to n. D n = (kappa n + kappa^T n)/2 and W n = kappa n - D n,
    so no 3x3 spin or strain is formed in any of step_director's four
    stages."""
    n = np.asarray(n, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    kn = n @ kappa.T
    dn_d = 0.5 * (kn + n @ kappa)  # D n
    dn = kn - dn_d + constants.zeta * (dn_d - (dn_d * n).sum(-1, keepdims=True) * n)
    return dn - (dn * n).sum(-1, keepdims=True) * n


def step_director(n, kappa, constants, dt):
    """RK4 step of the directors n (..., 3), each row with its own dt (an
    array over the rows, or a scalar), with renormalization (keeps |n| = 1
    exactly); returns the stepped directors."""
    h = np.asarray(dt, dtype=float)[..., None]

    def f(m):
        return director_rhs(m, kappa, constants)

    k1 = f(n)
    k2 = f(n + 0.5 * h * k1)
    k3 = f(n + 0.5 * h * k2)
    k4 = f(n + h * k3)
    n1 = n + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    n1 /= np.linalg.norm(n1, axis=-1, keepdims=True)
    return n1


def leslie_angle(zeta):
    """Shear alignment angle arccos(1/zeta)/2 for zeta >= 1; None for
    zeta < 1, where the director tumbles."""
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    if zeta < 1.0:
        return None
    return float(0.5 * np.arccos(1.0 / zeta))


def extract_director(rotation, prev):
    """Principal eigenvectors n (..., 3) of Q from its eigenframes (rotation
    (..., 3, 3): the eigenvector columns for ascending eigenvalues, a
    closure's rotation), each sign-aligned with its row of prev."""
    n = rotation[..., 2]
    return np.where(((n * prev).sum(-1) < 0.0)[..., None], -n, n)


def angle_between(a, b):
    """Director distance arccos(|a.b|) of rows (..., 3), quotienting the
    n -> -n symmetry."""
    return np.arccos(np.minimum(1.0, np.abs((np.asarray(a) * b).sum(-1))))


def _take(state, rows):
    """The rows of a closed HomState, with their closure."""
    res = state.closure
    return HomState(state.q5[rows], state.kappa, state.de[rows], state.t[rows],
                    BatchClosureResult(*(getattr(res, f.name)[rows] for f in fields(res))))


def _concat(states):
    """One closed HomState of the rows of several, in order."""
    def cat(objs, name):
        return np.concatenate([getattr(o, name) for o in objs])
    res = [s.closure for s in states]
    return HomState(cat(states, "q5"), states[0].kappa, cat(states, "de"), cat(states, "t"),
                    BatchClosureResult(*(cat(res, f.name) for f in fields(BatchClosureResult))))


def homogeneous_trajectory(params, kappa, n0, t_final, de, dt, constants, errors):
    """Run one Q-tensor trajectory per row i, with Deborah number de[i] and
    step size at most dt[i], in lockstep; yield (rows, state, n, dt) at t = 0
    and after every lockstep step.

    Every row starts on the uniaxial slow manifold, Q = S2 (n0 n0 - I/3) at
    the equilibrium order parameter, closed once, and takes
    n_i = ceil(t_final / dt[i]) equal RK4 steps of t_final / n_i. The live
    rows (indices `rows` into de) are stepped as one batch with one
    step_homogeneous call, and a row leaves the batch once it has taken its
    n_i steps; where n_i grows along the rows, the live rows are a suffix.
    state is the HomState of the live rows, n their directors
    (extract_director, sign-continued from n0) and dt their step sizes.

    If the batch step fails numerically even after its halvings, each live
    row retries that step on its own. A row that fails alone leaves the
    batch, and its exception goes into errors[i]; the other rows continue.
    """
    de = np.asarray(de, dtype=float)
    n_steps = np.ceil(t_final / np.asarray(dt, dtype=float)).astype(int)
    dt = t_final / n_steps
    q0 = np.tile(uniaxial(constants.S2, n0), (len(de), 1))
    state = HomState(q5=q0, kappa=np.asarray(kappa, dtype=float), de=de,
                     t=np.zeros(len(de)), closure=bingham_map_batch(q0))
    rows = np.arange(len(de))
    n = extract_director(state.closure.rotation, np.tile(n0, (len(de), 1)))
    yield rows, state, n, dt
    for k in range(1, n_steps.max() + 1):
        live = n_steps[rows] >= k
        if not live.any():
            return
        if not live.all():
            rows, state, n = rows[live], _take(state, live), n[live]
        try:
            state = step_homogeneous(state, dt[rows], params)
        except _NUMERICAL:
            alone = {}
            for i, row in enumerate(rows):
                try:
                    alone[i] = step_homogeneous(_take(state, [i]), dt[[row]], params)
                except _NUMERICAL as exc:
                    errors[int(row)] = exc
            if not alone:
                return
            ok = list(alone)
            rows, n, state = rows[ok], n[ok], _concat(list(alone.values()))
        n = extract_director(state.closure.rotation, n)
        yield rows, state, n, dt[rows]


# ---------------------------------------------------------------------------
# small-Deborah convergence experiment
# ---------------------------------------------------------------------------

def small_de_experiment(params, de_list, kappa, t_final, n0):
    """Compare the Q-tensor trajectory against the director ODE per De.

    Both start from the same director n0 (Q on the uniaxial slow manifold at
    the equilibrium order parameter) under the same imposed gradient. All De
    rows advance in lockstep (homogeneous_trajectory), each with its own
    default_hom_dt, and their reference directors step alongside with the
    same per-row dt. Per De the sup over time of the director angle error and
    of the biaxiality is recorded, and the log-log slope of the error is
    fitted. params gives everything but De, which is each row's own.

    Returns the table small_de.json holds: {"rows": [{"De",
    "sup_angle_err", "sup_biaxiality", "fitted_slope_running", "error"}, ...],
    "fitted_slope", "alpha", "zeta", "theta_leslie"}. A row's running slope
    is against the previous good row (None for the first), and the fitted
    slope is None with fewer than two good rows. A numerical failure of one
    De, also when its row steps alone, is that De's error row (NaN sup
    values and the exception's text); the other rows go on, and a
    programming error propagates.
    """
    de_list = list(de_list)
    if any(b >= a for a, b in zip(de_list, de_list[1:])):
        raise ValueError("de_list must be strictly decreasing")
    constants = phase_constants(params.alpha, params.L1, params.L2)
    n0 = np.asarray(n0, dtype=float) / np.linalg.norm(n0)
    dts = [default_hom_dt(de, constants) for de in de_list]

    errors = {}
    sup_err = np.zeros(len(de_list))
    sup_biax = np.zeros(len(de_list))
    nref = np.tile(n0, (len(de_list), 1))
    steps = homogeneous_trajectory(params, kappa, n0, t_final, de_list, dts, constants, errors)
    for k, (live, hom, ndir, dt) in enumerate(steps):
        if k:
            nref[live] = step_director(nref[live], kappa, constants, dt)
        sup_err[live] = np.maximum(sup_err[live], angle_between(ndir, nref[live]))
        sup_biax[live] = np.maximum(sup_biax[live], biaxiality(hom.closure.q_eigs))

    sup_err[list(errors)] = sup_biax[list(errors)] = np.nan
    rows, good = [], []
    for i, de in enumerate(de_list):
        exc = errors.get(i)
        rows.append({"De": de, "sup_angle_err": float(sup_err[i]),
                     "sup_biaxiality": float(sup_biax[i]), "fitted_slope_running": None,
                     "error": "" if exc is None else f"{type(exc).__name__}: {exc}"})
        if exc is None:
            if good:
                rows[i]["fitted_slope_running"] = float(
                    np.log(good[-1]["sup_angle_err"] / sup_err[i]) / np.log(good[-1]["De"] / de))
            good.append(rows[i])

    slope = None
    if len(good) >= 2:
        x = np.log([r["De"] for r in good])
        y = np.log([r["sup_angle_err"] for r in good])
        slope = float(np.polyfit(x, y, 1)[0])
    return {"rows": rows, "fitted_slope": slope, "alpha": params.alpha,
            "zeta": constants.zeta, "theta_leslie": leslie_angle(constants.zeta)}
