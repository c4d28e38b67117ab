"""Homogeneous Ericksen-Leslie director dynamics and the small-Deborah
convergence experiment.

With no spatial gradients the director obeys

    dn/dt = W n + zeta (D n - (n.D n) n),    W = (kappa - kappa^T)/2,

the explicit form of the torque balance n x (gamma1 N + gamma2 D n) = 0.
For zeta > 1 a simple shear aligns n at the Leslie angle
theta_L = arccos(1/zeta)/2; for zeta <= 1 the director tumbles.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .closure import PhysicalityError, bingham_map_batch
from .dynamics import HomState, default_hom_dt, step_homogeneous
from .equilibrium import PhaseConstants, phase_constants
from .tensors import biaxiality, uniaxial

__all__ = [
    "DirectorState", "LeslieAlignment", "director_rhs", "step_director",
    "leslie_angle", "extract_director", "homogeneous_trajectory",
    "SmallDeRow", "ConvergenceTable", "small_de_experiment", "angle_between",
]


@dataclass(frozen=True)
class DirectorState:
    n: np.ndarray
    t: float = 0.0


@dataclass(frozen=True)
class LeslieAlignment:
    """Steady shear alignment: the angle when it exists, else tumbling."""

    theta: float | None
    tumbling: bool


def director_rhs(n, kappa, constants: PhaseConstants):
    """dn/dt for the homogeneous director equation; orthogonal to n."""
    n = np.asarray(n, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    omega = 0.5 * (kappa - kappa.T)
    d = 0.5 * (kappa + kappa.T)
    dn = omega @ n + constants.zeta * (d @ n - (n @ d @ n) * n)
    return dn - (dn @ n) * n


def step_director(state: DirectorState, kappa, constants, dt):
    """RK4 step with renormalization (keeps |n| = 1 exactly)."""
    n = state.n

    def f(m):
        return director_rhs(m, kappa, constants)

    k1 = f(n)
    k2 = f(n + 0.5 * dt * k1)
    k3 = f(n + 0.5 * dt * k2)
    k4 = f(n + dt * k3)
    n1 = n + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    n1 /= np.linalg.norm(n1)
    return DirectorState(n1, state.t + dt)


def leslie_angle(zeta):
    """Shear alignment angle arccos(1/zeta)/2 for zeta >= 1, else tumbling."""
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    if zeta < 1.0:
        return LeslieAlignment(None, True)
    theta = 0.5 * np.arccos(1.0 / zeta)
    return LeslieAlignment(float(theta), zeta <= 1.0)


def extract_director(rotation, prev=None):
    """Principal eigenvector n of Q from its eigenframe (rotation: the
    eigenvector columns for ascending eigenvalues, a closure's rotation[0]),
    sign-aligned with prev when given."""
    n = rotation[:, 2]
    if prev is not None and float(n @ prev) < 0.0:
        n = -n
    return n


def angle_between(a, b):
    """Director distance arccos(|a.b|), quotienting the n -> -n symmetry."""
    return float(np.arccos(min(1.0, abs(float(np.dot(a, b))))))


def homogeneous_trajectory(params, kappa, n0, t_final, dt, constants):
    """Yield (state, n, dt) at t = 0 and after every step up to t_final.

    The run starts on the uniaxial slow manifold, Q = S2 (n0 n0 - I/3) at the
    equilibrium order parameter, closed cold, and takes ceil(t_final / dt)
    equal RK4 steps (step_homogeneous) of the returned dt <= the given one.
    n is the state's director (extract_director), sign-continued from n0.
    """
    n_steps = int(np.ceil(t_final / dt))
    dt = t_final / n_steps
    q0 = uniaxial(constants.S2, n0)
    state = HomState(q5=q0, kappa=np.asarray(kappa, dtype=float),
                     closure=bingham_map_batch(q0))
    n = n0
    for k in range(n_steps + 1):
        if k:
            state = step_homogeneous(state, dt, params)
        n = extract_director(state.closure.rotation[0], n)
        yield state, n, dt


# ---------------------------------------------------------------------------
# small-Deborah convergence experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmallDeRow:
    de: float
    sup_angle_err: float
    sup_biaxiality: float
    running_slope: float | None
    error: str | None = None


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple
    fitted_slope: float | None
    alpha: float
    zeta: float
    theta_leslie: float | None

    def as_records(self):
        return [
            {
                "De": r.de,
                "sup_angle_err": r.sup_angle_err,
                "sup_biaxiality": r.sup_biaxiality,
                "fitted_slope_running": r.running_slope,
                "error": r.error or "",
            }
            for r in self.rows
        ]


def small_de_experiment(params, de_list, kappa, t_final, n0):
    """Compare the Q-tensor trajectory against the director ODE per De.

    Both start from the same director n0 (Q on the uniaxial slow manifold at
    the equilibrium order parameter) under the same imposed gradient; per
    De the sup over time of the director angle error and of the biaxiality
    is recorded, and the log-log slope of the error is fitted.
    """
    de_list = list(de_list)
    if any(b >= a for a, b in zip(de_list, de_list[1:])):
        raise ValueError("de_list must be strictly decreasing")
    constants = phase_constants(params.alpha, params.L1, params.L2)
    n0 = np.asarray(n0, dtype=float) / np.linalg.norm(n0)

    rows = []

    for de in de_list:
        p = replace(params, de=float(de))
        try:
            dstate = DirectorState(n0)
            sup_err = 0.0
            sup_biax = 0.0
            steps = homogeneous_trajectory(p, kappa, n0, t_final,
                                           default_hom_dt(p, constants), constants)
            for k, (hom, ndir, dt) in enumerate(steps):
                if k:
                    dstate = step_director(dstate, kappa, constants, dt)
                sup_err = max(sup_err, angle_between(ndir, dstate.n))
                sup_biax = max(sup_biax, float(biaxiality(hom.closure.q_eigs[0])))
            slope = None
            done = [r for r in rows if r.error is None]
            if done:
                prev_row = done[-1]
                slope = float(np.log(prev_row.sup_angle_err / sup_err)
                              / np.log(prev_row.de / de))
            rows.append(SmallDeRow(de, sup_err, sup_biax, slope))
        except (PhysicalityError, RuntimeError, ArithmeticError) as exc:
            # a numerical failure of this De is an error row; the table is
            # still emitted, and a programming error propagates
            rows.append(SmallDeRow(de, np.nan, np.nan, None, f"{type(exc).__name__}: {exc}"))

    good = [r for r in rows if r.error is None]
    slope = None
    if len(good) >= 2:
        x = np.log([r.de for r in good])
        y = np.log([r.sup_angle_err for r in good])
        slope = float(np.polyfit(x, y, 1)[0])
    align = leslie_angle(constants.zeta)
    return ConvergenceTable(tuple(rows), slope, params.alpha, constants.zeta,
                            align.theta)
