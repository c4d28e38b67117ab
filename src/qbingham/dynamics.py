"""Time integration of the closed Q-tensor flow system.

Two settings share the same right-hand sides:

* spatially homogeneous states under an imposed velocity gradient,
  integrated with RK4;
* 2D periodic (Q, v) fields with full 3D tensor components, integrated
  pseudo-spectrally with a stabilized two-step IMEX scheme (SBDF2 with a
  constant-coefficient implicit shield). Each field is transformed once
  per right-hand side (Grid2D.grad); the explicit terms are raw grid
  products, and the 2/3 dealiasing, the Leray projection for the pressure
  and the viscous term act per mode in the implicit solves of
  FieldSolver.step.

Index conventions, fixed once for the whole package: the velocity-gradient
matrix is kappa_ij = dv_i/dx_j (it advects material vectors), the closure
operator receives its transpose, and the fluid spin is (kappa - kappa^T)/2.
The discrete energy ledger of energy_report validates this choice.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .closure import (
    DEFAULT_TOL, PhysicalityError, bingham_map_batch, m4_contract_frame,
    mq_apply_frame,
)
from .linear_ops import DirectorContext, relaxation_rates
from .equilibrium import phase_constants
from .spectral import Grid2D, elastic_symbols
from .tensors import (
    eigenvalue_margin, from_basis_coeffs, from_matrix, qdot, to_basis_coeffs,
    to_matrix,
)

__all__ = [
    "ModelParams", "HomState", "FieldState", "EnergyReport", "FieldSolver",
    "homogeneous_rhs", "step_homogeneous", "default_hom_dt",
    "elastic_operator", "elastic_energy", "distortion_stress",
    "mu_field", "energy_report", "smooth_random_state", "DivergenceError",
]


class DivergenceError(RuntimeError):
    """The projected velocity is not divergence-free to round-off.

    Not a PhysicalityError: halving dt cannot repair a broken projection.
    """


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless groups of the coupled system."""

    alpha: float
    epsilon: float
    de: float
    re: float
    gamma: float
    L1: float
    L2: float
    delta: float

    def __post_init__(self):
        errs = []
        if not 0.0 < self.gamma < 1.0:
            errs.append("gamma must lie in (0,1)")
        if self.L1 <= 0.0:
            errs.append("L1 must be positive")
        if self.L1 + 2.0 * self.L2 <= 0.0:
            errs.append("L1 + 2 L2 must be positive")
        if self.de <= 0.0:
            errs.append("De must be positive")
        if self.re <= 0.0:
            errs.append("Re must be positive")
        if self.epsilon < 0.0:
            errs.append("epsilon must be nonnegative")
        if not 0.0 < self.delta < 1.0 / 3.0:
            errs.append("delta must lie in (0, 1/3)")
        if self.alpha <= 0.0:
            errs.append("alpha must be positive")
        if errs:
            raise ValueError("; ".join(errs))


def shear_kappa(rate=1.0):
    """kappa for simple shear v = (rate * y, 0, 0)."""
    k = np.zeros((3, 3))
    k[0, 1] = float(rate)
    return k


# ---------------------------------------------------------------------------
# homogeneous dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomState:
    """A single Q under an imposed, trace-free velocity gradient."""

    q5: np.ndarray
    kappa: np.ndarray
    t: float = 0.0
    b5: np.ndarray | None = None  # closure warm start

    def __post_init__(self):
        if abs(np.trace(self.kappa)) > 1e-12:
            raise ValueError("imposed velocity gradient must be trace-free")


def homogeneous_rhs(q5, kappa, params, b_warm5=None, tol=DEFAULT_TOL):
    """dQ/dt for the homogeneous system; returns (rhs qvec, B qvec).

    The elastic contribution vanishes identically without gradients, so
    mu = B - alpha Q. The velocity gradient enters through its transpose.
    """
    q5 = np.asarray(q5, dtype=float)
    res = bingham_map_batch(q5[None, :], delta=0.0, tol=tol,
                            b_warm5=None if b_warm5 is None else b_warm5[None, :])
    b5 = res.B5[0]
    qmat = to_matrix(q5)
    mu = to_matrix(b5 - params.alpha * q5)
    m_mu = mq_apply_frame(qmat[None], res.rotation, res.pair, mu[None])[0]
    g = np.asarray(kappa, dtype=float).T
    m_g = mq_apply_frame(qmat[None], res.rotation, res.pair, g[None])[0]
    rhs = (-(2.0 / params.de) * (m_mu + m_mu.T) + (m_g + m_g.T))
    return from_matrix(rhs), b5


def default_hom_dt(params, constants=None):
    """Step size resolving the stiff bulk relaxation for explicit RK4."""
    if constants is None:
        constants = phase_constants(params.alpha, params.L1, params.L2)
    ctx = DirectorContext.build(np.array([0.0, 0.0, 1.0]), constants)
    lam = float(relaxation_rates(ctx)[-1])
    return min(0.1 * params.de, 2.0 * params.de / max(lam, 1e-12))


def step_homogeneous(state: HomState, dt, params, tol=DEFAULT_TOL, _depth=0):
    """One RK4 step; rejects and halves dt (up to 10 times) if the update,
    or any internal stage, leaves the physical set with margin delta/2."""
    q0, b5 = state.q5, state.b5
    try:
        k1, b5 = homogeneous_rhs(q0, state.kappa, params, b5, tol)
        k2, b5 = homogeneous_rhs(q0 + 0.5 * dt * k1, state.kappa, params, b5, tol)
        k3, b5 = homogeneous_rhs(q0 + 0.5 * dt * k2, state.kappa, params, b5, tol)
        k4, b5 = homogeneous_rhs(q0 + dt * k3, state.kappa, params, b5, tol)
        q1 = q0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        margin = float(eigenvalue_margin(q1))
        failed = margin < params.delta / 2.0
        reason = f"margin {margin:.3e}"
    except (PhysicalityError, RuntimeError) as exc:
        # a stage left the invertible set; treat like a failed step
        failed = True
        reason = str(exc)
    if failed:
        if _depth >= 10:
            raise PhysicalityError(
                f"homogeneous step keeps violating the delta/2 margin after "
                f"10 halvings at t={state.t:.4g} ({reason})")
        mid = step_homogeneous(state, dt / 2.0, params, tol, _depth + 1)
        return step_homogeneous(mid, dt / 2.0, params, tol, _depth + 1)
    return HomState(q1, state.kappa, state.t + dt, b5)


# ---------------------------------------------------------------------------
# spectral field operators
# ---------------------------------------------------------------------------

def _modal_apply(grid, vec, diag, q5_field):
    """Apply the per-mode symmetric matrix vec diag(d) vec^T to a qvec field
    in the Q basis: one forward and one inverse transform."""
    ch = grid.fft(to_basis_coeffs(q5_field))
    ch = np.einsum("xyab,xyb->xya", vec, diag * np.einsum("xyba,xyb->xya", vec, ch))
    return from_basis_coeffs(grid.ifft(ch))


def elastic_operator(q5_field, grid, lam, vec):
    """L(Q) = -(L1 Lap Q + L2 (Q_ik,jk + Q_jk,ik)), deviatoric, per point.

    Evaluated mode-by-mode through the symmetric symbol in the Q basis,
    (lam, vec) = elastic_symbols(grid, L1, L2), the same matrices the
    implicit time-step solves use.
    """
    return _modal_apply(grid, vec, lam, q5_field)


def _grad_q(q5_field, grid):
    """dQ stack (n, n, 2, 3, 3): dq[..., a, k, l] = d_a Q_kl, a in (x, y)."""
    return to_matrix(grid.grad(q5_field))


def elastic_energy(q5_field, grid, L1, L2, epsilon):
    """F_e = (eps/2) int L1 |grad Q|^2 + L2 (|div Q|^2 + Q_jk,i Q_ik,j)."""
    dq = _grad_q(q5_field, grid)
    t_l1 = np.einsum("...akl,...akl->...", dq, dq)
    divq = dq[..., 0, :, 0] + dq[..., 1, :, 1]
    t_div = np.einsum("...k,...k->...", divq, divq)
    cross = np.einsum("...akb,...bka->...", dq[..., :, :, :2], dq[..., :, :, :2])
    dens = 0.5 * epsilon * (L1 * t_l1 + L2 * (t_div + cross))
    return grid.mean_integral(dens)


def distortion_stress(dq, L1, L2):
    """sigma^d(Q) from the gradient stack dq[..., a, k, l] = d_a Q_kl of
    shape (n, n, 2, 3, 3), with layout sigma[..., j, i]; force_i = d_j sigma[j, i].

    sigma_ji = -(L1 Q_kl,j Q_kl,i + L2 Q_km,m Q_kj,i + L2 Q_kj,l Q_kl,i).
    """
    sig = np.zeros(dq.shape[:2] + (3, 3))
    sig[..., :2, :2] -= L1 * np.einsum("...akl,...bkl->...ab", dq, dq)
    divq = dq[..., 0, :, 0] + dq[..., 1, :, 1]
    sig[..., :, :2] -= L2 * np.einsum("...k,...bkj->...jb", divq, dq)
    sig[..., :, :2] -= L2 * np.einsum("...akj,...bka->...jb", dq, dq[..., :, :, :2])
    return sig


def _div_stress(sig, grid):
    """force_i = d_j sigma[..., j, i] (planar j): one forward, one inverse transform."""
    sh = grid.fft(sig[..., :2, :])
    return grid.ifft(1j * (grid.kx[..., None] * sh[..., 0, :]
                           + grid.ky[..., None] * sh[..., 1, :]))


def _kappa_field(v, grid):
    """kappa_ij = dv_i/dx_j as an (n, n, 3, 3) field."""
    kap = np.zeros(v.shape[:-1] + (3, 3))
    kap[..., :2] = np.swapaxes(grid.grad(v), -1, -2)
    return kap


def mu_field(q5_field, grid, params, lam, vec, b5=None):
    """Molecular field mu = (B - alpha Q) + eps L(Q) and the closure batch.

    (lam, vec) are the elastic symbols of the grid, as FieldSolver holds them.
    """
    n = grid.n
    res = bingham_map_batch(
        q5_field.reshape(-1, 5), delta=params.delta / 2.0,
        b_warm5=None if b5 is None else b5.reshape(-1, 5))
    mu5 = res.B5.reshape(n, n, 5) - params.alpha * q5_field
    if params.epsilon != 0.0:
        mu5 = mu5 + params.epsilon * elastic_operator(q5_field, grid, lam, vec)
    return mu5, res


# ---------------------------------------------------------------------------
# field state and the IMEX stepper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _History:
    """The previous time level of the two-step scheme, with the B of its q5."""

    q5: np.ndarray
    v: np.ndarray
    fq: np.ndarray
    fv: np.ndarray
    dt: float
    b5: np.ndarray


@dataclass(frozen=True)
class FieldState:
    """Periodic (Q, v) fields, the closure of the state's own q5 and the
    previous step for the two-step scheme.

    closure is the (mu5, BatchClosureResult) pair of mu_field for q5. The
    solver owns it: FieldSolver.close solves it once for an initial state,
    and FieldSolver.step solves it for every state it returns. Both the
    right-hand side and the energy ledger read it from here.
    """

    grid: Grid2D
    q5: np.ndarray
    v: np.ndarray
    t: float = 0.0
    closure: tuple | None = None
    hist: _History | None = None


@dataclass(frozen=True)
class EnergyReport:
    """Energy ledger of one field state."""

    t: float
    kinetic: float
    bulk: float
    elastic: float
    total: float
    d_viscous: float
    d_closure: float
    d_rotational: float

    @property
    def dissipation(self):
        return self.d_viscous + self.d_closure + self.d_rotational


def _closure_of(state):
    if state.closure is None:
        raise ValueError("field state has no closure; close it with FieldSolver.close")
    return state.closure


class FieldSolver:
    """Pseudo-spectral IMEX integrator for the coupled field system.

    Implicit (per Fourier mode): the viscous Laplacian and a frozen
    constant-coefficient bound of the stiff closure-elastic product,
    c_bar = (2/15)(1 + 3 max|Q|), plus a scalar shield for the bulk
    relaxation sized from the linearized rates at equilibrium. Everything
    else, including the full closure nonlinearity, is explicit; the shield
    enters only through a second-difference bracket so the scheme stays
    second order regardless of the shield values.

    `rhs` returns the raw explicit terms. The 2/3 dealiasing of the Q
    update and the dealiasing and Leray projection of the velocity update
    act per mode, so `step` applies them once, in the implicit solves,
    together with the viscous term (gamma/Re) Lap v.

    Every state the solver steps carries its closure (FieldState.closure):
    `close` solves it for an initial state, and `step` solves it for the new
    state as its last act. That solve holds Q to the delta/2 margin, so a
    state that leaves it rejects the step.
    """

    def __init__(self, grid, params, forcing=None):
        self.grid = grid
        self.params = params
        self.forcing = forcing
        self.lam, self.vec = elastic_symbols(grid, params.L1, params.L2)
        constants = phase_constants(params.alpha, params.L1, params.L2)
        ctx = DirectorContext.build(np.array([0.0, 0.0, 1.0]), constants)
        self.bulk_shield = float(relaxation_rates(ctx)[-1]) / 4.0

    def close(self, state: FieldState, b_warm5=None):
        """`state` with the closure of its q5 (mu_field, delta/2 margin)."""
        return replace(state, closure=mu_field(
            state.q5, self.grid, self.params, self.lam, self.vec, b_warm5))

    def rhs(self, state: FieldState):
        """Explicit RHS (fq5, fv) of a closed state, including the forcing.

        Raw grid products: neither dealiased nor pressure-projected, and
        without the viscous term, all of which `step` applies implicitly.
        """
        grid, p = self.grid, self.params
        q5, v = state.q5, state.v
        mu5, res = _closure_of(state)
        n = grid.n
        rot = res.rotation.reshape(n, n, 3, 3)
        pair = res.pair.reshape(n, n, 3, 3)
        qmat = to_matrix(q5)
        mumat = to_matrix(mu5)
        m_mu = mq_apply_frame(qmat, rot, pair, mumat)

        kap = _kappa_field(v, grid)
        g = np.swapaxes(kap, -1, -2)
        m_g = mq_apply_frame(qmat, rot, pair, g)

        dq = _grad_q(q5, grid)
        fq_mat = (-(2.0 / p.de) * (m_mu + np.swapaxes(m_mu, -1, -2))
                  + m_g + np.swapaxes(m_g, -1, -2)
                  - v[..., 0, None, None] * dq[..., 0, :, :]
                  - v[..., 1, None, None] * dq[..., 1, :, :])
        fq5 = from_matrix(fq_mat)

        dmat = 0.5 * (kap + np.swapaxes(kap, -1, -2))
        sig = ((1.0 - p.gamma) / (2.0 * p.re)) * m4_contract_frame(rot, pair, dmat)
        sig = sig + ((1.0 - p.gamma) / (p.de * p.re)) * (
            2.0 * m_mu + p.epsilon * distortion_stress(dq, p.L1, p.L2))
        fv = _div_stress(sig, grid)
        fv -= v[..., 0:1] * kap[..., 0] + v[..., 1:2] * kap[..., 1]
        if self.forcing is not None:
            f_q, f_v = self.forcing(state.t)
            fq5 = fq5 + f_q
            fv = fv + f_v
        return fq5, fv

    def step(self, state: FieldState, dt):
        """Advance a closed state one step (bootstrap Euler if no history,
        else SBDF2) and close the new state.

        Q solve: (a + A_Q) q1 = r_Q with A_Q = (4/De)(c_b + eps c_bar L),
        diagonal in the elastic eigenbasis, then the 2/3 mask. Velocity
        solve: (a - (gamma/Re) Lap) v1 = r_v, then the mask and the Leray
        projection. The closure solve of q1 starts from 2 B(q0) - B(q_-1),
        or from B(q0) without history; its delta/2 margin check raises
        PhysicalityError.
        """
        grid, p = self.grid, self.params
        cbar = (2.0 / 15.0) * (1.0 + 3.0 * float(np.sqrt(qdot(state.q5, state.q5)).max()))
        fq, fv = self.rhs(state)
        s = (4.0 / p.de) * (self.bulk_shield + p.epsilon * cbar * self.lam)

        hist = state.hist
        if hist is not None and abs(hist.dt - dt) > 1e-14 * max(dt, hist.dt):
            hist = None  # step size changed, restart the multistep history
        if hist is None:
            # stabilized semi-implicit Euler: (1/dt + A) x1 = x0 (1/dt + A) + f0
            a = 1.0 / dt
            rq = a * state.q5 + fq + _modal_apply(grid, self.vec, s, state.q5)
            rv = a * state.v + fv
        else:
            a = 1.5 / dt
            rq = ((4.0 * state.q5 - hist.q5) / (2.0 * dt) + 2.0 * fq - hist.fq
                  + _modal_apply(grid, self.vec, s, 2.0 * state.q5 - hist.q5))
            rv = (4.0 * state.v - hist.v) / (2.0 * dt) + 2.0 * fv - hist.fv
        q1 = _modal_apply(grid, self.vec, grid.dealias_mask[..., None] / (a + s), rq)
        vh = grid.fft(rv)
        vh /= (a + (p.gamma / p.re) * grid.ksq)[..., None]
        v1 = grid.ifft(grid.leray_hat(grid.dealias_hat(vh)))

        div_res = grid.divergence_residual(v1)
        if not div_res <= 1e-10:
            raise DivergenceError(
                f"divergence residual {div_res:.2e} after projection at "
                f"t={state.t + dt:.5g}")

        b5 = state.closure[1].B5
        new = FieldState(grid=grid, q5=q1, v=v1, t=state.t + dt,
                         hist=_History(state.q5, state.v, fq, fv, dt, b5))
        try:
            return self.close(new, b5 if state.hist is None else 2.0 * b5 - state.hist.b5)
        except PhysicalityError as exc:
            raise PhysicalityError(
                f"field left the delta/2 physical margin at t={new.t:.5g}: {exc}") from exc

    def run(self, state: FieldState, dt, n_steps, callback=None, max_halvings=10):
        """Advance a closed state n_steps, halving dt when a step loses
        physicality (step then restarts the multistep history)."""
        halvings = 0
        k = 0
        while k < n_steps:
            try:
                state = self.step(state, dt)
            except PhysicalityError:
                halvings += 1
                if halvings > max_halvings:
                    raise
                dt *= 0.5
                continue
            k += 1
            if callback is not None:
                callback(k, state)
        return state

    def default_dt(self, state):
        """dt = min(0.25 dx / |v|_max, 0.1 De)."""
        vmax = float(np.abs(state.v).max())
        adv = 0.25 * self.grid.dx / max(vmax, 1e-12)
        return min(adv, 0.1 * self.params.de)


def energy_report(state: FieldState, params):
    """Energy ledger: E = 1/2 int |v|^2 + (1-gamma)/(Re De) (F_b + F_e) and
    the three dissipation components of the balance law, from the closure
    (molecular field and closure batch of mu_field) that the state carries."""
    grid, p = state.grid, params
    n = grid.n
    mu5, res = _closure_of(state)
    rot = res.rotation.reshape(n, n, 3, 3)
    pair = res.pair.reshape(n, n, 3, 3)
    lnz = res.log_z.reshape(n, n)
    b5 = res.B5.reshape(n, n, 5)

    kinetic = 0.5 * grid.mean_integral((state.v**2).sum(axis=-1))
    f_bulk = grid.mean_integral(
        -lnz + qdot(state.q5, b5) - 0.5 * p.alpha * qdot(state.q5, state.q5))
    f_el = elastic_energy(state.q5, grid, p.L1, p.L2, p.epsilon)
    total = kinetic + (1.0 - p.gamma) / (p.re * p.de) * (f_bulk + f_el)

    kap = _kappa_field(state.v, grid)
    grad_v_sq = np.einsum("...ij,...ij->...", kap, kap)
    dmat = 0.5 * (kap + np.swapaxes(kap, -1, -2))
    d_m4_d = np.einsum("...ij,...ij->...", dmat, m4_contract_frame(rot, pair, dmat))
    mumat = to_matrix(mu5)
    qmat = to_matrix(state.q5)
    mu_m_mu = np.einsum("...ij,...ij->...", mumat,
                        mq_apply_frame(qmat, rot, pair, mumat))

    d_visc = (p.gamma / p.re) * grid.mean_integral(grad_v_sq)
    d_clos = (1.0 - p.gamma) / (2.0 * p.re) * grid.mean_integral(d_m4_d)
    d_rot = 4.0 * (1.0 - p.gamma) / (p.re * p.de**2) * grid.mean_integral(mu_m_mu)
    return EnergyReport(state.t, kinetic, f_bulk, f_el, total, d_visc, d_clos, d_rot)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def _band_limited(rng, grid, n_modes, n_comp):
    """Random real field with modes |kx|, |ky| <= n_modes, unit RMS-ish."""
    n = grid.n
    out = np.zeros((n, n, n_comp))
    for kx in range(-n_modes, n_modes + 1):
        for ky in range(-n_modes, n_modes + 1):
            if kx == 0 and ky == 0:
                continue
            amp = rng.normal(size=n_comp)
            ph = rng.uniform(0.0, 2.0 * np.pi, size=n_comp)
            wave = (2.0 * np.pi / grid.length) * (kx * grid.x + ky * grid.y)
            out += amp * np.cos(wave[..., None] + ph)
    return out / max(1, n_modes)


def smooth_random_state(grid, params, seed, q_amplitude=0.5, v_amplitude=0.1,
                        n_modes=2, margin=None):
    """Seeded band-limited initial data with Q inside the margin-delta
    physical set and a divergence-free velocity."""
    rng = np.random.default_rng(seed)
    margin = params.delta if margin is None else margin
    constants = phase_constants(params.alpha, params.L1, params.L2)
    n0 = np.array([0.0, 0.0, 1.0])
    s_base = min(constants.S2, 0.75 * (2.0 - 3.0 * margin) / 2.0)
    base = from_matrix(s_base * (np.outer(n0, n0) - np.eye(3) / 3.0))
    pert = _band_limited(rng, grid, n_modes, 5)
    amp = q_amplitude
    for _ in range(60):
        q5 = base + amp * pert
        worst = float(eigenvalue_margin(q5).min())
        if worst >= margin:
            break
        amp *= 0.8
    else:
        raise RuntimeError("could not fit initial data inside the margin")

    psi_w = _band_limited(rng, grid, n_modes, 2)
    dpsi = grid.grad(psi_w[..., 0])
    v = np.stack([dpsi[..., 1], -dpsi[..., 0], psi_w[..., 1]], axis=-1)
    v = grid.leray(v)
    vmax = np.abs(v).max()
    if vmax > 0:
        v *= v_amplitude / vmax
    return FieldState(grid=grid, q5=q5, v=v, t=0.0)
