"""Time integration of the closed Q-tensor flow system.

Two settings share the same closed Q rate (_closed_q_rate), and every state
carries the closure of its own Q:

* spatially homogeneous states under an imposed velocity gradient,
  integrated with RK4 (step_homogeneous). A HomState is a batch of N rows,
  each with its own De and stepped with its own dt, and every RK stage makes
  one closure solve and one homogeneous_rhs call for all rows; a single run
  is the batch of one row;
* 2D periodic (Q, v) fields with full 3D tensor components, integrated
  pseudo-spectrally with a stabilized two-step IMEX scheme (variable-step
  SBDF2 with a constant-coefficient implicit shield, one formula in the
  step ratio omega = dt/dt_prev, zero-stable for omega < 1 + sqrt(2);
  omega = 0 on a first step). The step is in the usual pseudo-spectral
  SBDF form (Ascher, Ruuth & Wetton, SIAM J. Numer. Anal. 32, 1995): the
  nonlinear products are formed on the grid and transformed forward once,
  in one stack (FieldSolver.rhs), and everything else acts per mode. Each
  field state is closed once (FieldSolver.close): its closure, the
  transforms of Q and v, its gradients and the frame contractions M_Q(mu)
  and M4 : D are stored with it (_Terms), and the step, the right-hand side
  and the energy ledger read them from there. Both time levels of the step
  are spectra (_History), and a stepped state is closed from the transforms
  its implicit solves produced, so no field is transformed forward again.
  The 2/3 mask and the viscous term sit in the per-mode diagonals of
  FieldSolver.step's implicit solves, and the Leray projection for the
  pressure follows. The elastic operator and the implicit Q solve are each
  one tensors.axial_apply a step: scalars per mode on the three parts of the
  axial split of Q about k/|k| (spectral.elastic_symbols).

Per-point tensors of a field (Q, mu, grad Q, grad v and the products formed
from them) are component rows: contiguous (3, 3, N) arrays, N = n^2 points,
with the 3x3 axes first, so that a 3x3 matrix product is one einsum over
N-long rows and a contraction an elementwise sum, where an (n, n, 3, 3)
stack costs one small matrix product per point. _closed_q_rate takes its
matrices in that 3x3-axes-first order in both settings; homogeneous_rhs
passes it transposed views of its (N, 3, 3) stacks. Fields (FieldState),
transforms (Grid2D) and the closure batch keep their (n, n, ...) and
(N, ...) layouts.

Index conventions, fixed once for the whole package: the velocity-gradient
matrix is kappa_ij = dv_i/dx_j (it advects material vectors), the closure
operator receives its transpose, and the fluid spin is (kappa - kappa^T)/2.
The discrete energy ledger of energy_report validates this choice.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .closure import (
    DEFAULT_TOL, BatchClosureResult, PhysicalityError, bingham_map_batch,
    _component_major, _m4_in_frame, m4_contract_frame, mq_apply_frame,
)
from .equilibrium import phase_constants
from .spectral import Grid2D, elastic_symbols
from .tensors import (
    _matrix_rows, _qvec_rows, axial_apply, eigenvalue_margin, from_matrix, qdot,
)

__all__ = [
    "ModelParams", "HomState", "FieldState", "EnergyReport", "FieldSolver",
    "homogeneous_rhs", "step_homogeneous", "default_hom_dt",
    "elastic_operator", "elastic_energy", "distortion_stress",
    "mu_field", "energy_report", "smooth_random_state", "DivergenceError",
    "shear_kappa",
]


_I3 = np.eye(3)
# dt halvings a homogeneous step or a field run may take before it gives up
MAX_HALVINGS = 10
# initial field data are band-limited to |kx|, |ky| <= N_MODES
N_MODES = 2


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
        bad = [f.name for f in fields(self) if not np.isfinite(getattr(self, f.name))]
        if bad:
            raise ValueError(", ".join(bad) + " must be finite")
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
    """N homogeneous Q tensors under one imposed, trace-free velocity
    gradient: q5 (N, 5), the Deborah number de (N,) and the time t of each
    row, and the closure (bingham_map_batch result) of the N rows of q5. An
    initial state is closed once where it is created, and step_homogeneous
    closes every state it returns."""

    q5: np.ndarray
    kappa: np.ndarray
    de: np.ndarray
    t: np.ndarray
    closure: BatchClosureResult | None = None

    def __post_init__(self):
        if abs(np.trace(self.kappa)) > 1e-12:
            raise ValueError("imposed velocity gradient must be trace-free")
        if np.shape(self.de) != np.shape(self.q5)[:-1]:
            raise ValueError("one De per row of q5")


def _closed_q_rate(q_mat, kappa, m_mu, m4_d, de):
    """dQ/dt of the closed flow without advection, as matrices with their
    3x3 axes first, (3, 3, ...), de broadcasting over the rest:
    -(2/De)(M_Q(mu) + M_Q(mu)^T) + G + G^T with G = M_Q(kappa^T) =
    kappa^T/3 + Q kappa^T - M4 : D (M4 sees only the symmetric part D)."""
    g = kappa.swapaxes(0, 1)
    g = g / 3.0 + np.einsum("ik...,kj...->ij...", q_mat, g) - m4_d
    return -(2.0 / de) * (m_mu + m_mu.swapaxes(0, 1)) + g + g.swapaxes(0, 1)


def homogeneous_rhs(kappa, de, params, closure):
    """dQ/dt (qvec) of the homogeneous system at N rows with Deborah numbers
    de (N,), from their closure.

    The elastic contribution vanishes identically without gradients, so
    mu = B - alpha Q. The velocity gradient enters through its transpose.
    In the eigenframe of Q and B, Q = diag(w), mu = diag(m), m = b - alpha w,
    and M_Q(mu) = diag(m/3 + w m - pair m): kappa is rotated into the frame,
    _closed_q_rate is evaluated there, on 3x3-axes-first views of the
    (N, 3, 3) stacks, and the rate rotated back.
    """
    rot, w, pair = closure.rotation, closure.q_eigs, closure.pair
    rt = rot.swapaxes(-1, -2)
    m = closure.b - params.alpha * w
    m_mu = (w + 1.0 / 3.0) * m - (pair @ m[..., None])[..., 0]
    kap = (rt @ kappa @ rot).transpose(1, 2, 0)
    rate = _closed_q_rate(_I3[..., None] * w.T, kap, _I3[..., None] * m_mu.T,
                          _m4_in_frame(pair.transpose(1, 2, 0), kap), np.asarray(de))
    return from_matrix(rot @ rate.transpose(2, 0, 1) @ rt)


def _bulk_rate(constants):
    """The fastest linearized bulk relaxation rate (x 1/De) at equilibrium."""
    return max(constants.rate_par, constants.rate_perp)


def default_hom_dt(de, constants):
    """Step size resolving the stiff bulk relaxation at Deborah number de
    for explicit RK4."""
    lam = _bulk_rate(constants)
    return min(0.1 * de, 2.0 * de / max(lam, 1e-12))


def step_homogeneous(state: HomState, dt, params, tol=DEFAULT_TOL, _depth=0):
    """One RK4 step of every row of a closed state, row i with its own
    dt[i] (dt is an (N,) array or a scalar for all rows) and its own De.

    k1 reads the state's closure, each later stage closes the N rows of its
    Q in one solve, and the last act closes q1 with the delta/2 margin; each
    solve starts from the closure's fitted start. If that or a stage solve
    fails, dt is halved for the whole batch (up to MAX_HALVINGS times), so a
    row that did not fail takes two half steps as well. params gives alpha
    and delta; De is the state's own.
    """
    q0, kappa, de, res = state.q5, state.kappa, state.de, _closure_of(state)
    h = np.asarray(dt, dtype=float)[..., None]
    try:
        ks = [homogeneous_rhs(kappa, de, params, res)]
        for c in (0.5, 0.5, 1.0):
            q = q0 + c * h * ks[-1]
            res = bingham_map_batch(q, tol=tol)
            ks.append(homogeneous_rhs(kappa, de, params, res))
        k1, k2, k3, k4 = ks
        q1 = q0 + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        closure = bingham_map_batch(q1, delta=params.delta / 2.0, tol=tol)
    except (PhysicalityError, RuntimeError) as exc:
        # the new state or a stage left the delta/2 margin or the invertible set
        if _depth >= MAX_HALVINGS:
            raise PhysicalityError(
                f"homogeneous step keeps violating the delta/2 margin after "
                f"{MAX_HALVINGS} halvings at t={float(np.max(state.t)):.4g} ({exc})") from exc
        mid = step_homogeneous(state, dt / 2.0, params, tol, _depth + 1)
        return step_homogeneous(mid, dt / 2.0, params, tol, _depth + 1)
    return HomState(q1, kappa, de, state.t + dt, closure)


# ---------------------------------------------------------------------------
# spectral field operators
# ---------------------------------------------------------------------------

def elastic_operator(qh, grid, lam):
    """L(Q) = -(L1 Lap Q + L2 (Q_ik,jk + Q_jk,ik)), deviatoric, per point, as
    a qvec field, from the transform qh = grid.fft(q5_field): one inverse
    transform.

    Evaluated mode-by-mode from its eigenvalues lam = elastic_symbols(grid,
    L1, L2) on the axial split of Q about k/|k|, the same symbols the
    implicit time-step solves use.
    """
    return grid.ifft(axial_apply(qh, grid.khat, lam))


def _grad_q(qh, grid):
    """grad Q as rows dq[a, k, l] = d_a Q_kl, (2, 3, 3, N) with a in (x, y),
    from Q's transform qh: one inverse transform."""
    return _matrix_rows(grid.grad_hat(qh).reshape(-1, 2, 5).transpose(1, 2, 0))


def elastic_energy(dq, grid, L1, L2, epsilon):
    """F_e = (eps/2) int L1 |grad Q|^2 + L2 (|div Q|^2 + Q_jk,i Q_ik,j) from
    the gradient rows dq[a, k, l] = d_a Q_kl, (2, 3, 3, N) (_grad_q)."""
    t_l1 = np.einsum("akl...,akl...->...", dq, dq)
    divq = dq[0, :, 0] + dq[1, :, 1]
    t_div = np.einsum("k...,k...->...", divq, divq)
    cross = np.einsum("akb...,bka...->...", dq[:, :, :2], dq[:, :, :2])
    dens = 0.5 * epsilon * (L1 * t_l1 + L2 * (t_div + cross))
    return grid.mean_integral(dens)


def distortion_stress(dq, L1, L2):
    """sigma^d(Q) as rows sigma[j, i], (3, 3, N), from the gradient rows
    dq[a, k, l] = d_a Q_kl, (2, 3, 3, N); force_i = d_j sigma[j, i].

    sigma_ji = -(L1 Q_kl,j Q_kl,i + L2 Q_km,m Q_kj,i + L2 Q_kj,l Q_kl,i),
    with derivatives in the plane only: the first term fills j, i < 2, the
    others i < 2.
    """
    sig = np.zeros((3, 3) + dq.shape[3:])
    sig[:2, :2] = -L1 * np.einsum("jkl...,ikl...->ji...", dq, dq)
    divq = dq[0, :, 0] + dq[1, :, 1]
    sig[:, :2] -= L2 * (np.einsum("k...,ikj...->ji...", divq, dq)
                        + np.einsum("lkj...,ikl...->ji...", dq, dq[:, :, :2]))
    return sig


def _kappa_field(vh, grid):
    """kappa_ij = dv_i/dx_j as rows (3, 3, N), from v's transform vh: one
    inverse transform."""
    kap = np.zeros((3, 3, grid.n * grid.n))
    kap[:, :2] = grid.grad_hat(vh).reshape(-1, 2, 3).transpose(2, 1, 0)
    return kap


def mu_field(q5_field, qh, grid, params, lam):
    """Molecular field mu = (B - alpha Q) + eps L(Q) as rows (3, 3, N), and
    the closure batch.

    qh is the transform grid.fft(q5_field) and lam the elastic symbols of
    the grid, as FieldSolver holds them.
    """
    res = bingham_map_batch(q5_field.reshape(-1, 5), delta=params.delta / 2.0)
    mu5 = res.B5.T - params.alpha * q5_field.reshape(-1, 5).T       # (5, N)
    if params.epsilon != 0.0:
        mu5 += params.epsilon * elastic_operator(qh, grid, lam).reshape(-1, 5).T
    return _matrix_rows(mu5), res


# ---------------------------------------------------------------------------
# field state and the IMEX stepper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _History:
    """The previous time level of the two-step scheme, all as spectra: the
    transforms qh, vh of its fields, those fq, fv of its explicit terms
    (FieldSolver.rhs), and the step that left it."""

    qh: np.ndarray
    vh: np.ndarray
    fq: np.ndarray
    fv: np.ndarray
    dt: float


@dataclass(frozen=True)
class _Terms:
    """The terms of one field state that its step, its RHS and its energy
    ledger share.

    qh and vh are the transforms of Q and v (grid.fft layout): the state's
    elastic operator and grad Q read qh, grad v reads vh, and the step's
    right-hand sides read both, as does the next step through _History. res
    is mu_field's closure batch, its (N, ...) arrays views of rows. The
    per-point tensors are contiguous component rows, their 3x3 axes ahead
    of the N = n^2 points: q = Q, mu = mu_field's mu, dq = grad Q as
    (2, 3, 3, N) (_grad_q), kap = grad v (_kappa_field), m_mu = M_Q(mu) and
    m4_d = M4 : D with D = sym(kap). On such rows a 3x3 product is one
    einsum over N-long rows and a contraction an elementwise sum, where
    (n, n, 3, 3) stacks take one small matrix product per point; each is
    formed once per state.
    """

    res: BatchClosureResult
    qh: np.ndarray
    vh: np.ndarray
    q: np.ndarray
    mu: np.ndarray
    dq: np.ndarray
    kap: np.ndarray
    m_mu: np.ndarray
    m4_d: np.ndarray


@dataclass(frozen=True)
class FieldState:
    """Periodic (Q, v) fields, the terms of the state's own (q5, v) and the
    previous step for the two-step scheme.

    closure holds the _Terms of this state: its closure, the transforms of
    Q and v, and the rows of Q, mu, grad Q, grad v, M_Q(mu) and M4 : D. They depend on
    both q5 and v. The solver owns them: FieldSolver.close computes them
    once for an initial state, and FieldSolver.step for every state it
    returns. The step, the right-hand side and the energy ledger read them
    from here.
    """

    grid: Grid2D
    q5: np.ndarray
    v: np.ndarray
    t: float = 0.0
    closure: _Terms | None = None
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
        raise ValueError("state has no closure; close it where it is created")
    return state.closure


class FieldSolver:
    """Pseudo-spectral IMEX integrator for the coupled field system.

    Implicit (per Fourier mode): the viscous Laplacian and a frozen
    constant-coefficient bound of the stiff closure-elastic product,
    c_bar = (2/15)(1 + 3 max|Q|), plus a scalar shield for the bulk
    relaxation sized from the larger closed-form bulk rate of
    PhaseConstants (rate_par, rate_perp) at equilibrium. Everything
    else, including the full closure nonlinearity, is explicit; the shield
    enters only through a second-difference bracket so the scheme stays
    second order regardless of the shield values. The elastic operator and
    the implicit Q operator are each one tensors.axial_apply about k/|k|: a
    step makes two of them and six transform calls.

    `rhs` returns the spectra of the raw explicit terms. The 2/3 mask, the
    Leray projection and the viscous term (gamma/Re) Lap v act per mode, so
    `step` applies them once: the mask in both implicit solves' diagonals.

    Every state the solver steps carries its terms (FieldState.closure):
    `close` computes them for an initial state, and `step` for the new state
    as its last act. Their closure solve holds Q to the delta/2 margin, so a
    state that leaves it rejects the step. `rhs` adds to them only what the
    ledger does not read: the closed Q rate (_closed_q_rate, which
    homogeneous_rhs evaluates in the eigenframe), the distortion stress,
    advection and the forcing; the stress divergence is taken per mode.
    """

    def __init__(self, grid, params, forcing=None):
        self.grid = grid
        self.params = params
        self.forcing = forcing
        self.lam = elastic_symbols(grid, params.L1, params.L2)
        self.bulk_shield = _bulk_rate(phase_constants(params.alpha, params.L1, params.L2)) / 4.0

    def close(self, state: FieldState):
        """`state` with the terms of its (q5, v) (_Terms): the transforms of
        Q and v, mu_field's closure (delta/2 margin), and the rows of Q, mu,
        grad Q, grad v, M_Q(mu) and M4 : D.

        Each field is forward-transformed once, here; the elastic operator
        and grad Q read Q's transform, grad v reads v's, and the step both.
        Both frame products read the closure's rotation and pair moments as
        rows (3, 3, N), views of the closure's own arrays. `step` closes the
        state it returns from the transforms its implicit solves produced,
        so a step transforms no field forward a second time.
        """
        return self._close(state, self.grid.fft(state.q5), self.grid.fft(state.v))

    def _close(self, state, qh, vh):
        """close, from the transforms qh of state.q5 and vh of state.v."""
        grid = self.grid
        mu, res = mu_field(state.q5, qh, grid, self.params, self.lam)
        rot, pair = _component_major(res.rotation), _component_major(res.pair)
        q = _matrix_rows(state.q5.reshape(-1, 5).T)
        kap = _kappa_field(vh, grid)
        return replace(state, closure=_Terms(
            res, qh, vh, q, mu, _grad_q(qh, grid), kap,
            mq_apply_frame(q, rot, pair, mu), m4_contract_frame(rot, pair, kap)))

    def rhs(self, state: FieldState):
        """Spectra (fq^, fv^) of the explicit RHS of a closed state,
        including the forcing.

        The explicit terms are raw grid products on the state's component
        rows: Q's rate (the closed Q rate and advection), the planar stress
        rows sigma[j, i] (j in x, y) and -(v . grad) v, to which the
        forcing's grid fields are added. Their 14 components take one
        forward transform, and fv^ = i k_j sigma^_ji + (-(v . grad) v)^.
        Neither spectrum is dealiased or pressure-projected, and fv^ holds no
        viscous term: `step` applies all three per mode.
        """
        grid, p, n = self.grid, self.params, self.grid.n
        terms = _closure_of(state)
        dq, kap = terms.dq, terms.kap
        vx, vy = state.v.reshape(-1, 3).T[:2]

        sig = ((1.0 - p.gamma) / (2.0 * p.re)) * terms.m4_d
        sig += ((1.0 - p.gamma) / (p.de * p.re)) * (
            2.0 * terms.m_mu + p.epsilon * distortion_stress(dq, p.L1, p.L2))
        f = np.concatenate([       # component-major: Q's rate, sigma[j, i], -(v . grad) v
            _qvec_rows(_closed_q_rate(terms.q, kap, terms.m_mu, terms.m4_d, p.de)
                       - vx * dq[0] - vy * dq[1]),
            sig[:2].reshape(6, -1),
            -(vx * kap[:, 0] + vy * kap[:, 1])]).reshape(14, n, n).transpose(1, 2, 0)
        if self.forcing is not None:
            f_q, f_v = self.forcing(state.t)
            f[..., :5] += f_q
            f[..., 11:] += f_v
        fh = grid.fft(f)
        return fh[..., :5], fh[..., 11:] + 1j * (grid.kx[..., None] * fh[..., 5:8]
                                                 + grid.ky[..., None] * fh[..., 8:11])

    def step(self, state: FieldState, dt):
        """Advance a closed state one step of variable-step SBDF2 and close
        the new state.

        With omega = dt / dt_prev (0 without history, which makes the step
        stabilized semi-implicit Euler) and the extrapolation
        X* = (1 + omega) X0 - omega X_-1, the step solves
        ((1 + 2 omega) X1 - (1 + omega)^2 X0 + omega^2 X_-1) / ((1 + omega) dt)
        = (1 + omega) f0 - omega f_-1 - A (X1 - X*) (Wang & Ruuth, J. Comput.
        Math. 26, 2008); it is second order at any step ratio and zero-stable
        for omega < 1 + sqrt(2). Both sides are formed per mode, from the
        spectra of the fields and explicit terms (rhs) both time levels carry.
        Q solve: (a + A_Q) q1 = r_Q + A_Q X*, a = (1 + 2 omega)/((1 + omega) dt),
        A_Q = (4/De)(c_b + eps c_bar L), a scalar per mode on each part of
        the axial split about k/|k| (L's eigenvalues elastic_symbols), under
        the 2/3 mask M. As A_Q X* = (a + A_Q) X* - a X*, it is solved for the
        increment from the extrapolation, q1^ = M X*^ + axial_apply(r_Q^ -
        a X*^, k/|k|, M / (a + A_Q)), where r_Q - a X* = (omega/dt)(q_-1 - q0)
        + (1 + omega) f0 - omega f_-1, since (1 + omega)/dt - a (1 + omega) =
        -omega/dt and a omega - omega^2/((1 + omega) dt) = omega/dt. Velocity
        solve: (a - (gamma/Re) Lap) v1 = r_v, the mask likewise, then the Leray
        projection, whose spectrum the divergence check reads. The closure
        solve of q1 starts from the closure's fitted start, and its delta/2
        margin check raises PhysicalityError.
        """
        grid, p = self.grid, self.params
        terms = _closure_of(state)
        cbar = (2.0 / 15.0) * (1.0 + 3.0 * float(np.sqrt(qdot(state.q5, state.q5)).max()))
        fq, fv = self.rhs(state)
        s = (4.0 / p.de) * (self.bulk_shield + p.epsilon * cbar * self.lam)
        # without history, dt_prev = inf gives omega = 0 and zero weight to it
        hist = state.hist or _History(terms.qh, terms.vh, fq, fv, np.inf)

        w = dt / hist.dt
        a = (1.0 + 2.0 * w) / ((1.0 + w) * dt)
        xh = (1.0 + w) * terms.qh - w * hist.qh
        mask = grid.dealias_mask
        q1h = mask[..., None] * xh + axial_apply(
            (w / dt) * (hist.qh - terms.qh) + (1.0 + w) * fq - w * hist.fq,
            grid.khat, mask / (a + s))
        vh = (((1.0 + w) ** 2 * terms.vh - w * w * hist.vh) / ((1.0 + w) * dt)
              + (1.0 + w) * fv - w * hist.fv)
        vh *= (mask / (a + (p.gamma / p.re) * grid.ksq))[..., None]
        v1h = grid.leray_hat(vh)

        div_res = grid.divergence_residual(v1h)
        if not div_res <= 1e-10:
            raise DivergenceError(
                f"divergence residual {div_res:.2e} after projection at "
                f"t={state.t + dt:.5g}")

        new = FieldState(grid=grid, q5=grid.ifft(q1h), v=grid.ifft(v1h), t=state.t + dt,
                         hist=_History(terms.qh, terms.vh, fq, fv, dt))
        try:
            return self._close(new, q1h, v1h)
        except PhysicalityError as exc:
            raise PhysicalityError(
                f"field left the delta/2 physical margin at t={new.t:.5g}: {exc}") from exc

    def run(self, state: FieldState, dt, n_steps, callback=None):
        """Advance a closed state n_steps, halving dt when a step loses
        physicality (up to MAX_HALVINGS times); the halved step continues the
        SBDF2 history at step ratio 1/2."""
        halvings = 0
        k = 0
        while k < n_steps:
            try:
                state = self.step(state, dt)
            except PhysicalityError:
                halvings += 1
                if halvings > MAX_HALVINGS:
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


def _row_dot(a, b):
    """A : B per point of two row stacks (3, 3, N)."""
    return np.einsum("ij...,ij...->...", a, b)


def energy_report(state: FieldState, params):
    """Energy ledger: E = 1/2 int |v|^2 + (1-gamma)/(Re De) (F_b + F_e) and
    the three dissipation components of the balance law.

    Sums only: the closure, gradients and frame contractions are the terms
    the closed state carries, the rows its right-hand side reads.
    """
    grid, p = state.grid, params
    terms = _closure_of(state)
    res = terms.res
    q5 = state.q5.reshape(-1, 5)

    kinetic = 0.5 * grid.mean_integral((state.v**2).sum(axis=-1))
    f_bulk = grid.mean_integral(-res.log_z + qdot(q5, res.B5) - 0.5 * p.alpha * qdot(q5, q5))
    f_el = elastic_energy(terms.dq, grid, p.L1, p.L2, p.epsilon)
    total = kinetic + (1.0 - p.gamma) / (p.re * p.de) * (f_bulk + f_el)

    kap = terms.kap
    d_visc = (p.gamma / p.re) * grid.mean_integral(_row_dot(kap, kap))
    d_clos = (1.0 - p.gamma) / (2.0 * p.re) * grid.mean_integral(
        _row_dot(0.5 * (kap + kap.swapaxes(0, 1)), terms.m4_d))
    d_rot = 4.0 * (1.0 - p.gamma) / (p.re * p.de**2) * grid.mean_integral(
        _row_dot(terms.mu, terms.m_mu))
    return EnergyReport(state.t, kinetic, f_bulk, f_el, total, d_visc, d_clos, d_rot)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def _band_limited(rng, grid, n_comp):
    """Half spectrum (n, n//2 + 1, n_comp) of a random real field with modes
    |kx|, |ky| <= N_MODES, unit RMS-ish: the sum over k != 0 of
    amp_k cos(k . x + ph_k) / N_MODES, one normal amplitude and one uniform
    phase per component, drawn mode by mode.

    The field is its inverse real FFT (grid.ifft): amp e^{+-i ph} n^2 / 2
    goes to +-k wherever that falls in the half spectrum ky mod n <= n/2
    which irfft2 reads.
    """
    n = grid.n
    half = np.zeros((n_comp, n, n // 2 + 1), dtype=complex)    # component-major
    for kx in range(-N_MODES, N_MODES + 1):
        for ky in range(-N_MODES, N_MODES + 1):
            if kx == 0 and ky == 0:
                continue
            amp = rng.normal(size=n_comp)
            coef = (0.5 * n * n / N_MODES) * amp * np.exp(
                1j * rng.uniform(0.0, 2.0 * np.pi, size=n_comp))
            for sx, sy, c in ((kx, ky, coef), (-kx, -ky, coef.conj())):
                if sy % n <= n // 2:
                    half[:, sx % n, sy % n] += c
    return np.moveaxis(half, 0, -1)


def smooth_random_state(grid, params, seed, q_amplitude=0.5, v_amplitude=0.1):
    """Seeded band-limited initial data with Q inside the margin-delta
    physical set and a divergence-free velocity, the Leray projection of
    (d psi/dy, -d psi/dx, w) formed from the spectra of psi and w."""
    rng = np.random.default_rng(seed)
    constants = phase_constants(params.alpha, params.L1, params.L2)
    n0 = np.array([0.0, 0.0, 1.0])
    s_base = min(constants.S2, 0.75 * (2.0 - 3.0 * params.delta) / 2.0)
    base = from_matrix(s_base * (np.outer(n0, n0) - np.eye(3) / 3.0))
    pert = grid.ifft(_band_limited(rng, grid, 5))
    # the field's margin at amplitude A is concave in A (lambda_min is
    # concave, lambda_max convex) and, pert having zero grid mean, at most
    # the margin of base: so the rungs q_amplitude 0.8^k, k < 60, that fit
    # form a suffix of the ladder, and bisection finds its first rung
    amps = [q_amplitude]
    for _ in range(59):
        amps.append(amps[-1] * 0.8)
    lo, hi, q5 = -1, len(amps), None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        trial = base + amps[mid] * pert
        if float(eigenvalue_margin(trial).min()) >= params.delta:
            hi, q5 = mid, trial
        else:
            lo = mid
    if q5 is None:
        raise RuntimeError("could not fit initial data inside the margin")

    psi, w = np.moveaxis(_band_limited(rng, grid, 2), -1, 0)
    v = grid.ifft(grid.leray_hat(
        np.moveaxis(np.stack([1j * grid.ky * psi, -1j * grid.kx * psi, w]), 0, -1)))
    vmax = np.abs(v).max()
    if vmax > 0:
        v *= v_amplitude / vmax
    return FieldState(grid=grid, q5=q5, v=v, t=0.0)
