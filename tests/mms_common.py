"""Manufactured-solution machinery shared by the field tests and the
acceptance suite.

The manufactured state rides on the uniform nematic equilibrium:
Q(t, x) = Q* + a(t) P(x), v(t, x) = b(t) U(x) with band-limited P and
divergence-free U. Forcing is defined as F = dX/dt - RHS(X), RHS the whole
continuous right-hand side (explicit terms plus viscosity), evaluated with
the same spectral-closure discretization (optionally on a finer grid,
spectrally restricted, to expose the spatial error of coarse runs).
"""
import numpy as np

from qbingham.dynamics import FieldSolver, FieldState
from qbingham.equilibrium import phase_constants
from qbingham.spectral import Grid2D
from qbingham.tensors import uniaxial


class Manufactured:
    def __init__(self, params, n_modes=2, amp_q=0.04, amp_v=0.05, omega=1.3):
        self.params = params
        self.pc = phase_constants(params.alpha, params.L1, params.L2)
        self.amp_q = amp_q
        self.amp_v = amp_v
        self.omega = omega
        self.n_modes = n_modes
        self.base = uniaxial(self.pc.S2, np.array([0.0, 0.0, 1.0]))

    def _shapes(self, grid):
        x, y = grid.x, grid.y
        p = np.stack([
            np.cos(x + 2 * y), np.sin(2 * x - y), np.cos(x) * np.sin(y),
            np.sin(x + y), np.cos(2 * y) * np.sin(x),
        ], axis=-1)
        # in-plane components from a streamfunction (divergence-free)
        psi = np.sin(x) * np.cos(y)
        u = np.stack([
            grid.ifft(1j * grid.ky * grid.fft(psi)),
            grid.ifft(-1j * grid.kx * grid.fft(psi)),
            np.cos(x + y),
        ], axis=-1)
        return p, u

    def a_t(self, t):
        return self.amp_q * (1.0 + 0.5 * np.sin(self.omega * t))

    def da_t(self, t):
        return self.amp_q * 0.5 * self.omega * np.cos(self.omega * t)

    def b_t(self, t):
        return self.amp_v * np.cos(self.omega * t)

    def db_t(self, t):
        return -self.amp_v * self.omega * np.sin(self.omega * t)

    def exact(self, grid, t):
        p, u = self._shapes(grid)
        q5 = self.base + self.a_t(t) * p
        v = self.b_t(t) * u
        return q5, v

    def d_dt(self, grid, t):
        p, u = self._shapes(grid)
        return self.da_t(t) * p, self.db_t(t) * u

    def forcing_on(self, grid, helper_solver):
        """Forcing callable for runs on `grid`, computed on the same grid."""

        def force(t):
            q5, v = self.exact(grid, t)
            dq, dv = self.d_dt(grid, t)
            fq, fv = _continuous_rhs(helper_solver, q5, v, t)
            return dq - fq, dv - fv

        return force

    def forcing_from_fine(self, grid, fine_grid, fine_solver):
        """Forcing computed on a finer grid and spectrally restricted, so
        coarse runs see the true spatial discretization error."""

        def force(t):
            q5, v = self.exact(fine_grid, t)
            dq, dv = self.d_dt(fine_grid, t)
            fq, fv = _continuous_rhs(fine_solver, q5, v, t)
            return (_spectral_restrict(fine_grid, grid, dq - fq),
                    _spectral_restrict(fine_grid, grid, dv - fv))

        return force


def _continuous_rhs(solver, q5, v, t):
    """The whole RHS of the continuous system: the solver's explicit terms
    plus the viscous term (gamma/Re) Lap v that its implicit solve holds."""
    grid, p = solver.grid, solver.params
    fq, fv = solver.rhs(solver.close(FieldState(grid=grid, q5=q5, v=v, t=t)))
    lap_v = grid.ifft(-grid.ksq[..., None] * grid.fft(v))
    return fq, fv + (p.gamma / p.re) * lap_v


def _spectral_restrict(fine, coarse, field):
    """Band-limit a fine-grid field onto a coarser grid (both rfft2). The
    forward transform is unnormalized and the inverse divides by the point
    count, so the kept coefficients are scaled by (n_coarse / n_fine)^2."""
    fh = fine.fft(field)
    n, nc = fine.n, coarse.n
    half = nc // 2
    out = np.zeros((nc, nc // 2 + 1) + fh.shape[2:], dtype=complex)
    out[:half] = fh[:half, :half + 1]
    out[-half:] = fh[n - half:, :half + 1]
    return coarse.ifft(out * (nc / n) ** 2)


def run_manufactured(params, n, dt, t_final, n_fine=None, ratios=None):
    """The RMS error of Q plus that of v at t_final of solve_manufactured."""
    mms, state = solve_manufactured(params, n, dt, t_final, n_fine, ratios)
    qe, ve = mms.exact(state.grid, state.t)
    return rms_difference(state.q5 - qe, state.v - ve)


def rms_difference(dq, dv):
    return np.sqrt(np.mean(dq**2)) + np.sqrt(np.mean(dv**2))


def solve_manufactured(params, n, dt, t_final, n_fine=None, ratios=None):
    """Integrate the forced system on an n^2 grid from the exact initial
    state; returns (the Manufactured solution, the state at t_final). With
    n_fine the forcing is computed on an n_fine^2 grid and restricted. With
    ratios, FieldSolver.step takes the steps dt * ratios[k % len(ratios)]
    until t_final."""
    grid = Grid2D(n)
    mms = Manufactured(params)
    if n_fine is None:
        helper = FieldSolver(grid, params)
        force = mms.forcing_on(grid, helper)
    else:
        fine = Grid2D(n_fine)
        fine_solver = FieldSolver(fine, params)
        force = mms.forcing_from_fine(grid, fine, fine_solver)
    solver = FieldSolver(grid, params, forcing=force)
    q5, v = mms.exact(grid, 0.0)
    state = solver.close(FieldState(grid=grid, q5=q5, v=v, t=0.0))
    if ratios is None:
        steps = int(round(t_final / dt))
        state = solver.run(state, t_final / steps, steps)
    else:
        k = 0
        while state.t < t_final - 1e-12:
            state = solver.step(state, dt * ratios[k % len(ratios)])
            k += 1
    return mms, state
