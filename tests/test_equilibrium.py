import numpy as np
import pytest

from qbingham.equilibrium import (
    BranchNotPresentError, _bisect, crit_residual, critical_alpha, order_parameters,
    phase_constants, solve_eta,
)
from qbingham.sphere import a_integrals
from qbingham.tensors import uniaxial

TEST_ALPHAS = None  # filled below with alpha* + 0.5 included


def _alphas():
    a_star, _ = critical_alpha()
    return [a_star + 0.5, 7.0, 8.0, 10.0, 15.0, 62.0, 100.0]


# independently computed with mpmath (30 digits): fold point of
# eta / S2(eta) and the stable root at alpha = 8
GOLDEN_ALPHA_STAR = 6.731486396484
GOLDEN_ETA_STAR = 2.178287974843
GOLDEN_ETA1_AT_8 = 5.400692660955


def _s2_mp(mp, e):
    a0 = mp.quad(lambda x: mp.e**(e * x * x), [-1, 0, 1])
    a2 = mp.quad(lambda x: x * x * mp.e**(e * x * x), [-1, 0, 1])
    return (3 * a2 - a0) / (2 * a0)


def test_isotropic_branch_always_root():
    # eta = 0 solves the critical-point equation at every alpha; phase-table's
    # independent gate crit_residual must see it as a root
    for a in (1.0, 5.0, 8.0, 30.0):
        assert abs(crit_residual(0.0, a)) < 1e-14


def test_stable_branch_at_eight():
    eta1 = solve_eta(8.0)
    assert abs(eta1 - GOLDEN_ETA1_AT_8) < 1e-9
    assert abs(crit_residual(eta1, 8.0)) < 1e-10
    _, eta_star = critical_alpha()
    assert eta1 > eta_star


def test_stable_branch_against_adaptive_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for alpha in (7.0, 10.0):
        ref = float(mp.findroot(lambda e: e - alpha * _s2_mp(mp, e), 5.0))
        assert abs(solve_eta(alpha) - ref) < 1e-9


@pytest.mark.parametrize("alpha", [
    pytest.param(critical_alpha()[0] + 1e-4, id="fold+1e-4"), 7.0, 20.0, 60.0, 299.0])
def test_stable_root_against_mpmath(alpha):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    eta = solve_eta(alpha)
    ref = mp.findroot(lambda e: e - alpha * _s2_mp(mp, e), eta)
    assert abs(eta - float(ref)) < 5e-12


def test_beyond_exponent_budget_overflows():
    with pytest.raises(OverflowError):
        solve_eta(301.0)


def test_branch_absent_below_critical():
    for alpha in (5.0, 0.0, -1.0):
        with pytest.raises(BranchNotPresentError):
            solve_eta(alpha)


def test_eta_increases_with_alpha():
    a_star, _ = critical_alpha()
    grid = np.linspace(a_star + 0.2, 20.0, 30)
    etas = [solve_eta(a) for a in grid]
    assert all(b > a for a, b in zip(etas, etas[1:]))
    s2s = [order_parameters(e)[0] for e in etas]
    assert all(b > a for a, b in zip(s2s, s2s[1:]))


def test_critical_alpha_tangency_and_root_count():
    a_star, eta_star = critical_alpha()
    assert abs(a_star - GOLDEN_ALPHA_STAR) < 1e-8
    assert abs(eta_star - GOLDEN_ETA_STAR) < 1e-7
    # tangency
    g0 = crit_residual(eta_star, a_star)
    h = 1e-6
    dg = (crit_residual(eta_star + h, a_star) - crit_residual(eta_star - h, a_star)) / (2 * h)
    assert abs(g0) < 1e-10
    assert abs(dg) < 1e-6
    # root-count flip across the fold: g(eta) = eta - alpha S_2(eta) is
    # S_2 (eta / S_2 - alpha) with eta / S_2 >= alpha* on eta > 0, so g has no
    # positive root below the fold; just above it g(eta*) < 0 while g > 0 as
    # eta -> 0 (alpha < 15/2) and at eta = alpha, so a root lies either side
    s2_star = order_parameters(eta_star)[0]
    assert eta_star - (a_star - 1e-4) * s2_star > 0
    assert eta_star - (a_star + 1e-4) * s2_star < 0
    with pytest.raises(BranchNotPresentError):
        solve_eta(a_star - 1e-4)
    assert solve_eta(a_star + 1e-4) > eta_star
    # consistency with the A-integral identity at eta*
    a0, a2, a4, _ = a_integrals(eta_star)
    assert abs(a_star - a0 / (a2 - a4)) < 1e-6


def test_fold_against_mpmath():
    # eta* is the root of S_2 - eta S_2', with S_2' = 3 (A_0 A_4 - A_2^2) / (2 A_0^2)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30

    def a(e, k):
        return mp.quad(lambda x: x**k * mp.e**(e * x * x), [0, 1])

    def s2(e):
        return (3 * a(e, 2) - a(e, 0)) / (2 * a(e, 0))

    def slope_defect(e):
        a0, a2, a4 = a(e, 0), a(e, 2), a(e, 4)
        return s2(e) - 1.5 * e * (a0 * a4 - a2 * a2) / a0**2

    a_star, eta_star = critical_alpha()
    eta_ref = mp.findroot(slope_defect, eta_star)
    assert abs(eta_star - float(eta_ref)) < 1e-12
    assert abs(a_star - float(eta_ref / s2(eta_ref))) < 1e-12


def test_stable_root_at_the_fold_is_eta_star():
    # alpha = alpha* is a valid config value; there the bracket's lower end
    # eta* is itself the root
    a_star, eta_star = critical_alpha()
    assert solve_eta(a_star) == eta_star


def test_bisect_contract():
    with pytest.raises(ValueError, match="no sign change"):
        _bisect(lambda x: x * x + 1.0, -1.0, 1.0)
    assert _bisect(lambda x: x - 2.0, 2.0, 5.0) == 2.0
    assert _bisect(lambda x: x - 5.0, 2.0, 5.0) == 5.0
    root = _bisect(lambda x: x * x - 2.0, 0.0, 2.0)
    assert abs(root - np.sqrt(2.0)) <= np.spacing(np.sqrt(2.0))


def test_critical_alpha_is_computed_once():
    # a constant of the model, read by every validate_config and solve_eta call
    assert critical_alpha() is critical_alpha()


def test_phase_constants_invariants():
    for alpha in _alphas():
        pc = phase_constants(alpha, 1.0, 0.5)
        assert abs(crit_residual(pc.eta, alpha)) <= 1e-10
        assert abs(alpha - pc.A0 / (pc.A2 - pc.A4)) / alpha <= 1e-8
        assert 3 * pc.A2**2 + 2 * pc.A0 * pc.A2 - 5 * pc.A0 * pc.A4 > 0
        assert 6 * pc.A2 - 5 * pc.A4 - pc.A0 > 0
        assert abs(pc.xi2 + pc.xi3 - 1.0 / alpha) <= 1e-10
        assert abs(pc.psi2 + pc.psi3 - alpha) <= 1e-8
        # Parodi and the derived Leslie relations hold exactly by formula
        assert abs(pc.alpha2 + pc.alpha3 - (pc.alpha6 - pc.alpha5)) <= 1e-12
        assert abs(pc.gamma1 - (pc.alpha3 - pc.alpha2)) <= 1e-10
        assert pc.gamma2 == -pc.S2
        assert abs(pc.zeta - (1.0 / 3.0 + 2.0 / (3 * pc.S2) - 2.0 / (pc.S2 * alpha))) <= 1e-10
        assert abs(pc.zeta + pc.gamma2 / pc.gamma1) <= 1e-10
        # xi3 closed form and positivity
        assert abs(pc.xi3 - (pc.A4 - 2 * pc.A2 + pc.A0) / (4 * pc.A0)) < 1e-12
        assert pc.xi3 > 0
        assert pc.xi2 > 0


def test_dissipation_positivity():
    # The termwise Leslie condition alpha5 + alpha6 - gamma2^2/gamma1 > 0
    # fails on this branch (the combination is negative for every alpha),
    # but the dissipation quadratic form itself stays positive; check the
    # sharp bound and the sampled form instead.
    from qbingham.equilibrium import leslie_dissipation_bound
    rng = np.random.default_rng(11)
    for alpha in _alphas():
        pc = phase_constants(alpha)
        assert pc.alpha1 + pc.gamma2**2 / pc.gamma1 > 0
        assert pc.alpha4 > 0
        assert 1.0 / pc.gamma1 > 0
        assert pc.alpha5 + pc.alpha6 - pc.gamma2**2 / pc.gamma1 < 0  # measured sign
        assert leslie_dissipation_bound(pc) > 0
        c_x = pc.alpha1 + pc.gamma2**2 / pc.gamma1
        c_y = pc.alpha5 + pc.alpha6 - pc.gamma2**2 / pc.gamma1
        for _ in range(100):
            d = rng.normal(size=(3, 3))
            d = 0.5 * (d + d.T)
            d -= np.eye(3) * np.trace(d) / 3.0
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            form = (c_x * (n @ d @ n)**2 + pc.alpha4 * np.tensordot(d, d)
                    + c_y * ((d @ n)**2).sum())
            assert form >= -1e-13


def test_frank_constants():
    pc = phase_constants(8.0, L1=1.3, L2=0.4)
    assert pc.k1 == pc.k3 == 2.0 * (1.3 + 0.4) * pc.S2**2
    assert pc.k2 == 2.0 * 1.3 * pc.S2**2
    assert pc.k4 == 0.4 * pc.S2**2


def test_phase_constants_rejects_bad_elastic():
    with pytest.raises(ValueError):
        phase_constants(8.0, L1=-1.0)
    with pytest.raises(ValueError):
        phase_constants(8.0, L1=1.0, L2=-0.6)


def test_perfect_alignment_limit():
    s2, s4 = order_parameters(200.0)
    assert abs(s2 - 1.0) < 5e-2
    assert abs(s4 - 1.0) < 5e-2


# ---------------------------------------------------------------------------
# Oseen-Frank energy
# ---------------------------------------------------------------------------

def oseen_frank_energy(n_field, k, grid):
    """Total Oseen-Frank energy of a unit director field on a periodic grid.

    k = (k1, k2, k3, k4); includes the saddle-splay null-Lagrangian term
    (k2 + k4)/2 (tr(grad n)^2 - (div n)^2), which integrates to zero on the
    torus but is kept for pointwise fidelity.
    """
    n_field = np.asarray(n_field, dtype=float)
    norms = np.sqrt((n_field**2).sum(axis=-1))
    if np.abs(norms - 1.0).max() > 1e-10:
        raise ValueError("director field must be unit length pointwise")
    k1, k2, k3, k4 = k
    dn = grid.grad(n_field)
    dx, dy = dn[:, :, 0], dn[:, :, 1]   # (N, N, 3) components d n_i / dx, / dy

    div_n = dx[..., 0] + dy[..., 1]
    curl = np.stack([dy[..., 2], -dx[..., 2], dx[..., 1] - dy[..., 0]], axis=-1)
    n_dot_curl = (n_field * curl).sum(axis=-1)
    n_cross_curl = np.cross(n_field, curl)
    tr_grad_sq = (dx[..., 0] * dx[..., 0] + dy[..., 0] * dx[..., 1]
                  + dx[..., 1] * dy[..., 0] + dy[..., 1] * dy[..., 1])

    dens = (0.5 * k1 * div_n**2
            + 0.5 * k2 * n_dot_curl**2
            + 0.5 * k3 * (n_cross_curl**2).sum(axis=-1)
            + 0.5 * (k2 + k4) * (tr_grad_sq - div_n**2))
    return float(dens.mean() * grid.length**2)


def _random_director_field(rng, grid, n_modes=2, amp=0.12):
    base = np.zeros(grid.x.shape + (3,))
    base[..., 2] = 1.0
    pert = np.zeros_like(base)
    for kx in range(-n_modes, n_modes + 1):
        for ky in range(-n_modes, n_modes + 1):
            if kx == 0 and ky == 0:
                continue
            wave = kx * grid.x + ky * grid.y
            pert += rng.normal(size=3) * np.cos(wave[..., None]
                                                + rng.uniform(0, 2 * np.pi, 3))
    n = base + amp * pert / n_modes
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


def test_constant_director_zero_energy():
    from qbingham.spectral import Grid2D
    grid = Grid2D(16)
    n = np.zeros((16, 16, 3))
    n[..., 0] = 1.0
    assert oseen_frank_energy(n, (1.0, 1.0, 1.0, 0.5), grid) == 0.0


def test_rejects_non_unit_field():
    from qbingham.spectral import Grid2D
    grid = Grid2D(16)
    n = np.full((16, 16, 3), 0.9)
    with pytest.raises(ValueError):
        oseen_frank_energy(n, (1.0, 1.0, 1.0, 0.0), grid)


def test_one_constant_identity(rng):
    # k1 = k2 = k3 = k, k4 = 0: total energy equals (k/2) int |grad n|^2
    from qbingham.spectral import Grid2D
    grid = Grid2D(48)
    n = _random_director_field(rng, grid)
    k = 0.7
    ef = oseen_frank_energy(n, (k, k, k, 0.0), grid)
    ref = 0.5 * k * grid.mean_integral((grid.grad(n)**2).sum(axis=(-2, -1)))
    assert abs(ef - ref) / abs(ref) < 1e-10


def test_elastic_energy_matches_frank_on_slow_manifold(rng):
    # F_e(S2(nn - I/3)) / eps equals the Frank energy with the derived k's
    from qbingham.spectral import Grid2D
    from qbingham.dynamics import _grad_q, elastic_energy
    grid = Grid2D(64)
    L1, L2, eps = 1.0, 0.5, 0.37
    pc = phase_constants(8.0, L1, L2)
    n = _random_director_field(rng, grid)
    q5 = uniaxial(pc.S2, n)
    fe = elastic_energy(_grad_q(grid.fft(q5), grid), grid, L1, L2, eps)
    ef = oseen_frank_energy(n, (pc.k1, pc.k2, pc.k3, pc.k4), grid)
    assert abs(fe / eps - ef) / abs(ef) < 1e-8
