"""Critical points of the bulk energy and derived material constants.

Uniaxial critical points B = eta (nn - I/3) satisfy the self-consistency
eta = alpha S_2(eta). In the axisymmetric integrals A_k this reads

    3 e^eta / int_0^1 e^{eta x^2} dx = 3 + 2 eta + 4 eta^2 / alpha,

evaluated here in the overflow-safe form with every term scaled by e^-eta.
For alpha above the fold value alpha* the largest root eta_1 is the stable
nematic branch; all Leslie/Frank material constants derive from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sphere import a_integrals
from .tensors import sym_traceless

__all__ = [
    "PhaseConstants", "crit_residual", "solve_eta", "critical_alpha",
    "order_parameters", "phase_constants", "oseen_frank_energy",
    "BranchNotPresentError", "ETA_SCAN_MAX",
]

ETA_SCAN_MAX = 60.0
_SCAN_STEP = 0.25
ISOTROPIC_SPINODAL = 7.5  # alpha above which the eta_2 > 0 root disappears


class BranchNotPresentError(ValueError):
    """Requested equilibrium branch does not exist at this alpha."""


def _h_scaled(eta):
    """h = (A_0/2) e^-eta and its first two eta-derivatives, overflow-safe."""
    a0, a2, a4, _ = a_integrals(eta)
    s = np.exp(-eta) if eta < 700 else 0.0
    h = 0.5 * a0 * s
    h1 = 0.5 * (a2 - a0) * s
    h2 = 0.5 * (a4 - 2.0 * a2 + a0) * s
    return h, h1, h2


def crit_residual(eta, alpha):
    """Residual of the critical-point equation, scaled to O(1).

    Zero exactly when eta = alpha S_2(eta); eta = 0 is always a root.
    """
    h, _, _ = _h_scaled(float(eta))
    return 3.0 - (3.0 + 2.0 * eta + 4.0 * eta**2 / alpha) * h


def _crit_residual_d(eta, alpha):
    """(g, dg/deta) of the scaled residual."""
    h, h1, _ = _h_scaled(float(eta))
    poly = 3.0 + 2.0 * eta + 4.0 * eta**2 / alpha
    g = 3.0 - poly * h
    dg = -(2.0 + 8.0 * eta / alpha) * h - poly * h1
    return g, dg


def _bisect_root(lo, hi, flo, alpha):
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = crit_residual(mid, alpha)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    e = 0.5 * (lo + hi)
    for _ in range(6):
        g, dg = _crit_residual_d(e, alpha)
        if dg == 0.0:
            break
        e -= g / dg
    return e


def _positive_roots(alpha):
    """Sign-scan the residual on (0, ETA_SCAN_MAX] and polish each root.

    Just above the fold the two nematic roots sit closer together than any
    fixed scan step, so interior maxima of the residual are located through
    its derivative and used to split brackets the plain scan cannot see.
    """
    grid = np.arange(_SCAN_STEP, ETA_SCAN_MAX + _SCAN_STEP, _SCAN_STEP)
    vals = np.array([crit_residual(e, alpha) for e in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
            continue
        if vals[i] * vals[i + 1] < 0.0:
            roots.append(_bisect_root(grid[i], grid[i + 1], vals[i], alpha))
    if not roots:
        # probe for a root pair hiding between grid points: find the
        # stationary point of the residual (derivative sign change + to -)
        ders = np.array([_crit_residual_d(e, alpha)[1] for e in grid])
        for i in range(len(grid) - 1):
            if vals[i] < 0.0 and ders[i] > 0.0 and ders[i + 1] < 0.0:
                lo, hi, dlo = grid[i], grid[i + 1], ders[i]
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    dm = _crit_residual_d(mid, alpha)[1]
                    if dlo * dm <= 0.0:
                        hi = mid
                    else:
                        lo, dlo = mid, dm
                peak = 0.5 * (lo + hi)
                if crit_residual(peak, alpha) > 0.0:
                    roots.append(_bisect_root(grid[i], peak,
                                              crit_residual(grid[i], alpha), alpha))
                    roots.append(_bisect_root(peak, grid[i + 1],
                                              crit_residual(peak, alpha), alpha))
    return sorted(roots)


def solve_eta(alpha, branch="stable"):
    """Solve the critical-point equation on the requested branch.

    branch: "isotropic" (eta = 0), "stable" (largest root eta_1), or
    "unstable" (the smaller positive root eta_2, present only for
    alpha* < alpha < 7.5).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if branch == "isotropic":
        return 0.0
    roots = _positive_roots(alpha)
    if branch == "stable":
        if not roots:
            raise BranchNotPresentError(
                f"no nematic branch at alpha={alpha:.6g}; need alpha > alpha* "
                f"= {critical_alpha()[0]:.6f}")
        return float(max(roots))
    if branch == "unstable":
        if len(roots) < 2:
            raise BranchNotPresentError(
                f"no positive unstable root at alpha={alpha:.6g}; it exists "
                f"only for alpha* < alpha < {ISOTROPIC_SPINODAL}")
        return float(sorted(roots)[-2])
    raise ValueError(f"unknown branch {branch!r}")


def critical_alpha(tol=1e-12):
    """Fold point (alpha*, eta*) where the two nematic roots coalesce.

    Bisection on presence of positive roots brackets alpha*, then a 2D
    Newton iteration drives the tangency system {g = 0, dg/deta = 0}.
    """
    lo, hi = 6.0, 7.4
    if not _positive_roots(hi) or _positive_roots(lo):
        raise RuntimeError("root-count bracket for alpha* failed")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if _positive_roots(mid):
            hi = mid
        else:
            lo = mid
    alpha = 0.5 * (lo + hi)
    roots = _positive_roots(hi)
    eta = float(np.median(roots)) if roots else 2.2

    def _f(e, a):
        h, h1, h2 = _h_scaled(e)
        poly = 3.0 + 2.0 * e + 4.0 * e**2 / a
        dpoly = 2.0 + 8.0 * e / a
        g = 3.0 - poly * h
        ge = -dpoly * h - poly * h1
        ga = 4.0 * e**2 / a**2 * h
        gee = -(8.0 / a) * h - 2.0 * dpoly * h1 - poly * h2
        gea = (8.0 * e / a**2) * h + (4.0 * e**2 / a**2) * h1
        return g, ge, ga, gee, gea

    # Newton on F = (g, dg/deta) with Jacobian [[ge, ga], [gee, gea]]
    for _ in range(60):
        g, ge, ga, gee, gea = _f(eta, alpha)
        det = ge * gea - ga * gee
        if abs(det) < 1e-300:
            break
        de = (gea * g - ga * ge) / det
        da = (-gee * g + ge * ge) / det
        eta -= de
        alpha -= da
        if abs(de) + abs(da) < tol:
            break
    return float(alpha), float(eta)


def order_parameters(eta):
    """(S_2, S_4) of the axisymmetric density exp(eta x^2)."""
    a0, a2, a4, _ = a_integrals(eta)
    s2 = (3.0 * a2 - a0) / (2.0 * a0)
    s4 = (35.0 * a4 - 30.0 * a2 + 3.0 * a0) / (8.0 * a0)
    return s2, s4


@dataclass(frozen=True)
class PhaseConstants:
    """Equilibrium data and derived material constants at one alpha."""

    alpha: float
    eta: float
    A0: float
    A2: float
    A4: float
    A6: float
    S2: float
    S4: float
    xi1: float
    xi2: float
    xi3: float
    psi1: float
    psi2: float
    psi3: float
    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    alpha5: float
    alpha6: float
    gamma1: float
    gamma2: float
    zeta: float
    k1: float
    k2: float
    k3: float
    k4: float
    L1: float
    L2: float

    def as_dict(self):
        from dataclasses import asdict
        return asdict(self)


def phase_constants(alpha, L1=1.0, L2=0.0):
    """All equilibrium constants on the stable branch at interaction alpha."""
    if L1 <= 0 or L1 + 2.0 * L2 <= 0:
        raise ValueError("elastic coefficients need L1 > 0 and L1 + 2 L2 > 0")
    eta = solve_eta(alpha, "stable")
    a0, a2, a4, a6 = a_integrals(eta)
    s2, s4 = order_parameters(eta)

    xi1 = s4 - s2 * s2
    xi2 = 2.0 * (s2 - s4) / 7.0
    xi3 = 2.0 * (s4 / 35.0 - 2.0 * s2 / 21.0 + 1.0 / 15.0)
    psi3 = 1.0 / xi3
    psi2 = -psi3 * xi2 / (xi2 + xi3)
    psi1 = -(psi2 * (4.0 * xi1 / 3.0 + 2.0 * xi2 / 3.0) + psi3 * xi1) / (
        2.0 * xi1 / 3.0 + 4.0 * xi2 / 3.0 + xi3)

    zeta = 1.0 / 3.0 + 2.0 / (3.0 * s2) - 2.0 / (s2 * alpha)
    gamma1 = 1.0 / (1.0 / (3.0 * s2) + 2.0 / (3.0 * s2**2) - 2.0 / (s2**2 * alpha))
    gamma2 = -s2
    a1 = -s4 / 2.0
    a2l = -(s2 / 2.0) * (1.0 + 1.0 / zeta)
    a3 = -(s2 / 2.0) * (1.0 - 1.0 / zeta)
    a4l = 4.0 / 15.0 - 5.0 * s2 / 21.0 - s4 / 35.0
    a5 = s4 / 7.0 + 6.0 * s2 / 7.0
    a6l = s4 / 7.0 - s2 / 7.0

    k1 = 2.0 * (L1 + L2) * s2**2
    k2 = 2.0 * L1 * s2**2
    k3 = k1
    k4 = L2 * s2**2

    return PhaseConstants(
        alpha=float(alpha), eta=float(eta), A0=a0, A2=a2, A4=a4, A6=a6,
        S2=s2, S4=s4, xi1=xi1, xi2=xi2, xi3=xi3,
        psi1=psi1, psi2=psi2, psi3=psi3,
        alpha1=a1, alpha2=a2l, alpha3=a3, alpha4=a4l, alpha5=a5, alpha6=a6l,
        gamma1=gamma1, gamma2=gamma2, zeta=zeta,
        k1=k1, k2=k2, k3=k3, k4=k4, L1=float(L1), L2=float(L2),
    )


def leslie_dissipation_bound(pc: PhaseConstants):
    """Sharp lower bound of the director-theory dissipation quadratic form.

    The form c_x (n.D n)^2 + alpha4 |D|^2 + c_y |D n|^2 over trace-free
    symmetric D (c_x = alpha1 + gamma2^2/gamma1, c_y = alpha5 + alpha6 -
    gamma2^2/gamma1) is minimized on one of three extreme rays; the bound
    must be positive for the flow model to dissipate. On the stable branch
    c_y itself is negative, so the classical termwise Leslie conditions
    fail even though the form stays positive.
    """
    c_x = pc.alpha1 + pc.gamma2**2 / pc.gamma1
    c_y = pc.alpha5 + pc.alpha6 - pc.gamma2**2 / pc.gamma1
    return pc.alpha4 + min(0.0, 0.5 * c_y, 2.0 * (c_x + c_y) / 3.0)


# ---------------------------------------------------------------------------
# Oseen-Frank energy of a periodic director field
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


def uniaxial_field(s, n_field):
    """Q(x) = s (n n - I/3) for a director field, as qvecs (..., 5)."""
    n_field = np.asarray(n_field, dtype=float)
    nn = np.einsum("...i,...j->...ij", n_field, n_field)
    from .tensors import from_matrix
    return from_matrix(sym_traceless(s * nn))
