"""Critical points of the bulk energy and derived material constants.

Uniaxial critical points B = eta (nn - I/3) satisfy the self-consistency
eta = alpha S_2(eta), so the positive roots are the eta at which the map

    alpha(eta) = eta / S_2(eta)

takes the value alpha. On eta > 0 this map is unimodal: it falls from
lim_{eta->0} eta / S_2(eta) = 15/2 to the fold value alpha* at eta* and then
grows without bound (Liu, Zhang & Zhang, Comm. Math. Sci. 3, 2005). Hence
for alpha >= alpha* the stable nematic root eta_1 is the one root of
eta - alpha S_2(eta) in [eta*, alpha], a single bracket for bisection.
The model expands about Q_0 = S_2(eta_1) (nn - I/3), and all Leslie/Frank
material constants derive from eta_1; the isotropic root eta = 0 and the
unstable root in (0, eta*) are not solved for.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .sphere import a_integrals

__all__ = [
    "PhaseConstants", "crit_residual", "solve_eta", "critical_alpha",
    "order_parameters", "phase_constants", "BranchNotPresentError",
    "leslie_dissipation_bound",
]


class BranchNotPresentError(ValueError):
    """No stable nematic root at this alpha (alpha < alpha*)."""


def _bisect(f, lo, hi):
    """A root of f in [lo, hi], halving the bracket until its midpoint is
    one of its ends. f(lo) and f(hi) are evaluated first, so an error at
    either end (a_integrals' OverflowError) raises before any halving, and
    an end where f is exactly 0 is returned. Raises ValueError when f does
    not change sign over the bracket.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
        raise ValueError(f"no sign change of f over [{lo!r}, {hi!r}]")
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


def crit_residual(eta, alpha):
    """Residual of the critical-point equation, scaled to O(1).

    In the axisymmetric integrals A_k the equation eta = alpha S_2(eta)
    reads 3 e^eta / int_0^1 e^{eta x^2} dx = 3 + 2 eta + 4 eta^2 / alpha;
    this is its overflow-safe form with every term scaled by e^-eta. It is
    zero exactly when eta = alpha S_2(eta); eta = 0 is always a root. The
    solver does not use it, so it is an independent check of a root.
    """
    eta = float(eta)
    h = 0.5 * a_integrals(eta)[0] * np.exp(-eta)
    return 3.0 - (3.0 + 2.0 * eta + 4.0 * eta**2 / alpha) * h


def solve_eta(alpha):
    """The stable nematic root eta_1 of eta = alpha S_2(eta), in [eta*, alpha].

    It exists for alpha >= alpha*; below the fold (including alpha <= 0)
    BranchNotPresentError is raised. The bracket ends at eta = alpha, so
    beyond the exponent budget (alpha > 300) a_integrals' OverflowError
    propagates.
    """
    a_star, eta_star = critical_alpha()
    if alpha < a_star:
        raise BranchNotPresentError(
            f"no stable nematic root at alpha={alpha:.6g}; it needs "
            f"alpha >= alpha* = {a_star:.6f}")
    return float(_bisect(lambda e: e - alpha * order_parameters(e)[0],
                         eta_star, alpha))


@functools.cache
def critical_alpha():
    """Fold point (alpha*, eta*) where the two nematic roots coalesce.

    eta* is the minimizer of eta / S_2(eta), the root of S_2 - eta S_2' on
    [0.5, 5] with S_2' = 3 (A_0 A_4 - A_2^2) / (2 A_0^2); alpha* is
    eta* / S_2(eta*).
    """
    def slope_defect(e):
        a0, a2, a4, _ = a_integrals(e)
        return (3.0 * a2 - a0) / (2.0 * a0) - 1.5 * e * (a0 * a4 - a2 * a2) / a0**2

    eta = float(_bisect(slope_defect, 0.5, 5.0))
    return eta / order_parameters(eta)[0], eta


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
    h_par: float       # H_n on nn - I/3
    h_perp: float      # H_n on the biaxial pair
    rate_par: float    # 4 J H_n on nn - I/3 (x 1/De)
    rate_perp: float   # 4 J H_n on the biaxial pair (x 1/De)
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
    eta = solve_eta(alpha)
    a0, a2, a4, a6 = a_integrals(eta)
    s2, s4 = order_parameters(eta)

    xi1 = s4 - s2 * s2
    xi2 = 2.0 * (s2 - s4) / 7.0
    xi3 = 2.0 * (s4 / 35.0 - 2.0 * s2 / 21.0 + 1.0 / 15.0)
    psi3 = 1.0 / xi3
    psi2 = -psi3 * xi2 / (xi2 + xi3)
    psi1 = -(psi2 * (4.0 * xi1 / 3.0 + 2.0 * xi2 / 3.0) + psi3 * xi1) / (
        2.0 * xi1 / 3.0 + 4.0 * xi2 / 3.0 + xi3)

    # on the complement of the rotation plane the linearized bulk force H_n
    # and the closure operator J act as scalars: on nn - I/3 and on the
    # biaxial pair (e1 e1 - e2 e2, e1 e2 + e2 e1)
    h_par = (2.0 * psi1 + psi2) / 3.0
    h_perp = -psi2
    j_par = 0.2 + s2 / 7.0 - 12.0 * s4 / 35.0
    j_perp = 0.2 - s2 / 7.0 - 2.0 * s4 / 35.0

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
        psi1=psi1, psi2=psi2, psi3=psi3, h_par=h_par, h_perp=h_perp,
        rate_par=4.0 * j_par * h_par, rate_perp=4.0 * j_perp * h_perp,
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
