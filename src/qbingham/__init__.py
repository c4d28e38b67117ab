"""Q-tensor nematic liquid crystal dynamics with the Bingham moment closure.

Subpackages by topic: tensors (symmetric traceless algebra), sphere
(quadrature and Bingham moments), closure (moment-map inversion and the
eigenframe closure operator), equilibrium (critical points, material
constants and the closed-form bulk relaxation rates at the uniaxial
equilibrium), dynamics (homogeneous and 2D-periodic field integration with
the energy ledger), leslie (director reference dynamics and the
small-Deborah experiment), cli.
"""

from .tensors import (
    biaxiality, eig_sym3, from_matrix, qdot, qnorm, to_matrix, uniaxial,
)
from .sphere import (
    SphereQuadrature, a_integrals, bingham_moments, build_quadrature,
)
from .closure import (
    BatchClosureResult, PhysicalityError, bingham_map_batch, spread_bound,
)
from .equilibrium import (
    BranchNotPresentError, PhaseConstants, crit_residual, critical_alpha,
    order_parameters, phase_constants, solve_eta,
)
from .spectral import Grid2D, elastic_symbols
from .dynamics import (
    DivergenceError, EnergyReport, FieldSolver, FieldState, HomState,
    ModelParams, default_hom_dt, distortion_stress, elastic_energy,
    elastic_operator, energy_report, homogeneous_rhs, mu_field, shear_kappa,
    smooth_random_state, step_homogeneous,
)
from .leslie import (
    angle_between, director_rhs, extract_director, leslie_angle,
    small_de_experiment, step_director,
)

__version__ = "0.1.0"
