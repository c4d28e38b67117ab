"""Q-tensor nematic liquid crystal dynamics with the Bingham moment closure.

Subpackages by topic: tensors (symmetric traceless algebra), sphere
(quadrature and Bingham moments), closure (moment-map inversion),
equilibrium (critical points and material constants), linear_ops
(operators linearized at the uniaxial equilibrium), dynamics (homogeneous
and 2D-periodic field integration with the energy ledger), leslie
(director reference dynamics and the small-Deborah experiment), cli.
"""

from .tensors import (
    biaxiality, eig_sym3, from_matrix, qdot, qnorm,
    sym_traceless, to_matrix, uniaxial,
)
from .sphere import (
    BinghamMoments, SphereQuadrature, a_integrals,
    bingham_moments, build_quadrature, log_partition,
)
from .closure import (
    BatchClosureResult, PhysicalityError, apply_mq, bingham_map_batch,
    closure_jacobian, spread_bound,
)
from .equilibrium import (
    BranchNotPresentError, PhaseConstants, crit_residual, critical_alpha,
    order_parameters, oseen_frank_energy, phase_constants, solve_eta,
)
from .linear_ops import (
    DirectorContext, apply_hn, apply_j, apply_qn, apply_qn_inverse,
    coercivity_constant, equilibrium_m4, in_space_basis, out_space_basis,
    project_in, project_out, relaxation_rates,
)
from .spectral import Grid2D, elastic_symbols
from .dynamics import (
    DivergenceError, EnergyReport, FieldSolver, FieldState, HomState,
    ModelParams, default_hom_dt, distortion_stress, elastic_energy,
    elastic_operator, energy_report, homogeneous_rhs, mu_field, shear_kappa,
    smooth_random_state, step_homogeneous,
)
from .leslie import (
    ConvergenceTable, DirectorState, LeslieAlignment, angle_between,
    director_rhs, extract_director, leslie_angle, small_de_experiment,
    step_director,
)

__version__ = "0.1.0"
