"""Coupled elasticity, phase transformation, hydrogen diffusion and heat
conduction for metal-hydride storage, discretised by a semi-implicit
staggered scheme with a built-in energy audit."""

# bound before the submodules load: the driver writes it to its manifest
__version__ = "0.1.0"

from .constitutive import (
    MaterialModel,
    desk_default_material,
    omega_of_theta,
    theta_of_w,
    chemical_potential,
    dphi1_dm,
    stress,
    sigma_a,
    s_a,
    validate_material,
)
from .errors import (
    HydrisimError,
    ConfigError,
    MaterialError,
    StepFailure,
    InvariantViolation,
)
from .grid import Mesh, build_mesh, lumped_mass, stiffness, boundary_functional
from .mech_phase import (
    MechPhaseProblem,
    MechPhaseSolution,
    StateTerms,
    phase_nodal_prox,
    solve_mech_phase_step,
    tau_max,
)
from .diffusion import DiffusionProblem, DiffusionSolution, assemble_mu, solve_chi_step
from .heat import HeatProblem, HeatSolution, dissipation_rhs, solve_w_step
from .energy_audit import (
    LedgerRow,
    apriori_monitor,
    balance_residual,
    ledger_step,
    write_energy_csv,
)
from .state import State, Trajectory
from .driver import (
    RunConfig,
    desk_default_config,
    interpolant_eval,
    refine_study,
    run,
    steps,
)

__all__ = [
    "MaterialModel", "desk_default_material", "omega_of_theta", "theta_of_w",
    "chemical_potential", "dphi1_dm", "stress", "sigma_a", "s_a",
    "validate_material",
    "HydrisimError", "ConfigError", "MaterialError", "StepFailure",
    "InvariantViolation",
    "Mesh", "build_mesh", "lumped_mass", "stiffness", "boundary_functional",
    "MechPhaseProblem", "MechPhaseSolution", "StateTerms",
    "phase_nodal_prox", "solve_mech_phase_step", "tau_max",
    "DiffusionProblem", "DiffusionSolution", "assemble_mu", "solve_chi_step",
    "HeatProblem", "HeatSolution", "dissipation_rhs", "solve_w_step",
    "LedgerRow", "apriori_monitor", "balance_residual", "ledger_step",
    "write_energy_csv",
    "State", "Trajectory",
    "RunConfig", "desk_default_config", "interpolant_eval", "refine_study",
    "run", "steps",
    "__version__",
]
