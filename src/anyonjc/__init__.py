"""Geometric phases of multiphoton dressed states, with an ion-trap read-out.

The package simulates a two-level system coupled to a pair of bosonic modes
through an m-boson exchange term.  Eigenstate doublets of that interaction
acquire a fractional geometric phase when the coupling is steered around a
closed loop on the sphere; the phase is computed three independent ways
(closed form, discrete holonomy, time integration) plus once more through a
simulated Ramsey interferometer.
"""

from .berry import (
    DriveSchedule,
    PhaseReport,
    adiabatic_evolution,
    calibrate_sign_convention,
    extrapolated_adiabatic_phase,
    holonomy_phase,
    holonomy_phases,
    principal_value,
)
from .config import TOL, Tolerances
from .errors import SimulationError, TruncationWarning
from .fock import (
    BasisSpec,
    DensityMatrix,
    FockOperator,
    StateVector,
    hopping_operator,
    linear_entropy,
    partial_trace,
)
from .iontrap import (
    TrapParams,
    adiabaticity_budget,
    coupling_strength,
    effective_model,
    g_for_unit_coupling,
    lamb_dicke_lambda,
    predicted_p_down,
    ramsey_schedule,
    ramsey_sweep,
    sideband_hamiltonian,
    snap_to_cycles,
)
from .model import (
    DressedState,
    ModelParams,
    TwoAnyonParams,
    analytic_berry_phase,
    analytic_eigensystem,
    build_interaction_hamiltonian,
    build_two_anyon_hamiltonian,
    default_basis,
    detuning_ratio,
    dressed_state_vector,
    entropy_vs_detuning,
    statistical_factor,
    two_anyon_analytic_phase,
    two_anyon_basis,
    two_anyon_eigenstate,
)
from .paths import (
    LoopPath,
    SchwingerFrame,
    constant_latitude_loop,
    default_latitude_loop,
    latitude_solid_angle,
    lift,
    polygon_loop,
    polygon_solid_angle,
    schwinger_frame,
    sphere_point,
    theta_for_solid_angle,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSpec",
    "DensityMatrix",
    "DressedState",
    "DriveSchedule",
    "FockOperator",
    "LoopPath",
    "ModelParams",
    "PhaseReport",
    "SchwingerFrame",
    "SimulationError",
    "StateVector",
    "TOL",
    "Tolerances",
    "TrapParams",
    "TruncationWarning",
    "TwoAnyonParams",
    "adiabatic_evolution",
    "adiabaticity_budget",
    "analytic_berry_phase",
    "analytic_eigensystem",
    "build_interaction_hamiltonian",
    "build_two_anyon_hamiltonian",
    "calibrate_sign_convention",
    "constant_latitude_loop",
    "coupling_strength",
    "default_basis",
    "default_latitude_loop",
    "detuning_ratio",
    "dressed_state_vector",
    "effective_model",
    "entropy_vs_detuning",
    "extrapolated_adiabatic_phase",
    "g_for_unit_coupling",
    "holonomy_phase",
    "holonomy_phases",
    "hopping_operator",
    "lamb_dicke_lambda",
    "latitude_solid_angle",
    "lift",
    "linear_entropy",
    "partial_trace",
    "polygon_loop",
    "polygon_solid_angle",
    "predicted_p_down",
    "principal_value",
    "ramsey_schedule",
    "ramsey_sweep",
    "schwinger_frame",
    "sideband_hamiltonian",
    "snap_to_cycles",
    "sphere_point",
    "statistical_factor",
    "theta_for_solid_angle",
    "two_anyon_analytic_phase",
    "two_anyon_basis",
    "two_anyon_eigenstate",
]
