"""Centralized numerical tolerances and solver knobs.

Every threshold that a contract or cross-check depends on lives here, so
tests and the CLI pull from one place instead of scattering magic numbers.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # linear-algebra hygiene
    hermiticity: float = 1e-12
    unitarity: float = 1e-11
    eigvec_residual: float = 1e-10
    psd_floor: float = -1e-10

    # geometry
    loop_closure: float = 1e-9
    degenerate_edge: float = 1e-12

    # phase estimation
    holonomy_vs_analytic: float = 1e-6
    gauge_invariance: float = 1e-10
    branch_equality: float = 1e-8
    vanishing_overlap: float = 1e-6
    winding_step_cap: float = 1.5  # max |per-step arg| (rad) for a resolvable winding

    # time evolution
    norm_drift: float = 1e-9
    leak_threshold: float = 1e-2

    # adiabaticity budget verdicts
    budget_pass: float = 0.05
    budget_fail: float = 0.5

    # cross-checks
    adiabatic_vs_holonomy: float = 1e-2
    ramsey_phase: float = 1e-2


TOL = Tolerances()
