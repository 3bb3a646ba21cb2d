"""Self-contained invariant suite, runnable as `anyonjc selftest`.

Each check rebuilds its own objects, measures a defect against the
documented threshold, and reports one PASS/FAIL line. The process exits 0
only when every check passes. The same invariants are covered (more
granularly) by the pytest suite; this runner exists so an installed
package can vouch for itself without a test harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .berry import DriveSchedule, adiabatic_evolution, holonomy_phase
from .config import TOL
from .fock import (
    SPIN_DOWN,
    SPIN_UP,
    BasisSpec,
    DensityMatrix,
    linear_entropy,
    partial_trace,
)
from .iontrap import (
    PULSE_MODES,
    TrapParams,
    carrier_pulse_operator,
    g_for_unit_coupling,
    pulse_beta,
    ramsey_basis,
    sideband_hamiltonian,
)
from .model import (
    ModelParams,
    analytic_berry_phase,
    analytic_eigensystem,
    build_interaction_hamiltonian,
    default_basis,
    dressed_state_vector,
)
from .paths import (
    constant_latitude_loop,
    lift,
    polygon_solid_angle,
    schwinger_frame,
    schwinger_jx,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, defect: float, threshold: float, note: str = "") -> CheckResult:
    passed = defect <= threshold
    detail = f"defect {defect:.2e} vs {threshold:.0e}"
    if note:
        detail += f" ({note})"
    return CheckResult(name, passed, detail)


def check_ramsey_operators() -> list[CheckResult]:
    """The operators a Ramsey run builds, at the criterion-6 trap."""
    trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
    basis = ramsey_basis(trap.m)
    flip = basis.index((SPIN_UP, 0, 0)), basis.index((SPIN_DOWN, 0, 0))
    worst_u = worst_beta = 0.0
    for mode in PULSE_MODES:
        u = carrier_pulse_operator(trap, basis, mode).matrix
        worst_u = max(worst_u, float(np.abs(u.conj().T @ u - np.eye(basis.dim)).max()))
        beta = 2.0 * math.asin(min(1.0, abs(u[flip])))
        worst_beta = max(worst_beta, abs(beta - pulse_beta(trap, mode)))
    h = sideband_hamiltonian(trap, basis).matrix
    j_y = schwinger_frame(basis).j_y
    jy_herm = float(np.abs(j_y.matrix - j_y.matrix.conj().T).max())
    return [
        _result("carrier pulses unitary", worst_u, TOL.unitarity),
        _result("carrier pulse vacuum angle is pulse_beta", worst_beta, 1e-12),
        _result(
            "sideband Hamiltonian Hermitian",
            float(np.abs(h - h.conj().T).max()),
            TOL.hermiticity,
        ),
        _result(
            "J_y Hermitian, drops no weight",
            max(jy_herm, j_y.dropped_weight),
            TOL.hermiticity,
        ),
    ]


def check_partial_trace() -> list[CheckResult]:
    rng = np.random.default_rng(7)
    basis = default_basis(ModelParams(m=2))
    dim = basis.dim
    worst_trace = worst_herm = worst_eig = worst_entropy = 0.0
    for _ in range(1000):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho_full = a @ a.conj().T
        rho_full /= np.trace(rho_full).real
        reduced = partial_trace(DensityMatrix(basis, rho_full))
        mat = reduced.matrix
        worst_trace = max(worst_trace, abs(float(np.trace(mat).real) - 1.0))
        worst_herm = max(worst_herm, float(np.abs(mat - mat.conj().T).max()))
        worst_eig = max(worst_eig, max(0.0, -float(np.linalg.eigvalsh(mat).min())))
        s = linear_entropy(reduced)
        excess = max(-s, s - (1.0 - 1.0 / reduced.basis.dim))
        worst_entropy = max(worst_entropy, excess)
    return [
        _result("partial trace preserves trace (1000 random)", worst_trace, 1e-12),
        _result("partial trace stays Hermitian", worst_herm, TOL.hermiticity),
        _result("partial trace stays PSD", worst_eig, -TOL.psd_floor),
        _result("linear entropy within [0, 1 - 1/d]", worst_entropy, 1e-12),
    ]


def check_dressed_eigensystem() -> list[CheckResult]:
    worst_res = worst_orth = worst_norm = 0.0
    for m in (1, 2, 3):
        for n in (0, 1, 2):
            for n_prime in (0, 1, 2):
                for delta in (0.0, 0.5, -0.5, 2.0, -2.0, 10.0, -10.0):
                    p = ModelParams(m=m, delta_m=delta, n=n, n_prime=n_prime)
                    h = build_interaction_hamiltonian(p)
                    plus, minus = analytic_eigensystem(p)
                    for ds in (plus, minus):
                        v = dressed_state_vector(ds)
                        res = h.matrix @ v.amplitudes - ds.energy * v.amplitudes
                        worst_res = max(worst_res, float(np.abs(res).max()))
                        worst_norm = max(worst_norm, abs(v.norm - 1.0))
                    vp = dressed_state_vector(plus)
                    vm = dressed_state_vector(minus)
                    worst_orth = max(worst_orth, abs(vp.overlap(vm)))
    return [
        _result("dressed states solve H v = E v", worst_res, TOL.eigvec_residual),
        _result("dressed branches orthonormal", max(worst_orth, worst_norm), 1e-12),
    ]


def check_su2_algebra() -> CheckResult:
    worst = 0.0
    for basis in (
        BasisSpec(2, (0, 2)),
        BasisSpec(2, (1, 4)),
        BasisSpec(4, ((0, 0), (2, 2))),
    ):
        frame = schwinger_frame(basis)
        jy, jz = frame.j_y.matrix, frame.j_z.matrix
        jx = schwinger_jx(frame).matrix
        worst = max(
            worst,
            float(np.abs(jz @ jx - jx @ jz - 1j * jy).max()),
            float(np.abs(jx @ jy - jy @ jx - 1j * jz).max()),
        )
    return _result("Schwinger su(2) commutators", worst, TOL.hermiticity)


def check_rotation_unitarity() -> list[CheckResult]:
    rng = np.random.default_rng(23)
    frame = schwinger_frame(default_basis(ModelParams(m=3)))
    dim = frame.basis.dim
    worst_u = 0.0
    for _ in range(100):
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        u = lift(frame, theta, phi)
        worst_u = max(worst_u, float(np.abs(u.conj().T @ u - np.eye(dim)).max()))
    w1 = lift(frame, 0.8, 0.3)
    w2 = lift(frame, 0.8, 0.3 + 2.0 * math.pi)
    periodic_defect = float(np.abs(w1 - w2).max())
    return [
        _result("drive rotations unitary (100 random)", worst_u, TOL.unitarity),
        _result("co-rotating lift 2 pi periodic", periodic_defect, 1e-12),
    ]


def check_transport_and_gauge() -> list[CheckResult]:
    params = ModelParams(m=2)
    frame = schwinger_frame(default_basis(params))
    plus, _ = analytic_eigensystem(params)
    state = dressed_state_vector(plus)
    path = constant_latitude_loop(0.9, n_steps=512)
    samples = [lift(frame, theta, phi) @ state.amplitudes for theta, phi in path.samples]
    norm_defect = float(np.abs(np.linalg.norm(samples, axis=1) - 1.0).max())
    reference = holonomy_phase(state, frame, path).gamma
    worst_gauge = 0.0
    for seed in (1, 2, 3):
        scrambled = holonomy_phase(state, frame, path, gauge_seed=seed)
        worst_gauge = max(worst_gauge, abs(scrambled.gamma - reference))
    return [
        _result("transport preserves norm", norm_defect, TOL.unitarity),
        _result("holonomy gauge invariance (3 seeds)", worst_gauge, TOL.gauge_invariance),
    ]


def check_branch_equality() -> CheckResult:
    params = ModelParams(m=2)
    frame = schwinger_frame(default_basis(params))
    plus, minus = analytic_eigensystem(params)
    path = constant_latitude_loop(0.9, n_steps=1024)
    gp = holonomy_phase(dressed_state_vector(plus), frame, path).gamma_total
    gm = holonomy_phase(dressed_state_vector(minus), frame, path).gamma_total
    return _result(
        "branch phase equality on resonance", abs(gp - gm), TOL.branch_equality
    )


def check_holonomy_vs_analytic() -> CheckResult:
    worst = 0.0
    for m, theta in ((1, 0.7), (2, 1.2), (3, 2.0)):
        params = ModelParams(m=m, delta_m=0.4)
        frame = schwinger_frame(default_basis(params))
        plus, _ = analytic_eigensystem(params)
        revs = 2 if m % 2 else 1
        path = constant_latitude_loop(theta, n_steps=1024, revolutions=revs)
        report = holonomy_phase(dressed_state_vector(plus), frame, path)
        target = analytic_berry_phase(params, path.omega_solid)
        worst = max(worst, abs(report.gamma_per_revolution - target))
    return _result("holonomy matches closed form", worst, TOL.holonomy_vs_analytic)


def check_adiabatic_run() -> list[CheckResult]:
    params = ModelParams(m=2)
    frame = schwinger_frame(default_basis(params))
    h0 = build_interaction_hamiltonian(params)
    plus, _ = analytic_eigensystem(params)
    schedule = DriveSchedule(constant_latitude_loop(0.7, 96), total_time=60.0)
    _, report = adiabatic_evolution(h0, frame, schedule, dressed_state_vector(plus))
    gamma = report.gamma_per_revolution
    target = analytic_berry_phase(params, schedule.path.omega_solid)
    near, far = abs(gamma - target), abs(gamma + target)
    return [
        _result(
            "adiabatic norm drift", report.diagnostics["norm_drift"], TOL.norm_drift
        ),
        _result(
            "adiabatic leak small at T = 60",
            report.diagnostics["max_nonadiabatic_leak"],
            TOL.leak_threshold,
        ),
        CheckResult(
            "adiabatic phase has the closed form's sign",
            near < far,
            f"|gamma - closed form| {near:.2e} vs |gamma + closed form| {far:.2e}",
        ),
    ]


def check_solid_angles() -> CheckResult:
    octant = [(math.pi / 2, 0.0), (math.pi / 2, math.pi / 2), (0.0, 0.0)]
    defect = abs(polygon_solid_angle(np.array(octant)) - math.pi / 2)
    reversed_defect = abs(
        polygon_solid_angle(np.array(octant[::-1])) - (4.0 * math.pi - math.pi / 2)
    )
    theta = 0.9
    ring = constant_latitude_loop(theta, n_steps=4096).samples
    ring_defect = abs(
        polygon_solid_angle(ring) - 2.0 * math.pi * (1.0 - math.cos(theta))
    )
    return _result(
        "polygon solid angles",
        max(defect, reversed_defect, ring_defect),
        1e-6,
        "octant, reversed octant, dense ring",
    )


def run_all() -> list[CheckResult]:
    """Run every check and print one PASS/FAIL line each, then the tally."""
    results: list[CheckResult] = []
    results.extend(check_ramsey_operators())
    results.extend(check_partial_trace())
    results.extend(check_dressed_eigensystem())
    results.append(check_su2_algebra())
    results.extend(check_rotation_unitarity())
    results.extend(check_transport_and_gauge())
    results.append(check_branch_equality())
    results.append(check_holonomy_vs_analytic())
    results.extend(check_adiabatic_run())
    results.append(check_solid_angles())
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return results


def main() -> int:
    results = run_all()
    return 0 if all(r.passed for r in results) else 2
