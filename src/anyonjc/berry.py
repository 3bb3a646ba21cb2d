"""Geometric phases: discrete holonomy and adiabatic time evolution.

Both routes transport a dressed state around a drive loop with the
phi-periodic co-rotating lift W(theta, phi) = paths.lift, whose docstring
states the sign convention, and must agree with the closed-form phase
from the model module; neither reuses the other's arithmetic, which is
the point of having both.

Holonomy route: the loop is sampled, the state is lifted at every sample,
and the phase is read off the Bargmann product of consecutive overlaps.
The per-step arguments of the smooth lift also resolve the winding number,
which the principal value of the closed product cannot see. The plain
product estimator is second-order accurate in the step count; by default
one Richardson sweep against the half-resolution cycle removes that bias
(the raw estimator stays available for convergence studies).

Adiabatic route: the state is integrated under H(t) = W(t) H0 W(t)^dag
by the unitary 4th-order Magnus stepper magnus4_evolve, shared with the
Ramsey wait (equal steps, |E| dt <= STEP_PHASE, at least one per path
segment); the dynamical phase is subtracted, and the leftover argument
against the instantaneously rotated eigenstate is accumulated. The family
is isospectral, so the instantaneous eigenvalue is a constant and its
subtraction is exact; what remains after it is the geometric phase plus a
secular level-repulsion shift of order 1/T, which the two-run
extrapolation helper cancels.

The overall sign linking raw products to the reported phase is never
assumed: it is fixed once per process by a calibration loop at known
parameters and applied uniformly to every report.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .config import TOL
from .errors import (
    BasisMismatch,
    CalibrationAmbiguous,
    NonAdiabatic,
    NormDrift,
    VanishingOverlap,
)
from .fock import FockOperator, StateVector
from .model import (
    ModelParams,
    analytic_berry_phase,
    analytic_eigensystem,
    default_basis,
    dressed_state_vector,
)
from .paths import (
    LoopPath,
    SchwingerFrame,
    constant_latitude_loop,
    lift,
    schwinger_frame,
)

TWO_PI = 2.0 * math.pi


def principal_value(angle: float) -> float:
    """Wrap to the principal branch (-pi, pi]."""
    w = math.remainder(angle, TWO_PI)
    if w <= -math.pi:
        w += TWO_PI
    return w


@dataclass
class PhaseReport:
    """Result of one phase estimation.

    gamma is the principal value in (-pi, pi]. When the lift is smooth
    enough to count revolutions of the accumulated argument, winding holds
    that integer and gamma_total = gamma + 2 pi winding; a gauge-scrambled
    or too-coarse run reports winding (and the totals) as None. All values
    carry the calibrated sign convention.
    """

    gamma: float
    winding: int | None
    gamma_total: float | None
    gamma_per_revolution: float | None
    method: str
    n_steps: int | None = None
    total_time: float | None = None
    revolutions: int = 1
    diagnostics: dict = field(default_factory=dict)


def transport_states(
    frame: SchwingerFrame, state: StateVector, path: LoopPath
) -> np.ndarray:
    """Lift the state to every path sample: row k is W(theta_k, phi_k) psi.

    The azimuth phases are diagonal and applied to all rows at once; the
    rows are rotated in runs of equal theta, one rotation matrix per run
    (a single one for a latitude loop).
    """
    if state.basis != frame.basis:
        raise BasisMismatch("state and frame use different bases")
    thetas, phis = path.samples.T
    phases = np.exp(-1j * np.outer(phis, frame.jz_diagonal))
    changes = np.flatnonzero(thetas[1:] != thetas[:-1]) + 1
    bounds = [0, *changes.tolist(), len(thetas)]
    runs = [
        (phases[lo:hi].conj() * state.amplitudes)
        @ frame.rotation_about_y(float(thetas[lo])).T
        for lo, hi in zip(bounds, bounds[1:])
    ]
    # a single run needs no concatenated copy, which measurably slows
    # the holonomy cycle that follows
    return phases * (runs[0] if len(runs) == 1 else np.concatenate(runs))


def _cycle_args(cycle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitudes and arguments of consecutive overlaps around a closed cycle."""
    nxt = np.roll(cycle, -1, axis=0)
    ov = np.einsum("kd,kd->k", cycle.conj(), nxt)
    return np.abs(ov), np.angle(ov)


def _raw_loop_argsum(cycle: np.ndarray):
    mags, args = _cycle_args(cycle)
    if mags.min() < TOL.vanishing_overlap:
        raise VanishingOverlap(
            f"consecutive overlap {mags.min():.2e} below "
            f"{TOL.vanishing_overlap}; sample the path more finely"
        )
    return mags, args


@lru_cache(maxsize=1)
def calibrate_sign_convention() -> int:
    """Fix the sign linking raw overlap products to reported phases.

    One latitude loop at known parameters (two-quantum model on resonance,
    theta = 0.5) is compared against the closed-form phase; the resulting
    sign (+1 or -1) is cached for the process and applied to every report,
    so the convention is calibrated once rather than assumed. Raises
    CalibrationAmbiguous if the calibration phase is too small to sign.
    """
    params = ModelParams(m=2)
    frame = schwinger_frame(default_basis(params))
    plus, _ = analytic_eigensystem(params)
    state = dressed_state_vector(plus)
    path = constant_latitude_loop(0.5, n_steps=512)
    cycle = transport_states(frame, state, path)[:-1]
    _, args = _raw_loop_argsum(cycle)
    raw = -float(args.sum())  # raw convention: minus the product argument
    target = analytic_berry_phase(params, path.omega_solid)
    if min(abs(raw), abs(target)) < TOL.calibration_floor:
        raise CalibrationAmbiguous("calibration loop produced a near-zero phase")
    return 1 if raw * target > 0 else -1


def holonomy_phase(
    state: StateVector,
    frame: SchwingerFrame,
    path: LoopPath,
    *,
    refine: bool = True,
    gauge_seed: int | None = None,
) -> PhaseReport:
    """Discrete holonomy of a transported state around a closed loop.

    The duplicate endpoint is dropped and overlaps are taken cyclically,
    so any per-sample regauging cancels exactly in the closed product;
    gauge_seed applies such a random regauging (for invariance checks),
    which necessarily leaves the winding unresolved. refine=True applies
    one Richardson sweep against the half-resolution cycle; disable it to
    observe the raw second-order convergence.

    The state should be normalized; it is transported as given. Comparing
    against closed-form phases is only meaningful for eigenstates, but any
    state transports fine.
    """
    samples = transport_states(frame, state, path)
    cycle = samples[:-1] if path.closed else samples
    if gauge_seed is not None:
        rng = np.random.default_rng(gauge_seed)
        cycle = cycle * np.exp(1j * TWO_PI * rng.random(len(cycle)))[:, None]
    mags, args = _raw_loop_argsum(cycle)
    argsum = float(args.sum())
    max_step = float(np.abs(args).max())
    sign = calibrate_sign_convention()

    resolvable = gauge_seed is None and max_step < TOL.winding_step_cap
    diagnostics = {
        "min_overlap": float(mags.min()),
        "max_step_arg": max_step,
        "gamma_raw_principal": principal_value(-argsum),
        "sign_convention": sign,
        "refined": False,
        "discretization_estimate": None,
    }

    if not resolvable:
        # The cyclic product of the even-index subsequence is gauge
        # invariant too, so Richardson still applies to the principal
        # value; only the per-step quality guard is unavailable here.
        argsum_used = argsum
        if refine and len(cycle) % 2 == 0:
            try:
                _, args_h = _raw_loop_argsum(cycle[::2])
            except VanishingOverlap:
                args_h = None
            if args_h is not None:
                delta = principal_value(float(args_h.sum()) - argsum)
                diagnostics["discretization_estimate"] = abs(delta) / 3.0
                diagnostics["refined"] = True
                argsum_used = argsum - delta / 3.0
        gamma = principal_value(sign * -principal_value(argsum_used))
        return PhaseReport(
            gamma=gamma,
            winding=None,
            gamma_total=None,
            gamma_per_revolution=None,
            method="holonomy",
            n_steps=path.n_steps,
            revolutions=path.revolutions,
            diagnostics=diagnostics,
        )

    argsum_used = argsum
    if len(cycle) % 2 == 0:
        half = cycle[::2]
        try:
            mags_h, args_h = _raw_loop_argsum(half)
        except VanishingOverlap:
            mags_h = args_h = None
        if args_h is not None and np.abs(args_h).max() < TOL.winding_step_cap:
            correction = (argsum - float(args_h.sum())) / 3.0
            diagnostics["discretization_estimate"] = abs(correction)
            if refine:
                argsum_used = argsum + correction
                diagnostics["refined"] = True

    gamma_total = sign * -argsum_used
    gamma = principal_value(gamma_total)
    winding = round((gamma_total - gamma) / TWO_PI)
    return PhaseReport(
        gamma=gamma,
        winding=winding,
        gamma_total=gamma_total,
        gamma_per_revolution=gamma_total / path.revolutions,
        method="holonomy",
        n_steps=path.n_steps,
        revolutions=path.revolutions,
        diagnostics=diagnostics,
    )


# --- adiabatic route ---

TIME_PARAMETRIZATIONS = ("uniform", "smoothstep")
DYNAMIC_PHASE_MODES = (
    "subtract-instantaneous-eigenvalue",
    "subtract-energy-expectation",
    "spin-echo-none",
)


@dataclass
class DriveSchedule:
    """How a loop is traversed in time.

    smoothstep ramps the path parameter with s(u) = 3u^2 - 2u^3 so the
    drive starts and stops at rest; uniform sweeps at constant rate. The
    dynamic phase is removed according to dynamic_phase_mode: the constant
    instantaneous eigenvalue (default, exact for this isospectral family),
    the running energy expectation, or not at all.
    """

    path: LoopPath
    total_time: float
    time_parametrization: str = "smoothstep"
    dynamic_phase_mode: str = "subtract-instantaneous-eigenvalue"

    def __post_init__(self):
        if self.total_time <= 0:
            raise ValueError("total_time must be positive")
        if self.time_parametrization not in TIME_PARAMETRIZATIONS:
            raise ValueError(
                f"time_parametrization must be one of {TIME_PARAMETRIZATIONS}"
            )
        if self.dynamic_phase_mode not in DYNAMIC_PHASE_MODES:
            raise ValueError(f"dynamic_phase_mode must be one of {DYNAMIC_PHASE_MODES}")

    def path_parameter(self, t: float) -> float:
        u = min(max(t / self.total_time, 0.0), 1.0)
        if self.time_parametrization == "smoothstep":
            return u * u * (3.0 - 2.0 * u)
        return u

    def rate_factor(self) -> float:
        """Peak ds/du of the parametrization (1.5 for smoothstep)."""
        return 1.5 if self.time_parametrization == "smoothstep" else 1.0

    def drive_point(self, t: float) -> tuple[float, float]:
        """Drive point (theta, phi) at time t, linear between path samples."""
        samples = self.path.samples
        u = self.path_parameter(t) * (len(samples) - 1)
        i = min(int(u), len(samples) - 2)
        th, ph = samples[i] + (u - i) * (samples[i + 1] - samples[i])
        return th, ph


# Largest phase |E| dt (rad) one Magnus step may take. The step error
# depends only on how fast H(t) changes; at 0.17 rad a T = 200 Ramsey point
# agrees with a fine RK4 reference to about 3e-7 in p_down.
STEP_PHASE = 0.17


def magnus_step_count(total_time: float, energy_scale: float, segments: int) -> int:
    """Steps for a drive of total_time: |E| dt <= STEP_PHASE for the largest
    |E| = energy_scale, and at least one step per path segment."""
    return max(math.ceil(total_time * energy_scale / STEP_PHASE), segments)


def magnus4_evolve(
    h0: np.ndarray,
    frame: SchwingerFrame,
    schedule: DriveSchedule,
    psi: np.ndarray,
    n_steps: int,
):
    """Propagate psi under H(t) = W(t) h0 W(t)^dag over the schedule's
    total_time, with W(t) = lift(frame, *schedule.drive_point(t)).

    Each of the n_steps equal steps is one 4th-order Magnus step [Blanes,
    Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)]: H is sampled at the two
    Gauss-Legendre nodes, Omega = -i dt/2 (H1 + H2) - (sqrt(3)/12) dt^2
    [H2, H1], and exp(Omega) is applied through the eigensystem of the
    Hermitian i Omega, so the step is unitary to rounding. Yields
    (t, W(t), psi(t)) after every step, so callers can test their guards
    at every step.
    """
    dt = schedule.total_time / n_steps
    node = math.sqrt(3.0) / 6.0 * dt  # Gauss-Legendre nodes at mid -+ node
    comm = 0.5 * node * dt

    def h_at(t: float) -> np.ndarray:
        w = lift(frame, *schedule.drive_point(t))
        return w @ h0 @ w.conj().T

    for k in range(n_steps):
        t = k * dt
        h1 = h_at(t + 0.5 * dt - node)
        h2 = h_at(t + 0.5 * dt + node)
        gen = (0.5 * dt) * (h1 + h2) + (1j * comm) * (h1 @ h2 - h2 @ h1)
        vals, vecs = np.linalg.eigh(gen)
        psi = vecs @ (np.exp(-1j * vals) * (vecs.conj().T @ psi))
        t_end = (k + 1) * dt
        yield t_end, lift(frame, *schedule.drive_point(t_end)), psi


def adiabatic_evolution(
    hamiltonian: FockOperator,
    frame: SchwingerFrame,
    schedule: DriveSchedule,
    initial: StateVector,
    *,
    leak_threshold: float = TOL.leak_threshold,
) -> tuple[StateVector, PhaseReport]:
    """Integrate the driven Schroedinger equation and extract the phase.

    ``initial`` is an eigenstate of the undriven Hamiltonian; it is lifted
    to the path start internally. Evolution runs under
    H(t) = W(t) H0 W(t)^dag by magnus4_evolve in equal steps, |E| dt <=
    STEP_PHASE for the largest |E| of H0, at least one per path segment.
    The report carries the geometric phase after dynamic-phase removal
    (see DriveSchedule; an energy expectation is integrated by the
    trapezoid rule over the step ends), with the same calibrated sign
    convention as the holonomy route, plus leak, drift and step
    diagnostics.

    Raises NonAdiabatic as soon as the leak out of the followed eigenstate
    exceeds leak_threshold, and NormDrift if the state norm moved by more
    than the budget over the run.
    """
    if hamiltonian.basis != frame.basis or initial.basis != frame.basis:
        raise BasisMismatch("hamiltonian, frame and state must share a basis")
    h0 = hamiltonian.matrix
    base = initial.amplitudes.copy()
    t_total = schedule.total_time

    energies = np.linalg.eigvalsh(h0)
    scale = float(np.abs(energies).max()) if len(energies) else 0.0
    if scale > 0.0 and t_total * scale < 10.0:
        warnings.warn(
            "drive time is under ten coupling periods; expect large leak",
            stacklevel=2,
        )
    n_steps = magnus_step_count(t_total, scale, schedule.path.segments)
    dt = t_total / n_steps

    energy_branch = float(np.real(np.vdot(base, h0 @ base)))
    w = lift(frame, *schedule.drive_point(0.0))
    psi = w @ base

    def energy(w: np.ndarray, psi: np.ndarray) -> float:
        rotated = w.conj().T @ psi
        return float(np.real(np.vdot(rotated, h0 @ rotated) / np.vdot(psi, psi)))

    arg_total = 0.0
    arg_prev = 0.0
    dyn_integral = 0.0
    max_leak = 0.0
    track_expectation = schedule.dynamic_phase_mode == "subtract-energy-expectation"
    e_prev = energy(w, psi) if track_expectation else 0.0

    for t, w, psi in magnus4_evolve(h0, frame, schedule, psi, n_steps):
        if track_expectation:
            e_now = energy(w, psi)
            dyn_integral += 0.5 * dt * (e_prev + e_now)
            e_prev = e_now
        ov = np.vdot(w @ base, psi)
        norm_sq = float(np.real(np.vdot(psi, psi)))
        leak = 1.0 - (abs(ov) ** 2) / norm_sq
        if leak > max_leak:
            max_leak = leak
        if leak > leak_threshold:
            raise NonAdiabatic(
                f"leak {leak:.3e} exceeded {leak_threshold:.1e} at t = {t:.3f}"
            )
        arg_now = math.atan2(ov.imag, ov.real)
        arg_total += math.remainder(arg_now - arg_prev, TWO_PI)
        arg_prev = arg_now

    drift = abs(math.sqrt(float(np.real(np.vdot(psi, psi)))) - 1.0)
    if drift > TOL.norm_drift:
        raise NormDrift(f"norm drifted by {drift:.2e} over the run")

    if schedule.dynamic_phase_mode == "subtract-instantaneous-eigenvalue":
        dyn_subtracted = energy_branch * t_total
    elif schedule.dynamic_phase_mode == "subtract-energy-expectation":
        dyn_subtracted = dyn_integral
    else:
        dyn_subtracted = 0.0
    raw_geometric = arg_total + dyn_subtracted

    sign = calibrate_sign_convention()
    gamma_total = sign * raw_geometric
    gamma = principal_value(gamma_total)
    report = PhaseReport(
        gamma=gamma,
        winding=round((gamma_total - gamma) / TWO_PI),
        gamma_total=gamma_total,
        gamma_per_revolution=gamma_total / schedule.path.revolutions,
        method="adiabatic",
        n_steps=n_steps,
        total_time=t_total,
        revolutions=schedule.path.revolutions,
        diagnostics={
            "max_nonadiabatic_leak": max_leak,
            "norm_drift": drift,
            "n_steps": n_steps,
            "dt": dt,
            "max_step_phase": scale * dt,
            "propagator": "magnus4",
            "dynamic_phase_mode": schedule.dynamic_phase_mode,
            "dynamic_phase_subtracted": dyn_subtracted,
            "energy_branch": energy_branch,
            "sign_convention": sign,
        },
    )
    return StateVector(frame.basis, psi), report


def extrapolated_adiabatic_phase(
    hamiltonian: FockOperator,
    frame: SchwingerFrame,
    schedule: DriveSchedule,
    initial: StateVector,
    *,
    ratio: int = 2,
    leak_threshold: float = TOL.leak_threshold,
) -> PhaseReport:
    """Cancel the secular 1/T phase shift with two runs at T and T/ratio.

    The single-run extraction carries a level-repulsion shift proportional
    to 1/T even deep in the adiabatic regime; combining two run lengths as
    (ratio * gamma_T - gamma_short) / (ratio - 1) removes it. Leak
    thresholds apply to the shorter (leakier) run as well.
    """
    if ratio < 2:
        raise ValueError("ratio must be at least 2")
    _, full = adiabatic_evolution(
        hamiltonian, frame, schedule, initial, leak_threshold=leak_threshold
    )
    short_schedule = replace(schedule, total_time=schedule.total_time / ratio)
    _, short = adiabatic_evolution(
        hamiltonian, frame, short_schedule, initial, leak_threshold=leak_threshold
    )
    gamma_total = (ratio * full.gamma_total - short.gamma_total) / (ratio - 1)
    gamma = principal_value(gamma_total)
    diagnostics = dict(full.diagnostics)
    diagnostics.update(
        {
            "max_nonadiabatic_leak": max(
                full.diagnostics["max_nonadiabatic_leak"],
                short.diagnostics["max_nonadiabatic_leak"],
            ),
            "gamma_total_full": full.gamma_total,
            "gamma_total_short": short.gamma_total,
            "extrapolation_ratio": ratio,
        }
    )
    return PhaseReport(
        gamma=gamma,
        winding=round((gamma_total - gamma) / TWO_PI),
        gamma_total=gamma_total,
        gamma_per_revolution=gamma_total / schedule.path.revolutions,
        method="adiabatic-extrapolated",
        n_steps=full.n_steps,
        total_time=schedule.total_time,
        revolutions=schedule.path.revolutions,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class BudgetEntry:
    name: str
    ratio: float
    verdict: str


def _verdict(ratio: float) -> str:
    if ratio < TOL.budget_pass:
        return "pass"
    if ratio > TOL.budget_fail:
        return "fail"
    return "warn"


def adiabaticity_budget(
    params: ModelParams, schedule: DriveSchedule
) -> list[BudgetEntry]:
    """Dimensionless slowness ratios for a planned drive.

    Compares the peak polar and azimuthal sweep rates against the coupling
    and the detuning against the trap frequency. Below 0.05 is a pass,
    above 0.5 a fail, in between a warning. The detuning entry is skipped
    when no trap frequency is configured.
    """
    samples = schedule.path.samples
    seg_time = schedule.total_time / (len(samples) - 1)
    dth = np.abs(np.diff(samples[:, 0])).max(initial=0.0)
    dph = np.abs(np.diff(samples[:, 1])).max(initial=0.0)
    peak = schedule.rate_factor() / seg_time
    scale = params.lambda_m if params.lambda_m > 0 else 2.0 * params.big_lambda
    theta_ratio = dth * peak / scale
    phi_ratio = dph * peak / scale
    entries = [
        BudgetEntry("theta_rate_over_coupling", theta_ratio, _verdict(theta_ratio)),
        BudgetEntry("phi_rate_over_coupling", phi_ratio, _verdict(phi_ratio)),
    ]
    if params.nu > 0:
        ratio = abs(params.delta_m) / params.nu
        entries.append(BudgetEntry("detuning_over_trap", ratio, _verdict(ratio)))
    else:
        entries.append(BudgetEntry("detuning_over_trap", 0.0, "skipped"))
    return entries
