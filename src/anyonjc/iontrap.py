"""Trapped-ion realization: Lamb-Dicke couplings and a Ramsey read-out.

A laser driving the m-th red motional sideband of a trapped ion realizes
the m-quantum exchange model with an occupation-dependent coupling. The
exact sideband coupling, to all orders in the Lamb-Dicke parameter eta, is
diagonal in the motional number:

    f_m(n) = (g / 2) e^{-eta^2/2}
             sum_l (-1)^l eta^{2l+m} n! / (l! (l+m)! (n-l)!),

the series terminating at l = n. The i^m phase of the displacement
expansion is absorbed into the mode definition so f_m is real; the
vacuum coupling f_m(0) reproduces the model coupling magnitude
|lambda_m| = (g / 2 m!) eta^m e^{-eta^2/2} exactly, and the interaction is
taken in the normal-ordered form sigma_- (a^dag)^m f_m(n_a) + h.c., which
pins <down, m|H|up, 0> = |lambda_m| sqrt(m!) with no O(eta^2) correction
on the vacuum element.

The Ramsey sequence measured here is: carrier pi/2 pulse, adiabatic drive
loop over a wait time snapped to an integer number of doublet cycles
T = 2 pi j / Lambda_vac (full cycles only; odd half-cycles would flip the
interference sign), carrier pi/2 pulse, then the qubit-down population

    p_down = (1 - sin(beta) cos(gamma)) / 2,

with beta the actual pulse rotation angle ((pi/2) e^{-eta^2/2} for timed
pulses of nominal quarter-turn area, exactly pi/2 for idealized
instantaneous pulses). Both pulses use the laser phase LASER_PHASE = pi/2;
a zero-phase preparation pulse would read out the sine quadrature instead.
Each pulse is the closed form cos(a_n) I - i sin(a_n) sigma_phi, with
sigma_phi = e^{i phi} sigma_+ + e^{-i phi} sigma_- and a_n = pi f_0(n) / (2g)
on motional occupation n (timed) or pi / 4 (instantaneous), so beta = 2 a_0.

The wait runs in the co-moving drive frame psi = W e^{-i phi K} xi of the
berry module, K = J_z + (m/4) sigma_z, which commutes with the sideband
Hamiltonian too: i dxi/dt = (H0 - phi' B(theta) - theta' J_y) xi, the
moving-frame Hamiltonian of transitionless driving [M. V. Berry, J. Phys.
A 42, 365303 (2009)]. The dressed states and the spectator are
eigenvectors of K, so the guards are overlaps with xi. H_xi conserves
Q = N + m [spin up], so the pulsed vacuum reaches two blocks only: the
spectator (Q = 0, one state) and the doublet's block (Q = m, 4 states for
m = 2). The stepper steps each on its own, the doublet's through a 4x4
Taylor exponential per step, evaluated over the whole stack of steps at
once, and the spectator's as a phase, and the rest stay exactly empty.
Steps follow the drive's rates, (E dt)(r dt) <= berry.STEP_AREA and
E dt <= berry.STEP_PHASE up to berry.MAX_STEPS, as the Magnus error there
depends on the drive's derivatives [Hochbruck & Lubich, SIAM J. Numer.
Anal. 41, 945 (2003)]. The points of a sweep share H0, the snapped wait
and the drive's rates, so one step grid: ramsey_sweep steps them as one
batch, and a single measurement is its one-point case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .berry import (
    MAX_STEPS,
    DriveSchedule,
    comoving_lift,
    comoving_step_count,
    drive_charge,
    guarded_evolve,
)
from .config import TOL
from .errors import (
    NonAdiabatic,
    NormDrift,
    SizeLimit,
    StepLimit,
    TruncationWarning,
    warn_at_caller,
)
from .fock import (
    SPIN_DOWN,
    SPIN_UP,
    BasisSpec,
    FockOperator,
    StateVector,
    hopping_operator,
)
from .model import (
    ModelParams,
    analytic_berry_phase,
    analytic_eigensystem,
    dressed_state_vector,
    exchange_hamiltonian,
    falling_product,
)
from .paths import constant_latitude_loop, schwinger_frame, theta_for_solid_angle

TWO_PI = 2.0 * math.pi

PULSE_MODES = ("timed", "instantaneous")
LASER_PHASE = math.pi / 2.0  # of both Ramsey pulses


@dataclass(frozen=True)
class TrapParams:
    """Laser and trap configuration for one ion.

    g is the bare carrier Rabi frequency, eta the Lamb-Dicke parameter,
    nu the trap frequency, m the driven sideband order (0 = carrier) and
    delta_m the residual detuning from that sideband.
    """

    g: float
    eta: float
    nu: float = 0.0
    m: int = 1
    delta_m: float = 0.0

    def __post_init__(self):
        # every comparison is False for NaN, so each check rejects it
        if not self.g > 0:
            raise ValueError("g must be positive")
        if not self.g < math.inf:
            raise ValueError("g must be finite")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if not self.nu >= 0.0:
            raise ValueError("trap frequency nu must be non-negative")
        if not isinstance(self.m, int) or self.m < 0:
            raise ValueError("sideband order m must be a non-negative integer")
        if not abs(self.delta_m) < math.inf:
            raise ValueError("detuning delta_m must be finite")


def lamb_dicke_lambda(trap: TrapParams) -> complex:
    """Effective m-quantum coupling (g / 2 m!) (i eta)^m e^{-eta^2/2},
    including the i^m phase that the series functions absorb."""
    return (
        (trap.g / (2.0 * falling_product(0, trap.m)))
        * (1j * trap.eta) ** trap.m
        * math.exp(-0.5 * trap.eta**2)
    )


def g_for_unit_coupling(eta: float, m: int) -> float:
    """Carrier Rabi frequency that makes |lambda_m| = 1."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if m < 0:
        raise ValueError("sideband order m must be a non-negative integer")
    power = eta**m
    g = 2.0 * falling_product(0, m) * math.exp(0.5 * eta**2) / power if power else math.inf
    if g == math.inf:
        raise ValueError(f"eta^m = {power:.3g} leaves no finite g (eta = {eta}, m = {m})")
    return g


def effective_model(trap: TrapParams) -> ModelParams:
    """Exchange-model parameters realized by the trap's sideband drive, on
    the vacuum doublet."""
    if trap.m < 1:
        raise ValueError("the carrier (m = 0) has no exchange-model reading")
    return ModelParams(m=trap.m, lambda_m=abs(lamb_dicke_lambda(trap)), delta_m=trap.delta_m)


def coupling_strength(trap: TrapParams, n: int, order: int | None = None) -> float:
    """f_order(n), the exact sideband coupling at motional occupation n.

    order defaults to the trap's sideband; the series terminates at l = n.
    Raises SizeLimit when one of its factorials is beyond the float range.
    """
    m = trap.m if order is None else order
    total = 0.0
    try:
        for l in range(n + 1):
            total += (
                (-1.0) ** l
                * trap.eta ** (2 * l + m)
                * math.factorial(n)
                / (math.factorial(l) * math.factorial(l + m) * math.factorial(n - l))
            )
    except OverflowError:
        raise SizeLimit(f"f_{m}({n}) takes factorials beyond the float range") from None
    return 0.5 * trap.g * math.exp(-0.5 * trap.eta**2) * total


def _warn_if_marginal(trap: TrapParams, basis: BasisSpec):
    n_max = max(label[1] for label in basis.states)
    if trap.eta**2 * (n_max + 1) > 0.1:
        warn_at_caller(
            f"eta^2 (n_max + 1) = {trap.eta ** 2 * (n_max + 1):.3f} > 0.1; "
            "the Lamb-Dicke series is only marginally converged on this basis",
            TruncationWarning,
        )


def sideband_hamiltonian(trap: TrapParams, basis: BasisSpec) -> FockOperator:
    """(delta_m / 2) sigma_z + sigma_- (a^dag)^m f_m(n_a) + h.c., the exact
    occupation-dependent counterpart of the exchange model. Warns once
    built, so a basis it cannot build raises without a warning."""
    if trap.m < 1:
        raise ValueError("sideband order must be at least 1; see carrier_pulse_operator")
    m, half_delta = trap.m, 0.5 * trap.delta_m
    hamiltonian = exchange_hamiltonian(
        basis,
        m,
        lambda n: coupling_strength(trap, n) * math.sqrt(falling_product(n, m)),
        lambda label: half_delta if label[0] == SPIN_UP else -half_delta,
    )
    _warn_if_marginal(trap, basis)
    return hamiltonian


def pulse_beta(trap: TrapParams, pulse_mode: str) -> float:
    """Actual two-level rotation angle of one nominal pi/2 carrier pulse
    applied to the motional vacuum."""
    if pulse_mode not in PULSE_MODES:
        raise ValueError(f"pulse_mode must be one of {PULSE_MODES}")
    if pulse_mode == "instantaneous":
        return 0.5 * math.pi
    return 0.5 * math.pi * math.exp(-0.5 * trap.eta**2)


def carrier_pulse_operator(
    trap: TrapParams, basis: BasisSpec, pulse_mode: str = "timed"
) -> FockOperator:
    """One nominal pi/2 pulse at LASER_PHASE: cos(a_n) I - i sin(a_n) sigma_phi
    on motional occupation n, sigma_phi = e^{i phi} sigma_+ + e^{-i phi} sigma_-.

    timed: a time pi / (2 g) under the carrier Hamiltonian f_0(n_a) sigma_phi; as
    sigma_phi^2 = I and sigma_phi keeps n_a, a_n = pi f_0(n) / (2 g), a
    Debye-Waller reduced rotation. instantaneous: the idealized exact pi/2
    rotation, a_n = pi / 4 on every occupation.
    """
    if pulse_mode not in PULSE_MODES:
        raise ValueError(f"pulse_mode must be one of {PULSE_MODES}")

    def flip(label):  # sigma_+ takes down to up
        if label[0] == SPIN_DOWN:
            return [((SPIN_UP,) + label[1:], np.exp(1j * LASER_PHASE))]
        return [((SPIN_DOWN,) + label[1:], np.exp(-1j * LASER_PHASE))]

    sigma_phi = hopping_operator(basis, flip).matrix
    if pulse_mode == "timed":
        f0 = [coupling_strength(trap, label[1], order=0) for label in basis.states]
        angle = (0.5 * math.pi / trap.g) * np.array(f0)
    else:
        angle = np.full(basis.dim, 0.25 * math.pi)
    mat = np.diag(np.cos(angle)) - 1j * np.sin(angle)[:, None] * sigma_phi
    return FockOperator(basis, mat)


def predicted_p_down(trap: TrapParams, gamma: float, pulse_mode: str = "timed") -> float:
    """Ideal interferometer output for a geometric phase gamma."""
    return 0.5 * (1.0 - math.sin(pulse_beta(trap, pulse_mode)) * math.cos(gamma))


def ramsey_basis(m: int) -> BasisSpec:
    """Sectors {0, m}: everything the protocol populates."""
    return BasisSpec(2, (0, m))


def vacuum_splitting(trap: TrapParams) -> float:
    """Half-splitting of the empty doublet, sqrt(delta^2/4 + lambda^2 m!);
    inf where delta^2 overflows."""
    lam = abs(lamb_dicke_lambda(trap))
    try:  # **, not delta * delta: pow and the product round some squares apart
        square = trap.delta_m**2
    except OverflowError:  # |delta| above about 1.3e154
        square = math.inf
    return math.sqrt(0.25 * square + lam * lam * falling_product(0, trap.m))


def snap_to_cycles(trap: TrapParams, total_time: float) -> tuple[float, int, float]:
    """Nearest wait time that is an integer number of full doublet cycles.

    Returns (snapped_time, j, residual). Full cycles only: odd numbers of
    half-cycles flip the sign of the interference term. Raises ValueError
    when no finite cycle or no finite snapped time exists.
    """
    if not 0.0 < total_time < math.inf:  # or NaN
        raise ValueError(f"total_time must be {'finite' if total_time > 0 else 'positive'}")
    splitting = vacuum_splitting(trap)
    cycle = TWO_PI / splitting if splitting > 0.0 else math.inf
    if not 0.0 < cycle < math.inf:
        raise ValueError(f"a vacuum splitting of {splitting:.3g} has no finite cycle")
    ratio = total_time / cycle
    if ratio < math.inf:  # round(inf) would raise OverflowError
        j = max(1, round(ratio))
        snapped = j * cycle
        if snapped < math.inf:
            return snapped, j, abs(snapped - total_time)
    raise ValueError(
        f"total_time {total_time:g} spans no finite number of doublet cycles of {cycle:.3g}"
    )


def ramsey_schedule(
    trap: TrapParams, omega_solid: float, total_time: float, n_steps: int
) -> DriveSchedule:
    """Drive of one Ramsey wait: a latitude loop enclosing omega_solid,
    n_steps samples per revolution, with the smoothstep ramp over the wait
    total_time snapped to whole doublet cycles (snap_to_cycles), so the
    schedule is the drive that runs."""
    path = constant_latitude_loop(theta_for_solid_angle(omega_solid), n_steps)
    return DriveSchedule(path, snap_to_cycles(trap, total_time)[0])


def _run_waits(
    trap: TrapParams, pulse_mode: str, omegas: list, schedules: list, h0: np.ndarray
) -> list[dict]:
    """Simulate the pulse-loop-pulse sequence at each solid angle, driven by
    its schedule (all on one step grid), with sideband Hamiltonian h0, as
    one batch of berry.guarded_evolve; one ramsey_sweep row per point."""
    model = effective_model(trap)
    basis = ramsey_basis(trap.m)
    frame = schwinger_frame(basis)
    charge = drive_charge(frame)

    # followed subspace: the two dressed states and the |down, 0, 0>
    # spectator arm, which the first pulse starts from; all three are
    # eigenvectors of K, so no lift is needed to follow them
    spectator = StateVector.basis_state(basis, (SPIN_DOWN, 0, 0)).amplitudes
    pulse = carrier_pulse_operator(trap, basis, pulse_mode).matrix
    dressed = (dressed_state_vector(d, basis) for d in analytic_eigensystem(model))
    followed = np.stack([*(d.amplitudes for d in dressed), spectator])

    def lift(schedule: DriveSchedule, t: float) -> np.ndarray:
        theta, phi, *_ = schedule.drive_point(t)
        return comoving_lift(frame, charge, theta, phi)

    xi = np.stack([lift(s, 0.0).conj().T @ (pulse @ spectator) for s in schedules])
    p_plus_start = np.abs(xi @ followed[0].conj()) ** 2
    max_leak, n_steps = np.zeros(len(schedules)), 0
    for t, states, _, leak in guarded_evolve(h0, frame, schedules, xi, followed):
        max_leak = np.maximum(max_leak, leak.max(axis=0))
        xi = states[-1]
        n_steps += len(t)

    norm_sq = np.einsum("pi,pi->p", xi.conj(), xi).real
    drift = np.abs(np.sqrt(norm_sq) - 1.0)
    if drift.max() > TOL.norm_drift:
        raise NormDrift(f"norm drifted by {drift.max():.2e} during the wait evolution")

    # The sector leak above cannot see diabatic mixing between the two
    # dressed branches (both lie inside the followed subspace), so check
    # the net branch transfer over the whole wait separately.
    p_plus_end = np.abs(xi @ followed[0].conj()) ** 2 / norm_sq
    branch_transfer = np.abs(p_plus_end - p_plus_start)
    if branch_transfer.max() > TOL.leak_threshold:
        raise NonAdiabatic(
            f"branch population moved by {branch_transfer.max():.3e} over the wait"
            f" (threshold {TOL.leak_threshold:.1e}); drive too fast"
        )

    down = np.array([label[0] == SPIN_DOWN for label in basis.states])
    contrast = math.sin(pulse_beta(trap, pulse_mode))
    rows = []
    for p, (omega, schedule) in enumerate(zip(omegas, schedules)):
        psi = pulse @ lift(schedule, schedule.total_time) @ xi[p]
        p_down = float(np.sum(np.abs(psi[down]) ** 2))
        cos_gamma = (1.0 - 2.0 * p_down) / contrast
        rows.append(
            {
                "m": trap.m,
                "eta": trap.eta,
                "g": trap.g,
                "delta_m": trap.delta_m,
                "omega_solid": omega,
                "total_time": schedule.total_time,
                "p_down": p_down,
                "gamma_inferred": math.acos(min(1.0, max(-1.0, cos_gamma))),
                "gamma_analytic": analytic_berry_phase(model, omega),
                "leak": float(max_leak[p]),
                "n_steps": n_steps,
                "norm_drift": float(drift[p]),
                "branch_transfer": float(branch_transfer[p]),
            }
        )
    return rows


def ramsey_sweep(
    trap: TrapParams,
    omega_values,
    total_time: float,
    *,
    pulse_mode: str = "timed",
    n_steps: int = 256,
) -> list[dict]:
    """Run the Ramsey sequence over a solid-angle grid; one row each, in
    grid order.

    Each wait is driven by ramsey_schedule(trap, omega, total_time,
    n_steps), which closes the loop at the end of the wait snapped to whole
    doublet cycles. It runs in the co-moving frame of the drive, with
    leakage out of the doublet-plus-spectator subspace tested after every
    step, and the state is lifted into the lab frame only before the
    second pulse. The points share H0, the snapped wait and the drive's
    rates, which on a latitude loop do not depend on the solid angle,
    hence one step grid: their waits run as one co-moving batch. Raises
    StepLimit when the points times the steps of one wait exceed
    MAX_STEPS: before any loop is built if the points times n_steps, the
    fewest steps a wait takes, already do, and otherwise before any loop
    but the first.

    A row holds the trap, omega_solid, the snapped total_time, p_down,
    gamma_inferred = arccos((1 - 2 p_down) / sin beta) in [0, pi] (the
    cosine read-out cannot see the phase sign), gamma_analytic, the
    largest leak, the run's n_steps, norm_drift and branch_transfer.
    """
    omegas = list(omega_values)
    if not omegas:
        return []
    if len(omegas) * n_steps > MAX_STEPS:  # a wait takes a step per segment at least
        raise StepLimit(
            f"{len(omegas)} points of at least {n_steps} steps each are above"
            f" MAX_STEPS = {MAX_STEPS}"
        )
    h0 = sideband_hamiltonian(trap, ramsey_basis(trap.m)).matrix
    first = ramsey_schedule(trap, omegas[0], total_time, n_steps)
    steps = comoving_step_count(h0, first)
    if len(omegas) * steps > MAX_STEPS:
        raise StepLimit(
            f"{len(omegas)} points of {steps} steps each are above"
            f" MAX_STEPS = {MAX_STEPS}"
        )
    schedules = [first] + [
        ramsey_schedule(trap, omega, total_time, n_steps) for omega in omegas[1:]
    ]
    return _run_waits(trap, pulse_mode, omegas, schedules, h0)


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


def adiabaticity_budget(trap: TrapParams, schedule: DriveSchedule) -> list[BudgetEntry]:
    """Dimensionless slowness ratios for a planned drive.

    Compares the peak polar and azimuthal sweep rates against the vacuum
    coupling |lambda_m| (the doublet splitting when that underflows to 0)
    and the detuning against the trap frequency. Below 0.05 is a pass,
    above 0.5 a fail, in between a warning. The detuning entry is skipped
    when no trap frequency is configured.
    """
    scale = abs(lamb_dicke_lambda(trap)) or 2.0 * vacuum_splitting(trap)
    entries = [
        BudgetEntry(f"{angle}_rate_over_coupling", rate / scale, _verdict(rate / scale))
        for angle, rate in zip(("theta", "phi"), schedule.peak_rates())
    ]
    if trap.nu > 0:
        ratio = abs(trap.delta_m) / trap.nu
        entries.append(BudgetEntry("detuning_over_trap", ratio, _verdict(ratio)))
    else:
        entries.append(BudgetEntry("detuning_over_trap", 0.0, "skipped"))
    return entries
