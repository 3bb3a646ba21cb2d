"""Geometric phases: discrete holonomy and adiabatic time evolution.

Both routes transport a dressed state around a drive loop with the
phi-periodic co-rotating lift W(theta, phi) = paths.lift, whose docstring
states the sign convention, and must agree with the closed-form phase
from the model module; neither reuses the other's arithmetic, which is
the point of having both.

Holonomy route: the loop is sampled and the phase is read off the
Bargmann product of consecutive overlaps [N. Mukunda & R. Simon, Ann.
Phys. 228, 205 (1993)], taken without lifting the state to the samples.
The levels of 2 J_z are integers, so every azimuth phase of the lift is a
power of w = e^{-i phi/2}, and over a stretch of equal steps in one theta
run the overlap of consecutive samples is a polynomial in w whose
coefficients come from one Gram of the state's level components; the
powers of w take one exponential per sample and repeated multiplication,
exact to rounding (_cycle_overlaps). A latitude loop takes two Grams per
state, for its cycle and its half-resolution cycle. States that share a
frame and a loop run as one batch whose phases equal their one-state runs
bit for bit (holonomy_phases).
The per-step arguments of the smooth lift also resolve the winding number,
which the principal value of the closed product cannot see. The plain
product estimator is second-order accurate in the step count; by default
one Richardson sweep against the half-resolution cycle removes that bias
(the raw estimator stays available for convergence studies).

Adiabatic route: the state under H(t) = W(t) H0 W(t)^dag is written
psi = W(theta, phi) e^{-i phi K} xi with the drive charge
K = J_z + (m/4) sigma_z, which commutes with H0. Then i dxi/dt = H_xi xi,
H_xi = H0 - phi'(t) B(theta) - theta'(t) J_y with B(theta) =
R_y(theta)^dag J_z R_y(theta) + (m/4) sigma_z: the moving-frame
Hamiltonian of transitionless driving [M. V. Berry, J. Phys. A 42, 365303
(2009)], integrated by the Magnus stepper comoving_evolve, shared with the
Ramsey wait. Its error is set by the drive's rates, not by the norm of H0
[Hochbruck & Lubich, SIAM J. Numer. Anal. 41, 945 (2003)], hence the step
rule magnus_step_count. The dressed states are eigenvectors of K, so
guards and phases are overlaps with xi up to the known phase e^{-i phi k}.
H_xi links no two blocks of Q = N + m [spin up] (H0, J_x and J_y conserve
it, J_z and sigma_z are diagonal), so only the blocks the start state
reaches are stepped, each on its own, and the restriction is exact rather
than an approximation.
The dynamical phase is subtracted; the family is isospectral, so the
instantaneous eigenvalue is a constant and its subtraction is exact. What
remains is the geometric phase plus a secular level-repulsion shift of
order 1/T, which the two-run extrapolation helper cancels.

Both routes report SIGN = -1 times the phase a transported state gains,
the Mukunda-Simon phase -arg of the Bargmann product: an eigenstate
carried around the loop returns as e^{-i gamma} times itself, once the
dynamic phase is removed. That is the convention of the closed forms in
the model module, which neither route reads, so a sign error in either
shows up against them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import TOL
from .errors import (
    NonAdiabatic,
    NormDrift,
    SimulationError,
    SizeLimit,
    StepLimit,
    VanishingOverlap,
    warn_at_caller,
)
from .fock import SPIN_UP, FockOperator, StateVector
from .paths import MAX_LIFTED, LoopPath, SchwingerFrame, lift, schwinger_jx

TWO_PI = 2.0 * math.pi
# Reported phase over the phase a transported state gains (module docstring)
SIGN = -1


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
    carry the sign convention SIGN.
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


def calibrate_sign_convention() -> int:
    """SIGN, the fixed sign convention of every reported phase."""
    return SIGN


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
    state transports fine. This is holonomy_phases of the one state.
    """
    return holonomy_phases([state], frame, path, refine=refine, gauge_seed=gauge_seed)[0]


def holonomy_phases(
    states,
    frame: SchwingerFrame,
    path: LoopPath,
    *,
    refine: bool = True,
    gauge_seed: int | None = None,
) -> list[PhaseReport]:
    """holonomy_phase of each of the states, which share frame and loop, in
    order and equal to its one-state call bit for bit. Shared by all states:
    the stretches of both cycles, the powers of w and the rotations. Shared
    by one state's two cycles: its level split and its level columns, which
    a latitude loop builds once (_cycle_overlaps). Raises VanishingOverlap
    at the first state whose one-state call would."""
    states = list(states)
    if any(state.basis != frame.basis for state in states):
        raise ValueError("state and frame use different bases")
    overlaps = _cycle_overlaps(frame, path)
    return [_report(overlaps(state), path, refine, gauge_seed) for state in states]


def _cycle_overlaps(frame: SchwingerFrame, path: LoopPath):
    """overlaps(state) gives cycle(stride), which yields (j, ov): the
    overlaps ov of the state on the pairs j, j + 1, ... of the cycle rows
    0, stride, 2 stride, ..., each row against the next and the last
    against row 0.

    Row k is D(w_k) R(theta_k) D(w_k)* psi, D(w) = diag(w^h) over the
    integer levels h of 2 J_z, w_k = e^{-i phi_k / 2}. With b_l = R P_l psi
    and delta = w_k' / w_k, rows k and k' overlap by the sum over levels
    l, l' of psi of w_k^(l - l') delta^(-l') b_l^H diag(delta^h) b_l'. The
    pairs of a stretch in one theta run whose phi steps agree to a few ulp
    share that Gram (delta from their mean step), so their overlaps are
    sum_e c_e w_k^e, |e| <= span, on powers of w_k built by repeated
    multiplication as far as a nonzero c_e needs: none for a dressed
    doublet on a latitude loop, whose two levels lie in two sectors. The
    closing pair takes its step modulo 2 pi, the period of the lift, so a
    latitude loop is one stretch; any other pair is a stretch of its own.
    Each cycle's stretches are found once for all states. Each state is
    split into levels once for both of its cycles, which share its columns
    b_l of the last two thetas: a latitude loop builds them once, and a
    polygon holds no column per sample. Memory is O(K span + d^2). Raises
    ValueError if a level of J_z is not a half-integer, and SizeLimit,
    before it allocates, above MAX_LIFTED samples x basis states.
    """
    samples, dim = len(path.samples), frame.basis.dim
    if samples * dim > MAX_LIFTED:
        raise SizeLimit(
            f"{samples} samples of {dim} states are {samples * dim}"
            f" amplitudes, above MAX_LIFTED = {MAX_LIFTED}"
        )
    levels = np.rint(2.0 * frame.jz_diagonal).astype(np.intp)
    if np.abs(levels - 2.0 * frame.jz_diagonal).max() > 1e-12:
        raise ValueError("J_z has a level that is not a half-integer")
    span = int(levels.max() - levels.min())
    order = np.argsort(levels, kind="stable")
    rotation = functools.lru_cache(maxsize=2)(frame.rotation_about_y)
    w = functools.cache(lambda: np.exp(-0.5j * path.samples[:-1, 1]))  # w_k, one exp each
    powers = [1.0]  # w^e in powers[e], built only as far as a coefficient needs
    tol = 8.0 * np.spacing(np.abs(path.samples[:, 1]).max())

    @functools.cache
    def stretches(stride):
        # (lo, hi, step, theta_lo, theta_hi) per stretch of pairs (row j, row j + 1 mod n)
        theta, phi = path.samples[:-1:stride].T
        n = len(theta)
        steps, flat = np.empty(n), np.empty(n, dtype=bool)
        np.subtract(phi[1:], phi[:-1], out=steps[:-1])
        steps[-1] = math.remainder(phi[0] - phi[-1], TWO_PI)
        np.equal(theta[1:], theta[:-1], out=flat[:-1])
        flat[-1] = theta[0] == theta[-1]
        # pair j opens a stretch unless pairs j - 1, j are flat, steps equal
        opens = ~(flat[1:] & flat[:-1]) | (np.abs(steps[1:] - steps[:-1]) > tol)
        bounds = [0, *(np.flatnonzero(opens) + 1).tolist(), n]
        pieces = []
        for lo, hi in zip(bounds, bounds[1:]):
            step = float(np.add.reduce(steps[lo:hi])) / (hi - lo)
            if np.abs(steps[lo:hi] - step).max() <= tol:
                pieces.append((lo, hi, step))
            else:  # steps that creep apart by less than tol a pair
                pieces += [(j, j + 1, float(steps[j])) for j in range(lo, hi)]
        ends = theta[np.array([(lo, hi % n) for lo, hi, _ in pieces])].tolist()
        return [(*piece, *end) for piece, end in zip(pieces, ends)]

    def overlaps(state):
        # the state's occupied basis states by level, where each level
        # starts, and where each level pair's Gram entry adds into c
        occupied = order[state.amplitudes[order] != 0]
        values, firsts = np.unique(levels[occupied], return_index=True)
        amplitudes = state.amplitudes[occupied]
        index = (values[:, None] - values + span).ravel()

        @functools.lru_cache(maxsize=2)  # the last two thetas, as rotation
        def columns(theta):  # b_l = R(theta) P_l psi
            return np.add.reduceat(rotation(theta)[:, occupied] * amplitudes, firsts, axis=1)

        def cycle(stride):
            for lo, hi, step, theta_lo, theta_hi in stretches(stride):
                left, right = columns(theta_lo), columns(theta_hi)
                shifted = np.exp(-0.5j * step * levels)[:, None] * right
                gram = (left.conj().T @ shifted * np.exp(0.5j * step * values)).ravel()
                # c_e in c[span + e], each summed in the order of index
                c = np.empty(2 * span + 1, dtype=complex)
                c.real = np.bincount(index, gram.real, minlength=len(c))
                c.imag = np.bincount(index, gram.imag, minlength=len(c))
                # c_0 plus c_e w^e + c_-e conj(w^e), e > 0, in numpy's own loops (a
                # BLAS product of K rows wakes a second thread), skipping zero pairs
                ov = np.full(hi - lo, c[span])
                live = (c[span + 1 :] != 0) | (c[span - 1 :: -1] != 0)
                for e in (np.flatnonzero(live) + 1).tolist():
                    while len(powers) <= e:
                        powers.append(powers[-1] * w())
                    we = powers[e][lo * stride : hi * stride : stride]
                    ov += c[span + e] * we + c[span - e] * we.conj()
                yield lo, ov

        return cycle

    return overlaps


def _report(cycle, path, refine, gauge_seed) -> PhaseReport:
    """holonomy_phase of a state, from its cycle(stride) of _cycle_overlaps."""

    def sweep(stride):  # the smallest overlap, largest |argument| and argument sum
        lowest, steepest, argsum = np.inf, 0.0, 0.0
        if gauge_seed is not None:  # row k times e^{i rho_k}
            rho = TWO_PI * np.random.default_rng(gauge_seed).random(path.segments)[::stride]
            regauge = np.exp(1j * (np.roll(rho, -1) - rho))
        for j, ov in cycle(stride):
            if gauge_seed is not None:
                ov *= regauge[j : j + len(ov)]
            args = np.angle(ov)
            lowest = np.minimum(lowest, np.abs(ov).min())
            steepest = np.maximum(steepest, np.abs(args).max())
            argsum += float(args.sum())
        return float(lowest), float(steepest), argsum

    min_overlap, max_step, argsum = sweep(1)
    if min_overlap < TOL.vanishing_overlap:  # False for a NaN state
        raise VanishingOverlap(
            f"consecutive overlap {min_overlap:.2e} below "
            f"{TOL.vanishing_overlap}; sample the path more finely"
        )
    ok = max_step < TOL.winding_step_cap and gauge_seed is None
    diagnostics = {
        "min_overlap": min_overlap,
        "max_step_arg": max_step,
        "gamma_raw_principal": principal_value(-argsum),
        "sign_convention": SIGN,
        "refined": False,
        "discretization_estimate": None,
    }

    # One Richardson sweep against the even-index subsequence, whose
    # cyclic product is gauge invariant too. A resolvable run compares the
    # smooth argument sums and reports the estimate even unrefined; an
    # unresolvable one can only compare principal values.
    argsum_used = argsum
    if path.segments % 2 == 0 and (refine or ok):
        lowest_h, steepest_h, argsum_h = sweep(2)
        smooth = steepest_h < TOL.winding_step_cap  # a NaN is usable, not smooth
        if not lowest_h < TOL.vanishing_overlap and (smooth or not ok):
            delta = argsum_h - argsum
            if not ok:
                delta = principal_value(delta)
            diagnostics["discretization_estimate"] = abs(delta) / 3.0
            if refine:
                argsum_used = argsum - delta / 3.0
                diagnostics["refined"] = True

    if ok:
        gamma_total = SIGN * -argsum_used
        gamma = principal_value(gamma_total)
        winding = round((gamma_total - gamma) / TWO_PI)
        per_revolution = gamma_total / path.revolutions
    else:
        gamma = principal_value(SIGN * -principal_value(argsum_used))
        winding = gamma_total = per_revolution = None
    return PhaseReport(
        gamma=gamma,
        winding=winding,
        gamma_total=gamma_total,
        gamma_per_revolution=per_revolution,
        method="holonomy",
        n_steps=path.n_steps,
        revolutions=path.revolutions,
        diagnostics=diagnostics,
    )


# --- adiabatic route ---

TIME_PARAMETRIZATIONS = ("uniform", "smoothstep")
# Largest peak |theta'| or |phi'| a schedule may ask for: the Magnus
# generator squares the rates, and their squares must stay finite.
MAX_RATE = 1e150


@dataclass
class DriveSchedule:
    """How a loop is traversed in time.

    smoothstep ramps the path parameter with s(u) = 3u^2 - 2u^3 so the
    drive starts and stops at rest; uniform sweeps at constant rate. A
    drive whose peak rates exceed MAX_RATE is rejected with ValueError.
    """

    path: LoopPath
    total_time: float
    time_parametrization: str = "smoothstep"

    def __post_init__(self):
        t = self.total_time
        if not 0.0 < t < math.inf:  # or NaN
            raise ValueError(f"total_time must be {'finite' if t > 0 else 'positive'}")
        if self.time_parametrization not in TIME_PARAMETRIZATIONS:
            raise ValueError(
                f"time_parametrization must be one of {TIME_PARAMETRIZATIONS}"
            )
        rate = max(self.peak_rates())
        if not rate <= MAX_RATE:  # or NaN
            raise ValueError(
                f"total_time {self.total_time:g} drives the loop at a peak rate of"
                f" {rate:.3g}, above MAX_RATE = {MAX_RATE:g}"
            )

    def path_parameter(self, t):
        """s(u) and ds/du at u = t / total_time, clamped to [0, 1]."""
        u = np.asarray(t, dtype=float) / self.total_time
        u = np.minimum(np.maximum(u, 0.0), 1.0)
        if self.time_parametrization == "smoothstep":
            return u * u * (3.0 - 2.0 * u), 6.0 * u * (1.0 - u)
        return u, np.ones_like(u)

    def drive_point(self, t):
        """(theta, phi, theta', phi') at time t, a float or an array; linear
        in the path parameter between samples, so the rates jump at bends."""
        s, ds = self.path_parameter(t)
        samples, segments = self.path.samples, self.path.segments
        x = s * segments
        i = np.minimum(x.astype(int), segments - 1)
        chord = samples[i + 1] - samples[i]
        point = samples[i] + (x - i)[..., None] * chord
        rate = chord * (ds * (segments / self.total_time))[..., None]
        # [()] turns the 0-d results of a scalar t into numpy floats
        theta, phi = point[..., 0][()], point[..., 1][()]
        return theta, phi, rate[..., 0][()], rate[..., 1][()]

    def peak_rates(self) -> tuple[float, float]:
        """Upper bounds on |theta'| and |phi'|: the largest change per
        segment times the peak ds/dt (1.5 per segment time for smoothstep)."""
        steepest = 1.5 if self.time_parametrization == "smoothstep" else 1.0
        chord = np.abs(np.diff(self.path.samples, axis=0)).max(axis=0)
        rates = chord * (steepest * self.path.segments / self.total_time)
        return float(rates[0]), float(rates[1])

    def bends(self) -> np.ndarray:
        """Indices of the samples where the path bends, so the rates jump."""
        chords = np.diff(self.path.samples, axis=0)
        return np.flatnonzero(np.abs(np.diff(chords, axis=0)).max(axis=1) > 1e-12) + 1

    def step_times(self, n_steps: int) -> np.ndarray:
        """Ends of about n_steps equal steps, with a step end wherever the
        path bends, so that no step straddles a jump of the rates."""
        y = self.bends() / self.path.segments
        if self.time_parametrization == "smoothstep":
            y = 0.5 - np.sin(np.arcsin(1.0 - 2.0 * y) / 3.0)  # inverse of s(u)
        edges = self.total_time * np.concatenate([[0.0], y, [1.0]])
        # rounded first, so that rounding in the product adds no step
        pieces = np.diff(edges) * (n_steps / self.total_time)
        pieces = np.ceil(np.round(pieces, 9)).astype(int)
        # np.linspace(lo, hi, k + 1)[1:] of every piece, rounded as it
        # rounds: i (hi - lo) / k + lo for i = 1..k, the last one set to hi.
        # Each piece covers at least one path segment, so k >= 1.
        ends = np.cumsum(pieces)
        i = np.arange(1, ends[-1] + 1) - np.repeat(ends - pieces, pieces)
        step = np.repeat(np.diff(edges) / pieces, pieces)
        times = i * step + np.repeat(edges[:-1], pieces)
        times[ends - 1] = edges[1:]
        return times


# The error of a co-moving run grows as (E dt)^2 (r dt)^2, E the largest
# |energy| of H0 and r = |theta'| + |phi'| at its peak. STEP_AREA (rad^2)
# bounds (E dt)(r dt), which holds a resonant Ramsey point near 2e-7 in
# p_down at any wait. STEP_PHASE (rad) bounds E dt, so that at long waits
# the error falls as (r / E)^2 with the non-adiabatic signal it sits on;
# on that trap it takes over just above T = 200 (370, 517 and 1,029 steps
# at T = 100, 200 and 400).
STEP_AREA = 0.01
STEP_PHASE = 0.55
# Most steps a run may take (about half a minute); more raise StepLimit.
MAX_STEPS = 1_000_000
# Magnus generators (steps x points) built together, so the most one
# _propagators call stacks: a one-point run of up to this many steps is one
# batch, and its stepping costs about 2 sqrt(steps) numpy calls
# (_step_products)
GENERATORS = 4096
# Largest Q block whose Taylor products run elementwise along the step axis
# (_propagators): over a stack of steps that beats np.matmul up to 5 states,
# and np.matmul wins from 6 up
STEP_AXIS_STATES = 5


def magnus_step_count(
    total_time: float, energy_scale: float, drive_rate: float, segments: int
) -> int:
    """Co-moving steps for a drive of total_time: (E dt)(r dt) <= STEP_AREA
    and E dt <= STEP_PHASE for E = energy_scale and r = drive_rate, and at
    least one step per path segment. Raises StepLimit above MAX_STEPS."""
    area = total_time * math.sqrt(energy_scale * drive_rate / STEP_AREA)
    n = max(area, total_time * energy_scale / STEP_PHASE, segments)
    if not n <= MAX_STEPS:  # or NaN
        raise StepLimit(f"the drive needs {n:.3g} steps, above MAX_STEPS = {MAX_STEPS}")
    return math.ceil(n)


def comoving_step_count(h0: np.ndarray, schedule: DriveSchedule) -> int:
    """magnus_step_count of a co-moving run of H0 on the schedule: E the
    largest |energy| of H0, r the sum of the peak rates."""
    energy_scale = float(np.abs(np.linalg.eigvalsh(h0)).max())
    rate, segments = sum(schedule.peak_rates()), schedule.path.segments
    return magnus_step_count(schedule.total_time, energy_scale, rate, segments)


def drive_charge(frame: SchwingerFrame) -> np.ndarray:
    """Diagonal of K = J_z + (m/4) sigma_z on a one-doublet basis, with m
    its sector gap (model.default_basis, iontrap.ramsey_basis)."""
    basis = frame.basis
    if basis.mode_count != 2:
        raise ValueError("the co-moving frame needs a qubit and two modes")
    spin = np.array([1.0 if label[0] == SPIN_UP else -1.0 for label in basis.states])
    m = basis.sector_totals[-1] - basis.sector_totals[0]
    return frame.jz_diagonal + 0.25 * m * spin


def comoving_lift(frame: SchwingerFrame, charge, theta, phi) -> np.ndarray:
    """W(theta, phi) e^{-i phi K}, which maps co-moving to lab-frame states."""
    return lift(frame, theta, phi) * np.exp(-1j * phi * charge)


def comoving_evolve(h0: np.ndarray, frame: SchwingerFrame, schedules, xi):
    """Propagate the co-moving states xi (P, d) of P points, each under the
    H_xi(t) of its own drive schedule, over their common total_time.

    Each step is one 4th-order Magnus step [Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470, 151 (2009)]: Omega = -i dt/2 (H1 + H2) - (sqrt(3)/12)
    dt^2 [H2, H1] from H_xi at the two Gauss-Legendre nodes, applied as
    exp(Omega) from its degree-19 Taylor polynomial (_propagators), whose
    truncation after scaling to a 1-norm of at most 1 is under 5e-19, so the
    step is unitary to rounding. Steps follow comoving_step_count and
    step_times of the first schedule, taken once; every other schedule
    must agree with it in total time, parametrization, segments, peak
    rates and bends, which fix the step grid (ValueError otherwise). The
    states reachable from the support of xi through the nonzero entries of
    H0, J_x and J_y fall into connected blocks of that pattern, the Q
    blocks; H_xi has no element between two blocks, so each is stepped on
    its own and the other states hold exact zeros at every step. A block
    of one state needs no polynomial: its steps are phases. A batch holds
    up to 64 points and GENERATORS // points steps, so one _propagators
    call per block covers a whole batch and never stacks more than
    GENERATORS generators, however many points the run has.
    Yields the step ends (k,) and the states after them (k, P, d) per batch.
    Raises SimulationError unless [K, H0] = 0.
    """
    charge = drive_charge(frame)
    commutator = np.subtract.outer(charge, charge) * h0
    if np.abs(commutator).max() > 1e-12 * max(1.0, np.abs(h0).max()):
        raise SimulationError("H0 does not commute with the drive charge K")

    def grid(s):
        rates, bends = s.peak_rates(), s.bends().tolist()
        return s.total_time, s.time_parametrization, s.path.segments, rates, bends

    if len(schedules) > 1:
        first = grid(schedules[0])
        if any(grid(s) != first for s in schedules[1:]):
            raise ValueError("the schedules of one run must share their step times")
    times = schedules[0].step_times(comoving_step_count(h0, schedules[0]))
    # H_xi = sum_a c_a M_a: c = (1, -phi' cos theta, phi' sin theta, -phi',
    # -theta') on M = (H0, J_z, J_x, K - J_z, J_y), so [H1, H2] is the sum
    # over a < b of (c1_a c2_b - c1_b c2_a) [M_a, M_b]
    jz, spin_term = np.diag(frame.jz_diagonal), np.diag(charge - frame.jz_diagonal)
    mats = np.stack([h0, jz, schwinger_jx(frame).matrix, spin_term, frame.j_y.matrix])
    a, b = np.triu_indices(len(mats), 1)
    link = (mats != 0).any(axis=0)
    blocks, todo = [], (xi != 0).any(axis=0)
    while todo.any():
        keep, grown = np.zeros_like(todo), np.arange(len(todo)) == np.argmax(todo)
        while (grown != keep).any():
            keep, grown = grown, grown | link[:, grown].any(axis=1)
        todo &= ~keep
        m = mats[:, keep][:, :, keep]
        terms = np.concatenate([m, m[a] @ m[b] - m[b] @ m[a]])
        blocks.append((keep, len(m[0]), terms.reshape(len(terms), -1)))
    # each point costs a drive_point call per batch, so at most 64 points
    # share one: more would make the batches of a large sweep shorter
    points = min(len(xi), math.isqrt(GENERATORS))
    steps = GENERATORS // points
    for lo in range(0, len(times), steps):
        t = times[lo : lo + steps]
        dt = np.diff(t, prepend=times[lo - 1] if lo else 0.0)
        node = math.sqrt(3.0) / 6.0 * dt  # Gauss-Legendre nodes at mid -+ node
        nodes = np.concatenate([t - 0.5 * dt - node, t - 0.5 * dt + node])
        dt, node = dt[:, None, None], node[:, None, None]
        states = np.zeros((len(t), *xi.shape), dtype=complex)
        for p in range(0, len(xi), points):
            drive = np.array([s.drive_point(nodes) for s in schedules[p : p + points]])
            theta, _, dtheta, dphi = drive.transpose(1, 2, 0)
            c = [np.ones_like(theta), -dphi * np.cos(theta), dphi * np.sin(theta)]
            c1, c2 = np.split(np.stack([*c, -dphi, -dtheta], axis=-1), 2)
            cross = c1[..., a] * c2[..., b] - c1[..., b] * c2[..., a]
            coeffs = 0.5 * dt * np.concatenate([c1 + c2, 1j * node * cross], axis=-1)
            for keep, n, terms in blocks:
                # one product, not k, laid out step-axis last as _propagators
                # multiplies small blocks; gen is its (k, P, n, n) view
                gen = terms.T @ coeffs.reshape(-1, len(terms)).T
                gen = gen.T.reshape(*coeffs.shape[:2], n, n)
                chunk = xi[p : p + points, keep]
                states[:, p : p + points, keep] = _step_products(gen, chunk)
        xi = states[-1]
        yield t, states


def _step_products(gen: np.ndarray, x: np.ndarray) -> np.ndarray:
    """States (k, p, n) after each of the steps exp(-i gen[j]), applied in
    turn to the states x (p, n), for Hermitian generators gen (k, p, n, n).

    The propagators are chained in blocks of about sqrt(k) steps, the last
    padded with identities: the products inside every block are batched
    matmuls across the blocks, the state is carried from one block start
    to the next, and every state is then one product. That is about
    2 sqrt(k) numpy calls instead of k.
    """
    if gen.shape[-1] == 1:  # the steps are phases, multiplied in the same order
        phases = np.exp(-1j * gen[..., 0].real)
        return np.cumprod(np.concatenate([x[None], phases]), axis=0)[1:]
    k, shape = len(gen), gen.shape[1:]
    size = math.isqrt(k - 1) + 1  # ceil(sqrt(k)) steps per block
    blocks = -(-k // size)
    props = np.empty((blocks * size, *shape), dtype=complex)
    props[k:] = np.eye(shape[-1])
    props[:k] = _propagators(gen)
    props = props.reshape(blocks, size, *shape)
    within = np.empty_like(props)  # within[i, j]: steps j, ..., 0 of block i
    within[:, 0] = props[:, 0]
    for j in range(1, size):
        np.matmul(props[:, j], within[:, j - 1], out=within[:, j])
    starts = np.empty((blocks, *shape[:-1], 1), dtype=complex)
    starts[0] = x[..., None]
    for i in range(1, blocks):
        np.matmul(within[i - 1, -1], starts[i - 1], out=starts[i])
    states = within @ starts[:, None]
    return states.reshape(blocks * size, *shape[:-1])[:k]


def _propagators(gen: np.ndarray) -> np.ndarray:
    """exp(-i gen) for a stack gen (..., n, n) of Hermitian generators.

    The stack is scaled by 2^-s so that its largest 1-norm is at most 1,
    each exponential is taken from its degree-19 Taylor polynomial, whose
    truncation is then under 5e-19, and squared back s times. The
    polynomial is evaluated in Paterson-Stockmeyer form [Paterson &
    Stockmeyer, SIAM J. Comput. 2, 60 (1973); Bader, Blanes & Casas,
    Mathematics 7, 1174 (2019)]: the powers 2, 3 and 4, then Horner in the
    fourth power over five chunks of degree 3, seven products in all. The
    squarings carry X = exp - I, as (I + X)^2 = I + 2 X + X^2, so the
    rounding of entries near 1 is not doubled s times. For
    n <= STEP_AXIS_STATES a product is n elementwise multiply-adds of
    (n, n, steps) arrays, which beats one LAPACK or BLAS call per tiny
    matrix; larger blocks use np.matmul. The result may be a strided view.
    """
    shape, n = gen.shape, gen.shape[-1]
    along = n <= STEP_AXIS_STATES
    g = np.moveaxis(gen.reshape(-1, n, n), 0, -1) if along else gen.reshape(-1, n, n)
    # taylor[c, r] = 1 / j! is the coefficient of A^j, A = -i G, j = 4 c + r;
    # real, so a chunk is one real product. Chunk 0 leaves out the I of
    # exp(A), added at the end
    taylor = np.array([1.0 / math.factorial(j) for j in range(20)]).reshape(5, 4)
    # column sums over the row axis; frexp leaves s = 0 for 0, inf and NaN
    s = max(0, math.frexp(float(np.abs(g).sum(axis=0 if along else 1).max()))[1])
    powers = np.empty((3, *g.shape), dtype=complex)
    np.multiply(g, -1j * 2.0**-s, out=powers[0])  # exact: A, scaled
    tmp = np.empty_like(powers[0])

    def diagonal(a):  # a writable view of the diagonal of every matrix
        return a.reshape(n * n, -1)[:: n + 1] if along else a.reshape(-1, n * n)[:, :: n + 1]

    def product(x, y, out, add=False):  # out = x y, or out += x y
        if not along:
            if add:
                out += np.matmul(x, y, out=tmp)
            else:
                np.matmul(x, y, out=out)
            return out
        for j in range(n):
            np.multiply(x[:, j, None], y[j], out=tmp if add or j else out)
            if add or j:
                out += tmp
        return out

    def chunk(c, out):  # sum over r of taylor[c, r] A^r
        np.matmul(taylor[c, 1:], powers.view(float).reshape(3, -1), out=out.view(float).ravel())
        if c:
            diagonal(out)[...] += taylor[c, 0]
        return out

    product(powers[0], powers[0], powers[1])
    product(powers[1], powers[0], powers[2])
    fourth = product(powers[1], powers[1], np.empty_like(tmp))
    u, spare = chunk(4, np.empty_like(tmp)), np.empty_like(tmp)
    for c in (3, 2, 1, 0):
        u, spare = product(fourth, u, chunk(c, spare), add=True), u
    for _ in range(s):
        np.multiply(u, 2.0, out=spare)
        u, spare = product(u, u, spare, add=True), u
    diagonal(u)[...] += 1.0
    return (np.moveaxis(u, -1, 0) if along else u).reshape(shape)


def guarded_evolve(h0, frame, schedules, xi, followed):
    """comoving_evolve with the leak guard of both time routes.

    The rows of followed are orthonormal eigenvectors of K, so their span
    holds the same population in both frames. After every step the rest
    must stay within TOL.leak_threshold at every point, or NonAdiabatic is
    raised. Yields, per batch of k steps, the step ends (k,), the states
    (k, P, d), their overlaps with the rows (k, P, rows) and the leak (k, P).
    """
    threshold = TOL.leak_threshold
    rows = followed.conj().T
    for t, states in comoving_evolve(h0, frame, schedules, xi):
        if states.shape[1] > 1:
            # one gemm of all k P rows, not one small gemm per step; row for
            # row it rounds as they do. A lone state keeps its per-step dot,
            # which one gemv over the k steps would round differently.
            ov = (states.reshape(-1, states.shape[-1]) @ rows).reshape(*states.shape[:-1], -1)
        else:
            ov = states @ rows
        norm_sq = np.einsum("kpi,kpi->kp", states.conj(), states).real
        leak = 1.0 - (np.abs(ov) ** 2).sum(axis=2) / norm_sq
        if leak.max() > threshold:
            k, p = np.unravel_index(np.argmax(leak > threshold), leak.shape)
            raise NonAdiabatic(
                f"leak {leak[k, p]:.3e} exceeded {threshold:.1e} at t = {t[k]:.3f}"
            )
        yield t, states, ov, leak


def _warn_if_short(hamiltonian: FockOperator, total_time: float):
    energies = np.linalg.eigvalsh(hamiltonian.matrix)
    scale = float(np.abs(energies).max()) if len(energies) else 0.0
    if scale > 0.0 and total_time * scale < 10.0:
        warn_at_caller("drive time is under ten coupling periods; expect large leak")


def adiabatic_evolution(
    hamiltonian: FockOperator,
    frame: SchwingerFrame,
    schedule: DriveSchedule,
    initial: StateVector,
) -> tuple[StateVector, PhaseReport]:
    """Integrate the driven Schroedinger equation and extract the phase.

    ``initial`` is an eigenstate of the undriven Hamiltonian, hence of the
    drive charge K. Evolution runs in the co-moving frame (guarded_evolve);
    the state is lifted into the lab frame at the end. The report carries
    the geometric phase after the dynamic phase energy * total_time is
    subtracted (exact, as the family is isospectral), with the sign
    convention SIGN of the holonomy route, plus leak, drift and
    step diagnostics. Warns, at the caller's line, when the drive time is
    under ten coupling periods.

    Raises NonAdiabatic as soon as the leak out of the followed eigenstate
    exceeds TOL.leak_threshold, and NormDrift if the state norm moved by more
    than the budget over the run.
    """
    _warn_if_short(hamiltonian, schedule.total_time)
    return _adiabatic_run(hamiltonian, frame, schedule, initial)


def _adiabatic_run(hamiltonian, frame, schedule, initial):
    """adiabatic_evolution without the short-drive warning."""
    if hamiltonian.basis != frame.basis or initial.basis != frame.basis:
        raise ValueError("hamiltonian, frame and state must share a basis")
    h0 = hamiltonian.matrix
    base = initial.amplitudes.copy()
    t_total = schedule.total_time

    charge = drive_charge(frame)
    norm_sq = np.vdot(base, base).real
    k_branch = float(np.vdot(base, charge * base).real / norm_sq)
    if np.abs((charge - k_branch) * base).max() > 1e-12:
        raise ValueError("the initial state is not an eigenvector of K")
    energy_branch = float(np.real(np.vdot(base, h0 @ base)))
    _, phi0, *_ = schedule.drive_point(0.0)
    theta, phi, *_ = schedule.drive_point(t_total)
    # <W chi|psi> = e^{-i phi k} <chi|xi>: follow the argument of <chi|xi>
    # without the dynamic phase, and put both known phases back at the end
    xi = np.exp(1j * phi0 * k_branch) * base
    ov_prev = np.vdot(base, xi)
    arg_total = max_leak = 0.0
    n_steps = 0
    runs = guarded_evolve(h0, frame, [schedule], xi[None], base[None])
    for t, states, ov, leak in runs:
        ov = ov[:, 0, 0] * np.exp(1j * energy_branch * t)
        arg_total += float(np.angle(ov / np.append(ov_prev, ov[:-1])).sum())
        max_leak = max(max_leak, float(leak.max()))
        ov_prev, xi = ov[-1], states[-1, 0]
        n_steps += len(t)
    arg_total -= energy_branch * t_total + k_branch * (phi - phi0)

    drift = abs(math.sqrt(float(np.real(np.vdot(xi, xi)))) - 1.0)
    if drift > TOL.norm_drift:
        raise NormDrift(f"norm drifted by {drift:.2e} over the run")

    dyn_subtracted = energy_branch * t_total
    raw_geometric = arg_total + dyn_subtracted

    gamma_total = SIGN * raw_geometric
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
            "dt": t_total / n_steps,
            "propagator": "magnus4-comoving",
            "dynamic_phase_subtracted": dyn_subtracted,
            "energy_branch": energy_branch,
            "sign_convention": SIGN,
        },
    )
    psi = comoving_lift(frame, charge, theta, phi) @ xi
    return StateVector(frame.basis, psi), report


def extrapolated_adiabatic_phase(
    hamiltonian: FockOperator,
    frame: SchwingerFrame,
    schedule: DriveSchedule,
    initial: StateVector,
) -> PhaseReport:
    """Cancel the secular 1/T phase shift with two runs at T and T/2.

    The single-run extraction carries a level-repulsion shift proportional
    to 1/T even deep in the adiabatic regime; combining the two run
    lengths as 2 gamma_T - gamma_{T/2} removes it. The leak guard applies
    to the shorter (leakier) run as well, and the short-drive warning of
    adiabatic_evolution comes at most once, for the shorter run.
    """
    short_schedule = replace(schedule, total_time=schedule.total_time / 2)
    _warn_if_short(hamiltonian, short_schedule.total_time)
    _, full = _adiabatic_run(hamiltonian, frame, schedule, initial)
    _, short = _adiabatic_run(hamiltonian, frame, short_schedule, initial)
    gamma_total = 2 * full.gamma_total - short.gamma_total
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
            "extrapolation_ratio": 2,
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
